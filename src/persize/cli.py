"""Command-line pipeline: prepare -> train -> calibrate -> recommend ->
evaluate, plus cross-domain allocate.

Every stage reads its inputs from the working directory, validates its
configuration (unknown keys are rejected), writes outputs atomically, and
echoes the configuration in a header comment for provenance. The config
file is the one source of every setting; only the ``--workdir`` path and
the ``--threads`` runtime knob have flags that override it. ``calibrate``
has no configuration of its own: its Platt fits have no settings. Reruns with
identical inputs and configuration produce byte-identical files; thread
count never changes output bytes because per-user results are ordered
before writing.

``train`` writes the scores twice: ``scores.bin``, the binary store that
``calibrate``, ``recommend`` and ``evaluate`` load, and ``scores.tsv``, a
text export for people and other tools. Both are written chunk by chunk,
``scores.bin`` from the table's own arrays and ``scores.tsv`` a slice of
at most 4096 of a user's rows at a time, so neither write holds a copy of
the whole store. Later stages never read the export, so edits to it are
not seen downstream; edited scores go back in through the ``scores`` key
of ``train``.

``recommend`` gives every scored user one ``recs.tsv`` row per measure,
or one ``# skipped`` row saying why it has no list. The validation
positives, which the Platt fits were trained on, leave the whole score table
first (``ScoreTable.without``), and a user left without entries has no
candidates. ``evaluate`` scores PerK and the baselines of
``selection.default_methods(K)``, and runs no PerK of its own: it always
reads PerK's sizes from ``recs.tsv``, whose header ends in
``inputs=<hex>``, the digest of what ``recommend`` read, and rejects the
file if that digest is not its own.

Every numeric text file a stage reads (splits, scores, ``platt.tsv``,
``recs.tsv``, curve dumps) goes through ``util._read_rows``: one line rule,
one error wording.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from contextlib import suppress
from pathlib import Path

import numpy as np

from . import calibrate as cal
from . import dataset, multidomain, scorer, selection, utility
from .util import _check_number, _first_flagged, _int64, _read_rows, _repeats, atomic_write

_TOP_KEYS = {
    "data", "workdir", "seed", "K", "M", "measures", "kcore", "ratios",
    "threads", "scores", "bpr", "dump_curves", "allocate",
}
_BPR_KEYS = {"d", "epochs", "learning_rate", "weight_decay", "negatives_per_positive"}
_ALLOC_KEYS = {"budget", "domains", "measure"}
_INT_KEYS = {"K": 1, "M": 1, "seed": 0, "threads": 1, "kcore": 1}  # lower bounds

_DEFAULTS = {
    "seed": 0,
    "K": utility.DEFAULT_K,
    "M": utility.DEFAULT_M,
    "measures": [m.value for m in utility.Measure],
    "kcore": 20,
    "ratios": list(dataset.SPLIT_RATIOS),
    "threads": 1,
    "bpr": {},
    "dump_curves": False,
}

# Keys that must not influence output bytes (runtime knobs only).
_NO_ECHO = {"threads"}
# Config keys that shape the recommend stage's sizes.
_RECOMMEND_KEYS = ("K", "M", "measures")


class ConfigError(ValueError):
    pass


def _check_keys(given: dict, allowed: set, where: str) -> None:
    unknown = set(given) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} keys: {', '.join(sorted(unknown))}")


def _load_config(args) -> dict:
    cfg = dict(_DEFAULTS)
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ConfigError(f"{args.config}: expected a JSON object, got {json.dumps(loaded)}")
        _check_keys(loaded, _TOP_KEYS, "config")
        cfg.update(loaded)
    for flag in ("workdir", "threads"):
        value = getattr(args, flag, None)
        if value is not None:
            cfg[flag] = value
    for key, kind, what in (("bpr", dict, "an object"), ("allocate", dict, "an object"),
                            ("measures", list, "a list")):
        if key in cfg and not isinstance(cfg[key], kind):
            raise ConfigError(f"{key} must be {what}, got {cfg[key]!r}")
    ratios = cfg["ratios"]
    if not (isinstance(ratios, list) and len(ratios) == 3 and all(
            isinstance(r, (int, float)) and not isinstance(r, bool) for r in ratios)):
        raise ConfigError(f"ratios must be a list of three numbers, got {ratios!r}")
    _check_keys(cfg["bpr"], _BPR_KEYS, "bpr")
    alloc = cfg.get("allocate", {})
    _check_keys(alloc, _ALLOC_KEYS, "allocate")
    domains = alloc.get("domains")
    if "domains" in alloc and not (isinstance(domains, list) and domains):
        raise ConfigError(f"allocate.domains must be a non-empty list, got {domains!r}")
    paths = [(key, cfg[key]) for key in ("data", "workdir", "scores") if key in cfg]
    for i, domain in enumerate(domains or []):
        for key in ("id", "curves"):
            if not isinstance(domain, dict) or key not in domain:
                raise ConfigError(f"allocate.domains[{i}] needs '{key}'")
        if not isinstance(domain["id"], str):
            raise ConfigError(f"allocate.domains[{i}].id must be a string, got {domain['id']!r}")
        if domain["id"] in [d["id"] for d in domains[:i]]:
            raise ConfigError(f"allocate.domains[{i}] repeats id {domain['id']!r}")
        paths.append((f"allocate.domains[{i}].curves", domain["curves"]))
    for key, path in paths:
        if not (isinstance(path, str) and path):
            raise ConfigError(f"{key} must be a non-empty string, got {path!r}")
    if "workdir" not in cfg:
        raise ConfigError("a working directory is required (--workdir or config)")
    for key, low in _INT_KEYS.items():
        _check_number(key, cfg[key], low, integer=True)
    if not isinstance(cfg["dump_curves"], bool):
        raise ConfigError(f"dump_curves must be true or false, got {cfg['dump_curves']!r}")
    _check_number("allocate.budget", alloc.get("budget", 0), 0, integer=True)
    utility._check_measures(cfg["measures"])
    known = [x.value for x in utility.Measure]  # a list: a measure may be unhashable
    if alloc.get("measure", known[0]) not in known:
        raise ConfigError(f"allocate.measure must be one of {', '.join(known)}, "
                          f"got {alloc['measure']!r}")
    return cfg


def _echo(cfg: dict, stage: str) -> str:
    shown = {k: v for k, v in cfg.items() if k not in _NO_ECHO}
    return f"# persize {stage} config={json.dumps(shown, sort_keys=True)}"


def cmd_prepare(cfg: dict) -> int:
    workdir = Path(cfg["workdir"])
    if "data" not in cfg:
        raise ConfigError("prepare needs a 'data' path in the config")
    iset, id_map = dataset.load_interactions(cfg["data"])
    filtered = dataset.kcore_filter(iset, cfg["kcore"])
    if filtered.n_interactions == 0:
        raise ConfigError(f"{cfg['kcore']}-core filtering left no interactions")
    dense, kept_users, kept_items = dataset.compact(filtered)
    # load_interactions numbers ids in first-seen order, the order of its maps' keys
    user_ids, item_ids = list(id_map["users"]), list(id_map["items"])
    user_map = {user_ids[idx]: new for new, idx in enumerate(kept_users.tolist())}
    item_map = {item_ids[idx]: new for new, idx in enumerate(kept_items.tolist())}
    split_ds = dataset.split(dense, tuple(cfg["ratios"]), seed=cfg["seed"])
    dataset.save_split(
        split_ds, workdir, {"users": user_map, "items": item_map},
        header=_echo(cfg, "prepare"),
    )
    print(f"prepare: {len(dense.users)} users, {len(dense.items)} items, "
          f"{dense.n_interactions} interactions -> {workdir}")
    return 0


def cmd_train(cfg: dict) -> int:
    workdir = Path(cfg["workdir"])
    split_ds = dataset.load_split(workdir)
    if cfg.get("scores"):
        table = scorer.import_scores(
            cfg["scores"], n_users=len(split_ds.users), n_items=len(split_ds.items))
    else:
        bpr_cfg = scorer.BPRConfig(seed=cfg["seed"], **cfg["bpr"])
        try:  # a diverging loss is reported once, by train_bpr's own check
            with np.errstate(over="ignore", invalid="ignore"):
                model = scorer.train_bpr(split_ds.train, bpr_cfg)
        except RuntimeError as exc:
            raise ConfigError(str(exc)) from None
        table = scorer.build_score_table(model, split_ds.train)
    scorer.save_scores(table, workdir / "scores.bin")
    scorer.export_scores(table, workdir / "scores.tsv", header=_echo(cfg, "train"))
    print(f"train: scored {len(table)} users -> {workdir / 'scores.bin'}")
    return 0


def _read_platt(path) -> tuple[dict, cal.PlattParams]:
    """Platt rows (scope, a, b, status) -> per-user params and the global fit.

    Rows follow ``util._read_rows`` and must have exactly four columns.
    Rejects a scope that is neither ``GLOBAL`` nor an int64 user id, a
    non-finite a or b and a repeated user or global row, naming the line.
    """
    scopes, a, b, status = _read_rows(path, "sffs", "user<TAB>a<TAB>b<TAB>fit_status",
                                      _bad_platt_row, exact=True)
    is_user = scopes != cal.GLOBAL_SCOPE
    if is_user.all():
        raise ConfigError(f"{path}: missing {cal.GLOBAL_SCOPE} row")
    rows = zip(map(_int64, scopes[is_user].tolist()), a[is_user].tolist(),
               b[is_user].tolist(), status[is_user].tolist())
    g = np.flatnonzero(~is_user)[0]
    return ({u: cal.PlattParams(ua, ub, u, st) for u, ua, ub, st in rows},
            cal.PlattParams(float(a[g]), float(b[g]), cal.GLOBAL_SCOPE, str(status[g])))


def _bad_platt_row(columns):
    """The earliest rejected Platt row and why, or None."""
    scopes, a, b, _ = columns
    is_global = scopes == cal.GLOBAL_SCOPE
    users, not_int = np.zeros(len(scopes), dtype=np.int64), ~is_global
    for r in np.flatnonzero(~is_global).tolist():
        with suppress(ValueError):  # a scope _int64 refuses stays flagged
            users[r], not_int[r] = _int64(scopes[r]), False
    return _first_flagged([
        (np.flatnonzero(not_int), lambda r: (f"scope {str(scopes[r])!r} is neither "
                                             f"{cal.GLOBAL_SCOPE} nor an int64 user id")),
        (np.flatnonzero(~(np.isfinite(a) & np.isfinite(b))),
         lambda r: f"non-finite parameters a={float(a[r])!r}, b={float(b[r])!r}"),
        # rejected scopes repeat each other, but the first of them is flagged above
        (_repeats(users, is_global, not_int), lambda r: "repeated row for " + (
            cal.GLOBAL_SCOPE if is_global[r] else f"user {users[r]}")),
    ])


def cmd_calibrate(cfg: dict) -> int:
    workdir = Path(cfg["workdir"])
    split_ds = dataset.load_split(workdir)
    table = scorer.load_scores(workdir / "scores.bin")
    labels = cal.calibration_labels(split_ds, table)
    per_user, global_params = cal.fit_all_users(table, labels)

    lines = [_echo(cfg, "calibrate")]
    lines.append(f"{cal.GLOBAL_SCOPE}\t{global_params.a!r}\t{global_params.b!r}\t{global_params.fit_status}")
    for u in sorted(per_user):
        p = per_user[u]
        lines.append(f"{u}\t{p.a!r}\t{p.b!r}\t{p.fit_status}")
    atomic_write(workdir / "platt.tsv", "\n".join(lines) + "\n")

    report_user, report_global = cal.pooled_ece_reports(table, labels, per_user, global_params)
    atomic_write(workdir / "ece_user.json", json.dumps(report_user, sort_keys=True, indent=1) + "\n")
    atomic_write(workdir / "ece_global.json", json.dumps(report_global, sort_keys=True, indent=1) + "\n")
    statuses = [p.fit_status for p in per_user.values()]
    counts = ", ".join(f"{statuses.count(s)} {s}"
                       for s in (cal.FIT_CONVERGED, cal.FIT_DEGENERATE, cal.FIT_FALLBACK))
    print(f"calibrate: {len(per_user)} users ({counts}, "
          f"{len(table) - len(per_user)} skipped with no candidates), ECE (in-sample) "
          f"user-wise={report_user['ece']:.6f} global={report_global['ece']:.6f}")
    return 0


def _inputs_digest(cfg: dict, workdir: Path) -> str:
    """SHA-256 over what ``recommend`` reads: the bytes of ``scores.bin``,
    ``platt.tsv`` and the validation split, then the JSON of the config keys
    that shape its sizes."""
    digest = hashlib.sha256()
    for name in ("scores.bin", "platt.tsv", dataset.SPLIT_FILES[1]):
        digest.update(hashlib.sha256((workdir / name).read_bytes()).digest())
    digest.update(json.dumps({k: cfg[k] for k in _RECOMMEND_KEYS}, sort_keys=True).encode())
    return digest.hexdigest()


def cmd_recommend(cfg: dict) -> int:
    workdir = Path(cfg["workdir"])
    inputs = _inputs_digest(cfg, workdir)
    split_ds = dataset.load_split(workdir)
    table = scorer.load_scores(workdir / "scores.bin").without(split_ds.val.pairs)
    per_user, _ = _read_platt(workdir / "platt.tsv")
    recs = selection.recommend_users(table, per_user, cfg["measures"], K=cfg["K"], M=cfg["M"],
                                     threads=cfg["threads"])
    perk, rankings = recs.perk(), dict(zip(recs.users.tolist(), recs.rankings.tolist()))

    rec_lines = [f"{_echo(cfg, 'recommend')} inputs={inputs}"]
    n_skip = 0
    for u, n in zip(table.users(), np.diff(table.indptr).tolist()):
        if u not in perk:  # no candidate left is told before a missing Platt row
            rec_lines.append(f"# skipped user={u}: "
                             + ("no Platt parameters" if n else "no candidates"))
            n_skip += 1
            continue
        for m, (k, value) in perk[u].items():
            joined = ",".join(map(str, rankings[u][:k]))
            rec_lines.append(f"{u}\t{m.value}\t{k}\t{value!r}\t{joined}")
    atomic_write(workdir / "recs.tsv", "\n".join(rec_lines) + "\n")
    if cfg["dump_curves"]:  # each served user's curves over its sizes 1..min(K, n)
        atomic_write(workdir / "curves.tsv", "\n".join([_echo(cfg, "recommend")] + [
            f"{u}\t{m.value}\t{k}\t{v!r}" for r, u in enumerate(recs.users.tolist())
            for m, curves in recs.curves.items()
            for k, v in enumerate(curves[r, :recs.lengths[r]].tolist(), start=1)]) + "\n")
    print(f"recommend: wrote sizes for {len(table) - n_skip} users, skipped {n_skip} "
          f"-> {workdir / 'recs.tsv'}")
    return 0


def _read_recs(cfg: dict, workdir: Path) -> dict:
    """PerK's sizes from ``recs.tsv``: user -> {Measure: (k, expected_value)}.

    Rejects a missing file and one whose ``inputs=`` digest is not
    ``_inputs_digest`` of this workdir and config. Rows follow
    ``util._read_rows`` and must have exactly five columns; a measure that
    is not configured, a k outside 1..K and a repeated (user, measure) are
    rejected, naming the line, and so is a user without a row for every
    configured measure, naming the user.
    """
    path = workdir / "recs.tsv"
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
    except FileNotFoundError:
        raise ConfigError(f"{path} is missing; run recommend first") from None
    if not header.endswith(f" inputs={_inputs_digest(cfg, workdir)}"):
        raise ConfigError(f"{path} was built from other inputs or config; rerun recommend")
    known, K = cfg["measures"], cfg["K"]

    def bad_row(columns):
        users, names, ks, _, _ = columns
        return _first_flagged([
            (np.flatnonzero(~np.isin(names, known)),
             lambda r: f"measure {str(names[r])!r} is not one of {', '.join(known)}"),
            (np.flatnonzero((ks < 1) | (ks > K)),
             lambda r: f"size k must be in 1..{K}, got {ks[r]}"),
            (_repeats(users, names),
             lambda r: f"repeated row for user {users[r]}, measure {names[r]}"),
        ])

    users, names, ks, values, _ = _read_rows(
        path, "isifs", "user<TAB>measure<TAB>k<TAB>expected_value<TAB>items", bad_row, exact=True)
    # with no unknown or repeated measure, a short user has fewer rows than measures
    keys, counts = np.unique(users, return_counts=True)
    short = keys[counts < len(known)]
    if len(short):
        missing = [m for m in known if m not in names[users == short[0]].tolist()]
        raise ConfigError(f"{path}: user {short[0]} has no row for measure {', '.join(missing)}")
    perk: dict = {}
    for u, m, k, v in zip(users.tolist(), names.tolist(), ks.tolist(), values.tolist()):
        perk.setdefault(u, {})[utility.Measure(m)] = (k, v)
    return perk


def cmd_evaluate(cfg: dict) -> int:
    workdir = Path(cfg["workdir"])
    split_ds = dataset.load_split(workdir)
    table = scorer.load_scores(workdir / "scores.bin")
    perk = _read_recs(cfg, workdir)
    report = selection.evaluate(split_ds, table, perk, measures=cfg["measures"], K=cfg["K"],
                                seed=cfg["seed"])
    lines = [_echo(cfg, "evaluate")]
    lines.extend(
        f"{u}\t{method}\t{measure}\t{k}\t{value!r}"
        for u, method, measure, k, value in report.per_user
    )
    atomic_write(workdir / "eval_per_user.tsv", "\n".join(lines) + "\n")
    payload = {
        "averages": report.averages,
        "n_users": report.n_users,
        "config": {k: cfg[k] for k in ("K", "M", "seed")},
        "perk_expected": report.perk_expected,
    }
    atomic_write(workdir / "eval_report.json", json.dumps(payload, sort_keys=True, indent=1) + "\n")
    print(f"evaluate: {report.n_users} users x {len(report.averages)} methods -> "
          f"{workdir / 'eval_report.json'}")
    skipped = ", ".join(f"{n} {reason}" for reason, n in report.skipped.items())
    print(f"evaluate: skipped {sum(report.skipped.values())} users ({skipped})")
    return 0


def _read_curves(path, measure: utility.Measure) -> dict:
    """Curve dump rows (user, measure, k, value) -> per-user value arrays of
    one measure.

    Rows follow ``util._read_rows`` and must have exactly four columns. Rows
    of every measure are checked: a non-numeric user, k or value, a row
    with k < 1 and a repeated (user, measure, k) row are rejected, naming
    the line. A gap in a user's sizes of ``measure`` is rejected too.
    """
    users, measures, ks, values = _read_rows(path, "isif", "user<TAB>measure<TAB>k<TAB>value",
                                             _bad_curve_row, exact=True)
    mine = np.flatnonzero(measures == measure.value)
    order = mine[np.lexsort((ks[mine], users[mine]))]
    users, ks, values = users[order], ks[order], values[order]
    keys, starts, counts = np.unique(users, return_index=True, return_counts=True)
    # a user's sizes are distinct and >= 1, so they have no gap iff the last is their count
    gapped = ks[starts + counts - 1] != counts
    if gapped.any():
        first_row = np.minimum.reduceat(order, starts)[gapped]  # name the first in the file
        raise ConfigError(f"{path}: user {keys[gapped][np.argmin(first_row)]} has gaps in its curve")
    return {u: values[a:a + n] for u, a, n in zip(keys.tolist(), starts.tolist(), counts.tolist())}


def _bad_curve_row(columns):
    """The earliest rejected curve row and why, or None."""
    users, measures, ks, _ = columns
    return _first_flagged([
        (np.flatnonzero(ks < 1), lambda r: f"size k must be >= 1, got {ks[r]}"),
        (_repeats(ks, users, measures), lambda r: f"repeated row for user {users[r]}, k={ks[r]}"),
    ])


def cmd_allocate(cfg: dict) -> int:
    workdir = Path(cfg["workdir"])
    if "allocate" not in cfg:
        raise ConfigError("allocate needs an 'allocate' section in the config")
    acfg = cfg["allocate"]
    for key in ("budget", "domains"):
        if key not in acfg:
            raise ConfigError(f"allocate config needs '{key}'")
    measure = utility.Measure(acfg.get("measure", cfg["measures"][0]))
    budget = acfg["budget"]
    domains = {d["id"]: _read_curves(d["curves"], measure) for d in acfg["domains"]}

    shared = sorted(set.intersection(*(set(v) for v in domains.values())))
    if not shared:
        raise ConfigError("no user appears in every domain's curve file")
    lines = [_echo(cfg, "allocate")]
    objective_sum = 0.0
    for u in shared:
        curves = multidomain.DomainCurves(user=u, curves={d: domains[d][u] for d in domains})
        K = min(len(v) for v in curves.curves.values())
        result = multidomain.allocate(curves, N=budget, K=K)
        objective_sum += result.objective
        for dom in sorted(result.sizes):
            lines.append(f"{u}\t{dom}\t{result.sizes[dom]}")
    atomic_write(workdir / "allocations.tsv", "\n".join(lines) + "\n")
    payload = {
        "budget": budget,
        "measure": measure.value,
        "n_users": len(shared),
        "objective_sum": objective_sum,
    }
    atomic_write(workdir / "allocation_report.json",
                 json.dumps(payload, sort_keys=True, indent=1) + "\n")
    print(f"allocate: {len(shared)} users over {len(domains)} domains -> "
          f"{workdir / 'allocations.tsv'}")
    return 0


_COMMANDS = {
    "prepare": cmd_prepare,
    "train": cmd_train,
    "calibrate": cmd_calibrate,
    "recommend": cmd_recommend,
    "evaluate": cmd_evaluate,
    "allocate": cmd_allocate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="persize",
        description="Personalized recommendation-list sizing pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--workdir", help="working directory for stage inputs/outputs")
        p.add_argument("--threads", type=int, help="per-user parallelism")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        return _COMMANDS[args.command](cfg)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"persize {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
