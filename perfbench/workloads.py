"""The benchmark workloads: how each one's inputs are generated, which
persize CLI stages it times, and how their outputs are checked.

Every workload draws its inputs from the benchmark seed only; the program
sees nothing but the generated files and a fixed stage configuration.

- ``log-300``: a 300-user, 300-item interaction log through the built-in
  path (ingest, 20-core, BPR, score export). About 245 candidates per user
  keep every count distribution on the windowed recurrence
  (n * (min(n, M) + 1) well under ``poibin._DP_CELL_LIMIT``).
  Single-threaded baseline; never allocates.
- ``world-5k``: a 25 x 5000 known-probability world whose scores arrive as
  an external ``user<TAB>item<TAB>score`` file (125 k rows). With 5000
  candidates every count distribution takes the FFT-tree path (about 10 M
  cells); the only workload with a thread pool (``--threads 2``). It ends
  with ``persize allocate`` over three domains' curve dumps (120 shared
  users), the only load on curve-dump parsing and the knapsack allocator.

Both are sized so that one pass of the timed stages takes a few seconds and
several passes fit in one run, whose median is reported.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from persize import dataset, synthetic, utility

MEASURES = [m.value for m in utility.Measure]
ALLOC_RANGES = ((-8.5, -2.5), (-6.0, -3.0), (-7.5, -1.5))

# Sizes per workload; "tiny" keeps the smoke test to seconds.
SIZES = {
    "log-300": {
        "full": {"users": 300, "items": 300, "min_per_user": 30, "max_per_user": 80,
                 "K": 50, "M": 2000, "bpr": {"d": 16, "epochs": 2, "learning_rate": 0.05},
                 "threads": 1},
        "tiny": {"users": 200, "items": 120, "min_per_user": 26, "max_per_user": 60,
                 "K": 20, "M": 200, "bpr": {"d": 8, "epochs": 1, "learning_rate": 0.05},
                 "threads": 1},
    },
    "world-5k": {
        "full": {"users": 25, "items": 5000, "K": 50, "M": 2000, "threads": 2,
                 "alloc_users": 120, "alloc_items": 500, "budget": 100},
        "tiny": {"users": 30, "items": 400, "K": 20, "M": 200, "threads": 2,
                 "alloc_users": 40, "alloc_items": 100, "budget": 20},
    },
}

# Quality of the full-size outputs, the median over development seeds 1-12:
# f1_oracle_share per workload, and the allocation objective per user. A run
# whose value strays from its reference by more than its tolerance fails its
# quality check. Over seeds 1-40 single seeds stray with a standard deviation
# of 2.1 % on log-300 (at most 4.8 %), 3.1 % on world-5k, whose 25 users are
# a small sample (at most 8.8 %, seed 14), and 0.6 % for the objective (at
# most 1.6 %); each tolerance is over 4.5 standard deviations, so unseen
# seeds pass. These are the output check's own constants, not regression
# bounds: the outputs repeat exactly for a given seed, and BENCHMARK.json's
# bound on f1_oracle_share is set from the metric's spread over seeds.
REFERENCE_SHARE = {"log-300": 0.638, "world-5k": 0.867}
SHARE_TOLERANCE = {"log-300": 0.10, "world-5k": 0.15}
REFERENCE_ALLOCATION = 1.073
ALLOCATION_TOLERANCE = 0.08


STAGES = {
    "log-300": ["prepare", "train", "calibrate", "recommend", "evaluate"],
    "world-5k": ["train", "calibrate", "recommend", "evaluate", "allocate"],
}


def _setup_log(p: dict, seed: int, d: Path) -> tuple[dict, dict]:
    rows = synthetic.generate_interactions(
        p["users"], p["items"], p["min_per_user"], p["max_per_user"], seed)
    synthetic.write_interactions(rows, d / "interactions.tsv")
    cfg = {"data": "interactions.tsv", "measures": MEASURES, "bpr": p["bpr"],
           "threads": p["threads"]}
    return cfg, {"interactions": len(rows), "users": p["users"], "items": p["items"]}


def _setup_world(p: dict, seed: int, d: Path) -> tuple[dict, dict]:
    world = synthetic.generate_world(p["users"], p["items"], seed=seed)
    n_users, n_items = world.n_users, world.n_items
    users, items = np.arange(n_users), np.arange(n_items)

    def labelled(labels):
        return dataset.InteractionSet.from_pairs(
            np.argwhere(labels == 1.0), users=users, items=items)

    split_ds = dataset.SplitDataset(
        train=dataset.InteractionSet.from_pairs(
            np.empty((0, 2), dtype=np.int64), users=users, items=items),
        val=labelled(world.val_labels), test=labelled(world.test_labels), seed=0)
    id_map = {"users": {f"u{u}": u for u in range(n_users)},
              "items": {f"i{i}": i for i in range(n_items)}}
    dataset.save_split(split_ds, d / "work", id_map)
    with open(d / "external_scores.tsv", "w", encoding="utf-8") as fh:
        for u in range(n_users):
            fh.write("".join(f"{u}\t{i}\t{v!r}\n"
                             for i, v in enumerate(world.scores[u].tolist())))
    cfg = {"scores": "external_scores.tsv", "measures": MEASURES, "threads": p["threads"],
           "allocate": {"budget": p["budget"], "domains": _write_curve_dumps(p, seed, d),
                        "measure": "f1"}}
    return cfg, {"users": n_users, "items": n_items, "score_rows": n_users * n_items,
                 "val_pairs": split_ds.val.n_interactions,
                 "test_pairs": split_ds.test.n_interactions,
                 "alloc_users": p["alloc_users"], "alloc_items": p["alloc_items"],
                 "curve_rows": len(ALLOC_RANGES) * p["alloc_users"] * p["K"]}


def _write_curve_dumps(p: dict, seed: int, d: Path) -> list[dict]:
    """F1 curves of three populations with different base-logit ranges."""
    domains = []
    for x, logit_range in enumerate(ALLOC_RANGES):
        world = synthetic.generate_world(
            p["alloc_users"], p["alloc_items"], base_logit_range=logit_range,
            seed=seed * 10 + x)
        probs = -np.sort(-world.true_probs, axis=1)
        curves = utility.expected_curves_batch(
            probs, [utility.Measure.F1], M=p["M"], K=p["K"])[utility.Measure.F1]
        path = f"curves_d{x}.tsv"
        with open(d / path, "w", encoding="utf-8") as fh:
            fh.write(f"# curves domain=d{x}\n")
            for u, row in enumerate(curves.tolist()):
                fh.write("".join(f"{u}\tf1\t{k}\t{v!r}\n" for k, v in enumerate(row, 1)))
        domains.append({"id": f"d{x}", "curves": path})
    return domains


_SETUP = {"log-300": _setup_log, "world-5k": _setup_world}


def setup(workload: str, seed: int, size: str, d: Path) -> dict:
    """Generate the workload's inputs and stage config into ``d``.

    Paths in the config are relative to ``d``, where the stages run, so no
    output depends on where the checkout lives. Returns the input sizes,
    recorded with every result.
    """
    p = SIZES[workload][size]
    (d / "work").mkdir(parents=True, exist_ok=True)
    cfg, sizes = _SETUP[workload](p, seed, d)
    cfg.update(workdir="work", seed=0, K=p["K"], M=p["M"])
    (d / "config.json").write_text(json.dumps(cfg, sort_keys=True, indent=1) + "\n")
    return sizes


def _rows(path: Path) -> list[list[str]]:
    return [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()
            if line and not line.startswith("#")]


class Checks:
    """Output checks of one pass; each check or user row is one operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def ops(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.errors.append(f"{what}: {failed} of {attempted} failed")

    def check(self, ok: bool, what: str) -> None:
        self.ops(1, 0 if ok else 1, what)


def _check_pipeline(d: Path, p: dict, checks: Checks) -> float:
    work = d / "work"
    K = p["K"]
    split_ds = dataset.load_split(work)
    # Independent ranking: every scored item, validation positives removed,
    # descending score with ties by ascending item id.
    table = np.loadtxt(work / "scores.tsv", delimiter="\t", comments="#",
                       dtype={"names": ("u", "i", "s"), "formats": ("i8", "i8", "f8")})
    n_items = len(split_ds.items)
    val_codes = split_ds.val.pairs[:, 0] * n_items + split_ds.val.pairs[:, 1]
    keep = ~np.isin(table["u"] * n_items + table["i"], val_codes)
    u, i, s = table["u"][keep], table["i"][keep], table["s"][keep]
    order = np.lexsort((i, -s, u))
    u, i = u[order], i[order]
    starts = np.searchsorted(u, np.arange(len(split_ds.users) + 1))

    recs, errors = {}, 0
    for line in (work / "recs.tsv").read_text(encoding="utf-8").splitlines():
        if line.startswith("# error"):
            errors += 1
        elif line and not line.startswith("#"):
            user, measure, k, _, items = line.split("\t")
            recs[(int(user), measure)] = (int(k), items)
    rec_users = {user for user, _ in recs}
    checks.ops(len(rec_users) + errors, errors, "recommend '# error' user rows")
    platt_users = [int(r[0]) for r in _rows(work / "platt.tsv") if r[0] != "GLOBAL"]
    checks.check(all((usr, m) in recs for usr in platt_users for m in MEASURES),
                 "every calibrated user has a list for every measure")
    bad = 0
    for (user, _), (k, items) in recs.items():
        ranking = i[starts[user]:starts[user + 1]]
        want = ",".join(str(x) for x in ranking[:k].tolist())
        bad += not (1 <= k <= K and items == want)
    checks.check(bad == 0 and len(recs) > 0,
                 f"recs.tsv lists are prefixes of the independent ranking ({bad} differ)")

    best: dict = {}
    for user, method, measure, _, value in _rows(work / "eval_per_user.tsv"):
        best.setdefault((user, measure), {})[method] = float(value)
    dominated = all(by[m] <= by["oracle"] for by in best.values() for m in by)
    checks.check(dominated and len(best) > 0, "oracle dominates in eval_per_user.tsv")
    report = json.loads((work / "eval_report.json").read_text(encoding="utf-8"))
    perk, oracle = (float(report["averages"][m]["f1"]) for m in ("perk", "oracle"))
    checks.check(oracle > 0, "oracle F1 is positive")
    return perk / oracle if oracle > 0 else 0.0


def _check_allocate(d: Path, p: dict, checks: Checks) -> float:
    work = d / "work"
    sizes: dict = {}
    for user, dom, k in _rows(work / "allocations.tsv"):
        sizes.setdefault(int(user), {})[dom] = int(k)
    bad = sum(1 for by in sizes.values()
              if len(by) != len(ALLOC_RANGES) or sum(by.values()) > p["budget"]
              or not all(0 <= k <= p["K"] for k in by.values()))
    missing = p["alloc_users"] - len(sizes)
    checks.ops(p["alloc_users"], bad + max(missing, 0),
               f"allocations within budget {p['budget']} for every shared user")
    report = json.loads((work / "allocation_report.json").read_text(encoding="utf-8"))
    checks.check(report["n_users"] == p["alloc_users"], "allocation report covers every user")
    return float(report["objective_sum"]) / report["n_users"]


def _near(value: float, ref: float, tolerance: float, what: str, checks: Checks) -> None:
    checks.check(abs(value - ref) <= tolerance * ref,
                 f"{what} {value:.6f} within {tolerance:.0%} of reference {ref:.6f}")


def check_outputs(workload: str, size: str, d: Path, checks: Checks) -> float:
    """Check one pass's outputs; returns its f1_oracle_share."""
    p = SIZES[workload][size]
    share = _check_pipeline(d, p, checks)
    objective = _check_allocate(d, p, checks) if "allocate" in STAGES[workload] else None
    if size == "full":
        _near(share, REFERENCE_SHARE[workload], SHARE_TOLERANCE[workload],
              "f1_oracle_share", checks)
        if objective is not None:
            _near(objective, REFERENCE_ALLOCATION, ALLOCATION_TOLERANCE,
                  "allocation objective per user", checks)
    return share
