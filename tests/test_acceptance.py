"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v tests/test_acceptance.py` for one line per criterion,
or add `-rA` to also see the printed details (gap magnitudes, timings).
"""

import hashlib
import json
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from persize import calibrate
from persize.cli import main as cli_main
from persize.multidomain import DomainCurves, allocate
from persize.poibin import distribution_batch
from persize.selection import METHOD_ORACLE, _row_argmax
from persize.synthetic import generate_world
from persize.utility import Measure, expected_curves_batch, realized_curve

from oracles import (
    brute_force_allocate,
    enum_count_distribution,
    enum_expected_curve,
    loo_expected_curve,
)

ALL_MEASURES = (Measure.NDCG, Measure.PDCG, Measure.F1, Measure.TP)


def _report(criterion: str, detail: str = ""):
    print(f"[acceptance] {criterion}: PASS {detail}".rstrip())


def test_criterion_01_count_distribution_oracle():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for _ in range(200):
        n = int(rng.integers(1, 16))
        probs = rng.random(n)
        (mass,), _ = distribution_batch([probs], n)
        np.testing.assert_allclose(mass, enum_count_distribution(probs), atol=1e-12)
    from math import comb

    for _ in range(50):
        n = int(rng.integers(1, 31))
        p = float(rng.random())
        (mass,), _ = distribution_batch(np.full((1, n), p), n)
        ref = np.array([comb(n, m) * p**m * (1 - p) ** (n - m) for m in range(n + 1)])
        np.testing.assert_allclose(mass, ref, atol=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _report("criterion 1 (count-distribution oracle)", f"runtime {elapsed:.2f}s < 5s")


def test_criterion_02_expected_utility_oracle_chain():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    for _ in range(100):
        n = int(rng.integers(1, 13))
        probs = np.sort(rng.random(n))[::-1]
        for measure in ALL_MEASURES:
            got = loo_expected_curve(measure.value, probs, n)
            want = enum_expected_curve(measure.value, probs)
            tol = 1e-12 if measure is Measure.PDCG else 1e-9
            np.testing.assert_allclose(got, want, atol=tol)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    _report("criterion 2 (leave-one-out reference vs enumeration)",
            f"runtime {elapsed:.2f}s < 30s")


def test_criterion_03_approximation_gap_direction():
    def max_gaps(n, seed):
        rng = np.random.default_rng(seed)
        probs = np.sort(rng.uniform(0.0, 0.1, n))[::-1]
        K = 10
        approx = expected_curves_batch(probs[None, :], ALL_MEASURES, M=2000, K=K)
        gaps = {}
        for measure in ALL_MEASURES:
            exact = loo_expected_curve(measure.value, probs, K)
            gaps[measure] = float(np.abs(approx[measure][0] - exact).max())
        return gaps

    lines = []
    for seed in (0, 1, 2):
        small = max_gaps(10, seed)
        large = max_gaps(1000, seed)
        for measure in (Measure.NDCG, Measure.F1, Measure.TP):
            assert large[measure] < small[measure], (seed, measure)
        assert small[Measure.PDCG] == 0.0 and large[Measure.PDCG] == 0.0
        lines.append(
            f"seed {seed}: "
            + " ".join(
                f"{m.value} {small[m]:.2e}->{large[m]:.2e}" for m in ALL_MEASURES
            )
        )
    _report("criterion 3 (approximation gap shrinks with n)", "; ".join(lines))


def test_criterion_04_pdcg_selection_law():
    rng = np.random.default_rng(404)
    for trial in range(100):
        n = int(rng.integers(1, 80))
        probs = np.sort(rng.random(n))[::-1]
        if trial % 4 == 0 and n >= 2:
            probs[rng.integers(0, n)] = 0.5  # exact-tie entries
            probs = np.sort(probs)[::-1]
        curves = expected_curves_batch(probs[None, :], [Measure.PDCG], M=2, K=n)[Measure.PDCG]
        k = _row_argmax(curves, np.array([n]))[0]
        assert k == max(1, int(np.sum(probs > 0.5)))
    _report("criterion 4 (PDCG size law over 100 random vectors)")


def test_criterion_05_calibration_recovery_and_ece_direction():
    rng = np.random.default_rng(505)
    s = rng.uniform(-4, 4, 100000)
    y = (rng.random(100000) < 1.0 / (1.0 + np.exp(-(1.5 * s - 1.0)))).astype(np.float64)
    params = calibrate.fit_global(  # one segment
        calibrate.CalibrationBatch(np.array([0]), np.array([0, len(s)]), s, y))
    assert params.fit_status == calibrate.FIT_CONVERGED
    assert abs(params.a - 1.5) < 0.05 and abs(params.b + 1.0) < 0.05
    p = calibrate.apply(params, s)
    grad = np.array([(p - y) @ s, (p - y).sum()])
    assert np.abs(grad).max() < 1e-8

    # two-population score shift: per-user maps beat one global map on ECE
    fit_s, fit_y, holdout = [], [], []
    for user in range(6):
        shift = 0.0 if user % 2 == 0 else 6.0
        su = rng.uniform(-4, 4, 4000)
        yu = (rng.random(4000) < 1.0 / (1.0 + np.exp(-(1.5 * su - 1.0)))).astype(np.float64)
        su = su + shift
        fit_s.append(su[:2000])
        fit_y.append(yu[:2000])
        holdout.append((user, su[2000:], yu[2000:]))
    per_user, global_params = calibrate.fit_all_users(calibrate.CalibrationBatch(
        np.arange(6), np.arange(7) * 2000, np.concatenate(fit_s), np.concatenate(fit_y)))
    user_ece = float(np.mean([
        calibrate.ece_report(calibrate.apply(per_user[u], su), yu)["ece"]
        for u, su, yu in holdout
    ]))
    pooled_s = np.concatenate([su for _, su, _ in holdout])
    pooled_y = np.concatenate([yu for _, _, yu in holdout])
    global_ece = calibrate.ece_report(calibrate.apply(global_params, pooled_s), pooled_y)["ece"]
    assert user_ece < global_ece
    _report(
        "criterion 5 (calibration)",
        f"recovered a={params.a:.3f} b={params.b:.3f}; "
        f"user-wise ECE {user_ece:.4f} < global ECE {global_ece:.4f}",
    )


@pytest.fixture(scope="module")
def pipeline_workdir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("acceptance")
    workdir = tmp / "run"
    cfg_path = tmp / "config.json"
    cfg_path.write_text(json.dumps({
        "data": "data/synth200/interactions.tsv",
        "workdir": str(workdir),
        "seed": 0,
        "K": 20,
        "M": 200,
        "bpr": {"d": 8, "epochs": 4, "learning_rate": 0.05},
        "dump_curves": True,
    }))
    for stage in ("prepare", "train", "calibrate", "recommend", "evaluate"):
        assert cli_main([stage, "--config", str(cfg_path)]) == 0, stage
    return cfg_path, workdir


def test_criterion_06_oracle_dominance_and_prefix_property(pipeline_workdir):
    _, workdir = pipeline_workdir
    rows = [
        line.split("\t")
        for line in (workdir / "eval_per_user.tsv").read_text().splitlines()
        if line and not line.startswith("#")
    ]
    by_key = {}
    for user, method, measure, k, value in rows:
        by_key.setdefault((user, measure), {})[method] = (int(k), float(value))
    assert by_key
    for (user, measure), methods in by_key.items():
        oracle_val = methods[METHOD_ORACLE][1]
        for method, (k, value) in methods.items():
            assert oracle_val >= value, (user, measure, method)

    # recommended items must be the prefix of the independently ranked list
    from persize import dataset, scorer

    split_ds = dataset.load_split(workdir)
    table = scorer.import_scores(workdir / "scores.tsv")
    checked = 0
    for line in (workdir / "recs.tsv").read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        user, measure, k, value, items = line.split("\t")
        u = int(user)
        got = [int(i) for i in items.split(",")]
        cand_items, cand_scores = table.get(u)
        keep = ~np.isin(cand_items, split_ds.val.items_of(u))
        cand_items, cand_scores = cand_items[keep], cand_scores[keep]
        order = np.lexsort((cand_items, -cand_scores))
        assert got == cand_items[order][: int(k)].tolist(), (u, measure)
        checked += 1
    assert checked > 0
    _report(
        "criterion 6 (oracle dominance + prefix property)",
        f"{len(by_key)} user-measure pairs, {checked} emitted lists",
    )


def test_criterion_07_directional_utility_benchmark():
    start = time.perf_counter()
    world = generate_world()  # 500 users x 2000 items, known probabilities
    n_users = world.n_users
    K = 50
    fixed_ks = (1, 5, 10, 20, 50)

    # the dense (users, items) score matrix is one CSR batch
    n_items = world.scores.shape[1]
    per_user, _ = calibrate.fit_all_users(calibrate.CalibrationBatch(
        np.arange(n_users), np.arange(n_users + 1) * n_items,
        world.scores.ravel(), world.val_labels.ravel()))
    order = np.argsort(-world.scores, axis=1, kind="stable")
    probs_sorted = np.empty_like(world.scores)
    for u in range(n_users):
        probs_sorted[u] = calibrate.apply(per_user[u], world.scores[u][order[u]])
    curves = expected_curves_batch(probs_sorted, ALL_MEASURES, M=2000, K=K)

    sums = {m: {"perk": 0.0, **{k: 0.0 for k in fixed_ks}} for m in ALL_MEASURES}
    for u in range(n_users):
        test_row = world.test_labels[u][order[u]][:K]
        s_total = int(world.test_labels[u].sum())
        for measure in ALL_MEASURES:
            realized = realized_curve(measure, test_row, s_total)
            k_perk = int(np.argmax(curves[measure][u])) + 1
            sums[measure]["perk"] += realized[k_perk - 1]
            for k in fixed_ks:
                sums[measure][k] += realized[k - 1]

    detail = []
    for measure in ALL_MEASURES:
        perk_avg = sums[measure]["perk"] / n_users
        best_fixed = max(sums[measure][k] / n_users for k in fixed_ks)
        assert perk_avg >= best_fixed, (measure, perk_avg, best_fixed)
        detail.append(f"{measure.value} {perk_avg:.4f}>={best_fixed:.4f}")
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _report(
        "criterion 7 (personalized sizes beat every fixed size)",
        f"{'; '.join(detail)}; runtime {elapsed:.1f}s < 120s",
    )


def test_criterion_08_knapsack_oracle_and_monotonicity():
    rng = np.random.default_rng(808)
    for trial in range(500):
        x = int(rng.integers(1, 5))
        K = int(rng.integers(1, 9))
        allow_zero = bool(rng.integers(0, 2))
        N = int(rng.integers(x if not allow_zero else 0, 21))
        quant = 1 if trial % 2 else 10  # coarse values force frequent ties
        curves = DomainCurves(
            user=0,
            measure=Measure.F1,
            curves={
                f"d{j}": np.round(rng.normal(size=K) * quant) / quant
                for j in range(x)
            },
        )
        a = allocate(curves, N=N, K=K, allow_zero=allow_zero)
        b = brute_force_allocate(curves, N=N, K=K, allow_zero=allow_zero)
        assert a.sizes == b.sizes and a.objective == b.objective, trial
        assert a.total <= N

    rng = np.random.default_rng(809)
    for _ in range(20):
        x = int(rng.integers(1, 5))
        K = int(rng.integers(1, 9))
        curves = DomainCurves(
            user=0, measure=Measure.F1,
            curves={f"d{j}": rng.normal(size=K) for j in range(x)},
        )
        prev = -np.inf
        for N in range(x, 21):
            obj = allocate(curves, N=N, K=K, allow_zero=False).objective
            assert obj >= prev - 1e-15
            prev = obj
    _report("criterion 8 (allocation matches brute force on 500 instances)")


def test_criterion_09_pipeline_determinism(pipeline_workdir):
    cfg_path, workdir = pipeline_workdir

    def digest():
        return {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(workdir.iterdir()) if p.is_file()
        }

    def rerun(threads):
        for stage in ("prepare", "train", "calibrate", "recommend", "evaluate"):
            assert cli_main([
                stage, "--config", str(cfg_path), "--threads", threads
            ]) == 0

    baseline = digest()
    rerun("1")
    assert digest() == baseline, "rerun changed output bytes"
    rerun("8")
    assert digest() == baseline, "thread count changed output bytes"
    _report("criterion 9 (byte-identical reruns; threads 1 == threads 8)")


def test_criterion_10_efficiency_envelope():
    # 1e4 users, 5000 candidates each, K=50, M=2000, 8 threads. Per-user
    # cost is O(n*M + K*M); users are processed in blocks so the heavy
    # array work runs outside the interpreter lock.
    n_users, block, n, K, M = 10_000, 50, 5000, 50, 2000

    def run_block(b):
        rng = np.random.default_rng(b)
        probs = rng.uniform(0.0, 0.05, (block, n))
        probs = -np.sort(-probs, axis=1)
        curves = expected_curves_batch(probs, [Measure.NDCG], M=M, K=K)
        return float(curves[Measure.NDCG][:, -1].sum())

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=8) as pool:
        totals = list(pool.map(run_block, range(n_users // block)))
    elapsed = time.perf_counter() - start
    assert len(totals) == n_users // block
    assert all(np.isfinite(t) for t in totals)
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _report(
        "criterion 10 (efficiency envelope)",
        f"{n_users} users x {n} candidates, K={K}, M={M} in {elapsed:.1f}s "
        f"({elapsed / n_users * 1e3:.2f} ms/user) on 8 threads",
    )
