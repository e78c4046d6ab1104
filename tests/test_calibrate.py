import numpy as np
import pytest

from persize.calibrate import (
    _STATUSES,
    _TOLERANCE,
    FIT_CONVERGED,
    FIT_DEGENERATE,
    FIT_FALLBACK,
    CalibrationBatch,
    CalibrationSet,
    PlattParams,
    _newton_segments,
    apply,
    build_calibration_batch,
    build_calibration_set,
    ece_report,
    fit_all_users,
    fit_global,
    fit_user,
    pooled_ece_reports,
)
from persize.dataset import InteractionSet, SplitDataset
from persize.scorer import ScoreTable

from oracles import gd_platt_fit, scalar_newton_platt


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _logistic_sample(n, a, b, rng):
    s = rng.uniform(-4, 4, n)
    y = (rng.random(n) < _sigmoid(a * s + b)).astype(np.float64)
    return s, y


def _bce(a, b, s, y):
    z = a * s + b
    return float(np.sum(np.logaddexp(0.0, z) - y * z))


class TestFitUser:
    def test_intercept_only_when_scores_identical(self):
        labels = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 0], dtype=float)
        params = fit_user(CalibrationSet(0, np.zeros(10), labels))
        assert params.fit_status == FIT_DEGENERATE
        assert params.a == 0.0
        assert params.b == pytest.approx(np.log(0.3 / 0.7), abs=1e-12)

    def test_recovers_planted_parameters(self):
        rng = np.random.default_rng(0)
        s, y = _logistic_sample(100000, 1.5, -1.0, rng)
        params = fit_user(CalibrationSet(0, s, y))
        assert params.fit_status == FIT_CONVERGED
        assert params.a == pytest.approx(1.5, abs=0.05)
        assert params.b == pytest.approx(-1.0, abs=0.05)
        # agree with an independent gradient-descent fit
        ga, gb = gd_platt_fit(s, y)
        assert params.a == pytest.approx(ga, abs=1e-3)
        assert params.b == pytest.approx(gb, abs=1e-3)

    def test_all_negative_labels_fall_back(self):
        params = fit_user(CalibrationSet(0, np.linspace(-1, 1, 10), np.zeros(10)))
        assert params.fit_status == FIT_FALLBACK
        assert np.isnan(params.a)

    def test_fallback_carries_global_parameters(self):
        fallback = PlattParams(2.0, -0.5)
        params = fit_user(
            CalibrationSet(3, np.linspace(-1, 1, 10), np.zeros(10)), fallback=fallback
        )
        assert params.fit_status == FIT_FALLBACK
        assert (params.a, params.b) == (2.0, -0.5)
        assert params.scope == 3

    def test_separable_data_trips_divergence_guard(self):
        # Perfect separation at a margin far below the score spread: the
        # optimum runs off to an infinite slope and the bound must catch it
        # before the gradient underflows the tolerance.
        s = np.linspace(-1.0, 1.0, 200)
        y = (s > 0.995).astype(np.float64)
        params = fit_user(CalibrationSet(0, s, y))
        assert params.fit_status == FIT_FALLBACK

    def test_gradient_norm_below_tolerance(self):
        rng = np.random.default_rng(1)
        for seed in range(5):
            s, y = _logistic_sample(2000, 0.8, 0.3, np.random.default_rng(seed))
            params = fit_user(CalibrationSet(0, s, y))
            assert params.fit_status == FIT_CONVERGED
            p = _sigmoid(params.a * s + params.b)
            grad = np.array([(p - y) @ s, (p - y).sum()])
            assert np.abs(grad).max() < _TOLERANCE

    def test_beats_intercept_only_model(self):
        rng = np.random.default_rng(2)
        s, y = _logistic_sample(5000, 1.2, 0.1, rng)
        params = fit_user(CalibrationSet(0, s, y))
        rate = y.mean()
        b0 = float(np.log(rate / (1 - rate)))
        assert _bce(params.a, params.b, s, y) <= _bce(0.0, b0, s, y)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            fit_user(CalibrationSet(0, np.array([]), np.array([])))


class TestFitGlobal:
    def test_single_user_pool_equals_user_fit(self):
        rng = np.random.default_rng(4)
        s, y = _logistic_sample(4000, 1.1, -0.2, rng)
        calset = CalibrationSet(0, s, y)
        user = fit_user(calset)
        pooled = fit_global([calset])
        assert pooled.a == pytest.approx(user.a, abs=1e-10)
        assert pooled.b == pytest.approx(user.b, abs=1e-10)
        assert pooled.scope == "GLOBAL"

    def test_score_shifts_hurt_global_ece(self):
        # Two populations whose scores are offset by a constant: one global
        # map cannot place its threshold right for both, per-user maps can.
        rng = np.random.default_rng(5)
        fit_sets, holdout = [], []
        for user, shift in enumerate((0.0, 6.0)):
            s, y = _logistic_sample(4000, 1.5, -1.0, rng)
            s = s + shift
            fit_sets.append(CalibrationSet(user, s[:2000], y[:2000]))
            holdout.append((user, s[2000:], y[2000:]))
        per_user, global_params = fit_all_users(fit_sets)
        user_eces = [
            ece_report(apply(per_user[user], s), y)["ece"] for user, s, y in holdout
        ]
        pooled_s = np.concatenate([s for _, s, _ in holdout])
        pooled_y = np.concatenate([y for _, _, y in holdout])
        global_ece = ece_report(apply(global_params, pooled_s), pooled_y)["ece"]
        assert np.mean(user_eces) < global_ece

    def test_empty_pool_raises(self):
        with pytest.raises(ValueError):
            fit_global([])


class TestApply:
    def test_sigmoid_symmetry_points(self):
        assert apply(PlattParams(1.0, 0.0), 0.0) == 0.5
        assert apply(PlattParams(0.0, 0.0), 123.4) == 0.5

    def test_hand_value(self):
        assert apply(PlattParams(2.0, -1.0), 2.0) == pytest.approx(0.9525741268224334, abs=1e-12)

    def test_open_interval(self):
        params = PlattParams(50.0, 0.0)
        for s in (-1e9, -5.0, 0.0, 5.0, 1e9):
            p = apply(params, s)
            assert 0.0 < p < 1.0

    def test_monotone_iff_positive_slope(self):
        s = np.linspace(-5, 5, 101)
        up = apply(PlattParams(0.8, 0.2), s)
        assert np.all(np.diff(up) > 0)
        down = apply(PlattParams(-0.8, 0.2), s)
        assert np.all(np.diff(down) < 0)

    def test_rejects_nan_params(self):
        with pytest.raises(ValueError):
            apply(PlattParams(float("nan"), 0.0), 1.0)


class TestEce:
    def test_calibrated_constant(self):
        preds = np.full(100, 0.5)
        labels = np.array([0, 1] * 50, dtype=float)
        assert ece_report(preds, labels)["ece"] == 0.0

    def test_fully_wrong_constant(self):
        assert ece_report(np.full(10, 0.9), np.zeros(10))["ece"] == pytest.approx(0.9, abs=1e-12)

    def test_hand_binned_value(self):
        preds = np.array([0.2, 0.2, 0.8, 0.8])
        labels = np.array([0.0, 1.0, 1.0, 1.0])
        assert ece_report(preds, labels, bins=2)["ece"] == pytest.approx(0.25, abs=1e-12)

    def test_boundary_one_goes_to_last_bin(self):
        report = ece_report(np.array([1.0]), np.array([1.0]), bins=4)
        assert report["per_bin"][-1]["count"] == 1

    def test_zero_when_bins_internally_calibrated(self):
        # within each half-width bin the mean label equals the mean prediction
        preds = np.array([0.25, 0.25, 0.25, 0.25, 0.75, 0.75, 0.75, 0.75])
        labels = np.array([0, 0, 0, 1, 1, 1, 1, 0], dtype=float)
        assert ece_report(preds, labels, bins=2)["ece"] == 0.0

    def test_errors(self):
        with pytest.raises(ValueError):
            ece_report([], [])
        with pytest.raises(ValueError):
            ece_report([0.5], [1.0, 0.0])
        with pytest.raises(ValueError):
            ece_report([0.5], [1.0], bins=0)


class TestBuildCalibrationSet:
    def _split(self):
        users = np.arange(2)
        items = np.arange(5)
        train = InteractionSet.from_pairs(np.array([[0, 0], [1, 1]]), users, items)
        val = InteractionSet.from_pairs(np.array([[0, 2], [1, 3]]), users, items)
        test = InteractionSet.from_pairs(np.array([[0, 4]]), users, items)
        return SplitDataset(train=train, val=val, test=test, seed=0)

    def _table(self):
        return ScoreTable.from_entries({
            0: (np.array([1, 2, 3, 4]), np.array([0.4, 0.9, 0.1, 0.2])),
            1: (np.array([0, 2, 3, 4]), np.array([0.5, 0.6, 0.7, 0.8])),
        })

    def test_labels_follow_val_membership(self):
        calset = build_calibration_set(0, self._split(), self._table())
        np.testing.assert_array_equal(calset.labels, [0, 1, 0, 0])
        np.testing.assert_array_equal(calset.scores, [0.4, 0.9, 0.1, 0.2])

    def test_user_without_val_positives_flags_all_zero(self):
        split = self._split()
        table = ScoreTable.from_entries({5: (np.array([0, 1]), np.array([0.1, 0.2]))})
        # user 5 absent from split's val: all labels zero
        calset = build_calibration_set(5, split, table)
        assert calset.labels.sum() == 0
        params = fit_user(calset)
        assert params.fit_status == FIT_FALLBACK

    def test_missing_user_raises(self):
        with pytest.raises(KeyError):
            build_calibration_set(9, self._split(), self._table())


def _mixed_segments():
    """(scores, labels) of segments from 1 to 5000 entries, one for every
    way a fit ends: one label class, constant scores, separable data that
    diverges, fits that need line-search halvings, and converged fits on
    overlapping classes, where the optimum is well determined."""
    rng = np.random.default_rng(11)
    segments = [
        (np.array([0.3]), np.array([1.0])),
        (np.linspace(-1, 1, 7), np.zeros(7)),
        (np.array([2.0, -1.0, 0.5]), np.ones(3)),
        (np.full(50, 0.25), (np.arange(50) % 3 == 0).astype(float)),
        (np.linspace(-1.0, 1.0, 200), (np.linspace(-1.0, 1.0, 200) > 0.995).astype(float)),
    ]
    # one positive outlier far above the rest: the first Newton step overshoots
    for n, pos in ((20, -0.5), (40, -0.5), (400, 0.0)):
        s = np.append(50.0, np.linspace(-1.2, 1.3, n - 1))
        y = np.zeros(n)
        y[[0, 1 + np.argmin(np.abs(s[1:] - pos))]] = 1.0
        segments.append((s, y))
    for n, a, b in ((30, 1.0, 0.0), (300, 2.0, -1.0), (2000, 0.7, -2.5), (5000, 1.5, -1.0)):
        segments.append(_logistic_sample(n, a, b, rng))
    return segments


def _batch_arrays(segments):
    return (np.concatenate([s for s, _ in segments]), np.concatenate([y for _, y in segments]),
            np.cumsum([0] + [len(s) for s, _ in segments]))


class TestLockstepEngine:
    def test_mixed_batch_matches_the_scalar_oracle(self):
        segments = _mixed_segments()
        a, b, status = _newton_segments(*_batch_arrays(segments))
        seen, halvings = set(), 0
        for j, (s, y) in enumerate(segments):
            oa, ob, ostatus, ohalvings = scalar_newton_platt(s, y)
            assert _STATUSES[status[j]] == ostatus, j
            seen.add(ostatus)
            halvings += ohalvings
            if ostatus in ("converged", "degenerate", "all_same"):
                assert a[j] == pytest.approx(oa, rel=1e-12, abs=0.0), j
                assert b[j] == pytest.approx(ob, rel=1e-12, abs=0.0), j
        assert seen == {"all_same", "degenerate", "diverged", "converged"}
        assert halvings > 0

    def test_each_fit_alone_equals_its_fit_in_a_batch(self):
        segments = _mixed_segments()
        batch = _newton_segments(*_batch_arrays(segments))
        reverse = [x[::-1] for x in _newton_segments(*_batch_arrays(segments[::-1]))]
        for j, (s, y) in enumerate(segments):
            alone = _newton_segments(s, y, [0, len(s)])
            for fit in (batch, reverse):
                assert [x[j] for x in fit] == [x[0] for x in alone], j
                assert [x[j].tobytes() for x in fit[:2]] == [x[0].tobytes() for x in alone[:2]]

    def test_public_fits_share_the_engine(self):
        segments = _mixed_segments()
        calsets = [CalibrationSet(u, s, y) for u, (s, y) in enumerate(segments)]
        per_user, global_params = fit_all_users(calsets)
        assert global_params == fit_global(calsets)
        pooled = fit_user(CalibrationSet("all", *_batch_arrays(segments)[:2]))
        assert (global_params.a, global_params.b) == (pooled.a, pooled.b)
        for calset in calsets:
            assert per_user[calset.user] == fit_user(calset, fallback=global_params)

    def test_empty_segment_raises(self):
        with pytest.raises(ValueError, match="empty calibration set"):
            _newton_segments(np.arange(3.0), np.array([0.0, 1.0, 0.0]), [0, 3, 3])
        with pytest.raises(ValueError, match="empty calibration set"):
            fit_all_users([CalibrationSet(0, np.arange(3.0), np.array([0.0, 1.0, 0.0])),
                           CalibrationSet(1, np.array([]), np.array([]))])

    def test_pooled_ece_reports_apply_each_users_fit(self):
        calsets = [CalibrationSet(u, s, y) for u, (s, y) in enumerate(_mixed_segments())]
        per_user, global_params = fit_all_users(calsets)
        labels = np.concatenate([c.labels for c in calsets])
        by_user = np.concatenate([apply(per_user[c.user], c.scores) for c in calsets])
        by_global = np.concatenate([apply(global_params, c.scores) for c in calsets])
        assert pooled_ece_reports(calsets, per_user, global_params) == (
            ece_report(by_user, labels), ece_report(by_global, labels))


class TestBuildCalibrationBatch:
    def _split(self, val_pairs, users=np.arange(6), items=np.arange(8)):
        empty = InteractionSet.from_pairs(np.empty((0, 2)), users, items)
        return SplitDataset(train=empty, val=InteractionSet.from_pairs(val_pairs, users, items),
                            test=empty, seed=0)

    def test_packed_key_labels_equal_per_user_membership(self):
        rng = np.random.default_rng(3)
        # user 1 has no validation positives; user 3 is scored without candidates
        split = self._split(np.array([[0, 2], [0, 7], [2, 0], [2, 5], [4, 1], [5, 6], [5, 7]]))
        table = ScoreTable.from_entries({
            u: (items, rng.normal(size=len(items))) for u, items in (
                (0, np.array([7, 1, 2, 3])), (1, np.array([0, 2, 4])), (2, np.arange(8)),
                (3, np.array([], dtype=np.int64)), (4, np.array([6, 1])), (5, np.array([0])))})
        batch = build_calibration_batch(split, table)
        assert batch.users.tolist() == [0, 1, 2, 4, 5]
        assert batch.scores is table.scores
        for j, user in enumerate(batch.users.tolist()):
            items, scores = table.get(user)
            entries = slice(batch.indptr[j], batch.indptr[j + 1])
            want = np.isin(items, split.val.items_of(user)).astype(np.float64)
            np.testing.assert_array_equal(batch.labels[entries], want)
            np.testing.assert_array_equal(batch.scores[entries], scores)
            np.testing.assert_array_equal(build_calibration_set(user, split, table).labels, want)
        assert batch.labels.sum() == 5

    def test_ids_outside_the_validation_box_are_negatives(self):
        split = self._split(np.array([[1, 3], [2, 4]]))
        table = ScoreTable.from_entries({
            0: ([3, 4], [0.1, 0.2]), 1: ([3, 4, 9, -2**40], [0.1, 0.2, 0.3, 0.4]),
            2: ([4, 3], [0.1, 0.2]), 2**62: ([3], [0.5])})
        batch = build_calibration_batch(split, table)
        assert batch.labels.tolist() == [0, 0, 1, 0, 0, 0, 1, 0, 0]

    def test_keys_that_could_overflow_int64_are_refused(self):
        big = 2**40
        ids = np.array([0, big])
        split = self._split(np.array([[0, 0], [big, big]]), users=ids, items=ids)
        table = ScoreTable.from_entries({0: ([0, 1], [0.1, 0.2])})
        with pytest.raises(ValueError, match="int64"):
            build_calibration_batch(split, table)

    def test_batch_and_sets_fit_alike(self):
        rng = np.random.default_rng(8)
        split = self._split(np.array([[u, i] for u in range(6) for i in range(8)
                                      if (u * 3 + i) % 5 == 0]))
        table = ScoreTable.from_entries({u: (np.arange(8), rng.normal(size=8)) for u in range(6)})
        batch = build_calibration_batch(split, table)
        calsets = [build_calibration_set(u, split, table) for u in table.users()]
        assert fit_all_users(batch) == fit_all_users(calsets)
        assert pooled_ece_reports(batch, *fit_all_users(batch)) == pooled_ece_reports(
            calsets, *fit_all_users(calsets))

    def test_malformed_batch_is_refused(self):
        with pytest.raises(ValueError, match="CSR batch"):
            CalibrationBatch(np.array([0]), np.array([0, 2]), np.zeros(3), np.zeros(3))
