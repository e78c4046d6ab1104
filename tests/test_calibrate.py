import numpy as np
import pytest

from persize.calibrate import (
    _STATUSES,
    _TOLERANCE,
    FIT_CONVERGED,
    FIT_DEGENERATE,
    FIT_FALLBACK,
    PlattParams,
    _newton_segments,
    apply,
    calibration_labels,
    ece_report,
    fit_all_users,
    fit_global,
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


def _batch_arrays(segments):
    return (np.concatenate([s for s, _ in segments]), np.concatenate([y for _, y in segments]),
            np.cumsum([0] + [len(s) for s, _ in segments]))


def _batch(segments):
    """The score table of (scores, labels) segments, users 0, 1, ..., and
    its labels."""
    s, y, indptr = _batch_arrays(segments)
    return ScoreTable(np.arange(len(segments)), indptr, np.arange(len(s)), s), y


def _fit_one(s, y):
    """One user's fit: ``fit_all_users`` on a batch of one."""
    return fit_all_users(*_batch([(s, y)]))[0][0]


class TestFitUser:
    """Each user's Platt fit, as ``fit_all_users`` returns it."""

    def test_intercept_only_when_scores_identical(self):
        labels = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 0], dtype=float)
        params = _fit_one(np.zeros(10), labels)
        assert params.fit_status == FIT_DEGENERATE
        assert params.a == 0.0
        assert params.b == pytest.approx(np.log(0.3 / 0.7), abs=1e-12)

    def test_recovers_planted_parameters(self):
        rng = np.random.default_rng(0)
        s, y = _logistic_sample(100000, 1.5, -1.0, rng)
        params = _fit_one(s, y)
        assert params.fit_status == FIT_CONVERGED
        assert params.a == pytest.approx(1.5, abs=0.05)
        assert params.b == pytest.approx(-1.0, abs=0.05)
        # agree with an independent gradient-descent fit
        ga, gb = gd_platt_fit(s, y)
        assert params.a == pytest.approx(ga, abs=1e-3)
        assert params.b == pytest.approx(gb, abs=1e-3)

    def _with_converging_users(self, *segments):
        """Fit two converging users, then ``segments`` as users 2, 3, ..."""
        rng = np.random.default_rng(3)
        converging = [_logistic_sample(400, 1.0, -0.5, rng) for _ in range(2)]
        return fit_all_users(*_batch(converging + list(segments)))

    def test_all_negative_labels_fall_back(self):
        per_user, global_params = self._with_converging_users(
            (np.linspace(-1, 1, 10), np.zeros(10)))
        assert per_user[2].fit_status == FIT_FALLBACK
        assert (per_user[2].a, per_user[2].b) == (global_params.a, global_params.b)

    def test_fallback_carries_global_parameters(self):
        # a single-class user and a separable user each carry the global fit
        s = np.linspace(-1.0, 1.0, 200)
        per_user, global_params = self._with_converging_users(
            (np.linspace(-1, 1, 10), np.zeros(10)), (s, (s > 0.995).astype(np.float64)))
        statuses = [p.fit_status for p in per_user.values()]
        assert statuses == [FIT_CONVERGED] * 2 + [FIT_FALLBACK] * 2
        for user in (2, 3):
            assert (per_user[user].a, per_user[user].b) == (global_params.a, global_params.b)
            assert per_user[user].scope == user

    def test_separable_data_trips_divergence_guard(self):
        # Perfect separation at a margin far below the score spread: the
        # optimum runs off to an infinite slope and the bound must catch it
        # before the gradient underflows the tolerance.
        s = np.linspace(-1.0, 1.0, 200)
        y = (s > 0.995).astype(np.float64)
        per_user, _ = self._with_converging_users((s, y))
        assert per_user[2].fit_status == FIT_FALLBACK

    def test_gradient_norm_below_tolerance(self):
        segments = [_logistic_sample(2000, 0.8, 0.3, np.random.default_rng(seed))
                    for seed in range(5)]
        per_user, _ = fit_all_users(*_batch(segments))
        for (s, y), params in zip(segments, per_user.values()):
            assert params.fit_status == FIT_CONVERGED
            p = _sigmoid(params.a * s + params.b)
            grad = np.array([(p - y) @ s, (p - y).sum()])
            assert np.abs(grad).max() < _TOLERANCE

    def test_beats_intercept_only_model(self):
        rng = np.random.default_rng(2)
        s, y = _logistic_sample(5000, 1.2, 0.1, rng)
        params = _fit_one(s, y)
        rate = y.mean()
        b0 = float(np.log(rate / (1 - rate)))
        assert _bce(params.a, params.b, s, y) <= _bce(0.0, b0, s, y)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            _fit_one(np.array([]), np.array([]))


class TestFitGlobal:
    def test_single_user_pool_equals_user_fit(self):
        rng = np.random.default_rng(4)
        s, y = _logistic_sample(4000, 1.1, -0.2, rng)
        user = _fit_one(s, y)
        pooled = fit_global(*_batch([(s, y)]))
        assert pooled.a == pytest.approx(user.a, abs=1e-10)
        assert pooled.b == pytest.approx(user.b, abs=1e-10)
        assert pooled.scope == "GLOBAL"

    def test_score_shifts_hurt_global_ece(self):
        # Two populations whose scores are offset by a constant: one global
        # map cannot place its threshold right for both, per-user maps can.
        rng = np.random.default_rng(5)
        fit_segments, holdout = [], []
        for user, shift in enumerate((0.0, 6.0)):
            s, y = _logistic_sample(4000, 1.5, -1.0, rng)
            s = s + shift
            fit_segments.append((s[:2000], y[:2000]))
            holdout.append((user, s[2000:], y[2000:]))
        per_user, global_params = fit_all_users(*_batch(fit_segments))
        user_eces = [
            ece_report(apply(per_user[user], s), y)["ece"] for user, s, y in holdout
        ]
        pooled_s = np.concatenate([s for _, s, _ in holdout])
        pooled_y = np.concatenate([y for _, _, y in holdout])
        global_ece = ece_report(apply(global_params, pooled_s), pooled_y)["ece"]
        assert np.mean(user_eces) < global_ece

    def test_empty_pool_raises(self):
        empty = ScoreTable(np.array([], dtype=np.int64), np.array([0]), np.empty(0, np.int64),
                           np.empty(0))
        with pytest.raises(ValueError, match="no users"):
            fit_global(empty, np.empty(0))


class TestApply:
    def test_sigmoid_symmetry_points(self):
        for p in (apply(PlattParams(1.0, 0.0), 0.0), apply(PlattParams(0.0, 0.0), 123.4)):
            assert isinstance(p, float) and p == 0.5

    def test_hand_value(self):
        p = apply(PlattParams(2.0, -1.0), 2.0)
        assert isinstance(p, float) and p == pytest.approx(0.9525741268224334, abs=1e-12)

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

    @pytest.mark.parametrize("s", [float("nan"), float("inf"), -np.inf, [0.5, np.nan]])
    def test_non_finite_score_refused(self, s):
        # no probability strictly inside (0, 1) belongs to it
        with pytest.raises(ValueError, match="^cannot calibrate a non-finite score$"):
            apply(PlattParams(1.0, 0.0), s)

    def test_rejects_nan_params(self):
        # refused where they enter, so apply never meets them
        with pytest.raises(ValueError, match="non-finite calibration parameters for scope 7"):
            PlattParams(float("nan"), 0.0, scope=7)
        with pytest.raises(ValueError, match="'GLOBAL'"):
            PlattParams(0.5, float("-inf"))


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

    @pytest.mark.parametrize("predictions, labels, message", [
        ([1.5, 0.5], [0, 1], r"probabilities must lie in \[0, 1\]"),
        ([-0.2, 0.5], [0, 1], r"probabilities must lie in \[0, 1\]"),
        ([np.nan, 0.5], [0, 1], "probabilities must be finite"),
        ([0.2, 0.5], [3, -1], r"labels must lie in \[0, 1\], got -1.0, 3.0$"),
        ([0.2, 0.5], [np.nan, 1], r"labels must lie in \[0, 1\], got nan$"),
    ], ids=["prediction_above_one", "negative_prediction", "nan_prediction",
            "labels_outside", "nan_label"])
    def test_input_outside_the_unit_interval_is_refused(self, predictions, labels, message):
        # such input used to give an ECE above 1, or numpy's bincount error
        with pytest.raises(ValueError, match=message):
            ece_report(predictions, labels)


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
        table, labels = _batch(segments)
        per_user, global_params = fit_all_users(table, labels)
        assert global_params == fit_global(table, labels)
        a, b, status = _newton_segments(table.scores, labels, [0, len(table.scores)])
        assert (global_params.a, global_params.b, global_params.fit_status) == (
            a[0], b[0], _STATUSES[status[0]])
        for user, (s, y) in enumerate(segments):
            # each user's fit is the engine's on that user alone, or the fallback
            a, b, status = (x[0] for x in _newton_segments(s, y, [0, len(s)]))
            fit_status = _STATUSES[status]
            if fit_status not in (FIT_CONVERGED, FIT_DEGENERATE):
                a, b, fit_status = global_params.a, global_params.b, FIT_FALLBACK
            assert per_user[user] == PlattParams(a, b, user, fit_status)

    def test_empty_segment_raises(self):
        with pytest.raises(ValueError, match="empty calibration set"):
            _newton_segments(np.arange(3.0), np.array([0.0, 1.0, 0.0]), [0, 3, 3])
        # a user without entries gets no fit, and the others fit as they would alone
        segments = _mixed_segments()[-2:]
        table, labels = _batch(segments)
        gapped = ScoreTable([0, 1, 2], np.insert(table.indptr, 1, table.indptr[1]), table.items,
                            table.scores)
        per_user, global_params = fit_all_users(gapped, labels)
        assert sorted(per_user) == [0, 2]
        for user, (s, y) in zip((0, 2), segments):
            a, b, status = (x[0] for x in _newton_segments(s, y, [0, len(s)]))
            assert (per_user[user].a, per_user[user].b) == (a, b)
            assert per_user[user].fit_status == _STATUSES[status] == FIT_CONVERGED
        assert pooled_ece_reports(gapped, labels, per_user, global_params) == pooled_ece_reports(
            table, labels, {0: per_user[0], 1: per_user[2]}, global_params)

    def test_pooled_ece_reports_apply_each_users_fit(self):
        segments = _mixed_segments()
        table, labels = _batch(segments)
        per_user, global_params = fit_all_users(table, labels)
        by_user = np.concatenate([apply(per_user[u], s) for u, (s, _) in enumerate(segments)])
        by_global = apply(global_params, table.scores)
        assert pooled_ece_reports(table, labels, per_user, global_params) == (
            ece_report(by_user, labels), ece_report(by_global, labels))


class TestBuildCalibrationBatch:
    """``calibration_labels``: one label per score table entry."""

    def _split(self, val_pairs, users=np.arange(6), items=np.arange(8)):
        empty = InteractionSet.from_pairs(np.empty((0, 2)), users, items)
        return SplitDataset(train=empty, val=InteractionSet.from_pairs(val_pairs, users, items),
                            test=empty, seed=0)

    def _table(self, more=()):
        return ScoreTable.from_entries({
            0: (np.array([1, 2, 3, 4]), np.array([0.4, 0.9, 0.1, 0.2])),
            1: (np.array([0, 2, 3, 4]), np.array([0.5, 0.6, 0.7, 0.8])), **dict(more)})

    def test_labels_follow_val_membership(self):
        table = self._table()
        labels = calibration_labels(self._split(np.array([[0, 2], [1, 3]])), table)
        np.testing.assert_array_equal(labels[:4], [0, 1, 0, 0])
        assert labels.dtype == np.float64 and labels.shape == table.scores.shape

    def test_user_without_val_positives_flags_all_zero(self):
        # user 5 has no validation positives: all labels zero
        table = self._table({5: ([0, 1], [0.1, 0.2])})
        labels = calibration_labels(self._split(np.array([[0, 2], [1, 3]])), table)
        assert table.ids[-1] == 5 and labels[8:].sum() == 0
        per_user, _ = fit_all_users(table, labels)
        assert per_user[5].fit_status == FIT_FALLBACK

    def test_packed_key_labels_equal_per_user_membership(self):
        rng = np.random.default_rng(3)
        # user 1 has no validation positives; user 3 is scored without candidates
        split = self._split(np.array([[0, 2], [0, 7], [2, 0], [2, 5], [4, 1], [5, 6], [5, 7]]))
        table = ScoreTable.from_entries({
            u: (items, rng.normal(size=len(items))) for u, items in (
                (0, np.array([7, 1, 2, 3])), (1, np.array([0, 2, 4])), (2, np.arange(8)),
                (3, np.array([], dtype=np.int64)), (4, np.array([6, 1])), (5, np.array([0])))})
        labels = calibration_labels(split, table)
        assert sorted(fit_all_users(table, labels)[0]) == [0, 1, 2, 4, 5]
        for j, user in enumerate(table.users()):
            items, _ = table.get(user)
            entries = slice(table.indptr[j], table.indptr[j + 1])
            want = np.isin(items, split.val.items_of(user)).astype(np.float64)
            np.testing.assert_array_equal(labels[entries], want)
        assert labels.sum() == 5

    def test_ids_outside_the_validation_box_are_negatives(self):
        split = self._split(np.array([[1, 3], [2, 4]]))
        table = ScoreTable.from_entries({
            0: ([3, 4], [0.1, 0.2]), 1: ([3, 4, 9, -2**40], [0.1, 0.2, 0.3, 0.4]),
            2: ([4, 3], [0.1, 0.2]), 2**62: ([3], [0.5])})
        labels = calibration_labels(split, table)
        assert labels.tolist() == [0, 0, 1, 0, 0, 0, 1, 0, 0]

    def test_ids_spanning_2_40_label_without_overflow(self):
        # a box of (user, item) offsets would hold 2**80 keys; dense codes of
        # the pairs' own ids hold four
        big = 2**40
        ids = np.array([0, big])
        split = self._split(np.array([[0, 0], [big, big]]), users=ids, items=ids)
        table = ScoreTable.from_entries({0: ([0, 1], [0.1, 0.2])})
        assert calibration_labels(split, table).tolist() == [1, 0]

    def test_malformed_batch_is_refused(self):
        # the layout is the score table's to check
        with pytest.raises(ValueError, match="CSR table"):
            ScoreTable(np.array([0]), np.array([0, 2]), np.arange(3), np.zeros(3))


class TestCalibrationBatchChecks:
    """Calibration's input is the score table and one label per entry: the
    table refuses a layout the fits would get wrong or fail on later, and
    the fits refuse labels that are not one per entry in [0, 1]."""

    def _fit(self, users=(0, 1), indptr=(0, 2, 4), scores=(0.1, 0.5, -0.3, 0.2),
             labels=(0.0, 1.0, 1.0, 0.0)):
        table = ScoreTable(np.asarray(users), np.asarray(indptr), np.arange(len(scores)),
                           np.asarray(scores, dtype=np.float64))
        return fit_all_users(table, np.asarray(labels, dtype=np.float64))

    @pytest.mark.parametrize("users", [np.array([0.0, 1.0]), np.array([[0], [1]]),
                                       np.array([True, False]),
                                       np.array([0, 1], dtype=object)])
    def test_users_must_be_a_1d_integer_array(self, users):
        with pytest.raises(ValueError, match="CSR table"):
            ScoreTable(users, np.array([0, 2, 4]), np.arange(4), np.zeros(4))

    @pytest.mark.parametrize("indptr", [np.array([0, 4.5, 10]), np.array([[0], [2], [4]]),
                                        np.array([0, 2, 4], dtype=object)])
    def test_indptr_must_be_a_1d_integer_array(self, indptr):
        # [0, 4.5, 10] was truncated to [0, 4, 10], so other segments were fitted
        with pytest.raises(ValueError, match="CSR table"):
            ScoreTable(np.arange(2), indptr, np.arange(10), np.zeros(10))

    def test_repeated_users_are_refused(self):
        # the second segment's fit was applied to the first one's entries
        with pytest.raises(ValueError, match="CSR table"):
            self._fit(users=(0, 0))

    def test_decreasing_indptr_is_refused(self):
        with pytest.raises(ValueError, match="CSR table"):
            self._fit(indptr=(0, 900, 800), scores=np.zeros(800), labels=np.zeros(800))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_are_refused(self, bad):
        with pytest.raises(ValueError, match="^user 0: non-finite score$"):
            self._fit(scores=(0.1, bad, -0.3, 0.2))

    @pytest.mark.parametrize("bad", [2.0, -0.5, np.nan])
    def test_labels_outside_the_unit_interval_are_refused(self, bad):
        with pytest.raises(ValueError, match=r"^a label is outside \[0, 1\]$"):
            self._fit(labels=(0.0, bad, 1.0, 0.0))

    @pytest.mark.parametrize("labels", [(0.0, 1.0, 1.0), (0.0, 1.0, 1.0, 0.0, 1.0), ()])
    def test_labels_must_be_one_per_entry(self, labels):
        with pytest.raises(ValueError, match="^labels are not one per score table entry$"):
            self._fit(labels=labels)

    def test_soft_labels_and_unsigned_users_are_kept(self):
        # the users must rise, as the table's ids do: [3, 1] is refused
        labels = (0.0, 0.25, 1.0, 0.5)
        per_user, global_params = self._fit(users=np.array([1, 3], dtype=np.uint32),
                                            labels=labels)
        assert sorted(per_user) == [1, 3]
        s = np.array([0.1, 0.5, -0.3, 0.2])
        a, b, _ = _newton_segments(s, np.array(labels), [0, 4])
        assert (global_params.a, global_params.b) == (a[0], b[0])
        with pytest.raises(ValueError, match="CSR table"):
            self._fit(users=np.array([3, 1], dtype=np.uint32), labels=labels)
