import numpy as np
import pytest

from persize import utility
from persize.poibin import distribution_batch
from persize.selection import _row_argmax
from persize.utility import (
    DEFAULT_M,
    TAIL_EPS,
    Measure,
    _count_bound,
    expected_curves_batch,
    log_discount,
    realized_curve,
)

from oracles import (
    dp_count_distribution,
    enum_expected_curve,
    enum_expected_utility,
    loo_expected_curve,
    realized_reference,
)

ALL = (Measure.NDCG, Measure.PDCG, Measure.F1, Measure.TP)


def approx_row(probs, measures, K, M=DEFAULT_M) -> dict:
    """One user's fast curves: its one-row block of ``expected_curves_batch``."""
    rows = expected_curves_batch(np.asarray(probs, dtype=float)[None, :], measures, M=M, K=K)
    return {m: rows[m][0] for m in measures}


def exact_row(probs, measures, K) -> dict:
    """One user's exact curves over sizes 1..min(K, n): the leave-one-out
    reference ``loo_expected_curve``, which shares no code with the library."""
    return {m: loo_expected_curve(m.value, probs, K) for m in measures}


class TestRealized:
    def test_perfect_single_hit_ndcg(self):
        assert realized_curve(Measure.NDCG, [1], 1)[-1] == 1.0

    def test_pdcg_hand_value(self):
        # 1/log2(2) - 1/log2(3)
        expected = 1.0 - 1.0 / np.log2(3.0)
        assert realized_curve(Measure.PDCG, [1, 0], 5)[-1] == pytest.approx(expected, abs=1e-12)

    def test_f1_direct(self):
        assert realized_curve(Measure.F1, [1, 1], 3)[-1] == pytest.approx(0.8)

    def test_tp_direct(self):
        assert realized_curve(Measure.TP, [1, 0, 1], 2)[-1] == 1.0

    def test_zero_relevant_convention(self):
        for measure in (Measure.NDCG, Measure.F1, Measure.TP):
            assert realized_curve(measure, [0, 0], 0)[-1] == 0.0
        # PDCG has no such guard: all-irrelevant prefixes go negative
        assert realized_curve(Measure.PDCG, [0, 0], 0)[-1] < 0.0

    def test_inconsistent_total_raises(self):
        with pytest.raises(ValueError):
            realized_curve(Measure.F1, [1, 1], 1)

    def test_nonbinary_labels_rejected(self):
        with pytest.raises(ValueError):
            realized_curve(Measure.NDCG, [0.5, 1.0], 2)
        with pytest.raises(ValueError):
            realized_curve(Measure.NDCG, [], 0)

    def test_matches_reference_all_sizes(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(1, 12))
            labels = (rng.random(n) < 0.4).astype(float)
            extra = int(rng.integers(0, 4))
            s = int(labels.sum()) + extra
            for measure in ALL:
                curve = realized_curve(measure, labels, s)
                for k in range(1, n + 1):
                    ref = realized_reference(measure.value, labels, s, k)
                    assert curve[k - 1] == pytest.approx(ref, abs=1e-12)


class TestExpectedPdcg:
    # the expected PDCG of a whole prefix is the last value of its curve
    def test_sure_hit(self):
        assert approx_row([1.0], [Measure.PDCG], K=1)[Measure.PDCG][-1] == 1.0

    def test_zero_centered(self):
        assert approx_row([0.5, 0.5], [Measure.PDCG], K=2)[Measure.PDCG][-1] == 0.0

    def test_hand_value_and_enumeration(self):
        val = approx_row([0.9, 0.4], [Measure.PDCG], K=2)[Measure.PDCG][-1]
        assert val == pytest.approx(0.8 - 0.2 / np.log2(3.0), abs=1e-12)
        assert val == pytest.approx(enum_expected_utility("pdcg", [0.9, 0.4], 2), abs=1e-12)


class TestExactCurve:
    """The leave-one-out reference, pinned to enumeration and, at 0/1
    probabilities, to the library's realized curves."""

    def test_single_sure_candidate(self):
        curves = exact_row([1.0], ALL, K=1)
        for measure, want in ((Measure.NDCG, 1.0), (Measure.F1, 1.0), (Measure.TP, 1.0)):
            assert curves[measure][0] == pytest.approx(want, abs=1e-12)

    def test_enumeration_equivalence(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(1, 13))
            probs = np.sort(rng.random(n))[::-1]
            curves = exact_row(probs, ALL, K=n)
            for measure in ALL:
                tol = 1e-12 if measure is Measure.PDCG else 1e-9
                ref = enum_expected_curve(measure.value, probs)
                for k in range(1, n + 1):
                    assert curves[measure][k - 1] == pytest.approx(ref[k - 1], abs=tol)

    def test_certain_and_impossible_candidates(self):
        # a zero-probability rank leaves its leave-one-out row unchanged;
        # a sure one shifts every other rank's count by one
        probs = np.array([1.0, 0.8, 0.5, 0.3, 0.0, 0.0])
        curves = exact_row(probs, ALL, K=len(probs))
        for measure in ALL:
            np.testing.assert_allclose(
                curves[measure], enum_expected_curve(measure.value, probs), atol=1e-12
            )

    def test_rank_blocks_match_per_rank_oracle(self):
        # beyond enumeration: each of 150 ranks' count distributions is
        # rebuilt here from its own reduced vector, in one F1 matrix formula
        rng = np.random.default_rng(3)
        n = 150
        probs = np.sort(rng.random(n))[::-1]
        loo = np.array([dp_count_distribution(np.delete(probs, r), n - 1) for r in range(n)])
        totals = np.cumsum(probs[:, None] * loo, axis=0)  # [k-1, m-1]
        ms, ks = np.arange(1, n + 1), np.arange(1, n + 1)
        want = (2.0 * totals / (ms[None, :] + ks[:, None])).sum(axis=1)
        curve = exact_row(probs, [Measure.F1], K=n)[Measure.F1]
        np.testing.assert_allclose(curve, want, rtol=0, atol=1e-12)

    def test_sure_labels_give_the_realized_curve(self):
        # with 0/1 probabilities the count is known, so every expected
        # curve must be the realized one: this ties the realized formulas
        # to the expected ones
        rng = np.random.default_rng(21)
        for n, K in ((1, 1), (7, 3), (40, 40), (150, 90)):
            for rate in (0.0, 0.2, 0.7, 1.0):
                labels = (rng.random(n) < rate).astype(float)
                curves = exact_row(labels, ALL, K=K)
                for measure in ALL:
                    want = realized_curve(measure, labels[:K], int(labels.sum()))
                    got = curves[measure]
                    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestApproxCurve:
    def test_pdcg_rows_equal_closed_form(self):
        rng = np.random.default_rng(2)
        probs = np.sort(rng.random(20))[::-1]
        curve = approx_row(probs, [Measure.PDCG], M=10, K=8)[Measure.PDCG]
        for k in range(1, 9):
            prefix = approx_row(probs[:k], [Measure.PDCG], K=k)[Measure.PDCG]
            assert curve[k - 1] == prefix[-1]

    def test_f1_hand_value(self):
        curve = approx_row([0.5, 0.5], [Measure.F1], M=2, K=1)[Measure.F1]
        assert curve[0] == pytest.approx(2 * 0.5 * (0.25 / 2 + 0.5 / 3), abs=1e-12)

    def test_single_sure_item_truncation_artifact(self):
        # With M=1 the count sum sees only P(count=0)=0, so the estimate is 0
        # while the exact value is 1: truncation at M drops the whole mass.
        approx = approx_row([1.0], [Measure.NDCG], M=1, K=1)[Measure.NDCG]
        exact = exact_row([1.0], [Measure.NDCG], K=1)[Measure.NDCG]
        assert approx[0] == 0.0
        assert exact[0] == 1.0

    def test_matches_naive_recomputation(self):
        rng = np.random.default_rng(3)
        probs = np.sort(rng.random(30))[::-1]
        K, M = 9, 14
        (d,), _ = distribution_batch([probs], M - 1)
        disc = log_discount(np.arange(1, 40))
        ideal = np.concatenate([[0.0], np.cumsum(disc)])
        curves = approx_row(probs, (Measure.NDCG, Measure.F1, Measure.TP), M=M, K=K)
        for measure, curve in curves.items():
            for k in range(1, K + 1):
                total = 0.0
                for m in range(1, len(d) + 1):
                    if measure is Measure.NDCG:
                        num = float(np.sum(probs[:k] * disc[:k])) * d[m - 1]
                        total += num / ideal[min(m, k)]
                    elif measure is Measure.F1:
                        total += 2.0 * float(probs[:k].sum()) * d[m - 1] / (m + k)
                    else:
                        total += float(probs[:k].sum()) * d[m - 1] / min(m, k)
                assert curve[k - 1] == pytest.approx(total, abs=1e-12)

    def test_truncation_monotone_toward_untruncated(self):
        rng = np.random.default_rng(4)
        probs = np.sort(rng.random(40))[::-1]
        K = 10
        measures = (Measure.NDCG, Measure.F1, Measure.TP)
        full = approx_row(probs, measures, M=41, K=K)
        prev = dict.fromkeys(measures, np.zeros(K))
        for M in (1, 3, 8, 20, 41):
            curves = approx_row(probs, measures, M=M, K=K)
            for measure in measures:
                cur = curves[measure]
                assert np.all(cur >= prev[measure] - 1e-15)
                assert np.all(cur <= full[measure] + 1e-12)
                prev[measure] = cur

    def test_range_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(1, 30))
            probs = np.sort(rng.random(n))[::-1]
            K = min(8, n)
            approx = approx_row(probs, ALL, M=50, K=K)
            for measure in ALL:
                values = approx[measure]
                assert np.all(np.isfinite(values))
                if measure is Measure.PDCG:
                    bound = np.cumsum(log_discount(np.arange(1, K + 1)))
                    assert np.all(np.abs(values) <= bound + 1e-12)
                else:
                    assert np.all(values >= -1e-12)
                    assert np.all(values <= 1.0 + 1e-12)

    def test_gap_shrinks_with_population(self):
        def max_gap(n, seed):
            rng = np.random.default_rng(seed)
            probs = np.sort(rng.uniform(0, 0.1, n))[::-1]
            K = 10
            approx = approx_row(probs, ALL, M=2000, K=K)
            exact = exact_row(probs, ALL, K=K)
            gaps = {}
            for measure in ALL:
                gaps[measure] = float(np.abs(approx[measure] - exact[measure]).max())
            return gaps

        small = max_gap(10, 6)
        large = max_gap(1000, 6)
        for measure in (Measure.NDCG, Measure.F1, Measure.TP):
            assert large[measure] < small[measure]
        assert small[Measure.PDCG] == 0.0
        assert large[Measure.PDCG] == 0.0

    def test_bad_inputs(self):
        with pytest.raises(ValueError, match="empty"):
            approx_row([], [Measure.F1], M=5, K=1)
        with pytest.raises(ValueError, match="M must"):
            approx_row([0.5], [Measure.F1], M=0, K=1)
        with pytest.raises(ValueError, match="K must"):
            approx_row([0.5], [Measure.F1], M=5, K=0)
        with pytest.raises(ValueError, match="finite"):
            approx_row([float("nan"), 0.1], [Measure.F1], M=5, K=1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 1.5, -0.2])
    def test_pdcg_alone_checks_probabilities_in_both_modes(self, bad):
        # PDCG needs no count distribution, yet it checks its input as the
        # count engine does, with the engine's messages
        probs = np.array([0.5, bad, 0.1])
        with pytest.raises(ValueError) as engine:
            distribution_batch(probs[None, :], 3)
        with pytest.raises(ValueError) as got:
            approx_row(probs, [Measure.PDCG], K=3)
        assert str(got.value) == str(engine.value)

    def test_curve_covers_min_K_n_sizes(self):
        probs = np.array([0.9, 0.8, 0.1])
        for measure in ALL:
            assert len(approx_row(probs, [measure], M=5, K=2)[measure]) == 2
            assert len(approx_row(probs, [measure], M=5, K=10)[measure]) == 3


class TestBatchedCurves:
    def test_matches_single_user_path(self):
        from persize.utility import expected_curves_batch

        rng = np.random.default_rng(6)
        probs = np.sort(rng.random((7, 60)), axis=1)[:, ::-1]
        batch = expected_curves_batch(probs, ALL, M=30, K=12)
        for b in range(7):
            single = approx_row(probs[b], ALL, M=30, K=12)
            for measure in ALL:
                np.testing.assert_allclose(batch[measure][b], single[measure], atol=1e-10)

    def test_distribution_batch_matches_single(self):
        rng = np.random.default_rng(7)
        probs = rng.random((5, 40))
        mass, tail = distribution_batch(probs, 25)
        for b in range(5):
            (single_mass,), (single_tail,) = distribution_batch(probs[b : b + 1], 25)
            np.testing.assert_allclose(mass[b], single_mass, atol=1e-12)
            assert tail[b] == pytest.approx(single_tail, abs=1e-12)

    def test_distribution_batch_zero_width(self):
        from persize.poibin import distribution_batch

        for M in (0, 3):
            mass, tail = distribution_batch(np.empty((4, 0)), M)
            np.testing.assert_array_equal(mass, np.ones((4, 1)))
            np.testing.assert_array_equal(tail, np.zeros(4))

    def test_batch_input_validation(self):
        from persize.utility import expected_curves_batch

        with pytest.raises(ValueError):
            expected_curves_batch(np.empty((2, 0)), ALL, M=5, K=3)
        with pytest.raises(ValueError):
            expected_curves_batch(np.zeros((2, 3)), ALL, M=0, K=3)

    def test_default_K_is_the_pipeline_default(self):
        # one default K for the curve engine, the selection routines and the CLI
        from persize import cli, selection

        curves = expected_curves_batch(np.full((2, 80), 0.5), [Measure.TP])[Measure.TP]
        assert curves.shape == (2, utility.DEFAULT_K)
        assert selection.DEFAULT_K is utility.DEFAULT_K
        assert cli._DEFAULTS["K"] is utility.DEFAULT_K

    def test_batch_minimal_truncation_bound(self):
        # M=1 uses a count distribution with the single index 0
        from persize.utility import expected_curves_batch

        probs = np.array([[0.9, 0.4, 0.1], [0.6, 0.5, 0.2]])
        batch = expected_curves_batch(probs, ALL, M=1, K=3)
        for b in range(2):
            single = approx_row(probs[b], ALL, M=1, K=3)
            for measure in ALL:
                np.testing.assert_allclose(batch[measure][b], single[measure], atol=1e-12)


class TestExpectedCurves:
    def test_shares_distribution_across_measures(self):
        rng = np.random.default_rng(7)
        probs = np.sort(rng.random(25))[::-1]
        K = 6
        curves = approx_row(probs, ALL, M=12, K=K)
        for measure in ALL:
            single = approx_row(probs, [measure], M=12, K=K)[measure]
            np.testing.assert_array_equal(curves[measure], single)


class TestCurveBlocks:
    def test_batch_rejects_K_below_one(self):
        from persize.utility import expected_curves_batch

        with pytest.raises(ValueError, match="K must"):
            expected_curves_batch(np.full((2, 3), 0.5), ALL, M=5, K=0)

    def test_realized_block_rows_equal_one_row_calls(self):
        rng = np.random.default_rng(32)
        lengths = [1, 7, 30, 30, 12]
        labels = np.zeros((len(lengths), 30))
        totals = []
        for row, n in zip(labels, lengths):
            row[:n] = rng.random(n) < 0.4
            totals.append(int(row.sum()) + int(rng.integers(0, 3)))
        totals[1] = int(labels[1].sum())  # may be zero: the zero convention
        for measure in ALL:
            block = realized_curve(measure, labels, totals)
            for row, n in enumerate(lengths):
                one = realized_curve(measure, labels[row, :n], totals[row])
                assert block[row, :n].tobytes() == one.tobytes(), (measure, row)

    def test_realized_block_checks_totals(self):
        labels = np.array([[1, 0], [1, 1]])
        with pytest.raises(ValueError, match="less than 2 observed hits"):
            realized_curve(Measure.F1, labels, [1, 1])
        with pytest.raises(ValueError, match="one total per label row"):
            realized_curve(Measure.F1, labels, 2)


def _criterion_10_block(seed=0) -> np.ndarray:
    """One block of acceptance criterion 10: 50 users x 5000 candidates from
    U(0, 0.05), each row in descending order."""
    probs = np.random.default_rng(seed).uniform(0.0, 0.05, (50, 5000))
    return -np.sort(-probs, axis=1)


def _hand_rows() -> dict:
    """Blocks whose bound sits at its extremes: every probability sum near
    0, every p = 1 (nothing may be cut), and one sure row among near-zero ones."""
    tiny = np.full((4, 32), 1e-9)
    tiny[1, 16:] = 0.0
    mixed = np.full((3, 30), 1e-6)
    mixed[2] = 1.0
    return {"tiny": tiny, "sure": np.ones((3, 30)), "mixed": mixed}


class TestCountBound:
    """Each block's count stops at ``_count_bound``, under the cap min(n, M - 1)."""

    def _fixed_cap(self, monkeypatch, probs, K) -> dict:
        """The curves with the count truncated at the cap itself."""
        with monkeypatch.context() as patch:
            patch.setattr(utility, "_count_bound", lambda probs, cap: cap)
            return expected_curves_batch(probs, ALL, M=DEFAULT_M, K=K)

    def _same_sizes(self, got: dict, want: dict, K: int) -> None:
        for measure in ALL:
            g, w = got[measure], want[measure]
            lengths = np.full(len(g), min(K, g.shape[1]))
            np.testing.assert_array_equal(_row_argmax(g, lengths), _row_argmax(w, lengths))
            assert np.all(np.abs(g - w) <= 1e-13 * np.abs(w)), measure

    def test_matches_the_fixed_cap_on_the_criterion_10_block(self, monkeypatch):
        probs = _criterion_10_block()
        bound = _count_bound(probs, DEFAULT_M - 1)
        assert 200 < bound < 300  # mean count 125, sd 11: far below the cap
        got = expected_curves_batch(probs, ALL, M=DEFAULT_M, K=50)
        self._same_sizes(got, self._fixed_cap(monkeypatch, probs, K=50), K=50)

    @pytest.mark.parametrize("name", ["tiny", "sure", "mixed"])
    def test_matches_the_fixed_cap_on_hand_made_rows(self, monkeypatch, name):
        probs = _hand_rows()[name]
        got = expected_curves_batch(probs, ALL, M=DEFAULT_M, K=10)
        want = self._fixed_cap(monkeypatch, probs, K=10)
        self._same_sizes(got, want, K=10)
        bound = _count_bound(probs, probs.shape[1])  # the cap min(n, M - 1)
        if name == "tiny":
            assert bound == 2
        else:  # a row of sure items counts n: nothing is cut
            assert bound == probs.shape[1]
            for measure in ALL:
                assert got[measure].tobytes() == want[measure].tobytes()

    def test_bound_keeps_to_the_cap_and_an_empty_count(self):
        probs = _criterion_10_block()[:3]
        assert _count_bound(probs, 100) == 100  # M - 1 below the certified bound
        assert _count_bound(np.zeros((2, 7)), 7) == 0
        assert _count_bound(np.zeros((0, 7)), 7) == 0  # a block of no users
        assert _count_bound(np.full((1, 5), 0.5), 5) == 5  # n caps it

    def test_dropped_tail_is_at_most_eps(self):
        # the one-chunk engine (n <= 32) at the full cap
        rng = np.random.default_rng(11)
        narrow = [*_hand_rows().values(), rng.uniform(0, 0.2, (6, 32)), rng.random((6, 32))]
        for probs in narrow:
            bound = _count_bound(probs, probs.shape[1])
            mass, _ = distribution_batch(probs, probs.shape[1])
            assert np.all(mass[:, bound + 1:].sum(axis=1) <= TAIL_EPS)
        # wide rows through the one-item-at-a-time oracle: the FFT merges of
        # the engine leave round-off near 1e-17 per cell in the far tail
        probs = _criterion_10_block()
        bound = _count_bound(probs, DEFAULT_M - 1)
        for row in (int(np.argmax(probs.sum(axis=1))), 0):
            tail = dp_count_distribution(probs[row], DEFAULT_M - 1)[bound + 1:].sum()
            assert tail <= TAIL_EPS

    def test_permuting_rows_permutes_curves_bit_for_bit(self):
        rng = np.random.default_rng(12)
        probs = _criterion_10_block(3)[:12, :700] * rng.uniform(0.2, 3.0, (12, 1))
        perm = rng.permutation(len(probs))
        curves = expected_curves_batch(probs, ALL, M=DEFAULT_M, K=20)
        permuted = expected_curves_batch(probs[perm], ALL, M=DEFAULT_M, K=20)
        for measure in ALL:
            assert permuted[measure].tobytes() == curves[measure][perm].tobytes()
