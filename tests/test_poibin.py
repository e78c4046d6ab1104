import numpy as np
import pytest

from persize.poibin import distribution, distribution_batch

from oracles import dp_count_distribution, enum_count_distribution, leave_one_out


class TestDistribution:
    def test_empty_product(self):
        mass, tail = distribution([], 5)
        np.testing.assert_array_equal(mass, [1.0])
        assert tail == 0.0

    def test_fair_coins(self):
        mass, _ = distribution([0.5, 0.5], 2)
        np.testing.assert_allclose(mass, [0.25, 0.5, 0.25], atol=1e-15)

    def test_hand_enumeration_three(self):
        # 0.1*0.8*0.7 + 0.9*0.2*0.7 + 0.9*0.8*0.3 = 0.398
        mass, _ = distribution([0.1, 0.2, 0.3], 3)
        assert mass[1] == pytest.approx(0.398, abs=1e-15)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 16))
            probs = rng.random(n)
            mass, tail = distribution(probs, n)
            ref = enum_count_distribution(probs)
            np.testing.assert_allclose(mass, ref, atol=1e-12)
            assert tail == 0.0

    def test_binomial_specialization(self):
        from math import comb

        rng = np.random.default_rng(1)
        for n in (1, 5, 17, 30):
            p = float(rng.random())
            mass, _ = distribution(np.full(n, p), n)
            ref = np.array([comb(n, m) * p**m * (1 - p) ** (n - m) for m in range(n + 1)])
            np.testing.assert_allclose(mass, ref, atol=1e-12)

    def test_mean_identity(self):
        rng = np.random.default_rng(2)
        for n in (3, 40, 300):
            probs = rng.random(n)
            mass, _ = distribution(probs, n)
            mean = float(np.arange(n + 1) @ mass)
            assert mean == pytest.approx(float(probs.sum()), abs=1e-9)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        probs = rng.random(24)
        base, _ = distribution(probs, 24)
        for _ in range(5):
            shuffled = rng.permutation(probs)
            np.testing.assert_allclose(distribution(shuffled, 24)[0], base, atol=1e-13)

    def test_truncation_prefix_consistency(self):
        rng = np.random.default_rng(4)
        probs = rng.random(30)
        full, _ = distribution(probs, 30)
        for M in range(0, 31, 5):
            trunc, tail = distribution(probs, M)
            np.testing.assert_array_equal(trunc, full[: M + 1])
            assert tail == pytest.approx(float(full[M + 1 :].sum()), abs=1e-12)

    def test_tail_not_renormalized(self):
        mass, tail = distribution([0.9, 0.9, 0.9], 1)
        assert mass.sum() < 1.0
        assert tail == pytest.approx(1.0 - mass.sum(), abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            distribution([0.5, 1.2], 2)
        with pytest.raises(ValueError):
            distribution([-0.1], 1)
        with pytest.raises(ValueError):
            distribution([0.5], -1)
        with pytest.raises(ValueError):
            distribution([0.5, float("nan")], 2)

    def test_batch_rejects_nan_like_single_user(self):
        probs = [[0.2, float("nan"), 0.1]]
        with pytest.raises(ValueError, match="probabilities must be finite"):
            distribution(probs[0], 5)
        with pytest.raises(ValueError, match="probabilities must be finite"):
            distribution_batch(probs, 5)

    def test_mass_nonnegative_and_bounded(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            probs = rng.random(int(rng.integers(1, 60)))
            M = int(rng.integers(0, 70))
            mass, _ = distribution(probs, M)
            assert np.all(mass >= 0.0)
            assert mass.sum() <= 1.0 + 1e-12


class TestConvTreePath:
    """The FFT product tree must agree with the windowed recurrence."""

    def test_agrees_with_dp(self):
        # n and caps on both sides of the 32-item chunk, up to full width
        rng = np.random.default_rng(6)
        for n in (1, 10, 31, 32, 33, 245, 257, 2048, 3000):
            probs = rng.random(n)
            for cap in sorted({0, 31, 32, 33, 100, 750, n}):
                np.testing.assert_allclose(
                    distribution(probs, cap)[0],
                    dp_count_distribution(probs, min(n, cap)),
                    atol=1e-12,
                )

    def test_large_input_uses_tree(self):
        # Thousands of candidates merge over many tree levels; results stay a distribution.
        rng = np.random.default_rng(7)
        probs = rng.uniform(0, 0.2, 5000)
        mass, _ = distribution(probs, 2000)
        assert np.all(mass >= 0)
        assert mass.sum() == pytest.approx(1.0, abs=1e-9)
        mean = float(np.arange(len(mass)) @ mass)
        assert mean == pytest.approx(float(probs.sum()), rel=1e-6)


class TestLeaveOneOut:
    """The removed-variable oracle, and the zeroed-probability identity: a
    zero probability adds nothing to the count, as each zero-padded curve
    block relies on."""

    def test_removing_one_coin(self):
        np.testing.assert_allclose(leave_one_out([0.5, 0.5], 0, 2), [0.5, 0.5], atol=1e-15)

    def test_removing_sure_event(self):
        np.testing.assert_allclose(leave_one_out([1.0, 0.3], 0, 2), [0.7, 0.3], atol=1e-15)

    def test_hand_enumeration(self):
        # remaining [0.1, 0.2]: P(1) = 0.1*0.8 + 0.9*0.2 = 0.26
        assert leave_one_out([0.1, 0.2, 0.3], 2, 3)[1] == pytest.approx(0.26, abs=1e-15)

    def test_matches_enumeration_on_reduced(self):
        rng = np.random.default_rng(8)
        probs = rng.random(10)
        for r in range(10):
            ref = enum_count_distribution(np.delete(probs, r))
            np.testing.assert_allclose(leave_one_out(probs, r, 9), ref, atol=1e-12)

    def test_zeroed_probability_matches_removal(self):
        rng = np.random.default_rng(9)
        probs = rng.random(40)
        for r in (0, 17, 39):
            for M in (5, 39, 40):
                zeroed = probs.copy()
                zeroed[r] = 0.0
                got, _ = distribution(zeroed, M)
                ref = leave_one_out(probs, r, M)
                np.testing.assert_allclose(got[: len(ref)], ref, atol=1e-12)
                np.testing.assert_allclose(got[len(ref):], 0.0, atol=1e-12)

    def test_index_errors(self):
        with pytest.raises(IndexError):
            leave_one_out([0.5], 1, 1)
        with pytest.raises(IndexError):
            leave_one_out([0.5], -1, 1)

class TestBlockDistribution:
    """``distribution`` on a (users, n) block is the engine's call on it."""

    def test_block_equals_engine_row_by_row(self):
        rng = np.random.default_rng(21)
        probs = rng.random((5, 70))
        probs[1, 40:] = 0.0  # a zero-padded row
        for M in (0, 10, 70, 100):
            block_mass, block_tail = distribution(probs, M)
            mass, tail = distribution_batch(probs, M)
            np.testing.assert_array_equal(block_mass, mass)
            np.testing.assert_array_equal(block_tail, tail)
            assert block_mass.shape == (5, min(70, M) + 1)
            assert block_tail.shape == (5,)
            for row in range(5):
                one = distribution_batch(probs[row : row + 1], M)
                np.testing.assert_array_equal(block_mass[row], one[0][0])

    def test_vector_is_not_a_block(self):
        mass, tail = distribution(np.array([0.2, 0.7, 0.4]), 5)
        assert mass.ndim == 1 and isinstance(tail, float)

    @pytest.mark.parametrize("probs, M, message", [
        ([[0.5, 1.2], [0.1, 0.2]], 2, "must lie in"),
        ([[0.5, -0.1]], 2, "must lie in"),
        ([[0.5, float("nan")], [0.1, 0.2]], 2, "must be finite"),
        ([[0.5, 0.1]], -1, "^M must be an integer >= 0, got -1$"),
    ], ids=["above_one", "negative", "nan", "negative_M"])
    def test_block_errors_match_engine(self, probs, M, message):
        with pytest.raises(ValueError, match=message) as front:
            distribution(probs, M)
        with pytest.raises(ValueError, match=message) as engine:
            distribution_batch(probs, M)
        assert str(front.value) == str(engine.value)

    def test_more_than_two_dimensions_rejected(self):
        with pytest.raises(ValueError, match="vector or a"):
            distribution(np.zeros((2, 2, 2)), 3)
