import warnings

import numpy as np
import pytest

from persize.multidomain import DomainCurves, allocate
from persize.synthetic import generate_world
from persize.utility import Measure, expected_curves_batch

from oracles import brute_force_allocate


def _curves(values_by_domain, user=0):
    return DomainCurves(
        user=user,
        curves={d: np.asarray(v, dtype=float) for d, v in values_by_domain.items()},
    )


class TestAllocate:
    def test_hand_case_beats_alternative(self):
        curves = _curves({"A": [0.5, 0.7], "B": [0.4, 0.45]})
        out = allocate(curves, N=3, K=2)
        assert out.sizes == {"A": 2, "B": 1}
        assert out.objective == pytest.approx(1.1, abs=1e-12)
        assert out.total == 3

    def test_single_domain_reduces_to_argmax(self):
        curves = _curves({"only": [0.2, 0.9, 0.4]})
        out = allocate(curves, N=10, K=3)
        assert out.sizes == {"only": 2}
        assert out.objective == pytest.approx(0.9)

    def test_allow_zero_skips_negative_domains(self):
        curves = _curves({"bad": [-0.5, -0.8], "good": [0.3, 0.6]})
        out = allocate(curves, N=3, K=2)
        assert out.sizes == {"bad": 0, "good": 2}

    def test_total_within_budget(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            x = int(rng.integers(1, 5))
            K = int(rng.integers(1, 9))
            N = int(rng.integers(0, 21))
            curves = _curves({f"d{j}": rng.normal(size=K) for j in range(x)})
            out = allocate(curves, N=N, K=K)
            assert out.total <= N
            assert all(0 <= k <= K for k in out.sizes.values())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        curves = _curves({"A": [0.5, bad, 0.2], "B": [0.3, 0.4, 0.1]}, user=7)
        with pytest.raises(ValueError, match="user 7, domain 'A'.*finite"):
            allocate(curves, N=4, K=3)

    def test_non_finite_values_past_K_ignored(self):
        curves = _curves({"A": [0.5, 0.7, np.nan], "B": [0.3, 0.4]})
        assert allocate(curves, N=3, K=2).sizes == {"A": 2, "B": 1}

    @pytest.mark.parametrize("value", [-1e308, 1e308])
    def test_values_too_large_to_sum_are_refused(self, value):
        # 1e308 returned an infinite objective; the per-domain maxima of
        # |value| bound every sum, so -1e308 is refused alike
        curves = _curves({"A": [value], "B": [value]}, user=7)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="^user 7: curve values too large to sum$"):
                allocate(curves, N=2, K=1)
        assert not caught

    @pytest.mark.parametrize("curve, message", [
        (np.ones((3, 2)), "curve must be 1-d, got shape (3, 2)"),
        (np.float64(0.5), "curve must be 1-d, got shape ()"),
        ([0.5], "curve shorter than K=2"),
    ])
    def test_bad_curve_names_user_and_domain(self, curve, message):
        curves = DomainCurves(user=7, curves={"a": curve, "b": np.ones(2)})
        with pytest.raises(ValueError) as err:
            allocate(curves, N=3, K=2)
        assert str(err.value) == f"user 7, domain 'a': {message}"

    def test_budget_beyond_reach_matches_full_budget(self):
        rng = np.random.default_rng(3)
        for _ in range(2):
            curves = _curves({f"d{j}": np.round(rng.normal(size=5), 1) for j in range(3)})
            full = allocate(curves, N=15, K=5)
            for N in (16, 40, 10**9):
                out = allocate(curves, N=N, K=5)
                assert out.sizes == full.sizes and out.objective == full.objective

    def test_budget_monotonicity(self):
        rng = np.random.default_rng(1)
        curves = _curves({f"d{j}": rng.normal(size=6) for j in range(3)})
        prev = -np.inf
        for N in range(19):
            obj = allocate(curves, N=N, K=6).objective
            assert obj >= prev - 1e-15
            prev = obj


class TestBruteForceAgreement:
    def test_hand_cases(self):
        for kwargs in (
            dict(values={"A": [0.5, 0.7], "B": [0.4, 0.45]}, N=3, K=2),
            dict(values={"only": [0.2, 0.9, 0.4]}, N=3, K=3),
            dict(values={"A": [0.5, 0.9], "B": [0.3, 0.8], "C": [0.2, 0.7]}, N=3, K=2),
            dict(values={"bad": [-0.5, -0.8], "good": [0.3, 0.6]}, N=3, K=2),
        ):
            curves = _curves(kwargs["values"])
            a = allocate(curves, kwargs["N"], kwargs["K"])
            b = brute_force_allocate(curves, kwargs["N"], kwargs["K"])
            assert a.sizes == b.sizes
            assert a.objective == b.objective

    def test_random_instances_match_exactly(self):
        rng = np.random.default_rng(2)
        for trial in range(200):
            x = int(rng.integers(1, 5))
            K = int(rng.integers(1, 9))
            N = int(rng.integers(1, 21))
            # ties matter: quantized values collide often
            vals = {f"d{j}": np.round(rng.normal(size=K), 1) for j in range(x)}
            curves = _curves(vals)
            a = allocate(curves, N=N, K=K)
            b = brute_force_allocate(curves, N=N, K=K)
            assert a.sizes == b.sizes, (trial, vals, N, K)
            assert a.objective == b.objective

    def test_benchmark_shape_matches_exactly(self):
        # three domains of F1 curves at K=50, as the allocate workload builds them
        K = 50
        per_domain = []
        for x, logit_range in enumerate(((-8.5, -2.5), (-6.0, -3.0), (-7.5, -1.5))):
            world = generate_world(4, 500, base_logit_range=logit_range, seed=40 + x)
            probs = -np.sort(-world.true_probs, axis=1)
            per_domain.append(
                expected_curves_batch(probs, [Measure.F1], M=2000, K=K)[Measure.F1])
        for u in range(4):
            curves = _curves({f"d{x}": c[u] for x, c in enumerate(per_domain)}, user=u)
            for N in (0, 1, 49, 50, 100, 151):
                a = allocate(curves, N=N, K=K)
                b = brute_force_allocate(curves, N=N, K=K)
                assert a.sizes == b.sizes, (u, N)
                assert a.objective == b.objective, (u, N)

    def test_combination_bound(self):
        curves = _curves({f"d{j}": np.zeros(100) for j in range(4)})
        with pytest.raises(ValueError, match="bound"):
            brute_force_allocate(curves, N=10, K=100, max_combos=10**6)
