import numpy as np
import pytest

from persize.multidomain import DomainCurves, allocate
from persize.synthetic import generate_world
from persize.utility import Measure, expected_curves_batch

from oracles import brute_force_allocate


def _curves(values_by_domain, user=0, measure=Measure.F1):
    return DomainCurves(
        user=user,
        measure=measure,
        curves={d: np.asarray(v, dtype=float) for d, v in values_by_domain.items()},
    )


class TestAllocate:
    def test_hand_case_beats_alternative(self):
        curves = _curves({"A": [0.5, 0.7], "B": [0.4, 0.45]})
        out = allocate(curves, N=3, K=2, allow_zero=False)
        assert out.sizes == {"A": 2, "B": 1}
        assert out.objective == pytest.approx(1.1, abs=1e-12)
        assert out.total == 3

    def test_single_domain_reduces_to_argmax(self):
        curves = _curves({"only": [0.2, 0.9, 0.4]})
        out = allocate(curves, N=10, K=3)
        assert out.sizes == {"only": 2}
        assert out.objective == pytest.approx(0.9)

    def test_budget_equals_domain_count_forces_ones(self):
        curves = _curves({"A": [0.5, 0.9], "B": [0.3, 0.8], "C": [0.2, 0.7]})
        out = allocate(curves, N=3, K=2, allow_zero=False)
        assert out.sizes == {"A": 1, "B": 1, "C": 1}

    def test_infeasible_raises(self):
        curves = _curves({"A": [0.5], "B": [0.4]})
        with pytest.raises(ValueError):
            allocate(curves, N=1, K=1, allow_zero=False)

    def test_allow_zero_skips_negative_domains(self):
        curves = _curves({"bad": [-0.5, -0.8], "good": [0.3, 0.6]})
        out = allocate(curves, N=3, K=2, allow_zero=True)
        assert out.sizes == {"bad": 0, "good": 2}

    def test_allow_zero_off_forces_negative_domain(self):
        curves = _curves({"bad": [-0.5, -0.8], "good": [0.3, 0.6]})
        out = allocate(curves, N=3, K=2, allow_zero=False)
        assert out.sizes == {"bad": 1, "good": 2}
        assert out.objective == pytest.approx(0.1)

    def test_total_within_budget(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            x = int(rng.integers(1, 5))
            K = int(rng.integers(1, 9))
            N = int(rng.integers(x, 21))
            curves = _curves({f"d{j}": rng.normal(size=K) for j in range(x)})
            out = allocate(curves, N=N, K=K, allow_zero=False)
            assert out.total <= N
            assert all(1 <= k <= K for k in out.sizes.values())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        curves = _curves({"A": [0.5, bad, 0.2], "B": [0.3, 0.4, 0.1]}, user=7)
        for allow_zero in (True, False):
            with pytest.raises(ValueError, match="user 7, domain 'A'.*finite"):
                allocate(curves, N=4, K=3, allow_zero=allow_zero)

    def test_non_finite_values_past_K_ignored(self):
        curves = _curves({"A": [0.5, 0.7, np.nan], "B": [0.3, 0.4]})
        assert allocate(curves, N=3, K=2).sizes == {"A": 2, "B": 1}

    def test_budget_beyond_reach_matches_full_budget(self):
        rng = np.random.default_rng(3)
        for allow_zero in (True, False):
            curves = _curves({f"d{j}": np.round(rng.normal(size=5), 1) for j in range(3)})
            full = allocate(curves, N=15, K=5, allow_zero=allow_zero)
            for N in (16, 40, 10**9):
                out = allocate(curves, N=N, K=5, allow_zero=allow_zero)
                assert out.sizes == full.sizes and out.objective == full.objective

    def test_budget_monotonicity(self):
        rng = np.random.default_rng(1)
        curves = _curves({f"d{j}": rng.normal(size=6) for j in range(3)})
        prev = -np.inf
        for N in range(3, 19):
            obj = allocate(curves, N=N, K=6, allow_zero=False).objective
            assert obj >= prev - 1e-15
            prev = obj


class TestBruteForceAgreement:
    def test_hand_cases(self):
        for kwargs in (
            dict(values={"A": [0.5, 0.7], "B": [0.4, 0.45]}, N=3, K=2, allow_zero=False),
            dict(values={"only": [0.2, 0.9, 0.4]}, N=3, K=3, allow_zero=True),
            dict(values={"A": [0.5, 0.9], "B": [0.3, 0.8], "C": [0.2, 0.7]}, N=3, K=2,
                 allow_zero=False),
        ):
            curves = _curves(kwargs["values"])
            a = allocate(curves, kwargs["N"], kwargs["K"], kwargs["allow_zero"])
            b = brute_force_allocate(curves, kwargs["N"], kwargs["K"], kwargs["allow_zero"])
            assert a.sizes == b.sizes
            assert a.objective == b.objective

    def test_random_instances_match_exactly(self):
        rng = np.random.default_rng(2)
        for trial in range(200):
            x = int(rng.integers(1, 5))
            K = int(rng.integers(1, 9))
            allow_zero = bool(rng.integers(0, 2))
            nmin = x if not allow_zero else 0
            N = int(rng.integers(max(nmin, 1), 21))
            if not allow_zero and N < x:
                continue
            # ties matter: quantized values collide often
            vals = {f"d{j}": np.round(rng.normal(size=K), 1) for j in range(x)}
            curves = _curves(vals)
            a = allocate(curves, N=N, K=K, allow_zero=allow_zero)
            b = brute_force_allocate(curves, N=N, K=K, allow_zero=allow_zero)
            assert a.sizes == b.sizes, (trial, vals, N, K, allow_zero)
            assert a.objective == b.objective

    @pytest.mark.parametrize("allow_zero", [True, False])
    def test_benchmark_shape_matches_exactly(self, allow_zero):
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
                if not allow_zero and N < 3:
                    for fn in (allocate, brute_force_allocate):
                        with pytest.raises(ValueError, match="one slot each"):
                            fn(curves, N=N, K=K, allow_zero=allow_zero)
                    continue
                a = allocate(curves, N=N, K=K, allow_zero=allow_zero)
                b = brute_force_allocate(curves, N=N, K=K, allow_zero=allow_zero)
                assert a.sizes == b.sizes, (u, N)
                assert a.objective == b.objective, (u, N)

    def test_combination_bound(self):
        curves = _curves({f"d{j}": np.zeros(100) for j in range(4)})
        with pytest.raises(ValueError, match="bound"):
            brute_force_allocate(curves, N=10, K=100, max_combos=10**6)
