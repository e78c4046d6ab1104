"""Splitting a total recommendation budget across domains.

Given one user's expected-utility curve per domain and a cap N on the total
number of slots, pick per-domain sizes maximizing the summed expected
utility. This is a bounded-knapsack instance solved exactly by a max-plus
dynamic program over (domain, remaining budget): for each domain, right to
left, one (budget x size) array of candidate sums is built and reduced by
its first argmax along the size axis, so ties break toward the
lexicographically smallest size vector in sorted domain order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .util import _check_number
from .utility import Measure


@dataclass(frozen=True)
class DomainCurves:
    """One user's expected-utility curves, one per domain, same measure."""

    user: int
    measure: Measure
    curves: dict  # domain id -> np.ndarray of length K

    def domain_ids(self) -> list:
        return sorted(self.curves)


@dataclass(frozen=True)
class Allocation:
    sizes: dict  # domain id -> chosen size (0 allowed when permitted)
    total: int
    objective: float


def _values(curves: DomainCurves, K: int) -> list[np.ndarray]:
    vals = []
    for dom in curves.domain_ids():
        v = np.asarray(curves.curves[dom], dtype=np.float64)
        if len(v) < K:
            raise ValueError(f"domain {dom!r}: curve shorter than K={K}")
        v = v[:K]
        if not np.isfinite(v).all():
            raise ValueError(
                f"user {curves.user}, domain {dom!r}: curve values must be finite"
            )
        vals.append(v)
    return vals


def allocate(curves: DomainCurves, N: int, K: int, allow_zero: bool = True) -> Allocation:
    """Exact max-plus DP over (domain, budget), one array step per domain.

    ``f[x, b]`` is the best objective of domains x.. under budget b. For
    domain x the (budget x size) array ``v_x[k] + f[x+1, b-k]`` (``-inf``
    where ``b - k < 0``) is reduced by its first argmax along k, so each
    candidate is one float addition in right-fold order and ties go to the
    smallest k; the chosen k per (x, b) is kept and read back for the sizes.
    A budget above what the domains can use is clamped to it, which changes
    neither the feasible set nor any tie.

    With ``allow_zero`` off every domain needs at least one slot, so N must
    cover the domain count. Negative curve values (possible for PDCG) are
    handled natively; with zeros allowed, an all-negative domain gets none.
    N must be an integer >= 0 and K an integer >= 1; non-finite curve
    values are rejected.
    """
    doms = curves.domain_ids()
    x_count = len(doms)
    if x_count == 0:
        raise ValueError("no domains to allocate")
    _check_number("N", N, 0, integer=True)
    _check_number("K", K, 1, integer=True)
    if not allow_zero and N < x_count:
        raise ValueError(f"budget {N} cannot give {x_count} domains one slot each")
    vals = _values(curves, K)
    kmin = 0 if allow_zero else 1
    budget = min(N, x_count * K)
    ks = np.arange(kmin, min(K, budget) + 1)

    # rest[b, j] reads f[x+1, b - ks[j]] from a copy padded with -inf in front
    pad = int(ks[-1])
    rest_idx = np.arange(budget + 1)[:, None] - ks[None, :] + pad
    rows = np.arange(budget + 1)
    f = np.zeros(budget + 1)
    choice = np.empty((x_count, budget + 1), dtype=np.intp)
    for x in range(x_count - 1, -1, -1):
        gains = np.concatenate(([0.0], vals[x]))[ks]  # v_x[0] = 0: no slots
        padded = np.concatenate((np.full(pad, -np.inf), f))
        cand = gains[None, :] + padded[rest_idx]
        choice[x] = np.argmax(cand, axis=1)
        f = cand[rows, choice[x]]
    if f[budget] == -np.inf:
        raise ValueError("allocation infeasible under the given budget")

    sizes = {}
    b = budget
    for x, dom in enumerate(doms):
        k = int(ks[choice[x, b]])
        sizes[dom] = k
        b -= k
    return Allocation(sizes=sizes, total=sum(sizes.values()), objective=float(f[budget]))
