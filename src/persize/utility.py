"""Realized and expected list utilities (NDCG, PDCG, F1, TP) over sizes 1..K.

Realized values score a ranked prefix against known 0/1 relevance labels.
Expected values treat each candidate's relevance as an independent Bernoulli
variable with a calibrated probability and integrate the same formulas over
the count distribution of the total number of relevant candidates. Two modes
are provided: a fast estimator that truncates the count sum at M and reuses
one count distribution for every rank, and an exact mode that uses each
rank's leave-one-out count distribution and sums the full count range.

The fast estimator's curve algebra is written once, for a block of users;
``expected_curves_batch`` feeds it a block's ``poibin.distribution_batch``
mass, and ``expected_curve_approx`` / ``expected_curves`` validate one
user's ranked probabilities and feed it the one-row ``poibin.distribution``
mass. Every count distribution, in both modes, comes from
``distribution_batch``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .poibin import distribution, distribution_batch

DEFAULT_M = 2000
EXACT_MODE_CAP = 2000
_LOO_BLOCK = 64


class Measure(Enum):
    """Utility measure: exposure-weighted relevance aggregate for a prefix."""

    NDCG = "ndcg"
    PDCG = "pdcg"
    F1 = "f1"
    TP = "tp"


@dataclass(frozen=True)
class UtilityCurve:
    """Expected utility for each candidate size k = 1..len(values)."""

    measure: Measure
    values: np.ndarray
    mode: str  # "approx" | "exact"
    user: int | None = None

    def __post_init__(self):
        self.values.setflags(write=False)

    def __len__(self) -> int:
        return len(self.values)


def log_discount(ranks) -> np.ndarray:
    """Exposure weight 1 / log2(1 + r) for 1-based ranks."""
    return 1.0 / np.log2(1.0 + np.asarray(ranks, dtype=np.float64))


def _as_labels(prefix_labels) -> np.ndarray:
    labels = np.asarray(prefix_labels)
    if labels.ndim != 1 or labels.size == 0:
        raise ValueError("prefix labels must be a non-empty 1-d sequence")
    if not np.all((labels == 0) | (labels == 1)):
        raise ValueError("labels must be 0 or 1")
    return labels.astype(np.float64)


def realized_curve(measure: Measure, prefix_labels, total_relevant: int) -> np.ndarray:
    """Realized utility at every size k = 1..len(prefix_labels).

    ``total_relevant`` is the number of relevant items in the whole
    candidate set, not just the prefix; it feeds the normalizers.
    NDCG, F1, and TP are 0 by convention when it is zero.
    """
    labels = _as_labels(prefix_labels)
    s = int(total_relevant)
    hits = np.cumsum(labels)
    if s < hits[-1]:
        raise ValueError(f"total_relevant={s} is less than {int(hits[-1])} observed hits")
    ks = np.arange(1, len(labels) + 1)
    disc = log_discount(ks)

    if measure is Measure.PDCG:
        return np.cumsum((2.0 * labels - 1.0) * disc)
    if s == 0:
        return np.zeros(len(labels))
    if measure is Measure.NDCG:
        ideal = np.concatenate([[0.0], np.cumsum(disc)])
        return np.cumsum(labels * disc) / ideal[np.minimum(ks, s)]
    if measure is Measure.F1:
        return 2.0 * hits / (s + ks)
    if measure is Measure.TP:
        return hits / np.minimum(ks, s)
    raise ValueError(f"unknown measure {measure!r}")


def realized_utility(measure: Measure, prefix_labels, total_relevant: int) -> float:
    """Realized utility of the full given prefix (single size)."""
    return float(realized_curve(measure, prefix_labels, total_relevant)[-1])


def _pdcg_curve(p_topk: np.ndarray) -> np.ndarray:
    ranks = np.arange(1, len(p_topk) + 1)
    return np.cumsum((2.0 * p_topk - 1.0) * log_discount(ranks))


def expected_pdcg(p) -> float:
    """Expected PDCG of a prefix: exact by linearity, no approximation."""
    p = np.asarray(p, dtype=np.float64)
    if p.size == 0:
        raise ValueError("empty prefix")
    return float(_pdcg_curve(p)[-1])


def expected_curve_approx(
    measure: Measure,
    all_probs,
    K: int,
    M: int = DEFAULT_M,
) -> UtilityCurve:
    """Truncated-sum estimate of expected utility for every size k = 1..min(K, n).

    The count distribution is built once from ``all_probs`` (the entire
    candidate set in ranking order, not just the top-K prefix) with indices
    0..M-1, the largest consumed by the count sum m = 1..M. It also stands
    in for every rank's leave-one-out variant; expected_curve_exact removes
    both shortcuts. The one-row case of expected_curves_batch; cost is
    O(n log^2 n + K*M).
    """
    return expected_curves(all_probs, [measure], K, M)[measure]


def expected_curve_exact(
    measure: Measure,
    all_probs,
    K: int,
    cap: int = EXACT_MODE_CAP,
) -> UtilityCurve:
    """Exact expected utility: per-rank leave-one-out counts, full count range.

    Removes both shortcuts of the fast estimator. Cost is min(K, n) full
    count distributions over n candidates plus a min(K, n) x n matrix per
    measure, so candidate sets are capped (default 2000); larger inputs
    should use expected_curve_approx.
    """
    all_probs = np.asarray(all_probs, dtype=np.float64)
    n = all_probs.size
    if n == 0:
        raise ValueError("empty candidate set")
    if n > cap:
        raise ValueError(
            f"{n} candidates exceed the exact-mode cap {cap}; use approx mode"
        )
    kmax = min(K, n)
    if kmax < 1:
        raise ValueError(f"K must be >= 1, got {K}")

    if measure is Measure.PDCG:
        return UtilityCurve(measure, _pdcg_curve(all_probs[:kmax]), mode="exact")

    # Row r of a leave-one-out block sets rank r's probability to 0, an exact
    # identity, so one batched call yields a block of ranks' distributions.
    # Blocks of _LOO_BLOCK ranks bound the working memory at any K.
    # contrib[r-1, m-1] = p_r * P(count without rank r = m-1), m = 1..n,
    # times the rank-r exposure when the measure discounts by position.
    contrib = np.empty((kmax, n))
    for lo in range(0, kmax, _LOO_BLOCK):
        rows = np.arange(lo, min(lo + _LOO_BLOCK, kmax))
        loo = np.tile(all_probs, (rows.size, 1))
        loo[np.arange(rows.size), rows] = 0.0
        contrib[rows] = distribution_batch(loo, n - 1)[0]
    contrib *= all_probs[:kmax, None]
    if measure is Measure.NDCG:
        contrib *= log_discount(np.arange(1, kmax + 1))[:, None]
    totals = np.cumsum(contrib, axis=0)  # totals[k-1, m-1]

    ms = np.arange(1, n + 1)
    ks = np.arange(1, kmax + 1)
    if measure is Measure.F1:
        values = (2.0 * totals / (ms[None, :] + ks[:, None])).sum(axis=1)
    elif measure is Measure.TP:
        values = (totals / np.minimum(ms[None, :], ks[:, None])).sum(axis=1)
    elif measure is Measure.NDCG:
        ideal = np.concatenate([[0.0], np.cumsum(log_discount(ms))])
        values = (totals / ideal[np.minimum(ms[None, :], ks[:, None])]).sum(axis=1)
    else:
        raise ValueError(f"unknown measure {measure!r}")
    return UtilityCurve(measure, values, mode="exact")


def expected_curves_batch(
    probs_sorted: np.ndarray,
    measures,
    M: int = DEFAULT_M,
    K: int = 50,
) -> dict:
    """Fast-estimator curves for a block of users in one set of matrix ops.

    ``probs_sorted`` is (users, n), each row in ranking order (descending).
    Returns measure -> (users, min(K, n)) value arrays. Large blocks
    amortize all per-user overhead and release the interpreter lock inside
    the heavy array operations, which is what makes thread pools effective.
    """
    probs_sorted = np.asarray(probs_sorted, dtype=np.float64)
    if probs_sorted.ndim != 2 or probs_sorted.shape[1] == 0:
        raise ValueError("expected a non-empty (users, n) probability matrix")
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    measures = list(measures)
    mass = None
    if any(m is not Measure.PDCG for m in measures):
        mass = distribution_batch(probs_sorted, M - 1)[0]
    return _curves_from_mass(probs_sorted[:, : min(K, probs_sorted.shape[1])], mass, measures)


def _curves_from_mass(p_topk: np.ndarray, mass, measures: list) -> dict:
    """The fast estimator's curve algebra, for a (users, kmax) block.

    ``mass`` is the (users, min(n, M - 1) + 1) truncated count mass of each
    user's whole candidate set; it may be None when only PDCG is asked for.
    """
    n_users, kmax = p_topk.shape
    disc = log_discount(np.arange(1, kmax + 1))

    out = {}
    if Measure.PDCG in measures:
        out[Measure.PDCG] = np.cumsum((2.0 * p_topk - 1.0) * disc, axis=1)
    rest = [m for m in measures if m is not Measure.PDCG]
    if not rest:
        return out

    e_len = mass.shape[1]
    ks = np.arange(1, kmax + 1)
    kcut = np.minimum(ks, e_len)
    ideal = np.concatenate([[0.0], np.cumsum(log_discount(np.arange(1, max(e_len, kmax) + 1)))])
    d_prefix = np.concatenate([np.zeros((n_users, 1)), np.cumsum(mass, axis=1)], axis=1)
    suffix = d_prefix[:, [e_len]] - d_prefix[:, kcut]

    a_stats = np.cumsum(p_topk, axis=1)
    for measure in rest:
        if measure is Measure.NDCG:
            w_stats = np.cumsum(p_topk * disc, axis=1)
            per_m = mass / ideal[1 : e_len + 1]
            head = np.concatenate([np.zeros((n_users, 1)), np.cumsum(per_m, axis=1)], axis=1)
            out[measure] = w_stats * (head[:, kcut] + suffix / ideal[ks])
        elif measure is Measure.TP:
            per_m = mass / np.arange(1, e_len + 1)
            head = np.concatenate([np.zeros((n_users, 1)), np.cumsum(per_m, axis=1)], axis=1)
            out[measure] = a_stats * (head[:, kcut] + suffix / ks)
        elif measure is Measure.F1:
            ms = np.arange(1, e_len + 1)
            values = np.empty((n_users, kmax))
            for k in ks:
                values[:, k - 1] = 2.0 * a_stats[:, k - 1] * (mass @ (1.0 / (ms + k)))
            out[measure] = values
        else:
            raise ValueError(f"unknown measure {measure!r}")
    return out


def expected_curves(
    all_probs,
    measures,
    K: int,
    M: int = DEFAULT_M,
    mode: str = "approx",
    exact_cap: int = EXACT_MODE_CAP,
) -> dict:
    """Curves over sizes 1..min(K, n) for several measures of one user,
    sharing the count distribution.

    ``all_probs`` is the user's candidate set in ranking order. Approx mode
    runs the batched curve algebra on one row; exact mode calls
    expected_curve_exact per measure.
    """
    if mode == "exact":
        return {m: expected_curve_exact(m, all_probs, K, exact_cap) for m in measures}
    if mode != "approx":
        raise ValueError(f"mode must be 'approx' or 'exact', got {mode!r}")
    all_probs = np.asarray(all_probs, dtype=np.float64)
    if all_probs.size == 0:
        raise ValueError("empty candidate set")
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    measures = list(measures)
    mass = None
    if any(m is not Measure.PDCG for m in measures):
        mass = distribution(all_probs, M - 1).mass[None, :]
    rows = _curves_from_mass(all_probs[None, :K], mass, measures)
    return {m: UtilityCurve(m, rows[m][0], mode="approx") for m in measures}
