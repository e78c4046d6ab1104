"""Realized and expected list utilities (NDCG, PDCG, F1, TP) over sizes 1..K.

NDCG, F1 and TP are a cumulative gain over a normalizer. An item's gain is
its relevance, discounted by 1 / log2(1 + rank) for NDCG; the normalizer of
a size-k list with m relevant items in all is (m + k) / 2 for F1,
min(m, k) for TP and IDCG(min(m, k)) for NDCG. PDCG is linear in the
relevances. These formulas are written once (``_gains``, ``_denominators``,
``_pdcg_curve``), and every kind of curve evaluates them:

- realized: known 0/1 labels, at the realized count;
- expected, fast ("approx"): each relevance an independent Bernoulli
  variable with a calibrated probability; the count sum is truncated at M,
  and one count distribution of the whole candidate set stands in for
  every rank's leave-one-out one, so the sum is one matrix product per
  measure, for a block of users (``expected_curves_batch``) or for one
  (``expected_curves``, through ``poibin.distribution``);
- expected, exact: each top rank's leave-one-out count distribution over
  the full count range, built in blocks of ranks once per user and shared
  by every measure.

Every count distribution, in both modes, comes from
``poibin.distribution_batch``.
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


def _gains(measure: Measure, p: np.ndarray) -> np.ndarray:
    """Gain of each rank along the last axis: relevance, discounted for NDCG."""
    if measure is Measure.NDCG:
        return p * log_discount(np.arange(1, p.shape[-1] + 1))
    return p


def _denominators(measure: Measure, ks, ms) -> np.ndarray:
    """Normalizer of a size-k list with m relevant in all (broadcastable
    integer ``ks``, ``ms`` >= 1); utility is cumulative gain over it. The
    result is a new float array, which callers may overwrite."""
    if measure is Measure.F1:
        total = np.add(ms, ks, dtype=np.float64)
        total /= 2.0
        return total
    if measure is Measure.NDCG:
        # IDCG grows with the size, so IDCG(min(k, m)) = min(IDCG(k), IDCG(m)).
        top = max(np.max(ks), np.max(ms))
        ideal = np.concatenate([[0.0], np.cumsum(log_discount(np.arange(1, top + 1)))])
        ks, ms = ideal[ks], ideal[ms]
    elif measure is not Measure.TP:
        raise ValueError(f"unknown measure {measure!r}")
    return np.minimum(ks, ms, dtype=np.float64)


def _pdcg_curve(p: np.ndarray) -> np.ndarray:
    """PDCG at every size along the last axis: exact by linearity."""
    return np.cumsum((2.0 * p - 1.0) * log_discount(np.arange(1, p.shape[-1] + 1)), axis=-1)


def realized_curve(measure: Measure, prefix_labels, total_relevant: int) -> np.ndarray:
    """Realized utility at every size k = 1..len(prefix_labels).

    ``total_relevant`` is the number of relevant items in the whole
    candidate set, not just the prefix; it feeds the normalizers.
    NDCG, F1, and TP are 0 by convention when it is zero.
    """
    labels = _as_labels(prefix_labels)
    s = int(total_relevant)
    hits = labels.sum()
    if s < hits:
        raise ValueError(f"total_relevant={s} is less than {int(hits)} observed hits")
    if measure is Measure.PDCG:
        return _pdcg_curve(labels)
    if s == 0:
        return np.zeros(len(labels))
    ks = np.arange(1, len(labels) + 1)
    return np.cumsum(_gains(measure, labels)) / _denominators(measure, ks, s)


def realized_utility(measure: Measure, prefix_labels, total_relevant: int) -> float:
    """Realized utility of the full given prefix (single size)."""
    return float(realized_curve(measure, prefix_labels, total_relevant)[-1])


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
    both shortcuts. The one-measure case of expected_curves; cost is
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
    count distributions over n candidates, so candidate sets are capped
    (default 2000); larger inputs should use expected_curve_approx. The
    one-measure case of expected_curves in exact mode.
    """
    return expected_curves(all_probs, [measure], K, mode="exact", exact_cap=cap)[measure]


def _exact_curves(all_probs: np.ndarray, kmax: int, measures: list) -> dict:
    """Exact curves of one user over sizes 1..kmax, every measure at once.

    With loo[r, j] = P(j candidates other than rank r are relevant), rank r
    adds gains[r] * loo[r, j] to every size k >= r with m = j + 1 relevant
    in all. Setting rank r's probability to 0 is an exact identity, so one
    batched count call gives a block of _LOO_BLOCK ranks; each block is
    shared by every measure and dropped, and the cumulated gains carry over
    to the next block, so memory stays a few blocks at any K.
    """
    n = all_probs.size
    ms = np.arange(1, n + 1)
    gains = {m: _gains(m, all_probs[:kmax]) for m in measures if m is not Measure.PDCG}
    carry = {m: np.zeros(n) for m in gains}
    out = {m: np.empty(kmax) for m in gains}
    for lo in range(0, kmax, _LOO_BLOCK):
        rows = np.arange(lo, min(lo + _LOO_BLOCK, kmax))
        loo = np.tile(all_probs, (rows.size, 1))
        loo[np.arange(rows.size), rows] = 0.0
        loo = distribution_batch(loo, n - 1)[0]
        for measure, gain in gains.items():
            totals = loo * gain[rows, None]
            totals[0] += carry[measure]
            np.cumsum(totals, axis=0, out=totals)
            carry[measure] = totals[-1].copy()
            totals /= _denominators(measure, rows[:, None] + 1, ms)
            out[measure][rows] = totals.sum(axis=1)
    if Measure.PDCG in measures:
        out[Measure.PDCG] = _pdcg_curve(all_probs[:kmax])
    return out


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
    """The fast estimator's curves for a (users, kmax) block.

    ``mass`` is the (users, min(n, M - 1) + 1) truncated count mass of each
    user's whole candidate set (None when only PDCG is asked for). It stands
    in for every rank's leave-one-out mass, so index j stands for m = j + 1.
    """
    out = {}
    for measure in measures:
        if measure is Measure.PDCG:
            out[measure] = _pdcg_curve(p_topk)
        else:
            ks, ms = np.arange(1, p_topk.shape[1] + 1), np.arange(1, mass.shape[1] + 1)
            inverse = _denominators(measure, ks[None, :], ms[:, None])
            weights = mass @ np.divide(1.0, inverse, out=inverse)
            out[measure] = np.cumsum(_gains(measure, p_topk), axis=1) * weights
    return out


def expected_curves(
    all_probs,
    measures,
    K: int,
    M: int = DEFAULT_M,
    mode: str = "approx",
    exact_cap: int = EXACT_MODE_CAP,
) -> dict:
    """Curves over sizes 1..min(K, n) for several measures of one user.

    ``all_probs`` is the user's candidate set in ranking order. Every
    measure shares one count distribution in approx mode (the one-row case
    of the batched fast estimator) and one set of leave-one-out
    distributions in exact mode.
    """
    if mode not in ("approx", "exact"):
        raise ValueError(f"mode must be 'approx' or 'exact', got {mode!r}")
    all_probs = np.asarray(all_probs, dtype=np.float64)
    n = all_probs.size
    if n == 0:
        raise ValueError("empty candidate set")
    if mode == "exact" and n > exact_cap:
        raise ValueError(f"{n} candidates exceed the exact-mode cap {exact_cap}; use approx mode")
    if mode == "approx" and M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    measures = list(measures)
    kmax = min(K, n)
    if mode == "exact":
        values = _exact_curves(all_probs, kmax, measures)
        return {m: UtilityCurve(m, values[m], mode="exact") for m in measures}
    mass = None
    if any(m is not Measure.PDCG for m in measures):
        mass = distribution(all_probs, M - 1).mass[None, :]
    rows = _curves_from_mass(all_probs[None, :kmax], mass, measures)
    return {m: UtilityCurve(m, rows[m][0], mode="approx") for m in measures}
