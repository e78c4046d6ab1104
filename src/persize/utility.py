"""Realized and expected list utilities (NDCG, PDCG, F1, TP) over sizes 1..K.

NDCG, F1 and TP are a cumulative gain over a normalizer. An item's gain is
its relevance, discounted by 1 / log2(1 + rank) for NDCG; the normalizer of
a size-k list with m relevant items in all is (m + k) / 2 for F1,
min(m, k) for TP and IDCG(min(m, k)) for NDCG. PDCG is linear in the
relevances. These formulas are written once (``_gains``, ``_denominators``,
``_pdcg_curve``), and both kinds of curve evaluate them:

- realized (``realized_curve``): known 0/1 labels, at the realized count,
  for one user or a (users, L) block of label rows;
- expected (``expected_curves_batch``): each relevance an independent
  Bernoulli variable with a calibrated probability; one count distribution
  of the whole candidate set stands in for every rank's leave-one-out one,
  so the sum is one matrix product per measure for a whole block of users,
  whose masses come from one ``poibin.distribution`` call on the block; one
  user is a block of one row. M is a cap on the count: each block's count
  stops at its certified bound (``_count_bound``), the least count whose
  Chernoff tail is at most ``TAIL_EPS`` for every row of the block. Its
  probabilities are checked with the count engine's input check, PDCG's
  too.

The utility of one size k is entry k - 1 of its curve.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .poibin import _check_probs, distribution

DEFAULT_M = 2000
# Largest count mass an expected curve may drop above its block's bound.
TAIL_EPS = 2.0 ** -70


class Measure(Enum):
    """Utility measure: exposure-weighted relevance aggregate for a prefix."""

    NDCG = "ndcg"
    PDCG = "pdcg"
    F1 = "f1"
    TP = "tp"


def log_discount(ranks) -> np.ndarray:
    """Exposure weight 1 / log2(1 + r) for 1-based ranks."""
    return 1.0 / np.log2(1.0 + np.asarray(ranks, dtype=np.float64))


def _as_labels(prefix_labels) -> np.ndarray:
    labels = np.asarray(prefix_labels)
    if labels.ndim not in (1, 2) or labels.size == 0:
        raise ValueError("prefix labels must be a non-empty 1-d sequence or 2-d block")
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


def realized_curve(measure: Measure, prefix_labels, total_relevant) -> np.ndarray:
    """Realized utility at every size k = 1..L of a length-L label prefix.

    ``total_relevant`` is the number of relevant items in the whole
    candidate set, not just the prefix; it feeds the normalizers.
    NDCG, F1, and TP are 0 by convention when it is zero. A (users, L)
    block of label rows takes one total per row and gives one curve per
    row; each row equals its one-row call bit for bit.
    """
    labels = _as_labels(prefix_labels)
    s = np.asarray(total_relevant).astype(np.int64)
    if s.shape != labels.shape[:-1]:
        raise ValueError(f"expected one total per label row, got shape {s.shape}")
    hits = labels.sum(axis=-1)
    if np.any(s < hits):
        row = np.argmax(s < hits)
        raise ValueError(f"total_relevant={s.flat[row]} is less than "
                         f"{int(hits.flat[row])} observed hits")
    if measure is Measure.PDCG:
        return _pdcg_curve(labels)
    s = s[..., None]
    ks = np.arange(1, labels.shape[-1] + 1)
    curve = np.cumsum(_gains(measure, labels), axis=-1)
    curve /= _denominators(measure, ks, np.maximum(s, 1))
    curve[np.broadcast_to(s == 0, curve.shape)] = 0.0
    return curve


def check_curve_args(K: int, M: int) -> None:
    """Reject K < 1 and M < 1."""
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")


def _count_bound(probs: np.ndarray, cap: int) -> int:
    """The least B <= ``cap`` at which the Chernoff (1952) bound
    P(C > B) <= exp(-mu) (e mu / (B + 1))^(B + 1) is at most ``TAIL_EPS``
    for every row's count C, mu being the row's probability sum; ``cap``
    if none is. The bound holds for B + 1 > mu and grows with mu there, so
    the block's largest mu decides. An all-zero or empty block gives 0."""
    mu = float(probs.sum(axis=1).max(initial=0.0))
    if mu == 0.0:
        return 0
    m = np.arange(math.floor(mu) + 1, cap + 2, dtype=np.float64)  # m = B + 1 > mu
    certified = np.flatnonzero(m * (1.0 + math.log(mu) - np.log(m)) - mu <= math.log(TAIL_EPS))
    return int(m[certified[0]]) - 1 if len(certified) else cap


def expected_curves_batch(
    probs_sorted: np.ndarray,
    measures,
    M: int = DEFAULT_M,
    K: int = 50,
) -> dict:
    """Fast-estimator curves for a block of users in one set of matrix ops.

    ``probs_sorted`` is (users, n), each row in ranking order (descending).
    A row may be padded with zero probabilities up to the block width: a
    zero adds nothing to the count, so the user's values over its own sizes
    1..min(K, n_user) are unchanged up to rounding. Returns measure ->
    (users, min(K, n)) value arrays. The count masses of the whole block
    are one ``distribution`` call, truncated at the block's ``_count_bound``
    under the cap min(n, M - 1), so each row drops at most ``TAIL_EPS`` of
    mass that M - 1 would keep; every inverse-normalizer matrix is built
    once per block. Large blocks also release the interpreter lock inside
    the heavy array operations, which lets thread pools overlap.
    """
    probs_sorted = np.asarray(probs_sorted, dtype=np.float64)
    if probs_sorted.ndim != 2 or probs_sorted.shape[1] == 0:
        raise ValueError("expected a non-empty (users, n) probability matrix")
    check_curve_args(K, M)
    _check_probs(probs_sorted)
    p_topk = probs_sorted[:, : min(K, probs_sorted.shape[1])]
    out, mass = {}, None
    for measure in measures:
        if measure is Measure.PDCG:
            out[measure] = _pdcg_curve(p_topk)
            continue
        if mass is None:  # the whole set's mass stands in for each rank's leave-one-out one
            bound = _count_bound(probs_sorted, min(probs_sorted.shape[1], M - 1))
            mass, _ = distribution(probs_sorted, bound)
        ks, ms = np.arange(1, p_topk.shape[1] + 1), np.arange(1, mass.shape[1] + 1)
        inverse = _denominators(measure, ks[None, :], ms[:, None])
        weights = mass @ np.divide(1.0, inverse, out=inverse)
        out[measure] = np.cumsum(_gains(measure, p_topk), axis=1) * weights
    return out

