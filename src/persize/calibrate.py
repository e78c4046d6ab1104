"""User-wise Platt scaling of ranking scores into interaction probabilities.

Each user's raw ranking scores are mapped through sigmoid(a*s + b), with
(a, b) fitted by minimizing binary cross-entropy against that user's
calibration labels: validation positives are 1, every other candidate is 0.
The two-parameter problem is convex and solved by damped Newton iteration.
A single global fit over all users' pooled entries serves both as an
ablation and as the fallback when a user's own fit does not converge.

Calibration has no settings. Each fit sees all of a user's candidates,
the ones ``recommend`` applies it to, so at a converged or degenerate fit
the calibrated probabilities sum to the user's validation positives. The
solver's iteration limit, tolerance and divergence bound are constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GLOBAL_SCOPE = "GLOBAL"

FIT_CONVERGED = "converged"
FIT_FALLBACK = "fallback_global"
FIT_DEGENERATE = "degenerate"

# Sigmoid argument clamp keeping outputs strictly inside (0, 1) in float64.
_Z_CLIP = 36.0

# Newton solver: iteration limit, raw-space gradient tolerance, and the bound
# on the standardized |a| or |b| past which a fit counts as diverged.
_MAX_ITERS = 100
_TOLERANCE = 1e-8
_DIVERGENCE_BOUND = 50.0


@dataclass(frozen=True)
class PlattParams:
    """Slope/intercept of one calibration map and how the fit ended."""

    a: float
    b: float
    scope: int | str = GLOBAL_SCOPE
    fit_status: str = FIT_CONVERGED


@dataclass(frozen=True)
class CalibrationSet:
    """Per-user (score, label) pairs: val positives 1, other candidates 0."""

    user: int
    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if len(self.scores) != len(self.labels):
            raise ValueError("scores and labels must have equal length")


def build_calibration_set(user: int, split, scores) -> CalibrationSet:
    """Label the user's scored candidates: 1 for val positives, else 0."""
    items, s = scores.get(user)
    labels = np.isin(items, split.val.items_of(user)).astype(np.float64)
    return CalibrationSet(user=user, scores=np.asarray(s, dtype=np.float64), labels=labels)


def _sigmoid(z):
    return np.exp(-np.logaddexp(0.0, -z))


def _bce(a: float, b: float, s: np.ndarray, y: np.ndarray) -> float:
    z = a * s + b
    # sum(log(1 + e^z) - y*z), stable for large |z|
    return float(np.sum(np.logaddexp(0.0, z) - y * z))


def _newton_platt(s: np.ndarray, y: np.ndarray):
    """Damped Newton on the two-parameter BCE. Returns (a, b, status).

    The iteration runs on internally standardized scores, which leaves the
    optimum unchanged but keeps the Hessian well conditioned and makes the
    divergence bound scale-free: it then measures how many score standard
    deviations the fitted sigmoid needs to transition, which is what
    actually signals (quasi-)separable data. Convergence is still declared
    on the raw-space gradient, and raw-space (a, b) are returned.
    """
    pos_rate = float(np.mean(y))
    if pos_rate <= 0.0 or pos_rate >= 1.0:
        return 0.0, 0.0, "all_same"
    if np.ptp(s) == 0.0:
        # Slope is unidentifiable when every score coincides; pin it and use
        # the closed-form intercept-only optimum.
        return 0.0, float(np.log(pos_rate / (1.0 - pos_rate))), FIT_DEGENERATE

    mu = float(s.mean())
    sigma = float(s.std())
    t = (s - mu) / sigma

    a = 0.0
    b = float(np.log(pos_rate / (1.0 - pos_rate)))
    loss = _bce(a, b, t, y)
    for _ in range(_MAX_ITERS):
        z = a * t + b
        p = _sigmoid(z)
        resid = p - y
        ga = float(resid @ t)
        gb = float(resid.sum())
        # raw-space gradient: d/da_raw = resid @ s, d/db_raw = resid.sum()
        ga_raw = float(resid @ s)
        if max(abs(ga_raw), abs(gb)) < _TOLERANCE:
            return a / sigma, b - a * mu / sigma, FIT_CONVERGED
        w = p * (1.0 - p)
        haa = float(w @ (t * t))
        hab = float(w @ t)
        hbb = float(w.sum())
        det = haa * hbb - hab * hab
        if det <= 0 or not np.isfinite(det):
            return a / sigma, b - a * mu / sigma, "singular"
        da = (hbb * ga - hab * gb) / det
        db = (haa * gb - hab * ga) / det
        decrement = ga * da + gb * db  # g' H^-1 g >= 0 on a convex objective
        if decrement <= 1e-9 * (abs(loss) + 1.0):
            # Quadratic-convergence regime: the true improvement is below
            # rounding at the loss's magnitude, so skip the line search.
            a, b = a - da, b - db
            loss = _bce(a, b, t, y)
        else:
            step = 1.0
            for _ in range(50):
                na, nb = a - step * da, b - step * db
                nloss = _bce(na, nb, t, y)
                if nloss <= loss:
                    break
                step *= 0.5
            a, b, loss = na, nb, nloss
        if abs(a) > _DIVERGENCE_BOUND or abs(b) > _DIVERGENCE_BOUND:
            return a / sigma, b - a * mu / sigma, "diverged"
    return a / sigma, b - a * mu / sigma, "not_converged"


def fit_user(calset: CalibrationSet, fallback: PlattParams | None = None) -> PlattParams:
    """Fit one user's calibration map.

    Separable or single-class calibration sets cannot support a stable fit;
    those come back with status ``fallback_global`` carrying the supplied
    global parameters (NaN if none were given).
    """
    if len(calset.scores) == 0:
        raise ValueError("empty calibration set")
    a, b, status = _newton_platt(calset.scores, calset.labels)
    if status in (FIT_CONVERGED, FIT_DEGENERATE):
        return PlattParams(a=a, b=b, scope=calset.user, fit_status=status)
    if fallback is not None:
        return PlattParams(a=fallback.a, b=fallback.b, scope=calset.user, fit_status=FIT_FALLBACK)
    return PlattParams(a=float("nan"), b=float("nan"), scope=calset.user, fit_status=FIT_FALLBACK)


def fit_global(calsets) -> PlattParams:
    """Fit one calibration map over every user's pooled entries."""
    calsets = list(calsets)
    if not calsets:
        raise ValueError("no calibration sets to pool")
    s = np.concatenate([c.scores for c in calsets])
    y = np.concatenate([c.labels for c in calsets])
    if len(s) == 0:
        raise ValueError("pooled calibration set is empty")
    a, b, status = _newton_platt(s, y)
    if status not in (FIT_CONVERGED, FIT_DEGENERATE):
        raise ValueError(f"global calibration fit failed: {status}")
    return PlattParams(a=a, b=b, scope=GLOBAL_SCOPE, fit_status=status)


def fit_all_users(calsets):
    """Fit every user with the global fit as fallback.

    Returns (per-user dict, global params).
    """
    calsets = list(calsets)
    global_params = fit_global(calsets)
    per_user = {c.user: fit_user(c, fallback=global_params) for c in calsets}
    return per_user, global_params


def apply(params: PlattParams, s):
    """Calibrated probability sigmoid(a*s + b), strictly inside (0, 1)."""
    if not (np.isfinite(params.a) and np.isfinite(params.b)):
        raise ValueError(f"non-finite calibration parameters for scope {params.scope!r}")
    z = np.clip(params.a * np.asarray(s, dtype=np.float64) + params.b, -_Z_CLIP, _Z_CLIP)
    out = 1.0 / (1.0 + np.exp(-z))
    if np.ndim(s) == 0:
        return float(out)
    return out


def pooled_ece_reports(calsets, per_user: dict, global_params: PlattParams) -> tuple:
    """ECE reports of the per-user fits and of the global fit, each over
    every calibration entry pooled across users."""
    labels = np.concatenate([cs.labels for cs in calsets])
    by_user = np.concatenate([apply(per_user[cs.user], cs.scores) for cs in calsets])
    by_global = np.concatenate([apply(global_params, cs.scores) for cs in calsets])
    return ece_report(by_user, labels), ece_report(by_global, labels)


def ece_report(predictions, labels, bins: int = 15) -> dict:
    """Expected calibration error with equal-width probability bins (key
    ``ece``), plus per-bin detail suitable for a JSON report."""
    p = np.asarray(predictions, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if p.size == 0:
        raise ValueError("cannot compute calibration error on empty input")
    if p.size != y.size:
        raise ValueError("predictions and labels must have equal length")
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    idx = np.minimum((p * bins).astype(np.int64), bins - 1)
    count = np.bincount(idx, minlength=bins).astype(np.float64)
    sum_p = np.bincount(idx, weights=p, minlength=bins)
    sum_y = np.bincount(idx, weights=y, minlength=bins)
    nonempty = count > 0
    gap = np.zeros(bins)
    gap[nonempty] = np.abs(sum_y[nonempty] - sum_p[nonempty]) / count[nonempty]
    value = float(np.sum(count / p.size * gap))
    per_bin = [
        {
            "lo": i / bins,
            "hi": (i + 1) / bins,
            "count": int(count[i]),
            "mean_prediction": float(sum_p[i] / count[i]) if count[i] else None,
            "mean_label": float(sum_y[i] / count[i]) if count[i] else None,
        }
        for i in range(bins)
    ]
    return {"ece": value, "bins": bins, "per_bin": per_bin}
