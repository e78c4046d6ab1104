"""User-wise Platt scaling of ranking scores into interaction probabilities.

Each user's raw ranking scores are mapped through sigmoid(a*s + b), with
(a, b) fitted by minimizing binary cross-entropy against that user's
calibration labels: validation positives are 1, every other candidate is 0.
The two-parameter problem is convex and solved by damped Newton iteration.
A single global fit over all users' pooled entries serves both as an
ablation and as the fallback when a user's own fit does not converge.

Calibration takes one input, a ``CalibrationBatch``: every user's entries
as CSR arrays, one segment per user (one user is a batch of one). One
engine fits every map: ``_newton_segments`` runs the Newton iteration of
every segment in lockstep, with the per-segment sums taken by
``np.add.reduceat``. ``fit_global`` is its one-segment call over the pooled
entries; each segment's result depends on its own entries only, bit for bit.

Calibration has no settings. Each fit sees all of a user's candidates,
the ones ``recommend`` applies it to, so at a converged or degenerate fit
the calibrated probabilities sum to the user's validation positives. The
solver's iteration limit, tolerance and divergence bound are constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .util import in_pairs

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

# The engine's statuses, indexed by the codes it returns.
_STATUSES = (FIT_CONVERGED, FIT_DEGENERATE, "all_same", "singular", "diverged",
             "not_converged")


@dataclass(frozen=True)
class PlattParams:
    """Slope/intercept of one calibration map and how the fit ended. A
    non-finite a or b is a ValueError naming the scope."""

    a: float
    b: float
    scope: int | str = GLOBAL_SCOPE
    fit_status: str = FIT_CONVERGED

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(f"non-finite calibration parameters for scope {self.scope!r}")


@dataclass(frozen=True)
class CalibrationBatch:
    """Every user's (score, label) entries as CSR arrays: user ``users[j]``
    owns entries ``indptr[j]:indptr[j + 1]`` of ``scores`` and ``labels``.
    Validation positives are labelled 1 and other candidates 0; soft labels
    in [0, 1] are allowed. A ValueError says what breaks this layout."""

    users: np.ndarray
    indptr: np.ndarray
    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        for name in ("users", "indptr"):
            object.__setattr__(self, name, np.asarray(getattr(self, name)))
        users, indptr, s, y = self.users, self.indptr, self.scores, self.labels
        why = ("users are not a 1-D integer array"
               if users.ndim != 1 or users.dtype.kind not in "iu"
               else "indptr is not a 1-D integer array"
               if indptr.ndim != 1 or indptr.dtype.kind not in "iu"
               else "users, indptr, scores and labels do not form a CSR batch" if not (
                   len(indptr) == len(users) + 1 and indptr[0] == 0
                   and indptr[-1] == len(s) == len(y))
               else "indptr decreases" if np.any(np.diff(indptr) < 0)
               else "users repeat" if len(np.unique(users)) < len(users)
               # min and max carry a NaN, so no entry-wide mask is allocated
               else "a score is not finite" if len(s) and not np.isfinite([np.min(s), np.max(s)]).all()
               else "a label is outside [0, 1]" if len(y) and not 0 <= np.min(y) <= np.max(y) <= 1
               else None)
        if why:
            raise ValueError(why)


def build_calibration_batch(split, scores) -> CalibrationBatch:
    """Every user with scored candidates, each entry labelled 1 if it is a
    validation positive, else 0: a batch over the score table's own arrays,
    with one ``in_pairs`` test for all entries."""
    counts = np.diff(scores.indptr)
    owners = np.repeat(scores.ids, counts)
    return CalibrationBatch(scores.ids[counts > 0], np.append(0, np.cumsum(counts[counts > 0])),
                            scores.scores,
                            in_pairs(owners, scores.items, split.val.pairs).astype(np.float64))


def _newton_segments(s, y, indptr):
    """Damped Newton on each segment's two-parameter BCE, every segment at
    once. Returns (a, b, status codes into ``_STATUSES``) per segment.

    Per segment: one label class is ``all_same`` (a = b = 0); constant
    scores are ``degenerate``, with the slope pinned at 0 and the
    closed-form intercept-only optimum. Otherwise the iteration runs on the
    segment's standardized scores, which leaves the optimum unchanged but
    keeps the Hessian well conditioned and makes the divergence bound
    scale-free: it then measures how many score standard deviations the
    fitted sigmoid needs to transition, which is what signals
    (quasi-)separable data. Convergence is declared on the raw-space
    gradient, and raw-space (a, b) are returned. A step is damped by up to
    50 halvings until the loss does not rise, except in the quadratic
    regime, where the improvement is below rounding at the loss's
    magnitude. The iteration ends ``singular``, ``diverged`` or
    ``not_converged`` when the Hessian is not positive definite, |a| or
    |b| passes the bound, or ``_MAX_ITERS`` steps pass. Finished segments
    leave the working arrays after each step.
    """
    s = np.asarray(s, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    counts = np.diff(np.asarray(indptr, dtype=np.int64))
    if np.any(counts <= 0):
        raise ValueError("empty calibration set")
    a_out, b_out = np.zeros(len(counts)), np.zeros(len(counts))
    status = np.zeros(len(counts), dtype=np.int8)
    pos_rate = _sums(y, counts) / counts
    starts = np.cumsum(counts) - counts
    flat = np.maximum.reduceat(s, starts) == np.minimum.reduceat(s, starts)
    same = (pos_rate <= 0.0) | (pos_rate >= 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        logit = np.log(pos_rate / (1.0 - pos_rate))
    degenerate = ~same & flat
    status[same] = _STATUSES.index("all_same")
    status[degenerate] = _STATUSES.index(FIT_DEGENERATE)
    b_out[degenerate] = logit[degenerate]
    live = ~same & ~flat
    if not live.any():
        return a_out, b_out, status
    if not live.all():
        rows = np.repeat(live, counts)
        s, y = s[rows], y[rows]
    seg, counts = np.flatnonzero(live), counts[live]
    mu = _sums(s, counts) / counts
    t = s - np.repeat(mu, counts)
    sigma = np.sqrt(_sums(t * t, counts) / counts)
    t /= np.repeat(sigma, counts)
    # every segment shares four full-length buffers, kept apart: one freed
    # block of four times the entries would raise malloc's mmap threshold,
    # and later stages would keep more memory resident (so did cache-sized
    # blocks of segments, which were no faster)
    work = [np.empty(len(s)) for _ in range(4)]
    z, e, sp, q = work

    def finish(done, code):
        a_out[seg[done]] = a[done] / sigma[done]
        b_out[seg[done]] = b[done] - a[done] * mu[done] / sigma[done]
        status[seg[done]] = code

    a, b = np.zeros(len(seg)), logit[seg]
    loss = _loss(a, b, t, y, counts, z, e, sp, q)
    diverged = np.zeros(len(seg), dtype=bool)
    for _ in range(_MAX_ITERS):
        # p = sigmoid(z) = (1 if z >= 0 else e) / (1 + e), from the last loss
        np.add(e, 1.0, out=sp)
        np.divide(e, sp, out=q)
        np.divide(1.0, sp, out=q, where=z >= 0.0)
        np.subtract(1.0, q, out=sp)
        sp *= q  # w = p (1 - p)
        hbb = _sums(sp, counts)
        hab = _sums(np.multiply(sp, t, out=z), counts)
        haa = _sums(np.multiply(np.multiply(t, t, out=e), sp, out=e), counts)
        q -= y  # residual p - y
        gb = _sums(q, counts)
        ga = _sums(np.multiply(q, t, out=z), counts)
        ga_raw = _sums(np.multiply(q, s, out=e), counts)
        det = haa * hbb - hab * hab
        converged = ~diverged & (np.maximum(np.abs(ga_raw), np.abs(gb)) < _TOLERANCE)
        singular = ~diverged & ~converged & ~((det > 0) & np.isfinite(det))
        finish(converged, _STATUSES.index(FIT_CONVERGED))
        finish(singular, _STATUSES.index("singular"))
        with np.errstate(divide="ignore", invalid="ignore"):
            da = (hbb * ga - hab * gb) / det
            db = (haa * gb - hab * ga) / det
        keep = ~(diverged | converged | singular)
        if not keep.any():
            return a_out, b_out, status
        if not keep.all():
            rows = np.repeat(keep, counts)
            s, y, t = s[rows], y[rows], t[rows]
            z, e, sp, q = (x[:len(s)] for x in work)
            seg, counts, mu, sigma, a, b, loss, ga, gb, da, db = (
                x[keep] for x in (seg, counts, mu, sigma, a, b, loss, ga, gb, da, db))
        # the quadratic regime skips the line search: its true improvement is
        # below rounding at the loss's magnitude
        accept = ga * da + gb * db <= 1e-9 * (np.abs(loss) + 1.0)
        step = np.ones(len(seg))
        na, nb = a - da, b - db
        nloss = _loss(na, nb, t, y, counts, z, e, sp, q)
        accept |= nloss <= loss
        for _ in range(49):
            if accept.all():
                break
            todo = ~accept
            step[todo] *= 0.5
            na[todo] = a[todo] - step[todo] * da[todo]
            nb[todo] = b[todo] - step[todo] * db[todo]
            rows = np.repeat(todo, counts)  # only the pending segments' entries
            sub = [np.empty(int(rows.sum())) for _ in range(4)]
            nloss[todo] = _loss(na[todo], nb[todo], t[rows], y[rows], counts[todo], *sub)
            z[rows], e[rows] = sub[0], sub[1]
            accept[todo] = nloss[todo] <= loss[todo]
        a, b, loss = na, nb, nloss
        # a diverged segment leaves with the next step's finished ones
        diverged = (np.abs(a) > _DIVERGENCE_BOUND) | (np.abs(b) > _DIVERGENCE_BOUND)
        finish(diverged, _STATUSES.index("diverged"))
    finish(~diverged, _STATUSES.index("not_converged"))
    return a_out, b_out, status


def _loss(a, b, t, y, counts, z, e, sp, tmp):
    """Each segment's BCE sum(softplus(z) - y*z) at z = a*t + b, from one
    exponential per entry; leaves z and e = exp(-|z|) in their buffers."""
    np.multiply(np.repeat(a, counts), t, out=z)
    z += np.repeat(b, counts)
    np.abs(z, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.log1p(e, out=sp)  # softplus(z) = max(z, 0) + log1p(exp(-|z|))
    sp += np.maximum(z, 0.0, out=tmp)
    sp -= np.multiply(y, z, out=tmp)
    return _sums(sp, counts)


def _sums(x, counts):
    """Each segment's sum of ``x``; every count is positive."""
    return np.add.reduceat(x, np.cumsum(counts) - counts)


def _fits(users, a, b, status, fallback: PlattParams) -> dict:
    """Each user's PlattParams from the engine's output. A fit that neither
    converged nor is degenerate carries ``fallback``'s (a, b) with status
    ``fallback_global``."""
    fits = {}
    for user, ua, ub, code in zip(users.tolist(), a.tolist(), b.tolist(), status.tolist()):
        fit_status = _STATUSES[code]
        if fit_status not in (FIT_CONVERGED, FIT_DEGENERATE):
            fit_status = FIT_FALLBACK
            ua, ub = fallback.a, fallback.b
        fits[user] = PlattParams(a=ua, b=ub, scope=user, fit_status=fit_status)
    return fits


def fit_global(batch: CalibrationBatch) -> PlattParams:
    """Fit one calibration map over every user's pooled entries: the engine
    on one segment."""
    if len(batch.scores) == 0:
        raise ValueError("no users' calibration entries to pool")
    a, b, status = _newton_segments(batch.scores, batch.labels, [0, len(batch.scores)])
    fit_status = _STATUSES[status[0]]
    if fit_status not in (FIT_CONVERGED, FIT_DEGENERATE):
        raise ValueError(f"global calibration fit failed: {fit_status}")
    return PlattParams(a=float(a[0]), b=float(b[0]), scope=GLOBAL_SCOPE, fit_status=fit_status)


def fit_all_users(batch: CalibrationBatch):
    """Fit every user with the global fit as fallback: two engine calls, one
    over the pooled entries and one over every user's segment. Separable or
    single-class entries cannot support a stable fit; such a user's fit
    carries the global (a, b) with status ``fallback_global``.

    Returns (per-user dict, global params).
    """
    global_params = fit_global(batch)
    fit = _newton_segments(batch.scores, batch.labels, batch.indptr)
    return _fits(batch.users, *fit, global_params), global_params


def _calibrated(a, b, s):
    """sigmoid(a*s + b) with the argument clamped to +-_Z_CLIP."""
    return 1.0 / (1.0 + np.exp(-np.clip(a * s + b, -_Z_CLIP, _Z_CLIP)))


def apply(params: PlattParams, s):
    """Calibrated probability sigmoid(a*s + b), strictly inside (0, 1): an
    array for an array ``s``, a ``numpy.float64`` (a ``float``) for a scalar."""
    return _calibrated(params.a, params.b, np.asarray(s, dtype=np.float64))


def pooled_ece_reports(batch: CalibrationBatch, per_user: dict,
                       global_params: PlattParams) -> tuple:
    """ECE reports of the per-user fits and of the global fit, each over
    every calibration entry pooled across users. Each is one pass over the
    entries with ``apply``'s arithmetic, a user's (a, b) repeated over its
    entries."""
    fits = [per_user[u] for u in batch.users.tolist()]
    counts = np.diff(batch.indptr)
    by_user = _calibrated(np.repeat([p.a for p in fits], counts),
                          np.repeat([p.b for p in fits], counts), batch.scores)
    by_global = _calibrated(global_params.a, global_params.b, batch.scores)
    return ece_report(by_user, batch.labels), ece_report(by_global, batch.labels)


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
