"""Truncated Poisson-Binomial distributions of per-user interaction counts.

The total number of relevant items among a user's candidates is a sum of
independent Bernoulli variables with heterogeneous probabilities, which
follows a Poisson-Binomial distribution. This module computes its mass
vector exactly by convolution, optionally truncated at a bound M: mass that
would land beyond index M is dropped (recorded, never renormalized).

``distribution_batch`` is the only implementation: a chunked recurrence plus
an FFT merge tree over a (users, n) matrix, returning (mass, tail); a single
user is a batch of one row. The work of a call grows with its bound: the
expected curves pass each block's Chernoff-certified bound
(``utility._count_bound``), far below their cap M - 1 when the
probabilities sum to little, and the engine truncates every intermediate
there.
"""

from __future__ import annotations

import numpy as np

from .util import _check_number

_CHUNK = 32


def _check_probs(probs: np.ndarray) -> None:
    """Reject a probability outside [0, 1] or not finite: the one input
    check of the count engine and of every curve built from probabilities."""
    if probs.size and (probs.min() < 0.0 or probs.max() > 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    if not np.all(np.isfinite(probs)):
        raise ValueError("probabilities must be finite")


def distribution(probs, M: int) -> tuple[np.ndarray, np.ndarray]:
    """``distribution_batch(probs, M)`` under the name the curve engine calls,
    which ``perfbench`` times as its count layer."""
    return distribution_batch(probs, M)


def distribution_batch(probs: np.ndarray, M: int) -> tuple[np.ndarray, np.ndarray]:
    """Count distributions for many users at once: the one engine.

    ``probs`` is (users, n) with one row per user; rows may be padded with
    zeros (zero-probability items are exact identities). Returns
    (mass, tail) where mass is (users, min(n, M) + 1) and tail is the
    dropped mass above M per user (zero when M >= n). A single user is a
    batch of one row.

    Items are grouped into fixed-size chunks whose count distributions are
    computed by the windowed recurrence vectorized across chunks and users;
    chunk polynomials are then merged pairwise with batched FFTs. Exact in
    real arithmetic; in floats the absolute error stays near machine
    precision per coefficient, and tiny negative round-off is clamped.
    Truncating every intermediate to min(n, M) + 1 coefficients is lossless
    for the retained indices because convolution never moves mass downward.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2:
        raise ValueError("expected a (users, n) probability matrix")
    _check_probs(probs)
    _check_number("M", M, 0, integer=True)
    n_users, n = probs.shape
    cap = min(n, M)

    n_chunks = max(1, (n + _CHUNK - 1) // _CHUNK)  # one all-zero chunk when n == 0
    padded = np.zeros((n_users, n_chunks * _CHUNK))
    padded[:, :n] = probs
    chunk_probs = padded.reshape(n_users, n_chunks, _CHUNK)

    width = min(_CHUNK, cap) + 1
    polys = np.zeros((n_users, n_chunks, width))
    polys[:, :, 0] = 1.0
    hi = 0
    for t in range(_CHUNK):
        col = chunk_probs[:, :, t : t + 1]
        nxt = (1.0 - col) * polys
        lim = min(hi, width - 2)
        nxt[:, :, 1 : lim + 2] += col * polys[:, :, : lim + 1]
        polys = nxt
        hi = min(hi + 1, width - 1)

    while polys.shape[1] > 1:
        if polys.shape[1] % 2:
            ident = np.zeros((n_users, 1, polys.shape[2]))
            ident[:, 0, 0] = 1.0
            polys = np.concatenate([polys, ident], axis=1)
        a = polys[:, 0::2]
        b = polys[:, 1::2]
        full = 2 * polys.shape[2] - 1
        nfft = 1 << (full - 1).bit_length()
        fa = np.fft.rfft(a, nfft, axis=2)
        fb = np.fft.rfft(b, nfft, axis=2)
        prod = np.fft.irfft(fa * fb, nfft, axis=2)[:, :, : min(full, cap + 1)]
        np.maximum(prod, 0.0, out=prod)
        polys = prod
    mass = polys[:, 0]
    if M >= n:
        tail = np.zeros(n_users)
    else:
        tail = np.maximum(0.0, 1.0 - mass.sum(axis=1))
    return mass, tail

