"""Choosing each user's recommendation-list size, plus baselines and the
held-out evaluation harness.

``_rank_block`` is the one ranking rule: one stable sort per row of a block
of users' padded scores, by descending score, ties to the lower item id (a
user's items rise in the table). Items a list must not hold (the validation
positives) leave the table first (``ScoreTable.without``).
``_row_argmax`` is the one size-selection rule: the first argmax of each
row of a (users, width) curve block within that row's own length.
``recommend_block`` is the one PerK routine: it ranks and calibrates a
block of users, builds the block's expected-utility curves over sizes 1..K
(one zero-padded ``expected_curves_batch`` call) and cuts every ranking at
its ``_row_argmax`` within min(K, n), giving arrays (``Recommendations``).
``user_blocks`` groups users into blocks by their candidate counts only, so
the padding, and with it every output byte, is the same for any thread
count; one user is a block of one.
``recommend_users`` runs the blocks of every ``served_users`` user (one
with entries and parameters) on a thread pool; the CLI's ``recommend``
stage calls it once.
Baselines choose the size by a global constant, uniformly at random, by
validation utility, or (as an upper bound) by test utility, each on an
already-ranked list. ``evaluate`` ranks its users' heads in the same blocks
and scores every method of ``default_methods(K)`` (PerK and the baselines)
against held-out test positives over the identical user population, in one
block of array operations (each membership test one ``in_pairs`` call). It
runs no PerK of its own: it takes PerK's sizes and expected values as given
(the CLI reads them from ``recs.tsv``), and the validation and oracle sizes
are the ``_row_argmax`` of realized curves of the ``_padded`` label rows.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from . import calibrate
from .dataset import SplitDataset
from .scorer import ScoreTable
from .util import _check_number, _ids, in_pairs, parallel_map
from .utility import (
    DEFAULT_K,
    DEFAULT_M,
    Measure,
    _check_measures,
    check_curve_args,
    expected_curves_batch,
    realized_curve,
)

FIXED_BASELINE_KS = (1, 5, 10, 20, 50)

METHOD_PERK = "perk"
METHOD_RAND = "rand"
METHOD_VAL_K = "val_k"
METHOD_ORACLE = "oracle"

SKIP_NO_TEST = "no_test_positives"
SKIP_NO_CANDIDATES = "no_candidates"
SKIP_NO_SIZE = "no_perk_size"
SKIP_REASONS = (SKIP_NO_TEST, SKIP_NO_CANDIDATES, SKIP_NO_SIZE)

# A block of users shares one padded curve call: at most this many users,
# and at most this many probabilities once padded to the block's widest row.
_BLOCK_USERS = 64
_BLOCK_PROBS = 20_000


def fixed_method_name(k: int) -> str:
    return f"top-{k}"


@dataclass(frozen=True)
class Recommendations:
    """PerK's lists, one row per user: ``users``, ``lengths`` (min(K, n)),
    ``rankings`` (users x K) and, per ``Measure``, ``sizes`` (the chosen k)
    and ``curves`` (users x K, expected utility at sizes 1..K), 0 past each
    length. User ``users[r]``'s list for m is ``rankings[r, :sizes[m][r]]``."""

    users: np.ndarray
    lengths: np.ndarray
    rankings: np.ndarray
    sizes: dict
    curves: dict

    def perk(self) -> dict:
        """``evaluate``'s ``perk``: user -> {Measure: (k, expected value)}."""
        at = {m: (k.tolist(), self.curves[m][np.arange(len(k)), k - 1].tolist())
              for m, k in self.sizes.items()}
        return {u: {m: (ks[r], vs[r]) for m, (ks, vs) in at.items()}
                for r, u in enumerate(self.users.tolist())}


@dataclass(frozen=True)
class EvaluationReport:
    """Average realized utility per method and measure, plus per-user rows."""

    averages: dict  # method -> {measure name -> mean realized utility}
    n_users: int
    per_user: tuple = field(repr=False, default=())  # (user, method, measure, k, value)
    skipped: dict = field(default_factory=dict)  # reason -> users not evaluated
    perk_expected: dict = field(default_factory=dict)  # measure name -> mean expected utility


def _rank_block(users, scores: ScoreTable, top: int | None = None):
    """(items, scores, lengths): each user's candidates by descending score,
    ties to the lower item id, as one row of padded (users, width) matrices
    (padding scores 0), from one stable sort of the +inf-padded negated
    scores. With ``top`` (an integer >= 0), a row keeps its first ``top``
    entries, sorted after a row-wise ``np.partition`` that keeps every entry
    tied at the cut."""
    if top is not None:
        _check_number("top", top, 0, integer=True)
    rows = scores.ids.searchsorted(users)
    starts, lengths = scores.indptr[rows], scores.indptr[rows + 1] - scores.indptr[rows]
    inside = np.arange(lengths.max(initial=0)) < lengths[:, None]
    at = np.where(inside, starts[:, None] + np.arange(inside.shape[1]), 0)
    neg, items = np.where(inside, -scores.scores[at], np.inf), scores.items[at]
    top = inside.shape[1] if top is None else top
    if top < inside.shape[1]:
        cut = np.partition(neg, top - 1, axis=1)[:, top - 1:top] if top else -np.inf
        kept = inside & (neg <= cut)
        counts = kept.sum(axis=1)
        neg, items = _padded(neg[kept], counts, np.inf), _padded(items[kept], counts)
    order = np.argsort(neg, axis=1, kind="stable")[:, :top]
    neg = np.take_along_axis(neg, order, 1)
    return (np.take_along_axis(items, order, 1), np.where(neg < np.inf, -neg, 0.0),
            np.minimum(lengths, top))


def _row_argmax(curves: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """1-based argmax of each row over its first ``lengths[row]`` columns;
    ties resolve to the smallest size."""
    inside = np.arange(curves.shape[1]) < lengths[:, None]
    return np.argmax(np.where(inside, curves, -np.inf), axis=1) + 1


def _check_params(params_by_user) -> None:
    """Refuse Platt parameters that are not a dict of user -> PlattParams."""
    if not isinstance(params_by_user, Mapping):
        raise ValueError("params_by_user must be a dict of user -> PlattParams, "
                         f"got {type(params_by_user).__name__}")


def served_users(scores: ScoreTable, params_by_user: dict) -> list[int]:
    """Every user with at least one entry and with calibration parameters,
    in user order: the users ``recommend_users`` serves."""
    _check_params(params_by_user)
    counts = np.diff(scores.indptr).tolist()
    return [u for u, n in zip(scores.users(), counts) if n and params_by_user.get(u) is not None]


def user_blocks(users, scores: ScoreTable) -> list[list[int]]:
    """The users grouped for one batched curve call per group.

    Users are sorted by (scored candidate count, user id) and cut into runs
    of at most _BLOCK_USERS users whose zero-padded block (its users times
    its largest count) holds at most _BLOCK_PROBS probabilities; a larger
    user is a block alone. Membership depends on the data only. Users that
    are not int64 ids, and a user the table lacks (named), are a ValueError.
    """
    blocks: list[list[int]] = []
    count = dict(zip(scores.users(), np.diff(scores.indptr).tolist()))
    users = _ids(list(users), "users are not int64 integers").tolist()
    lost = [u for u in users if u not in count]
    if lost:
        raise ValueError(f"user {lost[0]} has no scored candidates")
    for n, user in sorted((count[u], u) for u in users):
        block = blocks[-1] if blocks else None
        if block is None or len(block) == _BLOCK_USERS or (len(block) + 1) * n > _BLOCK_PROBS:
            blocks.append([user])
        else:
            block.append(user)
    return blocks


def recommend_block(
    users,
    scores: ScoreTable,
    params_by_user: dict,
    measures,
    K: int = DEFAULT_K,
    M: int = DEFAULT_M,
) -> Recommendations:
    """The block's ``Recommendations``, rows in the order of ``users``: one
    ``_rank_block`` call ranks the block, one call calibrates every row with
    its user's (a, b) by ``calibrate.apply``'s arithmetic, and one
    ``expected_curves_batch`` call on the zero-padded rows gives every curve
    (the count over every ranked candidate, to the block's certified bound
    below ``M``). Users that are not int64 ids, a user without entries or
    parameters (named) and a refused measure list are a ValueError."""
    check_curve_args(K=K, M=M)
    measures = _check_measures(measures)
    _check_params(params_by_user)
    users = _ids(list(users), "users are not int64 integers")
    for user in users.tolist():
        if not len(scores.get(user)[0]):
            raise ValueError(f"user {user} has no scored candidates")
        if params_by_user.get(user) is None:
            raise ValueError(f"user {user} has no calibration parameters")
    items, vals, counts = _rank_block(users, scores)
    a, b = (np.array([getattr(params_by_user[u], x) for u in users.tolist()]) for x in "ab")
    probs = _widened(calibrate._calibrated(a[:, None], b[:, None], vals), counts, vals.shape[1])
    curves = (expected_curves_batch(probs, measures, M=M, K=K) if len(users)
              else dict.fromkeys(measures, probs))
    lengths = np.minimum(counts, K)
    curves = {m: _widened(curves[m], lengths, K) for m in measures}
    return Recommendations(users, lengths, _widened(items, lengths, K),
                           {m: _row_argmax(curves[m], lengths) for m in measures}, curves)


def _widened(block: np.ndarray, lengths: np.ndarray, K: int) -> np.ndarray:
    """The block's rows cut or padded to K columns, 0 past each length."""
    block = np.pad(block[:, :K], ((0, 0), (0, K - min(K, block.shape[1]))))
    return np.where(np.arange(K) < lengths[:, None], block, 0)


def recommend_users(
    scores: ScoreTable,
    params_by_user: dict,
    measures,
    K: int = DEFAULT_K,
    M: int = DEFAULT_M,
    threads: int = 1,
) -> Recommendations:
    """``recommend_block`` over the ``user_blocks`` of every ``served_users``
    user on ``threads`` threads, rows in user order. The blocks depend on
    the data only, so the result does not depend on ``threads``. The
    measures are checked also when no user is served."""
    check_curve_args(K=K, M=M)
    _check_number("threads", threads, 1, integer=True)
    measures = _check_measures(measures)  # every block reads them
    users = served_users(scores, params_by_user)

    def serve(block):
        return recommend_block(block, scores, params_by_user, measures, K, M)

    # the empty block gives every field its shape when no user is served
    parts = [serve([])] + parallel_map(serve, user_blocks(users, scores), threads)
    order = np.argsort(np.concatenate([part.users for part in parts]))

    def stacked(field):
        return np.concatenate([field(part) for part in parts])[order]

    return Recommendations(stacked(lambda r: r.users), stacked(lambda r: r.lengths),
                           stacked(lambda r: r.rankings),
                           {m: stacked(lambda r: r.sizes[m]) for m in measures},
                           {m: stacked(lambda r: r.curves[m]) for m in measures})


def baseline_rand(user: int, K: int, seed: int = 0) -> int:
    """Uniform size in [1, K], seeded per user (thread-count independent)."""
    _check_number("K", K, 1, integer=True)
    _check_number("seed", seed, 0, integer=True)
    rng = np.random.default_rng([seed, operator.index(user), 0x72616E64])
    return int(rng.integers(1, K + 1))


def default_methods(K: int = DEFAULT_K) -> list[str]:
    """The one method set ``evaluate`` scores: PerK, each fixed size of
    ``FIXED_BASELINE_KS`` up to K, a random size, the validation-tuned size
    and the test-label oracle."""
    methods = [METHOD_PERK]
    methods += [fixed_method_name(k) for k in FIXED_BASELINE_KS if k <= K]
    methods += [METHOD_RAND, METHOD_VAL_K, METHOD_ORACLE]
    return methods


def _padded(values, lengths: np.ndarray, fill=0) -> np.ndarray:
    """The users' rows, concatenated in ``values`` (``lengths[i]`` values
    for user i), as one (users, max(lengths)) block of their dtype, padded
    with ``fill``."""
    values = np.asarray(values)
    block = np.full((len(lengths), lengths.max(initial=0)), fill, dtype=values.dtype)
    block[np.arange(block.shape[1]) < lengths[:, None]] = values
    return block


def evaluate(
    split: SplitDataset,
    scores: ScoreTable,
    perk: dict,
    measures=tuple(Measure),
    K: int = DEFAULT_K,
    seed: int = 0,
) -> EvaluationReport:
    """Score every method of ``default_methods(K)`` on every user holding at
    least one test positive.

    ``_rank_block``, once per ``user_blocks`` block of those users, orders
    the head of each one's candidates that the methods can read; every
    method emits a prefix of that order without
    the validation positives, cut at K, so the averages compare and the
    test-label argmax dominates pointwise. ``val_k`` reads the order's first
    K items. The validation exclusion and the test labels are one
    ``in_pairs`` test each over all the users; the ``val_k`` labels are the
    exclusion's mask over those K items.

    ``perk`` maps each user PerK served to ``{Measure: (k, expected_value)}``
    (the recommend stage's sizes). Skip reasons, in order: no test
    positives, nothing left to rank, and no PerK size. ValueErrors: a K
    that is not an integer >= 1 or a seed that is not one >= 0, a refused
    measure list, no user left to evaluate, and an evaluated
    user's entry without a measure or with a size outside 1..len(its
    ranking), naming the user and measure.
    """
    check_curve_args(K=K)
    _check_number("seed", seed, 0, integer=True)
    measures = _check_measures(measures)
    methods = default_methods(K)

    users = sorted(split.users.tolist())
    vals, tests = ([part.items_of(user) for user in users] for part in (split.val, split.test))
    # at most len(val) items of a head drop, so K + the block's largest
    # len(val) keep each user's first K ranked items outside them
    n_val, heads = dict(zip(users, map(len, vals))), dict.fromkeys(users, np.empty(0, np.int64))
    for block in user_blocks([u for u, t in zip(users, tests) if len(t) and u in scores], scores):
        items, _, counts = _rank_block(block, scores, K + max(n_val[u] for u in block))
        heads.update((u, row[:n]) for u, row, n in zip(block, items, counts))
    heads = list(heads.values())
    lengths = [len(h) for h in heads]
    dropped = np.split(in_pairs(np.repeat(users, lengths),
                                np.concatenate([np.empty(0, np.int64), *heads]), split.val.pairs),
                       np.cumsum(lengths)[:-1])
    skipped = dict.fromkeys(SKIP_REASONS, 0)
    rows, rankings = [], []  # each kept user's index in users, and its ranking
    for row, (user, test, head, drop) in enumerate(zip(users, tests, heads, dropped)):
        ranking = head[~drop][:K]
        reason = (SKIP_NO_TEST if not len(test) else SKIP_NO_CANDIDATES if not len(ranking)
                  else SKIP_NO_SIZE if user not in perk else None)
        if reason:
            skipped[reason] += 1
            continue
        for measure in measures:
            if measure not in perk[user]:
                raise ValueError(f"user {user}: no PerK size for {measure.value}")
            k = perk[user][measure][0]
            if isinstance(k, bool) or not isinstance(k, Integral) or not 1 <= k <= len(ranking):
                raise ValueError(f"user {user}: the PerK size for {measure.value} must be an "
                                 f"integer in 1..{len(ranking)}, got {k!r}")
        rows.append(row)
        rankings.append(ranking)
    if not rows:
        raise ValueError("no evaluable users (skipped "
                         + ", ".join(f"{n} {reason}" for reason, n in skipped.items()) + ")")

    kept = [users[row] for row in rows]
    tests = [tests[row] for row in rows]
    tops = np.array([len(r) for r in rankings])
    labels = _padded(in_pairs(np.repeat(kept, tops), np.concatenate(rankings),
                              split.test.pairs), tops)
    realized = {m: realized_curve(m, labels, [len(t) for t in tests]) for m in measures}
    rand_k = np.minimum([baseline_rand(user, K, seed) for user in kept], tops)
    val_lengths = np.minimum([lengths[row] for row in rows], K)
    val_labels = _padded(np.concatenate([dropped[row][:K] for row in rows]), val_lengths)
    n_val = [len(vals[row]) for row in rows]
    val_k = {m: np.minimum(_row_argmax(realized_curve(m, val_labels, n_val), val_lengths), tops)
             for m in measures}
    fixed = {fixed_method_name(k): np.minimum(k, tops) for k in FIXED_BASELINE_KS}

    def mean(values) -> float:
        total = 0.0
        for value in values:  # in user order, one addition at a time
            total += value
        return total / len(kept)

    columns, averages = {}, {method: {} for method in methods}
    perk_expected = {}
    for measure in measures:
        for method in methods:
            if method == METHOD_PERK:
                k = np.array([perk[user][measure][0] for user in kept])
                perk_expected[measure.value] = mean(perk[user][measure][1] for user in kept)
            elif method == METHOD_RAND:
                k = rand_k
            elif method == METHOD_VAL_K:
                k = val_k[measure]
            elif method == METHOD_ORACLE:
                k = _row_argmax(realized[measure], tops)
            else:
                k = fixed[method]
            values = realized[measure][np.arange(len(kept)), k - 1].tolist()
            columns[method, measure] = k.tolist(), values
            averages[method][measure.value] = mean(values)
    rows = []
    for i, user in enumerate(kept):
        for measure in measures:
            for method in methods:
                k, values = columns[method, measure]
                rows.append((user, method, measure.value, k[i], values[i]))

    return EvaluationReport(
        averages=averages, n_users=len(kept), per_user=tuple(rows), skipped=skipped,
        perk_expected=perk_expected,
    )
