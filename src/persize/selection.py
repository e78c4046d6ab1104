"""Choosing each user's recommendation-list size, plus baselines and the
held-out evaluation harness.

``rank`` is the one ranking rule: a user's scored candidates by descending
score, ties to the lower item id. Items a list must not hold (the
validation positives) leave the table first (``ScoreTable.without``).
``_row_argmax`` is the one size-selection rule: the first argmax of each
row of a (users, width) curve block within that row's own length.
``recommend_block`` is the one PerK routine: it ranks and calibrates each
user of a block, builds the block's expected-utility curves over sizes
1..K (one zero-padded ``expected_curves_batch`` call) and cuts every
user's ranking at its ``_row_argmax`` within min(K, n).
``user_blocks`` groups users into blocks by their candidate counts only, so
the padding, and with it every output byte, is the same for any thread
count; one user is a block of one.
``recommend_users`` runs the blocks of every ``served_users`` user (one
with entries and parameters) on a thread pool; the CLI's ``recommend``
stage calls it once.
Baselines choose the size by a global constant, uniformly at random, by
validation utility, or (as an upper bound) by test utility, each on an
already-ranked list. ``evaluate`` ranks each user once and scores every
method of ``default_methods(K)`` (PerK and the baselines) against held-out
test positives over the identical user population, in one block of array
operations (each membership test one ``in_pairs`` call). It runs no PerK of
its own: it takes PerK's sizes and expected values as given (the CLI reads
them from ``recs.tsv``), and the validation and oracle sizes are the
``_row_argmax`` of realized curves (``_label_block``, ``realized_curve``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from . import calibrate
from .dataset import SplitDataset
from .scorer import ScoreTable
from .util import _check_number, in_pairs, parallel_map
from .utility import (
    DEFAULT_K,
    DEFAULT_M,
    Measure,
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
class PersonalizedRec:
    """One user's emitted list for one measure: the first k_max ranked
    candidates, with the user's ranking cut to min(K, n) and the
    expected-utility curve the list was cut from, over sizes 1..min(K, n)
    (read-only)."""

    user: int
    k_max: int
    ranking: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)

    @property
    def items(self) -> np.ndarray:
        return self.ranking[: self.k_max]

    @property
    def expected_value(self) -> float:
        return float(self.values[self.k_max - 1])


@dataclass(frozen=True)
class EvaluationReport:
    """Average realized utility per method and measure, plus per-user rows."""

    averages: dict  # method -> {measure name -> mean realized utility}
    n_users: int
    per_user: tuple = field(repr=False, default=())  # (user, method, measure, k, value)
    skipped: dict = field(default_factory=dict)  # reason -> users not evaluated
    perk_expected: dict = field(default_factory=dict)  # measure name -> mean expected utility


def rank(user: int, scores: ScoreTable, top: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The user's scored (items, scores) by descending score, ties to the
    lower item id; with ``top``, the first ``top`` of them only, sorted
    after one ``np.partition`` that keeps every entry tied with the cut. A
    ``top`` that is not an integer >= 0 is a ValueError."""
    if top is not None:
        _check_number("top", top, 0, integer=True)
    items, vals = scores.get(user)
    if top is not None and 0 < top < len(vals):
        cut = np.partition(vals, len(vals) - top)[len(vals) - top]
        head = np.flatnonzero(vals >= cut)
        items, vals = items[head], vals[head]
    order = np.lexsort((items, -vals))[:top]
    return items[order], vals[order]


def _row_argmax(curves: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """1-based argmax of each row over its first ``lengths[row]`` columns;
    ties resolve to the smallest size."""
    inside = np.arange(curves.shape[1]) < lengths[:, None]
    return np.argmax(np.where(inside, curves, -np.inf), axis=1) + 1


def served_users(scores: ScoreTable, params_by_user: dict) -> list[int]:
    """Every user with at least one entry and with calibration parameters,
    in user order: the users ``recommend_users`` serves."""
    counts = np.diff(scores.indptr).tolist()
    return [u for u, n in zip(scores.users(), counts) if n and params_by_user.get(u) is not None]


def user_blocks(users, scores: ScoreTable) -> list[list[int]]:
    """The users grouped for one batched curve call per group.

    Users are sorted by (scored candidate count, user id) and cut into runs
    of at most _BLOCK_USERS users whose zero-padded block (its users times
    its largest count) holds at most _BLOCK_PROBS probabilities; a larger
    user is a block alone. Membership depends on the data only.
    """
    blocks: list[list[int]] = []
    count = dict(zip(scores.users(), np.diff(scores.indptr).tolist()))
    for n, user in sorted((count[int(u)], int(u)) for u in users):
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
) -> dict:
    """The expected-utility-maximizing prefix per measure for a block of users.

    Ranks each user's candidates and calibrates them with
    ``params_by_user[user]``; the block's probability rows, zero-padded to
    its widest row, then give every curve of the block in one
    ``expected_curves_batch`` call. The count distribution uses every ranked
    candidate, not just the top-K prefix, and its sum stops at the block's
    certified bound, below the cap ``M``. Each curve covers the user's own
    sizes 1..min(K, n), and one ``_row_argmax`` call per measure cuts every
    user's ranking.

    Returns user -> (measure -> PersonalizedRec), in the order of
    ``users``. A user without entries in ``scores`` is a ValueError naming
    the user.
    """
    check_curve_args(K=K, M=M)
    measures = list(measures)
    users = [int(u) for u in users]
    if not users:
        return {}
    rankings, probs = [], []
    for user in users:
        items, vals = rank(user, scores)
        if not len(items):
            raise ValueError(f"user {user} has no scored candidates")
        rankings.append(items[:K].copy())
        probs.append(calibrate.apply(params_by_user[user], vals))
    lengths = np.array([min(K, len(p)) for p in probs])
    block = np.zeros((len(probs), max(len(p) for p in probs)))
    for row, p in zip(block, probs):
        row[: len(p)] = p
    curves = expected_curves_batch(block, measures, M=M, K=K)
    sizes = {m: _row_argmax(curves[m], lengths).tolist() for m in measures}
    return {user: {m: PersonalizedRec(user, sizes[m][row], rankings[row],
                                      curves[m][row, : lengths[row]]) for m in measures}
            for row, user in enumerate(users)}


def recommend_users(
    scores: ScoreTable,
    params_by_user: dict,
    measures,
    K: int = DEFAULT_K,
    M: int = DEFAULT_M,
    threads: int = 1,
) -> dict:
    """``recommend_block`` over the ``user_blocks`` of every served user,
    run on ``threads`` threads.

    Returns user -> (measure -> PersonalizedRec) for each user of
    ``served_users(scores, params_by_user)`` in user order. The blocks
    depend on the data only, so the result does not depend on ``threads``.
    """
    check_curve_args(K=K, M=M)
    _check_number("threads", threads, 1, integer=True)
    measures = list(measures)  # every block reads them
    users = served_users(scores, params_by_user)

    def serve(block):
        return recommend_block(block, scores, params_by_user, measures, K, M)

    out = {}
    for result in parallel_map(serve, user_blocks(users, scores), threads):
        out.update(result)
    return {user: out[user] for user in users}


def baseline_rand(user: int, K: int, seed: int = 0) -> int:
    """Uniform size in [1, K], seeded per user (thread-count independent)."""
    _check_number("K", K, 1, integer=True)
    _check_number("seed", seed, 0, integer=True)
    rng = np.random.default_rng([seed, int(user), 0x72616E64])
    return int(rng.integers(1, K + 1))


def default_methods(K: int = DEFAULT_K) -> list[str]:
    """The one method set ``evaluate`` scores: PerK, each fixed size of
    ``FIXED_BASELINE_KS`` up to K, a random size, the validation-tuned size
    and the test-label oracle."""
    methods = [METHOD_PERK]
    methods += [fixed_method_name(k) for k in FIXED_BASELINE_KS if k <= K]
    methods += [METHOD_RAND, METHOD_VAL_K, METHOD_ORACLE]
    return methods


def _label_block(labels, lengths: np.ndarray) -> np.ndarray:
    """The users' 0/1 prefix labels, concatenated in ``labels``, as one
    zero-padded (users, max(lengths)) block."""
    block = np.zeros((len(lengths), lengths.max()))
    block[np.arange(block.shape[1]) < lengths[:, None]] = labels
    return block


def _check_measures(measures: list) -> None:
    """Reject an empty or repeated measure list."""
    if not measures:
        raise ValueError("measures is empty: no measure to evaluate")
    repeated = sorted({str(x) for x in measures if measures.count(x) > 1})
    if repeated:
        raise ValueError(f"repeated measure: {', '.join(repeated)}")


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

    One ``rank`` call orders the head of each such user's candidates that
    the methods can read; every method emits a prefix of that order without
    the validation positives, cut at K, so the averages compare and the
    test-label argmax dominates pointwise. ``val_k`` reads the order's first
    K items. The validation exclusion and the test labels are one
    ``in_pairs`` test each over all the users; the ``val_k`` labels are the
    exclusion's mask over those K items.

    ``perk`` maps each user PerK served to ``{Measure: (k, expected_value)}``
    (the recommend stage's sizes). Skip reasons, in order: no test
    positives, nothing left to rank, and no PerK size. ValueErrors: a K
    that is not an integer >= 1 or a seed that is not one >= 0, an empty or
    repeated measure list, no user left to evaluate, and an evaluated
    user's entry without a measure or with a size outside 1..len(its
    ranking), naming the user and measure.
    """
    check_curve_args(K=K)
    _check_number("seed", seed, 0, integer=True)
    measures = [Measure(m) for m in measures]
    _check_measures([m.value for m in measures])
    methods = default_methods(K)

    users = sorted(int(u) for u in split.users)
    vals, tests = ([part.items_of(user) for user in users] for part in (split.val, split.test))
    # at most len(val) items of a head drop, so it keeps the first K ranked
    # items outside them
    heads = [rank(user, scores, K + len(val))[0]
             if len(test) and user in scores else np.empty(0, np.int64)
             for user, val, test in zip(users, vals, tests)]
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
    labels = _label_block(in_pairs(np.repeat(kept, tops), np.concatenate(rankings),
                                   split.test.pairs), tops)
    realized = {m: realized_curve(m, labels, [len(t) for t in tests]) for m in measures}
    rand_k = np.minimum([baseline_rand(user, K, seed) for user in kept], tops)
    val_lengths = np.minimum([lengths[row] for row in rows], K)
    val_labels = _label_block(np.concatenate([dropped[row][:K] for row in rows]), val_lengths)
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
