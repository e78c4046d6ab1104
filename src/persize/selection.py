"""Choosing each user's recommendation-list size, plus baselines and the
held-out evaluation harness.

``rank`` is the one ranking rule: a user's scored candidates by descending
score, ties to the lower item id, optionally without given items (the
validation positives). ``recommend`` is the one PerK routine: it ranks,
calibrates the scores into probabilities, builds the expected-utility
curves over sizes 1..K, and returns the prefix at each curve's argmax. The
CLI's ``recommend`` stage and ``evaluate`` both call it. Baselines choose
the size by a global constant, uniformly at random, by validation utility,
or (as an upper bound) by test utility, each on an already-ranked list.
Evaluation scores every method's emitted prefix against held-out test
positives over the identical user population.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import calibrate
from .dataset import SplitDataset
from .scorer import DegenerateUserError, ScoreTable
from .utility import (
    DEFAULT_M,
    EXACT_MODE_CAP,
    Measure,
    UtilityCurve,
    expected_curves,
    realized_curve,
)

DEFAULT_K = 50
FIXED_BASELINE_KS = (1, 5, 10, 20, 50)

METHOD_PERK = "perk"
METHOD_RAND = "rand"
METHOD_VAL_K = "val_k"
METHOD_ORACLE = "oracle"


def fixed_method_name(k: int) -> str:
    return f"top-{k}"


@dataclass(frozen=True)
class PersonalizedRec:
    """One user's emitted list for one measure: the first k_max ranked
    candidates, with the expected-utility curve it was cut from."""

    user: int
    k_max: int
    items: np.ndarray
    curve: UtilityCurve

    @property
    def expected_value(self) -> float:
        return float(self.curve.values[self.k_max - 1])


@dataclass(frozen=True)
class EvaluationReport:
    """Average realized utility per method and measure, plus per-user rows."""

    averages: dict  # method -> {measure name -> mean realized utility}
    n_users: int
    config: dict
    per_user: tuple = field(repr=False, default=())  # (user, method, measure, k, value)


def rank(user: int, scores: ScoreTable, exclude=()) -> tuple[np.ndarray, np.ndarray]:
    """The user's scored (items, scores) by descending score, ties to the
    lower item id, with the items in ``exclude`` dropped."""
    items, vals = scores.get(user)
    if len(exclude):
        keep = ~np.isin(items, exclude)
        items, vals = items[keep], vals[keep]
    order = np.lexsort((items, -vals))
    return items[order], vals[order]


def perk_select(curve: UtilityCurve) -> int:
    """1-based argmax of the curve; ties resolve to the smallest size."""
    if len(curve) == 0:
        raise ValueError("empty utility curve")
    return int(np.argmax(curve.values)) + 1


def recommend(
    user: int,
    scores: ScoreTable,
    params: calibrate.PlattParams,
    measures,
    K: int = DEFAULT_K,
    M: int = DEFAULT_M,
    mode: str = "approx",
    exact_cap: int = EXACT_MODE_CAP,
    exclude=(),
) -> dict:
    """The expected-utility-maximizing prefix for one user, per measure.

    Ranks the user's candidates (without ``exclude``), calibrates them with
    ``params`` and cuts each measure's curve at its argmax. The count
    distribution uses every ranked candidate, not just the top-K prefix.
    Returns measure -> PersonalizedRec; raises DegenerateUserError when no
    candidate is left to rank.
    """
    items, vals = rank(user, scores, exclude)
    if len(items) == 0:
        raise DegenerateUserError(f"user {user} has no scored candidates")
    curves = expected_curves(
        calibrate.apply(params, vals), measures, K=K, M=M, mode=mode, exact_cap=exact_cap,
    )
    recs = {}
    for measure, curve in curves.items():
        k_max = perk_select(curve)
        recs[measure] = PersonalizedRec(int(user), k_max, items[:k_max], curve)
    return recs


def baseline_rand(user: int, K: int, seed: int = 0) -> int:
    """Uniform size in [1, K], seeded per user (thread-count independent)."""
    rng = np.random.default_rng([seed, int(user), 0x72616E64])
    return int(rng.integers(1, K + 1))


def _argmax_size(measure: Measure, ranked_items, positives) -> int:
    """Smallest size maximizing realized utility of the ranked items
    against the given positives; 1 when either is empty."""
    if len(ranked_items) == 0 or len(positives) == 0:
        return 1
    curve = realized_curve(measure, np.isin(ranked_items, positives), len(positives))
    return int(np.argmax(curve)) + 1


def baseline_val_k(measure: Measure, ranked_items, val_items) -> int:
    """Size maximizing validation utility along ``ranked_items``.

    The ranking must include the validation positives, since they must be
    rankable to score; pass its top-K. Users without validation positives
    fall back to size 1.
    """
    return _argmax_size(measure, ranked_items, val_items)


def oracle_k(measure: Measure, ranked_items, test_items) -> int:
    """Size maximizing test utility along ``ranked_items`` (the evaluated
    top-K): the per-user upper bound."""
    return _argmax_size(measure, ranked_items, test_items)


def default_methods(K: int = DEFAULT_K) -> list[str]:
    methods = [METHOD_PERK]
    methods += [fixed_method_name(k) for k in FIXED_BASELINE_KS if k <= K]
    methods += [METHOD_RAND, METHOD_VAL_K, METHOD_ORACLE]
    return methods


def _evaluate_user(
    user: int,
    split: SplitDataset,
    scores: ScoreTable,
    params_by_user: dict,
    measures,
    methods,
    K: int,
    M: int,
    mode: str,
    seed: int,
    exclude_val: bool,
    exact_cap: int,
):
    """Realized utility of each (method, measure) for one user.

    Returns None for users that cannot be evaluated (no test positives, no
    candidates, or no calibration parameters).
    """
    test_items = split.test.items_of(user)
    if len(test_items) == 0 or user not in scores:
        return None
    params = params_by_user.get(int(user))
    if params is None and METHOD_PERK in methods:
        return None
    val_items = split.val.items_of(user)
    exclude = val_items if exclude_val else ()
    eval_items, _ = rank(user, scores, exclude)
    if len(eval_items) == 0:
        return None
    top = eval_items[:K]
    val_top = rank(user, scores)[0][:K]
    test_labels = np.isin(top, test_items).astype(np.float64)
    realized = {m: realized_curve(m, test_labels, len(test_items)) for m in measures}
    perk = {}
    if METHOD_PERK in methods:
        perk = recommend(user, scores, params, measures, K, M, mode, exact_cap, exclude)

    rows = []
    for measure in measures:
        for method in methods:
            if method == METHOD_PERK:
                k = perk[measure].k_max
            elif method == METHOD_RAND:
                k = min(baseline_rand(user, K, seed), len(eval_items))
            elif method == METHOD_VAL_K:
                k = min(baseline_val_k(measure, val_top, val_items), len(eval_items))
            elif method == METHOD_ORACLE:
                k = oracle_k(measure, top, test_items)
            else:
                k = min(int(method[4:]), len(top))
            rows.append((int(user), method, measure.value, k, float(realized[measure][k - 1])))
    return rows


def _check_methods(methods) -> None:
    """Reject an unknown method, or a fixed size ``top-<k>`` with k < 1."""
    for method in methods:
        size = method[4:] if str(method).startswith("top-") else ""
        known = method in (METHOD_PERK, METHOD_RAND, METHOD_VAL_K, METHOD_ORACLE)
        if not (known or size.isdecimal() and int(size) >= 1):
            raise ValueError(f"method {method!r} is neither known nor top-<k> with k >= 1")


def evaluate(
    split: SplitDataset,
    scores: ScoreTable,
    params_by_user: dict,
    measures=tuple(Measure),
    methods=None,
    K: int = DEFAULT_K,
    M: int = DEFAULT_M,
    mode: str = "approx",
    seed: int = 0,
    exclude_val: bool = True,
    exact_cap: int = EXACT_MODE_CAP,
    threads: int = 1,
) -> EvaluationReport:
    """Score every method on every user holding at least one test positive.

    All methods emit prefixes of the same per-user ranking (validation
    positives excluded by default), so their averages are comparable and
    the test-label argmax dominates pointwise.
    """
    from .util import parallel_map

    measures = [Measure(m) if not isinstance(m, Measure) else m for m in measures]
    methods = list(methods) if methods is not None else default_methods(K)
    _check_methods(methods)

    def worker(user):
        return _evaluate_user(
            user, split, scores, params_by_user, measures, methods,
            K, M, mode, seed, exclude_val, exact_cap,
        )

    users = sorted(int(u) for u in split.users)
    results = parallel_map(worker, users, threads)
    rows = []
    for res in results:
        if res is not None:
            rows.extend(res)
    if not rows:
        raise ValueError("no evaluable users (every user lacks test positives)")

    n_users = len({r[0] for r in rows})
    sums: dict[tuple, float] = {}
    for _, method, measure, _, value in rows:
        sums[(method, measure)] = sums.get((method, measure), 0.0) + value
    averages = {
        method: {
            measure.value: sums[(method, measure.value)] / n_users for measure in measures
        }
        for method in methods
    }
    config = {"K": K, "M": M, "mode": mode, "seed": seed, "exclude_val": exclude_val}
    return EvaluationReport(
        averages=averages, n_users=n_users, config=config, per_user=tuple(rows)
    )
