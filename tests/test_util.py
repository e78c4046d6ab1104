"""``util.in_pairs``, the one (user, item) membership test, against a
Python set of pairs; the row-order helpers; and ``util._check_number``, the
one check of every integer size argument."""

import re

import numpy as np
import pytest

from persize import dataset, util
from persize.calibrate import PlattParams, ece_report
from persize.dataset import InteractionSet, kcore_filter
from persize.multidomain import DomainCurves, allocate
from persize.poibin import distribution, distribution_batch
from persize.scorer import BPRConfig, ScoreTable, train_bpr
from persize.selection import baseline_rand, evaluate, rank, recommend_block, recommend_users
from persize.util import in_pairs
from persize.utility import Measure, expected_curves_batch

# the int64 extremes, negative ids and ids past 2**32 and 2**40
EDGE_IDS = [-2**63, 2**63 - 1, -2**40, -1, 0, 1, 2**32, 2**40]


def _in_set(owners, items, pairs) -> list:
    members = {(int(u), int(i)) for u, i in np.asarray(pairs, dtype=np.int64).reshape(-1, 2)}
    return [(int(u), int(i)) in members for u, i in zip(owners, items)]


@pytest.mark.parametrize("chunk", [5, util._QUERY_CHUNK])  # many chunks, and one
@pytest.mark.parametrize("seed", range(6))
def test_matches_a_set_of_pairs(seed, chunk, monkeypatch):
    monkeypatch.setattr(util, "_QUERY_CHUNK", chunk)
    rng = np.random.default_rng(seed)
    ids = np.concatenate([EDGE_IDS, rng.integers(-2**63, 2**63 - 1, 12, endpoint=True),
                          np.arange(-4, 4)]).astype(np.int64)
    pairs = rng.choice(ids, size=(int(rng.integers(1, 60)), 2))
    pairs = np.concatenate([pairs, pairs[: int(rng.integers(1, 6))]])  # repeated pairs
    # the pairs themselves, random (user, item) queries, and every pair
    # reversed, which asks for ids the pairs hold on the other side only
    owners = np.concatenate([pairs[:, 0], rng.choice(ids, 300), pairs[:, 1]])
    items = np.concatenate([pairs[:, 1], rng.choice(ids, 300), pairs[:, 0]])
    got = in_pairs(owners, items, pairs)
    want = _in_set(owners, items, pairs)
    assert got.dtype == bool and got.tolist() == want
    assert any(want[len(pairs):]) and not all(want)


def test_ids_the_pairs_lack_are_non_members():
    pairs = [[2**63 - 1, -2**63], [-2**63, 2**63 - 1]]
    owners = [2**63 - 1, -2**63, 2**63 - 1, 0, -2**63, 2**63 - 2]
    items = [-2**63, 2**63 - 1, 2**63 - 1, -2**63, -2**63, -2**63]
    assert in_pairs(owners, items, pairs).tolist() == [True, True, False, False, False, False]


def test_empty_pairs_or_queries():
    for pairs in (np.empty((0, 2), dtype=np.int64), []):
        assert in_pairs([1, -2**63], [3, 2**63 - 1], pairs).tolist() == [False, False]
    for pairs in ([[1, 3]], []):
        got = in_pairs(np.empty(0, dtype=np.int64), [], pairs)
        assert got.dtype == bool and got.shape == (0,)


def _repeats_by_set(*keys) -> list:
    """The rows whose key tuple an earlier row holds: a Python-set oracle
    of ``util._repeats``."""
    seen, out = set(), []
    for row, key in enumerate(zip(*(k.tolist() for k in keys))):
        if key in seen:
            out.append(row)
        seen.add(key)
    return out


def _key_columns(rng, n: int, rising: bool) -> list:
    """An int, a bool and a str (object) key column of n rows, the last key
    primary; ``rising`` sorts the rows into strictly rising key order.
    Primary and secondary keys tie often."""
    users = rng.integers(-3, 3, n)
    flags = rng.random(n) < 0.5
    names = np.array([f"m{j}" for j in rng.integers(0, 4, n)], dtype=object)
    if rising:  # the distinct rows in key order
        rows = sorted(set(zip(users.tolist(), flags.tolist(), names.tolist())))
        users, flags, names = (np.array([row[j] for row in rows], dtype=k.dtype)
                               for j, k in enumerate((users, flags, names)))
    return [names, flags, users]


@pytest.mark.parametrize("n", [0, 1, 2, 40, 500])
@pytest.mark.parametrize("rising", [True, False])
@pytest.mark.parametrize("seed", range(4))
def test_repeats_match_a_set_of_keys(n, rising, seed):
    rng = np.random.default_rng(seed)
    keys = _key_columns(rng, n, rising)
    if rising:
        assert util._rising(*keys)
    elif n:  # random rows, then a third of them again
        keys = [np.concatenate([k, k[: n // 3 + 1]]) for k in keys]
    want = _repeats_by_set(*keys)
    got = util._repeats(*keys)
    assert sorted(got.tolist()) == want
    # every key alone, and the pairs, against the same oracle
    for sub in ([keys[0]], [keys[1]], [keys[2]], keys[:2], keys[1:]):
        assert sorted(util._repeats(*sub).tolist()) == _repeats_by_set(*sub)


def test_rising_wants_strict_order_in_every_key():
    users = np.array([0, 0, 1, 1])
    assert util._rising(np.array([1, 2, 0, 5]), users)  # ties in the primary key
    assert not util._rising(np.array([1, 1, 0, 5]), users)  # a repeated row
    assert not util._rising(np.array([2, 1, 0, 5]), users)  # falls within user 0
    assert not util._rising(np.array([1.0, np.nan, 1.0]))  # NaN is no order
    assert util._repeats(np.array([1.0, np.nan, 1.0])).tolist() == [2]
    for rows in ([], [7]):
        got = util._repeats(np.array(rows, dtype=np.int64))
        assert got.tolist() == [] and got.dtype.kind == "i"


_PROBS = np.full((2, 3), 0.5)
_TABLE = ScoreTable.from_entries({0: (np.arange(4), np.arange(4.0))})
_PARAMS = {0: PlattParams(1.0, 0.0)}
_CURVES = DomainCurves(0, {"a": np.ones(3), "b": np.ones(3)})

# argument -> (its name, its lower bound, a call passing (value, split) as it)
SIZE_ARGUMENTS = {
    "expected_curves_batch-K":
        ("K", 1, lambda v, _: expected_curves_batch(_PROBS, list(Measure), M=5, K=v)),
    "expected_curves_batch-M":
        ("M", 1, lambda v, _: expected_curves_batch(_PROBS, list(Measure), M=v, K=3)),
    "recommend_block-K": ("K", 1, lambda v, _: recommend_block([0], _TABLE, _PARAMS,
                                                               [Measure.F1], K=v, M=5)),
    "recommend_block-M": ("M", 1, lambda v, _: recommend_block([0], _TABLE, _PARAMS,
                                                               [Measure.F1], K=3, M=v)),
    "recommend_users-K": ("K", 1, lambda v, _: recommend_users(_TABLE, _PARAMS, [Measure.F1],
                                                               K=v, M=5)),
    "recommend_users-M": ("M", 1, lambda v, _: recommend_users(_TABLE, _PARAMS, [Measure.F1],
                                                               K=3, M=v)),
    "recommend_users-threads": ("threads", 1, lambda v, _: recommend_users(
        _TABLE, _PARAMS, [Measure.F1], K=3, M=5, threads=v)),
    "baseline_rand-K": ("K", 1, lambda v, _: baseline_rand(0, v)),
    "baseline_rand-seed": ("seed", 0, lambda v, _: baseline_rand(0, 3, v)),
    "evaluate-K": ("K", 1, lambda v, split: evaluate(split, _TABLE, {}, K=v)),
    "evaluate-seed": ("seed", 0, lambda v, split: evaluate(split, _TABLE, {}, K=3, seed=v)),
    "split-seed": ("seed", 0, lambda v, split: dataset.split(split.train, seed=v)),
    "BPRConfig-seed": ("BPRConfig.seed", 0, lambda v, split: train_bpr(
        split.train, BPRConfig(d=2, epochs=1, seed=v))),
    "rank-top": ("top", 0, lambda v, _: rank(0, _TABLE, v)),
    "distribution-M": ("M", 0, lambda v, _: distribution(_PROBS[:1], v)),
    "distribution_batch-M": ("M", 0, lambda v, _: distribution_batch(_PROBS, v)),
    "allocate-N": ("N", 0, lambda v, _: allocate(_CURVES, N=v, K=3)),
    "allocate-K": ("K", 1, lambda v, _: allocate(_CURVES, N=3, K=v)),
    "kcore_filter-k": ("k", 1, lambda v, _: kcore_filter(InteractionSet.from_pairs([[0, 0]]), v)),
    "ece_report-bins": ("bins", 1, lambda v, _: ece_report([0.5], [1.0], bins=v)),
}


@pytest.mark.parametrize("bad", ["bool", "float", "below"])
@pytest.mark.parametrize("argument", list(SIZE_ARGUMENTS))
def test_size_argument_refused_with_one_wording(tiny_split, argument, bad):
    # a bool ran as 0 or 1, a float as its ceiling or ended in a TypeError,
    # allocate took any K, and recommend_users any thread count
    name, low, call = SIZE_ARGUMENTS[argument]
    value = {"bool": True, "float": low + 1.5, "below": low - 1}[bad]
    message = f"{name} must be an integer >= {low}, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value, tiny_split)
