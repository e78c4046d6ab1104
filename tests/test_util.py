"""``util.in_pairs``, the one (user, item) membership test, against a
Python set of pairs."""

import numpy as np
import pytest

from persize import util
from persize.util import in_pairs

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
