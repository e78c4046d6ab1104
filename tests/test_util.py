"""``util.in_pairs``, the one (user, item) membership test, against a
Python set of pairs; the row-order helpers; ``util.atomic_write_bytes``,
the one file writer; ``util._check_number``, the one check of every
integer size argument; and the contract table of every export that takes
ids, pairs or measures: one rule, and one wording, per input class."""

import inspect
import re

import numpy as np
import pytest

import persize
from persize import dataset, util
from persize.calibrate import PlattParams, ece_report
from persize.dataset import InteractionSet, kcore_filter
from persize.multidomain import DomainCurves, allocate
from persize.poibin import distribution, distribution_batch
from persize.scorer import BPRConfig, ScoreTable, train_bpr
from persize.selection import (_rank_block, baseline_rand, evaluate, recommend_block,
                               recommend_users, served_users, user_blocks)
from persize.util import in_pairs
from persize.utility import Measure, expected_curves_batch, realized_curve

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


def test_streamed_write_joins_its_chunks_in_order(tmp_path):
    target = tmp_path / "out.bin"
    ints = np.arange(3, dtype="<i8")
    util.atomic_write_bytes(target, iter([b"ab", memoryview(ints), bytearray(b"c"), b""]))
    assert target.read_bytes() == b"ab" + ints.tobytes() + b"c"
    util.atomic_write(target, "d\u00e9j\u00e0\n")
    assert target.read_bytes() == "d\u00e9j\u00e0\n".encode("utf-8")


def test_failed_streamed_write_keeps_the_target(tmp_path):
    target = tmp_path / "scores.tsv"
    target.write_bytes(b"0\t1\t0.5\n")

    def chunks():
        yield b"0\t1\t0.25\n"
        raise RuntimeError("the second chunk failed")

    with pytest.raises(RuntimeError, match="the second chunk failed"):
        util.atomic_write_bytes(target, chunks())
    assert target.read_bytes() == b"0\t1\t0.5\n"
    assert list(tmp_path.glob(".scores.tsv.*.tmp")) == []
    assert [p.name for p in tmp_path.iterdir()] == ["scores.tsv"]


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
    "rank-top": ("top", 0, lambda v, _: _rank_block([0], _TABLE, v)),
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


_INTERACTIONS = InteractionSet.from_pairs([[0, 1], [0, 2]])
_CSR_ERROR = "ids, indptr or items that are not int64 integers do not form a CSR table"

# each bad id, given alone in a list (a list mixing a bool with ints is an
# int64 array to numpy, so its bool is not seen)
BAD_IDS = {"half": 0.5, "fraction": 1.9, "bool": True, "string": "0",
           "uint64-past-int64": np.uint64(2**63), "int-past-int64": 2**70}

# export and argument -> (the rule's message, a call passing a list of ids as it)
ID_ARGUMENTS = {
    "ScoreTable-ids": (_CSR_ERROR, lambda v: ScoreTable(v, [0, 1], [1], [0.1])),
    "ScoreTable-items": (_CSR_ERROR, lambda v: ScoreTable([0], [0, 1], v, [0.1])),
    "ScoreTable.from_entries-items": ("user 0: item ids are not int64 integers",
                                      lambda v: ScoreTable.from_entries({0: (v, [0.1])})),
    "InteractionSet.from_pairs-users": ("users and items are not int64 integers",
                                        lambda v: InteractionSet.from_pairs([[0, 0]], users=v)),
    "InteractionSet.from_pairs-items": ("users and items are not int64 integers",
                                        lambda v: InteractionSet.from_pairs([[0, 0]], items=v)),
    "in_pairs-owners": ("owners and items are not int64 integers",
                        lambda v: in_pairs(v, [1], [[0, 1]])),
    "recommend_block-users": ("users are not int64 integers", lambda v: recommend_block(
        v, _TABLE, _PARAMS, [Measure.F1], K=3, M=5)),
    "user_blocks-users": ("users are not int64 integers", lambda v: user_blocks(v, _TABLE)),
}


@pytest.mark.parametrize("bad", list(BAD_IDS))
@pytest.mark.parametrize("argument", list(ID_ARGUMENTS))
def test_ids_refused_with_one_wording(argument, bad):
    # a float, bool or string was truncated or parsed by int(): [0.5] served
    # user 0, and ["1"] or [True] user 1
    message, call = ID_ARGUMENTS[argument]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call([BAD_IDS[bad]])
    assert "are not int64 integers" in message


PAIR_ARGUMENTS = {
    "InteractionSet.from_pairs-pairs": InteractionSet.from_pairs,
    "ScoreTable.without-pairs": _TABLE.without,
    "in_pairs-pairs": lambda v: in_pairs([0], [1], v),
}
BAD_PAIRS = {**{k: [[v, v]] for k, v in BAD_IDS.items()},
             "shape-1x4": np.array([[0, 1, 1, 2]]), "shape-3": np.array([0, 1, 1])}


@pytest.mark.parametrize("bad", list(BAD_PAIRS))
@pytest.mark.parametrize("argument", list(PAIR_ARGUMENTS))
def test_pairs_refused_with_one_wording(argument, bad):
    # pairs were reshaped to (n, 2): a (1, 4) row dropped (0, 1) and (1, 2),
    # and [[1.9, 0]] kept the pair (1, 0)
    with pytest.raises(ValueError, match=r"^pairs are not an \(n, 2\) array of int64 integers$"):
        PAIR_ARGUMENTS[argument](BAD_PAIRS[bad])


def test_empty_pairs_of_any_shape_are_no_pairs():
    for empty in ([], np.empty((0, 2)), np.empty(0, dtype=np.int64), [[]]):
        assert InteractionSet.from_pairs(empty).pairs.shape == (0, 2)
        assert _TABLE.without(empty).items.tolist() == _TABLE.items.tolist()


# export and argument -> a call passing (value, split) as its measure list
MEASURE_ARGUMENTS = {
    "expected_curves_batch-measures":
        lambda v, _: expected_curves_batch(_PROBS, v, M=5, K=3),
    "recommend_block-measures": lambda v, _: recommend_block([0], _TABLE, _PARAMS, v, K=3, M=5),
    "recommend_users-measures": lambda v, _: recommend_users(_TABLE, _PARAMS, v, K=3, M=5),
    "evaluate-measures": lambda v, split: evaluate(split, _TABLE, {}, measures=v, K=3),
}
BAD_MEASURES = {
    "bare-string": ("f1", "measures must be a list, got 'f1'"),
    "unknown-name": (["f1", "map", "x"], "unknown measures: map, x"),
    "empty": ([], "measures is empty: no measure to evaluate"),
    "repeated": (["f1", Measure.F1], "repeated measure: f1"),
}


@pytest.mark.parametrize("bad", list(BAD_MEASURES))
@pytest.mark.parametrize("argument", list(MEASURE_ARGUMENTS))
def test_measures_refused_with_one_wording(tiny_split, argument, bad):
    # a bare string was read letter by letter ("'f' is not a valid
    # Measure"), and the library worded an unknown name otherwise than the CLI
    value, message = BAD_MEASURES[bad]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        MEASURE_ARGUMENTS[argument](value, tiny_split)


# a single measure, for which only an unknown one is wrong
ONE_MEASURE_ARGUMENTS = {"realized_curve-measure": lambda v: realized_curve(v, [1, 0], 1)}


@pytest.mark.parametrize("bad, message", [("map", "unknown measures: map"),
                                          (["f1"], "unknown measures: ['f1']")],
                         ids=["unknown-name", "a-list"])
@pytest.mark.parametrize("argument", list(ONE_MEASURE_ARGUMENTS))
def test_one_measure_refused_with_the_same_wording(argument, bad, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ONE_MEASURE_ARGUMENTS[argument](bad)


# scalar lookups keep operator.index's rule: a float or a string is a TypeError
SCALAR_ARGUMENTS = {
    "ScoreTable.get-user": _TABLE.get,
    "ScoreTable.__contains__-user": lambda v: v in _TABLE,
    "ScoreTable.from_entries-user": lambda v: ScoreTable.from_entries({v: ([1], [0.1])}),
    "InteractionSet.items_of-user": _INTERACTIONS.items_of,
    "baseline_rand-user": lambda v: baseline_rand(v, 3),
}


@pytest.mark.parametrize("bad", [0.5, 1.9, "0"])
@pytest.mark.parametrize("argument", list(SCALAR_ARGUMENTS))
def test_scalar_users_refused(argument, bad):
    # baseline_rand's int(user) drew user 1's size for 1.9
    with pytest.raises(TypeError):
        SCALAR_ARGUMENTS[argument](bad)


# front doors that ended in a bare TypeError or AttributeError
FRONT_DOORS = {
    "split-ratios-string": (lambda split: dataset.split(split.train, ratios="abc"),
                            "ratios must be numbers, got 'abc'"),
    "split-ratios-mixed": (lambda split: dataset.split(split.train, ratios=(0.5, "a", 0.5)),
                           "ratios must be numbers, got (0.5, 'a', 0.5)"),
    "PlattParams-string": (lambda _: PlattParams("a", 0.0), "non-finite calibration "
                           "parameters for scope 'GLOBAL': a='a', b=0.0"),
    "PlattParams-none": (lambda _: PlattParams(None, 0.0), "non-finite calibration "
                         "parameters for scope 'GLOBAL': a=None, b=0.0"),
    "served_users-none": (lambda _: served_users(_TABLE, None),
                          "params_by_user must be a dict of user -> PlattParams, got NoneType"),
    "recommend_users-list": (lambda _: recommend_users(_TABLE, [1], ["f1"]),
                             "params_by_user must be a dict of user -> PlattParams, got list"),
    "recommend_block-list": (lambda _: recommend_block([0], _TABLE, [1], ["f1"]),
                             "params_by_user must be a dict of user -> PlattParams, got list"),
}


@pytest.mark.parametrize("door", list(FRONT_DOORS))
def test_front_door_refuses_with_a_value_error(tiny_split, door):
    call, message = FRONT_DOORS[door]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(tiny_split)


def _exported_callables():
    """(name, callable) of every function and public method that
    ``persize/__init__.py`` exports."""
    for name in dir(persize):
        obj = getattr(persize, name)
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for method, raw in vars(obj).items():
                if not method.startswith("_") and (
                        inspect.isfunction(raw) or isinstance(raw, (classmethod, staticmethod))):
                    yield f"{name}.{method}", getattr(obj, method)


def test_every_export_taking_ids_pairs_or_measures_has_a_contract_row():
    # a new export cannot skip the rules: each parameter named for users,
    # pairs or measures needs its row in one of the tables above
    rows = {*ID_ARGUMENTS, *PAIR_ARGUMENTS, *MEASURE_ARGUMENTS, *ONE_MEASURE_ARGUMENTS,
            *SCALAR_ARGUMENTS}
    taking = {f"{name}-{param}" for name, fn in _exported_callables()
              for param in inspect.signature(fn).parameters
              if param in ("user", "users", "pairs", "measure", "measures")}
    assert len(taking) >= 13 and not taking - rows, sorted(taking - rows)
