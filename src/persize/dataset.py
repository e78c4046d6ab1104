"""Implicit-feedback ingestion, k-core filtering and per-user splits.

Interactions are (user, item) pairs with an implicit positive label. Raw
ids are remapped to dense 0-based integers at load time; the mapping is
returned so pipelines can persist it next to the split files. All
operations are pure: they return new sets and never mutate their inputs.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .util import _check_number, _first_flagged, _outside, _read_rows, atomic_write

SPLIT_RATIOS = (0.6, 0.2, 0.2)
SPLIT_FILES = ("train.tsv", "val.tsv", "test.tsv")
ID_MAP_FILE = "id_map.json"

_EMPTY_ITEMS = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class InteractionSet:
    """Deduplicated (user, item) pairs over a fixed user/item universe.

    ``users`` and ``items`` are the universe (arrays of ids); every pair
    references ids from it. Pairs are kept sorted for determinism.
    """

    users: np.ndarray
    items: np.ndarray
    pairs: np.ndarray  # shape (n, 2), lexicographically sorted, unique

    @classmethod
    def from_pairs(cls, pairs, users=None, items=None) -> "InteractionSet":
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        if len(pairs):
            pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
            pairs = pairs[np.append(True, np.any(pairs[1:] != pairs[:-1], axis=1))]
        if users is None:
            users = np.unique(pairs[:, 0]) if len(pairs) else _EMPTY_ITEMS
        if items is None:
            items = np.unique(pairs[:, 1]) if len(pairs) else _EMPTY_ITEMS
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        if len(pairs):
            if not np.isin(pairs[:, 0], users).all():
                raise ValueError("pair references a user outside the universe")
            if not np.isin(pairs[:, 1], items).all():
                raise ValueError("pair references an item outside the universe")
        iset = cls(users=users, items=items, pairs=pairs)
        for arr in (iset.users, iset.items, iset.pairs):
            arr.setflags(write=False)
        return iset

    @property
    def n_interactions(self) -> int:
        return len(self.pairs)

    def items_of(self, user: int) -> np.ndarray:
        """Items this user interacted with (ascending), empty if none: the
        user's run of the sorted pairs."""
        users = self.pairs[:, 0]
        user = operator.index(user)
        return self.pairs[np.searchsorted(users, user):np.searchsorted(users, user, "right"), 1]


@dataclass(frozen=True)
class SplitDataset:
    """Disjoint train/val/test parts over one shared user/item universe."""

    train: InteractionSet
    val: InteractionSet
    test: InteractionSet
    seed: int

    @property
    def users(self) -> np.ndarray:
        return self.train.users

    @property
    def items(self) -> np.ndarray:
        return self.train.items


def load_interactions(path):
    """Read `user<TAB>item` lines into an InteractionSet with dense ids.

    Blank lines and lines starting with '#' are skipped; extra tab-separated
    fields after the first two are ignored; duplicates collapse to one pair.
    Returns (interactions, id_map) where id_map holds the original-id ->
    dense-index dictionaries for persisting alongside the outputs.
    """
    user_ids: dict[str, int] = {}
    item_ids: dict[str, int] = {}
    pairs = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) < 2 or not parts[0] or not parts[1]:
                raise ValueError(f"{path}: line {lineno}: expected 'user<TAB>item', got {line!r}")
            u = user_ids.setdefault(parts[0], len(user_ids))
            i = item_ids.setdefault(parts[1], len(item_ids))
            pairs.append((u, i))
    if not pairs:
        raise ValueError(f"{path}: no interactions found")
    iset = InteractionSet.from_pairs(
        pairs,
        users=np.arange(len(user_ids)),
        items=np.arange(len(item_ids)),
    )
    return iset, {"users": user_ids, "items": item_ids}


def kcore_filter(iset: InteractionSet, k: int) -> InteractionSet:
    """Iteratively drop users and items with fewer than k interactions.

    Runs to fixpoint; an empty result is valid.
    Surviving ids keep their original values (see ``compact`` to re-densify).
    """
    _check_number("k", k, 1, integer=True)
    pairs = iset.pairs
    while len(pairs):
        u_ids, u_deg = np.unique(pairs[:, 0], return_counts=True)
        i_ids, i_deg = np.unique(pairs[:, 1], return_counts=True)
        bad_u = u_ids[u_deg < k]
        bad_i = i_ids[i_deg < k]
        if not len(bad_u) and not len(bad_i):
            break
        keep = ~np.isin(pairs[:, 0], bad_u) & ~np.isin(pairs[:, 1], bad_i)
        pairs = pairs[keep]
    if not len(pairs):
        return InteractionSet.from_pairs(
            np.empty((0, 2), dtype=np.int64), users=_EMPTY_ITEMS, items=_EMPTY_ITEMS
        )
    return InteractionSet.from_pairs(pairs)


def compact(iset: InteractionSet):
    """Remap surviving ids to dense 0-based ranges.

    Returns (remapped set, user_index, item_index) where the index arrays
    give old id -> position, for composing with a load-time id map.
    """
    new_u = np.searchsorted(iset.users, iset.pairs[:, 0])
    new_i = np.searchsorted(iset.items, iset.pairs[:, 1])
    remapped = InteractionSet.from_pairs(
        np.stack([new_u, new_i], axis=1),
        users=np.arange(len(iset.users)),
        items=np.arange(len(iset.items)),
    )
    return remapped, iset.users.copy(), iset.items.copy()


def _largest_remainder(n: int, ratios) -> list[int]:
    exact = [r * n for r in ratios]
    base = [int(np.floor(e + 1e-9)) for e in exact]
    leftover = n - sum(base)
    order = sorted(range(len(ratios)), key=lambda j: (-(exact[j] - base[j]), j))
    for j in order[:leftover]:
        base[j] += 1
    return base


def split(iset: InteractionSet, ratios=SPLIT_RATIOS, seed: int = 0) -> SplitDataset:
    """Partition each user's interactions into train/val/test.

    Sizes follow largest-remainder rounding of the ratios (ties toward the
    earlier part), so small users may leave val or test empty. The shuffle
    is seeded per user, making the split independent of iteration order.
    """
    if not abs(sum(ratios) - 1.0) <= 1e-9:  # a NaN ratio fails too
        raise ValueError(f"ratios must sum to 1, got {ratios}")
    if len(ratios) != 3:
        raise ValueError("exactly three ratios (train, val, test) are required")
    if min(ratios) < 0:
        raise ValueError(f"ratios must be non-negative, got {ratios}")
    _check_number("seed", seed, 0, integer=True)
    pairs = iset.pairs
    users, starts, counts = np.unique(pairs[:, 0], return_index=True, return_counts=True)
    # each user's pairs are one run of the sorted pairs: shuffle its row indices
    rows = [a + np.random.default_rng([seed, u]).permutation(n)
            for u, a, n in zip(users.tolist(), starts.tolist(), counts.tolist())]
    sizes = np.array([_largest_remainder(n, ratios) for n in counts.tolist()], dtype=np.int64)
    part = np.repeat(np.tile(np.arange(3), len(sizes)), sizes.reshape(-1))
    shuffled = pairs[np.concatenate([_EMPTY_ITEMS] + rows)]
    sets = [InteractionSet.from_pairs(shuffled[part == p], users=iset.users, items=iset.items)
            for p in range(3)]
    return SplitDataset(train=sets[0], val=sets[1], test=sets[2], seed=seed)


def save_split(split_ds: SplitDataset, workdir, id_map=None, header: str = "") -> None:
    """Write train/val/test TSVs plus the id-map JSON into ``workdir``."""
    workdir = Path(workdir)
    for name, part in zip(SPLIT_FILES, (split_ds.train, split_ds.val, split_ds.test)):
        lines = [header] if header else []
        lines.extend(f"{u}\t{i}" for u, i in part.pairs.tolist())
        atomic_write(workdir / name, "\n".join(lines) + "\n")
    mapping = {
        "users": (id_map or {}).get("users", {}),
        "items": (id_map or {}).get("items", {}),
        "seed": split_ds.seed,
    }
    atomic_write(workdir / ID_MAP_FILE, json.dumps(mapping, sort_keys=True, indent=1) + "\n")


def load_split(workdir) -> SplitDataset:
    """Re-read a directory produced by ``save_split``.

    Split rows follow ``util._read_rows`` (as the score import does): a row
    without two integer ids, or with an id outside the ``id_map.json``
    universe, is a ValueError naming the file and line. Repeated rows
    collapse to one pair. So is an ``id_map.json`` that is not an object
    with ``users`` and ``items`` objects and an integer ``seed``.
    """
    workdir = Path(workdir)
    with open(workdir / ID_MAP_FILE, encoding="utf-8") as fh:
        mapping = json.load(fh)
    if not (isinstance(mapping, dict) and all(isinstance(mapping.get(k), dict)
                                              for k in ("users", "items"))
            and type(mapping.get("seed")) is int):
        raise ValueError(f"{workdir / ID_MAP_FILE}: expected an object with 'users' and "
                         "'items' objects and an integer 'seed'")
    users = np.arange(len(mapping["users"]))
    items = np.arange(len(mapping["items"]))
    parts = []
    for name in SPLIT_FILES:
        u, i = _read_rows(workdir / name, "ii", "user<TAB>item",
                          lambda columns: _bad_split_row(columns, len(users), len(items)))
        parts.append(InteractionSet.from_pairs(np.stack([u, i], axis=1), users=users, items=items))
    return SplitDataset(train=parts[0], val=parts[1], test=parts[2], seed=mapping["seed"])


def _bad_split_row(columns, n_users: int, n_items: int):
    """The earliest split row with an id outside the universe, or None."""
    users, items = columns
    return _first_flagged([_outside(users, n_users, "user", ID_MAP_FILE),
                           _outside(items, n_items, "item", ID_MAP_FILE)])
