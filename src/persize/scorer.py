"""Ranking scores: a minimal pairwise matrix-factorization trainer
(``train_bpr``: seeded SGD on -log sigmoid(f(u, i+) - f(u, i-)) with
uniformly sampled negatives), the table of each user's candidate scores, an
importer/exporter so scores from any external recommender can be used, and
the binary score store the pipeline stages share.

``ScoreTable`` is the store's layout held in memory: four read-only CSR
arrays, users rising and each user's items rising. ``load_scores`` wraps
the store's bytes in them without a per-user copy, ``import_scores`` sorts
a score file's rows into them, ``build_score_table`` scores a trained
model's candidates into them in one pass, and ``ScoreTable.from_entries``
sorts a dict of another recommender's per-user entries into them once.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .dataset import InteractionSet
from .util import (_check_number, _first_flagged, _ids, _outside, _read_rows, _repeats,
                   _rising, atomic_write_bytes, in_pairs)

_INT_DTYPE = np.dtype("<i8")
_OUT_OF_ORDER = "item ids out of order (each user's item ids must rise strictly)"
_FLOAT_DTYPE = np.dtype("<f8")
# Entries per write of the binary store (256 KB).
_STORE_SLICE = 32_768


@dataclass(frozen=True)
class BPRConfig:
    d: int = 64
    epochs: int = 50
    learning_rate: float = 1e-3
    weight_decay: float = 1e-5
    negatives_per_positive: int = 1
    seed: int = 0


@dataclass(frozen=True)
class ScoreModel:
    """Dot-product scorer: user u scores item i as user_vectors[u] @ item_vectors[i]."""

    user_vectors: np.ndarray
    item_vectors: np.ndarray
    epoch_losses: tuple = ()


class ScoreTable:
    """Each user's candidate (item, score) entries as the score store's four
    read-only CSR arrays: ``ids`` (strictly increasing), ``indptr``, ``items``
    and ``scores``; user ``ids[j]`` owns entries ``indptr[j]:indptr[j + 1]``,
    whose items rise strictly. The constructor checks the layout, then
    names the first bad user: a duplicate item, else items out of order
    (one pass over neighbouring entries), else a non-finite score."""

    def __init__(self, ids, indptr, items, scores):
        error = "ids, indptr or items that are not int64 integers do not form a CSR table"
        self.ids, self.indptr, self.items, self.scores = arrays = [
            _ids(x, error).view() for x in (ids, indptr, items)] + [
            np.asarray(scores, dtype=np.float64).view()]
        for arr in arrays:
            arr.setflags(write=False)
        if (self.ids.ndim != 1 or self.items.ndim != 1 or self.scores.shape != self.items.shape
                or self.indptr.shape != (len(self.ids) + 1,) or self.indptr[0] != 0
                or self.indptr[-1] != len(self.items) or np.any(np.diff(self.indptr) < 0)
                or np.any(np.diff(self.ids) <= 0)):
            raise ValueError("ids, indptr, items and scores do not form a CSR table")
        rises = self.items[1:] > self.items[:-1]
        starts = self.indptr[1:-1]  # an entry that starts a user's segment rises by rule
        rises[starts[(starts > 0) & (starts < len(self.items))] - 1] = True
        after = np.flatnonzero(~rises)  # entries whose next entry does not rise over them
        equal = self.items[after + 1] == self.items[after]
        flagged = _first_flagged([  # each flagged entry's row in ids
            (self.indptr.searchsorted(entries, side="right") - 1, lambda r, why=why: why)
            for entries, why in ((after[equal], "duplicate item ids"),
                                 (after[~equal], _OUT_OF_ORDER),
                                 (np.flatnonzero(~np.isfinite(self.scores)), "non-finite score"))])
        if flagged:
            raise ValueError(f"user {self.ids[flagged[0]]}: {flagged[1]}")

    @classmethod
    def from_entries(cls, entries: dict) -> ScoreTable:
        """The table of user -> (items, scores), in user order and each user's
        entries by item. A user's items and scores must be 1-D and of equal
        length, and its items integers that int64 holds exactly (an empty
        list of any dtype is fine); a ValueError names the first user that
        breaks this."""
        rows = sorted(((operator.index(u), np.asarray(i), np.asarray(s, dtype=np.float64))
                       for u, (i, s) in entries.items()), key=lambda row: row[0])
        for r, (user, items, scores) in enumerate(rows):
            why = ("items and scores are not 1-D" if items.ndim != 1 or scores.ndim != 1
                   else "items and scores differ in length" if len(items) != len(scores)
                   else None)
            if why:
                raise ValueError(f"user {user}: {why}")
            items = _ids(items, f"user {user}: item ids are not int64 integers")
            order = np.argsort(items)
            rows[r] = user, items[order], scores[order]
        return cls([row[0] for row in rows], np.cumsum([0] + [len(row[1]) for row in rows]),
                   np.concatenate([np.empty(0, np.int64)] + [row[1] for row in rows]),
                   np.concatenate([np.empty(0)] + [row[2] for row in rows]))

    def without(self, pairs) -> ScoreTable:
        """The table minus the entries whose (user, item) is a row of the
        (n, 2) ``pairs``: one ``in_pairs`` test over every entry. Every user
        stays, with its other entries in order (possibly none)."""
        owners = np.repeat(self.ids, np.diff(self.indptr))
        keep = ~in_pairs(owners, self.items, pairs)
        indptr = np.append(0, np.cumsum(keep))[self.indptr]
        # every array a copy: a view of ``ids`` would keep a loaded store's bytes alive
        return ScoreTable(self.ids.copy(), indptr, self.items[keep], self.scores[keep])

    def users(self) -> list[int]:
        return self.ids.tolist()

    def get(self, user: int):
        """The user's (items, scores): read-only slices of the arrays."""
        if user not in self:
            raise ValueError(f"user {user} has no scored candidates")
        a, b = self.indptr[self.ids.searchsorted(operator.index(user)):][:2].tolist()
        return self.items[a:b], self.scores[a:b]

    def __contains__(self, user) -> bool:
        user = operator.index(user)
        row = int(self.ids.searchsorted(user))
        return row < len(self.ids) and self.ids[row] == user

    def __len__(self) -> int:
        return len(self.ids)


def train_bpr(train: InteractionSet, config: BPRConfig = BPRConfig()) -> ScoreModel:
    """Fit embeddings on the pairwise ranking objective.

    One SGD step per (positive, sampled negative) pair, in a seeded shuffle
    each epoch. Negatives are drawn uniformly from the items the user never
    interacted with in ``train``; a user who owns every item has none and
    is skipped. An epoch's negatives come from batched draws that replay
    the draw sequence of a loop of scalar ``rng.integers`` calls. The steps
    of each ``_dependency_levels`` level are applied as one array update, in
    level order, which gives the sequential result bit for bit. Raises
    ValueError for an invalid config or ids that are not dense and 0-based,
    and RuntimeError if the loss goes non-finite.
    """
    _check_config(config)
    if train.n_interactions == 0:
        raise ValueError("cannot train on an empty interaction set")
    n_users = len(train.users)
    n_items = len(train.items)
    pos_user = train.pairs[:, 0]
    pos_item = train.pairs[:, 1]
    if train.pairs.min() < 0 or pos_user.max() >= n_users or pos_item.max() >= n_items:
        raise ValueError("train_bpr expects dense 0-based ids (see dataset.compact)")

    rng = np.random.default_rng(config.seed)
    u_vecs = rng.uniform(-0.01, 0.01, size=(n_users, config.d))
    i_vecs = rng.uniform(-0.01, 0.01, size=(n_items, config.d))
    n_owned = np.bincount(pos_user, minlength=n_users)
    # pairs are sorted by user, so each user's items are one run of them
    owned = [set(items.tolist()) for items in np.split(pos_item, np.cumsum(n_owned)[:-1])]
    has_negatives = (n_owned < n_items)[pos_user]

    lr = config.learning_rate
    wd = config.weight_decay
    losses = []
    for _ in range(config.epochs):
        order = rng.permutation(len(pos_user))
        steps = np.repeat(order[has_negatives[order]], config.negatives_per_positive)
        users, pos = pos_user[steps], pos_item[steps]
        # each step's negative is its first draw outside the user's items, all
        # drawn before any update; a batch of as many draws as steps remain
        # never draws a value the scalar loop would not, so rng keeps its state
        negs, walk = [], users.tolist()
        while len(negs) < len(walk):
            for j in rng.integers(n_items, size=len(walk) - len(negs)).tolist():
                if j not in owned[walk[len(negs)]]:
                    negs.append(j)
        neg = np.array(negs, dtype=np.int64)
        x = np.empty(len(users))
        for level in _dependency_levels(users, pos, neg, n_items):
            us, ps, ns = users[level], pos[level], neg[level]
            uv, vi, vj = u_vecs[us], i_vecs[ps], i_vecs[ns]
            diff = vi - vj
            x[level] = xs = _dot(uv, diff)
            # d/dx of -log sigmoid(x) is -sigmoid(-x)
            g = (1.0 / (1.0 + np.exp(np.minimum(xs, 500.0))))[:, None]
            uv = uv + lr * (g * diff - wd * uv)
            u_vecs[us] = uv  # the item updates read the updated user rows
            i_vecs[ps] = vi + lr * (g * uv - wd * vi)
            i_vecs[ns] = vj + lr * (-g * uv - wd * vj)
        # a running sum in step order keeps the loss bits of a step-by-step loop
        epoch_loss = np.cumsum(np.logaddexp(0.0, -x))[-1] if len(x) else 0.0
        mean_loss = epoch_loss / max(len(x), 1)
        if not np.isfinite(mean_loss):
            raise RuntimeError(
                f"ranking loss became non-finite at epoch {len(losses) + 1} "
                f"(lr={lr}, wd={wd}); lower the learning rate"
            )
        losses.append(float(mean_loss))
    return ScoreModel(user_vectors=u_vecs, item_vectors=i_vecs, epoch_losses=tuple(losses))


def _check_config(config: BPRConfig) -> None:
    """Reject a config the trainer cannot run, naming the field."""
    for name, low in (("d", 1), ("epochs", 0), ("negatives_per_positive", 1), ("seed", 0)):
        _check_number(f"BPRConfig.{name}", getattr(config, name), low, integer=True)
    for name in ("learning_rate", "weight_decay"):
        _check_number(f"BPRConfig.{name}", getattr(config, name), 0)


def _dependency_levels(users, pos, neg, n_items) -> list[np.ndarray]:
    """The step indices of each dependency level, in level order, each in
    increasing order. A step's level is one above the highest level of the
    earlier steps that touch its user row or one of its item rows (0 if none
    does), so no row repeats within a level and steps that share a row are
    ordered by level as they are by index."""
    after = [0] * (n_items + int(users.max(initial=-1)) + 1)  # lowest free level per row
    levels = []
    for u, p, n in zip((users + n_items).tolist(), pos.tolist(), neg.tolist()):
        level = after[u]  # two comparisons cost less than a max() call
        if after[p] > level:
            level = after[p]
        if after[n] > level:
            level = after[n]
        after[u] = after[p] = after[n] = level + 1
        levels.append(level)
    levels = np.array(levels, dtype=np.int64)
    order = np.argsort(levels, kind="stable")
    return np.split(order, np.cumsum(np.bincount(levels))[:-1]) if len(levels) else []


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (n, d) arrays in one call. Each row runs
    numpy's vector-vector dot, so ``_dot(a, b)[r]`` equals ``a[r] @ b[r]``
    bit for bit; ``(a * b).sum(axis=1)`` rounds differently."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def build_score_table(model: ScoreModel, train: InteractionSet) -> ScoreTable:
    """Score each user's candidates, the items outside its ``train`` items,
    into one table in (user, item) order (a user owning every item keeps an
    empty row). Each score is ``user_vector @ item_vector`` bit for bit, by
    ``train_bpr``'s row-wise kernel on chunks of 4096 entries that bound its
    temporaries. Ids that are not dense and 0-based, or a model whose vector
    counts differ from the universe, are a ValueError."""
    n_users, n_items = len(train.users), len(train.items)
    uv, iv = model.user_vectors, model.item_vectors
    if not (np.array_equal(train.users, np.arange(n_users))
            and np.array_equal(train.items, np.arange(n_items))):
        raise ValueError("build_score_table expects dense 0-based ids (see dataset.compact)")
    if (len(uv), len(iv)) != (n_users, n_items):
        raise ValueError(f"the model's {len(uv)} user and {len(iv)} item vectors do not "
                         f"match the universe's {n_users} users and {n_items} items")
    owned = np.zeros((n_users, n_items), dtype=bool)
    owned[train.pairs[:, 0], train.pairs[:, 1]] = True
    users, items = np.nonzero(~owned)
    scores = np.empty(len(items))
    for a in range(0, len(items), 4096):
        scores[a:a + 4096] = _dot(uv[users[a:a + 4096]], iv[items[a:a + 4096]])
    return ScoreTable(train.users, np.searchsorted(users, np.arange(n_users + 1)), items, scores)


def export_scores(table: ScoreTable, path, header: str = "") -> None:
    """Write `user<TAB>item<TAB>score` rows; floats round-trip exactly. The
    text is written chunk by chunk: the header line, then each user's
    entries in slices of at most 4096 rows."""
    atomic_write_bytes(path, _score_lines(table, header))


def _score_lines(table: ScoreTable, header: str):
    """The export's chunks: one ``%`` format per slice of a user's entries,
    item ids and score reprs interleaved."""
    if header:
        yield (header + "\n").encode("utf-8")
    bounds = table.indptr.tolist()
    for u, start, end in zip(table.ids.tolist(), bounds, bounds[1:]):
        for a in range(start, end, 4096):
            b = min(a + 4096, end)
            fields = [None] * (2 * (b - a))
            fields[::2], fields[1::2] = table.items[a:b].tolist(), table.scores[a:b].tolist()
            yield ((f"{u}\t%d\t%r\n" * (b - a)) % tuple(fields)).encode("ascii")


def import_scores(path, n_users: int | None = None, n_items: int | None = None) -> ScoreTable:
    """Read a score file written by ``export_scores`` (or any recommender).

    Rows follow ``util._read_rows``: stripped lines, ``#`` comment lines and
    blank lines skipped, fields after the score ignored. Rejects a malformed
    row, a non-finite score, a repeated (user, item) row and, when
    ``n_users`` / ``n_items`` give the universe, a user outside
    ``[0, n_users)`` or an item outside ``[0, n_items)``; each error is a
    ValueError naming the path and line. Rows out of (user, item) order are
    sorted, so the table does not depend on the file's row order.
    """
    users, items, scores = _read_rows(
        path, "iif", "user<TAB>item<TAB>score",
        lambda columns: _bad_score_row(columns, n_users, n_items))
    if not _rising(items, users):
        order = np.lexsort((items, users))
        users, items, scores = users[order], items[order], scores[order]
    first = np.ones(len(users), dtype=bool)  # the rows that start a user's run
    np.not_equal(users[1:], users[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return ScoreTable(users[starts], np.append(starts, len(users)), items, scores)


def _bad_score_row(columns, n_users, n_items):
    """The earliest rejected score row and why, or None."""
    users, items, scores = columns
    flags = [
        (np.flatnonzero(~np.isfinite(scores)),
         lambda r: f"non-finite score for ({users[r]}, {items[r]})"),
        (_repeats(items, users), lambda r: f"duplicate entry for ({users[r]}, {items[r]})"),
    ]
    if n_users is not None:
        flags.append(_outside(users, n_users, "user", "the split"))
    if n_items is not None:
        flags.append(_outside(items, n_items, "item", "the split"))
    return _first_flagged(flags)


def save_scores(table: ScoreTable, path) -> None:
    """Binary CSR score store: an int64 (n_users, nnz) header, then the
    table's ``ids``, ``indptr`` and ``items`` as int64 and its ``scores`` as
    float64, all little-endian. Bit-exact, and written atomically from the
    arrays' own buffers, a slice at a time: a slice of a contiguous array is
    a view, and a strided column (an imported table's) is copied one slice
    at a time."""
    arrays = [np.array([len(table.ids), len(table.items)]), table.ids, table.indptr,
              table.items, table.scores]
    dtypes = [_INT_DTYPE] * 4 + [_FLOAT_DTYPE]
    atomic_write_bytes(path, (
        memoryview(np.ascontiguousarray(x[a:a + _STORE_SLICE], dtype=dtype))
        for x, dtype in zip(arrays, dtypes) for a in range(0, len(x), _STORE_SLICE)))


def load_scores(path) -> ScoreTable:
    """Read a store written by ``save_scores``.

    Rejects a file whose length does not match its header, and any store the
    table refuses (a bad layout, a duplicate item, items out of order, which
    asks to rerun ``train``, or a non-finite score), naming the path.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 16:
        raise ValueError(f"{path}: truncated score store ({len(raw)} bytes)")
    n_users, nnz = (int(x) for x in np.frombuffer(raw, dtype=_INT_DTYPE, count=2))
    if n_users < 0 or nnz < 0 or len(raw) != 8 * (3 + 2 * n_users + 2 * nnz):
        raise ValueError(f"{path}: {len(raw)} bytes do not match the header "
                         f"(n_users={n_users}, nnz={nnz})")
    ints = np.frombuffer(raw, dtype=_INT_DTYPE, count=3 + 2 * n_users + nnz)
    users, indptr, items = np.split(ints[2:], [n_users, 2 * n_users + 1])
    scores = np.frombuffer(raw, dtype=_FLOAT_DTYPE, offset=ints.nbytes)
    try:
        return ScoreTable(users, indptr, items, scores)
    except ValueError as exc:
        rerun = "; rerun train to rewrite the store" if _OUT_OF_ORDER in str(exc) else ""
        raise ValueError(f"{path}: {exc}{rerun}") from None
