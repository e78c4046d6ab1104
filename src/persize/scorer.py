"""Ranking scores: a minimal pairwise matrix-factorization trainer
(``train_bpr``: seeded SGD on -log sigmoid(f(u, i+) - f(u, i-)) with
uniformly sampled negatives), the table of each user's candidate scores, an
importer/exporter so scores from any external recommender can be used, and
the binary score store the pipeline stages share.

``ScoreTable`` is the store's layout held in memory: four read-only CSR
arrays. ``load_scores`` wraps the store's bytes in them without a per-user
copy, ``import_scores`` sorts a score file's rows into them, and
``build_score_table`` scores a trained model's candidates into them in one
pass, and ``ScoreTable.from_entries`` concatenates a dict of another
recommender's per-user entries once.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .dataset import InteractionSet
from .util import (_check_number, _first_flagged, _outside, _read_rows, _repeats,
                   atomic_write, atomic_write_bytes, in_pairs)

_INT_DTYPE = np.dtype("<i8")
_FLOAT_DTYPE = np.dtype("<f8")


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


def _not_int64(arr: np.ndarray) -> bool:
    """Whether a non-empty array holds a non-integer or an integer that
    int64 cannot hold."""
    return bool(arr.size) and (arr.dtype.kind not in "iu" or (
        not np.can_cast(arr.dtype, np.int64) and arr.max() > np.iinfo(np.int64).max))


class ScoreTable:
    """Each user's candidate (item, score) entries as the score store's four
    read-only CSR arrays: ``ids`` (strictly increasing), ``indptr``, ``items``
    and ``scores``; user ``ids[j]`` owns entries ``indptr[j]:indptr[j + 1]``.
    The constructor checks the layout, then names the first bad user: a
    duplicate item, else a non-finite score. Entries already in (user, item)
    order, as every store the pipeline writes is, have no duplicate, which
    one pass tells; only other tables are sorted (``util._repeats``)."""

    def __init__(self, ids, indptr, items, scores):
        self._wrap(ids, indptr, items, scores)
        owner = np.repeat(np.arange(len(self.ids)), np.diff(self.indptr))
        flagged = _first_flagged([
            (owner[_repeats(self.items, owner)], lambda r: "duplicate item ids"),
            (owner[~np.isfinite(self.scores)], lambda r: "non-finite score")])
        if flagged:
            raise ValueError(f"user {self.ids[flagged[0]]}: {flagged[1]}")

    def _wrap(self, ids, indptr, items, scores) -> None:
        """Hold the arrays read-only after checking that they form a CSR table
        whose ``ids``, ``indptr`` and ``items`` are int64 integers (an empty
        one may have any dtype)."""
        given = [np.asarray(x) for x in (ids, indptr, items)]
        if any(map(_not_int64, given)):
            raise ValueError("ids, indptr or items that are not int64 integers "
                             "do not form a CSR table")
        self.ids, self.indptr, self.items, self.scores = arrays = [
            x.astype(np.int64, copy=False).view() for x in given] + [
            np.asarray(scores, dtype=np.float64).view()]
        for arr in arrays:
            arr.setflags(write=False)
        if (self.ids.ndim != 1 or self.items.ndim != 1 or self.scores.shape != self.items.shape
                or self.indptr.shape != (len(self.ids) + 1,) or self.indptr[0] != 0
                or self.indptr[-1] != len(self.items) or np.any(np.diff(self.indptr) < 0)
                or np.any(np.diff(self.ids) <= 0)):
            raise ValueError("ids, indptr, items and scores do not form a CSR table")

    @classmethod
    def _of_checked_entries(cls, ids, indptr, items, scores) -> ScoreTable:
        """The table of entries whose items and scores were already checked
        (``import_scores`` names the file line of a bad row): the layout
        check only."""
        table = cls.__new__(cls)
        table._wrap(ids, indptr, items, scores)
        return table

    @classmethod
    def from_entries(cls, entries: dict) -> ScoreTable:
        """The table of user -> (items, scores), concatenated in user order.
        A user's items and scores must be 1-D and of equal length, and its
        items integers that int64 holds exactly (an empty list of any dtype
        is fine); a ValueError names the first user that breaks this."""
        rows = sorted(((operator.index(u), np.asarray(i), np.asarray(s, dtype=np.float64))
                       for u, (i, s) in entries.items()), key=lambda row: row[0])
        for user, items, scores in rows:
            why = ("items and scores are not 1-D" if items.ndim != 1 or scores.ndim != 1
                   else "items and scores differ in length" if len(items) != len(scores)
                   else "item ids are not int64 integers" if _not_int64(items)
                   else None)
            if why:
                raise ValueError(f"user {user}: {why}")
        return cls([row[0] for row in rows], np.cumsum([0] + [len(row[1]) for row in rows]),
                   np.concatenate([np.empty(0)] + [row[1] for row in rows], dtype=np.int64,
                                  casting="unsafe"),
                   np.concatenate([np.empty(0)] + [row[2] for row in rows]))

    def without(self, pairs) -> ScoreTable:
        """The table minus the entries whose (user, item) is a row of the
        (n, 2) ``pairs``: one ``in_pairs`` test over every entry. Every user
        stays, with its other entries in order (possibly none)."""
        owners = np.repeat(self.ids, np.diff(self.indptr))
        keep = ~in_pairs(owners, self.items, pairs)
        indptr = np.append(0, np.cumsum(keep))[self.indptr]
        # every array a copy: a view of ``ids`` would keep a loaded store's bytes alive
        return ScoreTable._of_checked_entries(self.ids.copy(), indptr, self.items[keep],
                                              self.scores[keep])

    def users(self) -> list[int]:
        return self.ids.tolist()

    def get(self, user: int):
        """The user's (items, scores): read-only slices of the arrays."""
        if user not in self:
            raise KeyError(f"no scores for user {user}")
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
    """Write `user<TAB>item<TAB>score` rows; floats round-trip exactly."""
    text = [header] if header else []
    users = np.repeat(table.ids, np.diff(table.indptr))
    for a in range(0, len(users), 4096):  # one chunk's rows at a time bound the temporaries
        rows = zip(*(x[a:a + 4096].tolist() for x in (users, table.items, table.scores)))
        text.append("\n".join(f"{u}\t{i}\t{v!r}" for u, i, v in rows))
    atomic_write(path, "\n".join(text) + "\n")


def import_scores(path, n_users: int | None = None, n_items: int | None = None) -> ScoreTable:
    """Read a score file written by ``export_scores`` (or any recommender).

    Rows follow ``util._read_rows``: stripped lines, ``#`` comment lines and
    blank lines skipped, fields after the score ignored. Rejects a malformed
    row, a non-finite score, a repeated (user, item) row and, when
    ``n_users`` / ``n_items`` give the universe, a user outside
    ``[0, n_users)`` or an item outside ``[0, n_items)``; each error is a
    ValueError naming the path and line. Each user's entries keep file order.
    """
    users, items, scores = _read_rows(
        path, "iif", "user<TAB>item<TAB>score",
        lambda columns: _bad_score_row(columns, n_users, n_items))
    order = np.argsort(users, kind="stable")
    users, items, scores = users[order], items[order], scores[order]
    ids, starts = np.unique(users, return_index=True)
    return ScoreTable._of_checked_entries(ids, np.append(starts, len(users)), items, scores)


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
    float64, all little-endian. Bit-exact, and written atomically."""
    ints = [[len(table.ids), len(table.items)], table.ids, table.indptr, table.items]
    atomic_write_bytes(path, b"".join(
        [np.asarray(x, dtype=_INT_DTYPE).tobytes() for x in ints]
        + [np.asarray(table.scores, dtype=_FLOAT_DTYPE).tobytes()]))


def load_scores(path) -> ScoreTable:
    """Read a store written by ``save_scores``.

    Rejects a file whose length does not match its header, and any store the
    table refuses (a bad layout, a duplicate item or a non-finite score),
    naming the path.
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
        raise ValueError(f"{path}: {exc}") from None
