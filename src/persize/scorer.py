"""Ranking scores: a minimal pairwise matrix-factorization trainer, the
table of its scores over each user's candidate items (``build_score_table``
takes user -> item array), an importer/exporter so scores from any external
recommender can be used, and the binary score store the pipeline stages share.

The built-in model learns user/item embeddings by stochastic gradient
descent on the pairwise objective -log sigmoid(f(u, i+) - f(u, i-)) with
uniformly sampled negatives. Training is seeded, so a given configuration
always produces the same model. Steps run in a shuffled order, applied one
dependency level at a time: a step's level is one above the highest level of
the earlier steps that share its user or one of its items, so each level
touches every row at most once and is one array update, and each step reads
the rows the step-by-step loop gives it, bit for bit. Negatives come
from batched draws that replay the scalar loop's draw sequence (numpy gives
a batch the values of as many scalar calls), so every later shuffle matches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import InteractionSet
from .util import (_check_number, _first_flagged, _outside, _read_rows, _repeats,
                   atomic_write, atomic_write_bytes)

_INT_DTYPE = np.dtype("<i8")
_FLOAT_DTYPE = np.dtype("<f8")


class DegenerateUserError(ValueError):
    """User has no rankable candidates (or no scored entries)."""


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

    @property
    def d(self) -> int:
        return self.user_vectors.shape[1]


class ScoreTable:
    """Per-user (item, score) entries covering each user's candidate set."""

    def __init__(self, entries: dict):
        self._entries = {}
        for user, (items, scores) in entries.items():
            items = np.asarray(items, dtype=np.int64)
            scores = np.asarray(scores, dtype=np.float64)
            if len(items) != len(scores):
                raise ValueError(f"user {user}: items and scores differ in length")
            self._entries[int(user)] = (items, scores)
        self._check_entries()

    def _check_entries(self) -> None:
        """Reject duplicate items and non-finite scores with one sort over
        every entry, naming the first offending user in user order (a
        duplicate before a non-finite score of the same user)."""
        users = self.users()
        lengths = [len(self._entries[u][0]) for u in users]
        if not sum(lengths):
            return
        owner = np.repeat(np.arange(len(users)), lengths)
        non_finite = owner[~np.isfinite(np.concatenate([self._entries[u][1] for u in users]))]
        repeats = owner[_repeats(np.concatenate([self._entries[u][0] for u in users]), owner)]
        bad = [(int(rows.min()), why) for rows, why in
               ((repeats, "duplicate item ids"), (non_finite, "non-finite score")) if len(rows)]
        if bad:
            row, why = min(bad)
            raise ValueError(f"user {users[row]}: {why}")

    def users(self):
        return sorted(self._entries)

    def get(self, user: int):
        try:
            return self._entries[int(user)]
        except KeyError:
            raise KeyError(f"no scores for user {user}") from None

    def __contains__(self, user) -> bool:
        return int(user) in self._entries

    def __len__(self) -> int:
        return len(self._entries)


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
    for name, low in (("d", 1), ("epochs", 0), ("negatives_per_positive", 1)):
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


def score_candidates(model: ScoreModel, user: int, items) -> np.ndarray:
    """Scores for a batch of items of one user.

    One call of the row-wise dot kernel that ``train_bpr`` also uses, so
    each score equals ``user_vector @ item_vector`` bit for bit (a BLAS
    matrix-vector product would round differently). A user or item id
    outside the model raises IndexError naming it.
    """
    if not 0 <= user < len(model.user_vectors):
        raise IndexError(f"user id {user} out of range")
    items = np.asarray(items, dtype=np.int64)
    outside = items[(items < 0) | (items >= len(model.item_vectors))]
    if len(outside):
        raise IndexError(f"item id {outside[0]} out of range")
    item_vecs = model.item_vectors[items]
    return _dot(np.broadcast_to(model.user_vectors[user], item_vecs.shape), item_vecs)


def build_score_table(model: ScoreModel, candidates: dict) -> ScoreTable:
    """Score each user's candidate items (user -> item array) into one table."""
    return ScoreTable({user: (items, score_candidates(model, user, items))
                       for user, items in candidates.items()})


def export_scores(table: ScoreTable, path, header: str = "") -> None:
    """Write `user<TAB>item<TAB>score` rows; floats round-trip exactly."""
    lines = [header] if header else []
    for user in table.users():
        items, vals = table.get(user)
        lines.extend(f"{user}\t{i}\t{v!r}" for i, v in zip(items.tolist(), vals.tolist()))
    atomic_write(path, "\n".join(lines) + "\n")


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
    keys, starts = np.unique(users, return_index=True)
    ends = np.append(starts[1:], len(users))
    return ScoreTable({
        u: (items[a:b], scores[a:b])
        for u, a, b in zip(keys.tolist(), starts.tolist(), ends.tolist())
    })


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
    """Binary CSR score store: int64 (n_users, nnz) header, then ``users``
    (strictly increasing, int64), ``indptr`` (n_users + 1, int64), ``items``
    (nnz, int64) and ``scores`` (nnz, float64), all little-endian. User
    ``users[j]`` owns entries ``indptr[j]:indptr[j + 1]``. Bit-exact, and
    written atomically."""
    users = table.users()
    entries = [table.get(u) for u in users]
    indptr = np.cumsum([0] + [len(items) for items, _ in entries])
    ints = [[len(users), indptr[-1]], users, indptr] + [items for items, _ in entries]
    atomic_write_bytes(path, b"".join(
        [np.asarray(x, dtype=_INT_DTYPE).tobytes() for x in ints]
        + [np.asarray(vals, dtype=_FLOAT_DTYPE).tobytes() for _, vals in entries]
    ))


def load_scores(path) -> ScoreTable:
    """Read a store written by ``save_scores``.

    Rejects a file whose length, ``indptr`` or user order does not match its
    header, naming the path; the table itself rejects duplicate items and
    non-finite scores.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 16:
        raise ValueError(f"{path}: truncated score store ({len(raw)} bytes)")
    n_users, nnz = (int(x) for x in np.frombuffer(raw, dtype=_INT_DTYPE, count=2))
    if n_users < 0 or nnz < 0 or len(raw) != 8 * (3 + 2 * n_users + 2 * nnz):
        raise ValueError(
            f"{path}: {len(raw)} bytes do not match the header "
            f"(n_users={n_users}, nnz={nnz})"
        )
    ints = np.frombuffer(raw, dtype=_INT_DTYPE, count=3 + 2 * n_users + nnz)
    users = ints[2 : 2 + n_users]
    indptr = ints[2 + n_users : 3 + 2 * n_users]
    items = ints[3 + 2 * n_users :]
    scores = np.frombuffer(raw, dtype=_FLOAT_DTYPE, offset=ints.nbytes)
    if indptr[0] != 0 or indptr[-1] != nnz or np.any(np.diff(indptr) < 0):
        raise ValueError(f"{path}: indptr does not match the header (nnz={nnz})")
    if np.any(np.diff(users) <= 0):
        raise ValueError(f"{path}: user ids are not strictly increasing")
    return ScoreTable({
        u: (items[a:b], scores[a:b])
        for u, a, b in zip(users.tolist(), indptr[:-1].tolist(), indptr[1:].tolist())
    })
