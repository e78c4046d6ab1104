import re

import numpy as np
import pytest
from oracles import (SCORE_FORMS, export_text, rank, scan_scores, sequential_bpr,
                     write_adversarial)

from persize import scorer as scorer_module
from persize import util
from persize.calibrate import PlattParams
from persize.dataset import InteractionSet
from persize.scorer import (
    BPRConfig,
    ScoreModel,
    ScoreTable,
    _dependency_levels,
    build_score_table,
    export_scores,
    import_scores,
    load_scores,
    save_scores,
    train_bpr,
)
from persize.selection import _rank_block, recommend_block
from persize.utility import Measure


def _score(model, user, item) -> float:
    """One pair's score: the plain vector-vector dot."""
    return float(model.user_vectors[user] @ model.item_vectors[item])


def _universe(n_users, n_items, pairs=()):
    """A train set over the dense universe of n_users x n_items."""
    return InteractionSet.from_pairs(np.asarray(pairs, dtype=np.int64).reshape(-1, 2),
                                     users=np.arange(n_users), items=np.arange(n_items))


def _toy_train():
    # two users, two items, each user likes a distinct item
    return InteractionSet.from_pairs([[0, 0], [1, 1]], users=[0, 1], items=[0, 1])


class TestTrainBpr:
    def test_learns_toy_preference(self):
        config = BPRConfig(d=4, epochs=200, learning_rate=0.1, weight_decay=0.0, seed=0)
        model = train_bpr(_toy_train(), config)
        assert _score(model, 0, 0) > _score(model, 0, 1)
        assert _score(model, 1, 1) > _score(model, 1, 0)

    def test_loss_decreases_on_toy(self):
        config = BPRConfig(d=4, epochs=200, learning_rate=0.1, weight_decay=0.0, seed=0)
        model = train_bpr(_toy_train(), config)
        assert all(np.isfinite(model.epoch_losses))
        assert model.epoch_losses[-1] < model.epoch_losses[0]

    def test_zero_epochs_returns_seeded_init(self):
        a = train_bpr(_toy_train(), BPRConfig(epochs=0, seed=3))
        rng = np.random.default_rng(3)
        np.testing.assert_array_equal(a.user_vectors, rng.uniform(-0.01, 0.01, (2, 64)))
        np.testing.assert_array_equal(a.item_vectors, rng.uniform(-0.01, 0.01, (2, 64)))

    def test_zero_learning_rate_keeps_init(self):
        init = train_bpr(_toy_train(), BPRConfig(epochs=0, seed=3))
        trained = train_bpr(_toy_train(), BPRConfig(epochs=5, learning_rate=0.0, seed=3))
        np.testing.assert_array_equal(init.user_vectors, trained.user_vectors)
        np.testing.assert_array_equal(init.item_vectors, trained.item_vectors)

    def test_deterministic_given_seed(self):
        cfg = BPRConfig(d=8, epochs=10, learning_rate=0.05, seed=7)
        a = train_bpr(_toy_train(), cfg)
        b = train_bpr(_toy_train(), cfg)
        np.testing.assert_array_equal(a.user_vectors, b.user_vectors)
        np.testing.assert_array_equal(a.item_vectors, b.item_vectors)

    def test_rejects_empty_and_bad_dim(self):
        empty = InteractionSet.from_pairs(np.empty((0, 2), dtype=np.int64), [0], [0])
        with pytest.raises(ValueError):
            train_bpr(empty)
        with pytest.raises(ValueError):
            train_bpr(_toy_train(), BPRConfig(d=0))

    @pytest.mark.parametrize("pairs", [
        [[-1, 0], [0, 1], [-1, 2], [0, 2]],  # user -1 would train the last user row
        [[0, -1], [1, 0], [0, 1], [1, 1]],  # item -1 would make row 2 a negative
    ])
    def test_rejects_negative_ids(self, pairs):
        with pytest.raises(ValueError, match="dense 0-based ids"):
            train_bpr(InteractionSet.from_pairs(pairs), BPRConfig(d=2, epochs=1))


def _bits(model):
    return (model.user_vectors.view(np.int64), model.item_vectors.view(np.int64),
            np.array(model.epoch_losses).view(np.int64))


def _assert_same_model(a, b):
    for x, y in zip(_bits(a), _bits(b)):
        np.testing.assert_array_equal(x, y)


def _random_train(n_users=30, n_items=20, seed=0):
    """A random set plus user ``n_users`` who owns every item (never trained)."""
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, [n_users, n_items], size=(8 * n_users, 2)).tolist()
    pairs += [[n_users, i] for i in range(n_items)]
    return InteractionSet.from_pairs(pairs, users=range(n_users + 1), items=range(n_items))


class _DrawLog:
    """A generator that logs the ``size`` of each ``integers`` call."""

    def __init__(self, rng, log):
        self._rng, self._log = rng, log

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def integers(self, *args, size=None, **kwargs):
        self._log.append(1 if size is None else size)
        return self._rng.integers(*args, size=size, **kwargs)


def _record_draws(monkeypatch) -> list:
    """Make every new ``default_rng`` log its ``integers`` calls into the
    returned list of per-generator lists."""
    logs, make = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda *a: logs.append([]) or _DrawLog(make(*a), logs[-1]))
    return logs


def _record_levels(monkeypatch) -> list:
    """Make ``train_bpr`` log each epoch's levels, as lists of step indices,
    into the returned list."""
    epochs = []

    def record(*args):
        levels = _dependency_levels(*args)
        epochs.append([level.tolist() for level in levels])
        return levels

    monkeypatch.setattr(scorer_module, "_dependency_levels", record)
    return epochs


def _levels(users, pos, neg, n_items=10):
    return [level.tolist() for level in
            _dependency_levels(*(np.array(a, dtype=np.int64) for a in (users, pos, neg)), n_items)]


class TestBatchedTrainer:
    """``train_bpr`` applies each dependency level of steps at once and must
    give the step-by-step loop's model bit for bit."""

    @pytest.mark.parametrize("d", [1, 16])
    @pytest.mark.parametrize("negatives", [1, 3])
    def test_matches_sequential_loop(self, d, negatives):
        cfg = BPRConfig(d=d, epochs=3, learning_rate=0.5, weight_decay=1e-3,
                        negatives_per_positive=negatives, seed=d + negatives)
        train = _random_train()
        model = train_bpr(train, cfg)
        _assert_same_model(model, sequential_bpr(train, cfg))
        owner = len(train.users) - 1  # owns every item, so no step touches it
        np.testing.assert_array_equal(
            model.user_vectors[owner],
            np.random.default_rng(cfg.seed).uniform(-0.01, 0.01, (len(train.users), d))[owner])

    @pytest.mark.parametrize("negatives", [1, 3])
    def test_batch_refills_replay_scalar_draws(self, monkeypatch, negatives):
        # user 0 owns all but item 5: its long rejection runs use up a batch in
        # the middle of a step, and the next epoch's shuffle reads the state the
        # last refill leaves
        n_items = 40
        pairs = [[0, i] for i in range(n_items) if i != 5] + [[1, 2], [1, 7], [2, 9]]
        train = InteractionSet.from_pairs(pairs, users=range(3), items=range(n_items))
        cfg = BPRConfig(d=4, epochs=3, learning_rate=0.3, weight_decay=1e-3,
                        negatives_per_positive=negatives, seed=11)
        logs = _record_draws(monkeypatch)
        _assert_same_model(train_bpr(train, cfg), sequential_bpr(train, cfg))
        batched, scalar = logs
        assert len(batched) > 10 * cfg.epochs  # many refills per epoch
        assert sum(batched) == sum(scalar)  # no value drawn the loop would not draw

    def test_one_user_gives_one_step_per_level(self, monkeypatch):
        train = InteractionSet.from_pairs([[0, 1], [0, 3], [0, 4]], users=[0], items=range(6))
        cfg = BPRConfig(d=8, epochs=4, learning_rate=0.3, negatives_per_positive=2, seed=5)
        epochs = _record_levels(monkeypatch)
        _assert_same_model(train_bpr(train, cfg), sequential_bpr(train, cfg))
        assert epochs == [[[k] for k in range(6)]] * 4

    def test_disjoint_steps_match(self, monkeypatch):
        # one positive per user, distinct items, many spare items to draw from
        train = InteractionSet.from_pairs([[u, u] for u in range(4)], users=range(4),
                                          items=range(4000))
        cfg = BPRConfig(d=4, epochs=5, learning_rate=0.2, seed=2)
        epochs = _record_levels(monkeypatch)
        _assert_same_model(train_bpr(train, cfg), sequential_bpr(train, cfg))
        assert epochs == [[[0, 1, 2, 3]]] * 5  # each epoch is one level

    def test_levels(self):
        assert _levels([0, 1, 2], [0, 1, 2], [3, 4, 5]) == [[0, 1, 2]]  # no collisions
        assert _levels([0, 0, 0], [0, 1, 2], [3, 4, 5]) == [[0], [1], [2]]  # one user
        # step 2 reuses step 0's negative as its positive; step 3 reuses step 2's user
        assert _levels([0, 1, 2, 2], [0, 1, 3, 6], [3, 4, 5, 7]) == [[0, 1], [2], [3]]
        # step 2 shares no row with steps 0 and 1, so it joins step 0's level
        assert _levels([0, 0, 1], [0, 1, 2], [3, 4, 5]) == [[0, 2], [1]]
        assert _levels([0, 3], [3, 0], [1, 2], n_items=4) == [[0, 1]]  # user 3 is not item 3
        assert _levels([], [], []) == []

    @pytest.mark.parametrize("seed", range(5))
    def test_levels_keep_every_shared_row_in_step_order(self, seed):
        rng = np.random.default_rng(seed)
        n_steps, n_users, n_items = 300, 15, 12
        users = rng.integers(n_users, size=n_steps)
        pos = rng.integers(n_items, size=n_steps)
        neg = (pos + rng.integers(1, n_items, size=n_steps)) % n_items  # never pos
        levels = _dependency_levels(users, pos, neg, n_items)
        assert sorted(np.concatenate(levels).tolist()) == list(range(n_steps))
        level_of = np.empty(n_steps, dtype=np.int64)
        for depth, steps in enumerate(levels):
            assert np.all(np.diff(steps) > 0)
            rows = np.concatenate([users[steps] + n_items, pos[steps], neg[steps]])
            assert len(np.unique(rows)) == len(rows)  # no row repeats within a level
            level_of[steps] = depth
        rows = np.column_stack((users + n_items, pos, neg))
        shared = (rows[:, None, :, None] == rows[None, :, None, :]).any(axis=(2, 3))
        earlier, later = np.nonzero(np.triu(shared, k=1))
        assert len(earlier) > n_steps  # many steps share rows
        assert np.all(level_of[earlier] < level_of[later])

    def test_divergence_raises_at_the_same_epoch(self):
        train = InteractionSet.from_pairs(
            np.random.default_rng(0).integers(0, 12, size=(40, 2)),
            users=range(12), items=range(12))
        cfg = BPRConfig(d=4, epochs=6, learning_rate=1e3, weight_decay=0.0, seed=1)
        with np.errstate(all="ignore"):
            with pytest.raises(RuntimeError) as oracle:
                sequential_bpr(train, cfg)
            with pytest.raises(RuntimeError) as batched:
                train_bpr(train, cfg)
        assert "at epoch 4 " in str(oracle.value)
        assert str(batched.value) == str(oracle.value)

    @pytest.mark.parametrize("field, value", [
        ("d", 0), ("d", 2.5), ("d", True),
        ("epochs", -1), ("epochs", 2.0),
        ("negatives_per_positive", 0), ("negatives_per_positive", 1.0),
        ("learning_rate", float("nan")), ("learning_rate", float("inf")),
        ("learning_rate", -0.1), ("learning_rate", "0.05"), ("learning_rate", True),
        ("weight_decay", float("nan")), ("weight_decay", -1e-5), ("weight_decay", None),
    ])
    def test_invalid_config_names_its_field(self, field, value):
        with pytest.raises(ValueError, match=f"BPRConfig.{field} "):
            train_bpr(_toy_train(), BPRConfig(**{field: value}))

    def test_numpy_scalars_accepted(self):
        cfg = BPRConfig(d=np.int64(4), epochs=np.int32(2), learning_rate=np.float32(0.5),
                        weight_decay=np.float64(0.0), seed=1)
        plain = BPRConfig(d=4, epochs=2, learning_rate=float(np.float32(0.5)),
                          weight_decay=0.0, seed=1)
        _assert_same_model(train_bpr(_toy_train(), cfg), train_bpr(_toy_train(), plain))


class TestScore:
    def test_zero_user_vector(self):
        model = ScoreModel(np.zeros((1, 3)), np.ones((4, 3)))
        assert build_score_table(model, _universe(1, 4)).get(0)[1][2] == 0.0

    def test_dot_product(self):
        model = ScoreModel(np.array([[1.0, 0.0]]), np.array([[2.0, 3.0]]))
        assert build_score_table(model, _universe(1, 1)).get(0)[1][0] == 2.0

    def test_out_of_range(self):
        # the model's vector counts must be the universe's, in both directions
        model = ScoreModel(np.zeros((2, 2)), np.zeros((3, 2)))
        for n_users, n_items in ((3, 3), (2, 4), (1, 3), (2, 2)):
            with pytest.raises(ValueError, match=re.escape(
                    f"the model's 2 user and 3 item vectors do not match the universe's "
                    f"{n_users} users and {n_items} items")):
                build_score_table(model, _universe(n_users, n_items))

    def test_trained_table_matches_single_lookups(self, tiny_split):
        model = train_bpr(tiny_split.train,
                          BPRConfig(d=16, epochs=5, learning_rate=0.2, seed=4))
        table = build_score_table(model, tiny_split.train)
        assert table.users() == tiny_split.users.tolist()
        for user in table.users():
            items, vals = table.get(user)
            np.testing.assert_array_equal(
                items, np.setdiff1d(tiny_split.items, tiny_split.train.items_of(user)))
            # bit for bit equal to the plain vector-vector dot
            plain = [_score(model, user, i) for i in items.tolist()]
            np.testing.assert_array_equal(vals.view(np.int64), np.array(plain).view(np.int64))

    def test_chunks_and_empty_rows_keep_every_score(self):
        # 3 x 3000 entries span three 4096-entry chunks; user 1 owns every item
        rng = np.random.default_rng(0)
        model = ScoreModel(rng.normal(size=(4, 7)), rng.normal(size=(3000, 7)))
        owned = [(0, 5), (0, 2000)] + [(1, i) for i in range(3000)] + [(3, 2999)]
        table = build_score_table(model, _universe(4, 3000, owned))
        np.testing.assert_array_equal(np.diff(table.indptr), [2998, 0, 3000, 2999])
        for user in table.users():
            items, vals = table.get(user)
            plain = [_score(model, user, i) for i in items.tolist()]
            np.testing.assert_array_equal(vals.view(np.int64), np.array(plain).view(np.int64))

    @pytest.mark.parametrize("users, items", [
        ([0], [0, -1]), ([0], [2, 3, 4]), ([1], [0, 1, 2]), ([0, 2], [0, 1, 2])])
    def test_universe_that_is_not_dense_and_0_based_is_refused(self, users, items):
        # a negative id would otherwise wrap to the last item's vector
        model = ScoreModel(np.ones((len(users), 2)), np.ones((len(items), 2)))
        train = InteractionSet.from_pairs(np.empty((0, 2)), users=users, items=items)
        with pytest.raises(ValueError, match=re.escape(
                "build_score_table expects dense 0-based ids (see dataset.compact)")):
            build_score_table(model, train)


class TestRankTopk:
    """A top-K list is the first K items of the ranking rule's order
    (``selection._rank_block``)."""

    def _table(self):
        return ScoreTable.from_entries({0: (np.array([0, 1, 2]), np.array([0.1, 0.9, 0.5]))})

    def test_orders_by_score(self):
        items = _rank_block([0], self._table())[0][0]
        np.testing.assert_array_equal(items[:2], [1, 2])

    def test_tie_break_by_item_id(self):
        table = ScoreTable.from_entries({0: (np.array([5, 2, 9]), np.array([1.0, 1.0, 1.0]))})
        np.testing.assert_array_equal(_rank_block([0], table)[0][0][:2], [2, 5])

    def test_k_larger_than_candidates(self):
        items, _, lengths = _rank_block([0], self._table(), 10)
        np.testing.assert_array_equal(items[0], [1, 2, 0])
        assert lengths.tolist() == [3]

    def test_prefix_closed_family(self):
        # dropping every item ranked below k leaves exactly the top k, in order
        rng = np.random.default_rng(1)
        table = ScoreTable.from_entries({0: (np.arange(30), rng.normal(size=30))})
        full, _ = rank(0, table)
        for k in (1, 3, 12, 30):
            part = _rank_block([0], table.without([(0, i) for i in full[k:]]))[0][0]
            np.testing.assert_array_equal(part, full[:k])

    def test_empty_candidates_degenerate(self):
        table = self._table().without([(0, 0), (0, 1), (0, 2)])
        assert _rank_block([0], table)[2].tolist() == [0]
        with pytest.raises(ValueError, match="user 0 has no scored candidates"):
            recommend_block([0], table, {0: PlattParams(1.0, 0.0)}, [Measure.F1], K=5)

    def test_scores_nonincreasing(self):
        rng = np.random.default_rng(2)
        items = np.arange(50)
        table = ScoreTable.from_entries({0: (items, rng.integers(0, 5, 50).astype(float))})
        vals = _rank_block([0], table)[1][0]
        assert np.all(np.diff(vals) <= 0)


class TestImportExport:
    def test_round_trip_full_precision(self, tmp_path):
        rng = np.random.default_rng(3)
        table = ScoreTable.from_entries({
            0: (np.arange(20), rng.normal(size=20) * 1e3),
            7: (np.arange(5), rng.normal(size=5) * 1e-7),
        })
        path = tmp_path / "scores.tsv"
        export_scores(table, path, header="# test")
        back = import_scores(path)
        for u in table.users():
            items, vals = table.get(u)
            bi, bv = back.get(u)
            np.testing.assert_array_equal(items, bi)
            np.testing.assert_array_equal(vals, bv)

    def test_single_entry(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("0\t3\t0.77\n")
        table = import_scores(path)
        items, vals = table.get(0)
        assert (items[0], vals[0]) == (3, 0.77)

    def test_nan_rejected_with_line(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("0\t1\t0.5\n0\t2\tNaN\n")
        with pytest.raises(ValueError, match="line 2"):
            import_scores(path)

    def test_duplicates_rejected(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("0\t1\t0.5\n0\t1\t0.6\n")
        with pytest.raises(ValueError, match="duplicate"):
            import_scores(path)

    @pytest.mark.parametrize("header", ["", '# train {"K": 50, "data": "d\u00e9j\u00e0.tsv"}'])
    def test_export_bytes_match_the_oracle(self, tmp_path, header):
        # a user longer than one 4096-row slice, a user without entries, and
        # scores whose repr has an exponent, a signed zero or a subnormal
        rng = np.random.default_rng(5)
        forms = [1e-05, 1e+16, -0.0, 5e-324, -1e308, 0.1, 2.5e-300, 123456789.0]
        wide = rng.normal(size=9000) * 10.0 ** rng.integers(-20, 20, 9000)
        table = ScoreTable.from_entries({
            3: (np.arange(9000) * 3 - 2**40, wide),
            5: ([], []),
            8: (np.arange(len(forms)), forms),
            2**62: (np.array([-(2**63), 2**63 - 1]), [1.0, -2.0]),
        })
        path = tmp_path / "s.tsv"
        export_scores(table, path, header=header)
        assert path.read_bytes() == export_text(table, header).encode("utf-8")
        _same_table(import_scores(path), scan_scores(path))
        empty = ScoreTable.from_entries({})
        export_scores(empty, path, header=header)
        assert path.read_bytes() == export_text(empty, header).encode("utf-8")

    def test_export_matches_model_scores(self, tmp_path):
        model = train_bpr(_toy_train(), BPRConfig(d=4, epochs=3, learning_rate=0.1, seed=1))
        table = build_score_table(model, _universe(2, 2))
        export_scores(table, tmp_path / "s.tsv")
        back = import_scores(tmp_path / "s.tsv")
        _, vals = back.get(0)
        assert vals[0] == _score(model, 0, 0)
        assert vals[1] == _score(model, 0, 1)


class TestScoreStore:
    def _table(self):
        return ScoreTable.from_entries({
            2: (np.array([9, 0, 4, 7, 3]),
                np.array([-0.0, 5e-324, 1e308, -1e308, 0.1])),
            5: (np.empty(0, dtype=np.int64), np.empty(0)),  # zero candidates
            11: (np.array([1]), np.array([-2.5])),
        })

    def test_round_trip_bit_exact(self, tmp_path):
        table = self._table()
        save_scores(table, tmp_path / "scores.bin")
        back = load_scores(tmp_path / "scores.bin")
        assert back.users() == table.users() == [2, 5, 11]
        for u in table.users():
            items, vals = table.get(u)
            bi, bv = back.get(u)
            assert bi.dtype == np.int64 and bv.dtype == np.float64
            np.testing.assert_array_equal(bi, items)
            assert bv.tobytes() == vals.tobytes()  # keeps -0.0 and the subnormal

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "scores.bin"
        save_scores(self._table(), path)
        data = path.read_bytes()
        for cut in (8, len(data) - 8):
            path.write_bytes(data[:cut])
            with pytest.raises(ValueError, match=re.escape(str(path))):
                load_scores(path)

    def test_indptr_mismatch_rejected(self, tmp_path):
        path = tmp_path / "scores.bin"
        save_scores(self._table(), path)
        data = bytearray(path.read_bytes())
        # indptr follows the 2-word header and the 3 user ids; its last
        # entry must equal nnz = 6
        last = 8 * (2 + 3 + 3)
        data[last : last + 8] = np.array([5], dtype="<i8").tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_scores(path)

    def test_user_ids_out_of_order_rejected(self, tmp_path):
        path = tmp_path / "scores.bin"
        save_scores(self._table(), path)
        data = bytearray(path.read_bytes())
        # the user ids 2, 5, 11 follow the 2-word header; make them 2, 11, 11
        data[8 * 3 : 8 * 4] = np.array([11], dtype="<i8").tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .* CSR table$"):
            load_scores(path)


    # each hand-written store's items, and the first bad user it names and why
    _FALL = re.escape(scorer_module._OUT_OF_ORDER + "; rerun train to rewrite the store")
    STORES = {
        (1, 4, 8, 2, 3, 3, 9): "user 11: duplicate item ids",  # every other entry rises
        (1, 4, 8, 9, 3, 2, 3): "user 11: " + _FALL,  # a repeat in a segment out of order
        (8, 1, 4, 2, 3, 9, 3): "user 2: " + _FALL,  # every segment out of order
    }

    @pytest.mark.parametrize("items", [list(items) for items in STORES])
    def test_hand_written_store_with_a_repeated_item(self, tmp_path, items):
        # users 2, 5 and 11 own 3, 0 and 4 entries
        path = tmp_path / "scores.bin"

        def write(items):
            ints = [[3, 7], [2, 5, 11], [0, 3, 3, 7], items]
            path.write_bytes(b"".join(np.asarray(x, dtype="<i8").tobytes() for x in ints)
                             + np.linspace(0.1, 0.7, 7).astype("<f8").tobytes())

        write(items)
        message = self.STORES[tuple(items)]
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}$"):
            load_scores(path)  # the file is named
        write([1, 4, 8, 2, 3, 5, 9])
        assert load_scores(path).items.tolist() == [1, 4, 8, 2, 3, 5, 9]


def _same_table(a: ScoreTable, b: ScoreTable) -> None:
    """Same users, and per user the same item and score arrays, bit for bit."""
    assert a.users() == b.users()
    for u in a.users():
        (ai, av), (bi, bv) = a.get(u), b.get(u)
        assert ai.dtype == bi.dtype == np.int64 and av.dtype == bv.dtype == np.float64
        assert ai.tobytes() == bi.tobytes() and av.tobytes() == bv.tobytes()


def _score_rows(n_users=4, n_items=7, seed=0):
    """Rows in a shuffled order, so users interleave, with signed ids on odd
    items and every spelling of SCORE_FORMS."""
    rows = [(f"+{u}" if i % 2 else str(u), str(i), SCORE_FORMS[(u * n_items + i) % len(SCORE_FORMS)])
            for u in range(n_users) for i in range(n_items)]
    return [rows[j] for j in np.random.default_rng(seed).permutation(len(rows))]


class TestTextImport:
    @pytest.mark.parametrize("crlf", [False, True])
    @pytest.mark.parametrize("scanned", [False, True])
    def test_adversarial_file_matches_scan(self, tmp_path, crlf, scanned):
        path = tmp_path / "s.tsv"
        write_adversarial(path, _score_rows(), crlf=crlf, scanned=scanned)
        table = import_scores(path)
        _same_table(table, scan_scores(path))
        assert len(table) == 4 and len(table.get(0)[0]) == 7

    def test_plain_file_takes_the_array_path(self, tmp_path, monkeypatch):
        path = tmp_path / "s.tsv"
        write_adversarial(path, _score_rows(), crlf=True)
        expected = scan_scores(path)

        def no_scan(*args):
            raise AssertionError("plain file went to the row scan")

        monkeypatch.setattr(util, "_scan_rows", no_scan)
        _same_table(import_scores(path), expected)
        write_adversarial(path, _score_rows(), scanned=True)
        with pytest.raises(AssertionError, match="row scan"):
            import_scores(path)

    @pytest.mark.parametrize("bad, offset, message", [
        ("0\t1\t0.5 # note", 0, "malformed row"),
        ("0\t1\tnan", 0, r"non-finite score for \(0, 1\)"),
        ("0\t1\t-inf", 0, "non-finite score"),
        ("0\t1\tInfinity", 0, "non-finite score"),
        ("0\t1\t0.5\n\n# c\n3\t2\t0.5\n+3\t+2\t0.25", 4, r"duplicate entry for \(3, 2\)"),
        ("0\t1", 0, "expected 'user<TAB>item<TAB>score'"),
        ("1.0\t1\t0.5", 0, "malformed row"),
        ("0\t1e0\t0.5", 0, "malformed row"),
    ])
    def test_bad_row_names_its_line(self, tmp_path, bad, offset, message):
        good = "".join(f"9\t{i}\t{i / 7!r}\n" for i in range(300))
        path = tmp_path / "s.tsv"
        path.write_text("# header\n" + good + bad + "\n9\t300\t0.5\n")
        with pytest.raises(ValueError, match=message) as got:
            import_scores(path)
        assert str(got.value).startswith(f"{path}: line {302 + offset}: ")
        with pytest.raises(ValueError) as want:
            scan_scores(path)
        assert str(got.value) == str(want.value)

    def test_repeat_in_a_sorted_file_names_its_line(self, tmp_path):
        rows = [f"{u}\t{i}\t{(u + i) / 9!r}\n" for u in range(3) for i in range(50)]
        rows.insert(77, rows[76])  # (1, 26) again, on line 79
        path = tmp_path / "s.tsv"
        path.write_text("# header\n" + "".join(rows))
        with pytest.raises(ValueError) as got:
            import_scores(path)
        assert str(got.value) == f"{path}: line 79: duplicate entry for (1, 26)"

    def test_earliest_bad_line_wins(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("0\t1\t0.5\n0\t2\tnan\n0\t1\t0.5\nnot a row\n")
        with pytest.raises(ValueError, match=r"line 2: non-finite") as got:
            import_scores(path)
        with pytest.raises(ValueError) as want:
            scan_scores(path)
        assert str(got.value) == str(want.value)

    def test_id_beyond_int64_names_its_line(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("0\t1\t0.5\n99999999999999999999\t1\t0.5\n")
        with pytest.raises(ValueError, match="line 2: malformed row"):
            import_scores(path)

    def test_ids_outside_the_universe_name_their_line(self, tmp_path):
        path = tmp_path / "s.tsv"
        for row, line, message in [("2\t0\t0.5", 3, "user id 2 is outside the 2 users of the split"),
                                   ("-1\t0\t0.5", 3, "user id -1 is outside"),
                                   ("1\t3\t0.5", 3, "item id 3 is outside the 3 items of the split"),
                                   ("1\t-4\t0.5", 3, "item id -4 is outside")]:
            path.write_text(f"0\t0\t0.1\n# c\n{row}\n1\t2\t0.3\n")
            with pytest.raises(ValueError, match=re.escape(f"{path}: line {line}: {message}")):
                import_scores(path, n_users=2, n_items=3)
            import_scores(path)  # no universe given: accepted

    def test_random_files_match_scan(self, tmp_path):
        # every outcome of the line scanner, table or error message, repeats
        rng = np.random.default_rng(7)
        ids = ["0", "1", "2", "3", "4", "+5", " 6", "7 ", "08", "\x0c9"]
        scores = ["0.5", "-0.0", "5e-324", "1e308", "+1E-3", ".5", "5.", "-2", " 0.25 "]
        junk = ["1.0", "1e3", "1_0", "#", "1#", "x", "", "\u0663", "1\x1c", "\u01fe", "nan", "-inf"]
        blank = ["", "  ", "# c", " # c", "\t"]
        path = tmp_path / "s.tsv"
        for _ in range(300):
            rows = []
            for _ in range(rng.integers(1, 8)):
                if rng.random() < 0.15:
                    rows.append(blank[rng.integers(len(blank))])
                    continue
                row = [ids[rng.integers(10)], ids[rng.integers(10)], scores[rng.integers(9)]]
                row += ["extra"] * rng.integers(0, 2)
                if rng.random() < 0.2:
                    row[rng.integers(len(row))] = junk[rng.integers(len(junk))]
                rows.append("\t".join(row))
            end = ["\n", "\r\n", "\r"][rng.integers(3)]
            path.write_bytes(end.join(rows).encode("utf-8"))
            try:
                want = scan_scores(path)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    import_scores(path)
                assert str(got.value) == str(exc)
            else:
                _same_table(import_scores(path), want)


class TestScoreTableChecks:
    """One sort over every entry names the first bad user in user order."""

    def test_first_bad_user_in_user_order_is_named(self):
        entries = {
            7: (np.array([1, 2, 2]), np.array([0.1, 0.2, 0.3])),  # duplicate
            3: (np.array([4, 5]), np.array([0.1, np.nan])),  # non-finite
            5: (np.array([1, 2]), np.array([0.1, 0.2])),
        }
        with pytest.raises(ValueError, match=r"^user 3: non-finite score$"):
            ScoreTable.from_entries(entries)
        entries[3] = (np.array([4, 5]), np.array([0.1, 0.2]))
        with pytest.raises(ValueError, match=r"^user 7: duplicate item ids$"):
            ScoreTable.from_entries(entries)

    def test_duplicate_named_before_non_finite_of_the_same_user(self):
        entries = {4: (np.array([9, 9, 1]), np.array([np.inf, 0.2, 0.3])),
                   8: (np.array([1]), np.array([np.nan]))}
        with pytest.raises(ValueError, match=r"^user 4: duplicate item ids$"):
            ScoreTable.from_entries(entries)

    def test_same_item_for_two_users_is_no_duplicate(self):
        table = ScoreTable.from_entries({0: (np.array([3, 1]), np.array([0.1, 0.2])),
                                         1: (np.array([1, 3]), np.array([0.3, 0.4])),
                                         2: (np.empty(0, dtype=np.int64), np.empty(0))})
        assert len(table) == 3

    def test_without_drops_only_the_given_pairs(self):
        # user 2 loses every entry and stays, empty; user 9 has no entries to
        # drop, and pairs of users or items the table lacks change nothing
        table = ScoreTable.from_entries({1: ([5, 3, 8], [0.1, 0.2, 0.3]), 2: ([3], [0.4]),
                                         9: ([3, 5], [0.5, 0.6])})
        shown = table.without([(1, 3), (2, 3), (1, 4), (7, 5), (1, 3)])
        assert shown.users() == [1, 2, 9]
        assert [shown.get(u)[0].tolist() for u in shown.users()] == [[5, 8], [], [3, 5]]
        assert [shown.get(u)[1].tolist() for u in shown.users()] == [[0.1, 0.3], [], [0.5, 0.6]]
        assert not any(x.flags.writeable for x in (shown.ids, shown.indptr, shown.items,
                                                   shown.scores))
        assert table.without([]).items.tolist() == table.items.tolist()

    def test_extreme_item_ids(self):
        big = np.iinfo(np.int64).max
        with pytest.raises(ValueError, match=r"^user 2: duplicate item ids$"):
            ScoreTable.from_entries({1: (np.array([-big, big]), np.array([0.1, 0.2])),
                                     2: (np.array([big, 0, big]), np.array([0.1, 0.2, 0.3]))})
        table = ScoreTable.from_entries({1: (np.array([-big, big]), np.array([0.1, 0.2]))})
        assert len(table) == 1

    def test_all_empty_entries(self):
        assert len(ScoreTable.from_entries({0: (np.empty(0, dtype=np.int64), np.empty(0))})) == 1
        assert len(ScoreTable.from_entries({})) == 0

    @pytest.mark.parametrize("entries, message", [
        ({0: ([1.7, 2.2], [0.1, 0.2])}, "item ids are not int64 integers"),  # would truncate
        ({0: ([1.0, 2.0], [0.1, 0.2])}, "item ids are not int64 integers"),
        ({0: ([True, False], [0.1, 0.2])}, "item ids are not int64 integers"),
        ({0: (np.array([2**63 + 1], dtype=np.uint64), [0.1])}, "item ids are not int64 integers"),
        ({0: ([[1, 2]], [[0.1, 0.2]])}, "items and scores are not 1-D"),
        ({0: ([1, 2], [[0.1, 0.2]])}, "items and scores are not 1-D"),
        ({0: (np.int64(1), 0.1)}, "items and scores are not 1-D"),
        ({0: ([1, 2], [0.1])}, "items and scores differ in length"),
    ])
    def test_entries_it_would_change_are_rejected(self, entries, message):
        entries = {9: ([1], [0.5]), **entries}
        with pytest.raises(ValueError, match=rf"^user 0: {message}$"):
            ScoreTable.from_entries(entries)

    def test_first_bad_entry_in_user_order_is_named(self):
        with pytest.raises(ValueError, match=r"^user 2: items and scores differ in length$"):
            ScoreTable.from_entries({7: ([1.5], [0.1]), 2: ([1], []), 4: ([1, 1], [0.1, 0.2])})

    def test_integer_items_of_any_width_and_empty_lists(self):
        table = ScoreTable.from_entries({
            1: (np.array([3, 1], dtype=np.int32), [0.1, 0.2]),
            2: (np.array([2**62], dtype=np.uint64), [0.3]),
            3: ([], []),
        })
        assert table.users() == [1, 2, 3] and table.indptr.tolist() == [0, 2, 3, 3]
        assert table.items.dtype == np.int64 and table.items.tolist() == [1, 3, 2**62]
        assert table.scores.tolist() == [0.2, 0.1, 0.3]  # each user's entries by item

    def test_the_table_is_read_only(self, tmp_path):
        table = ScoreTable.from_entries({0: ([1, 2], [0.1, 0.2]), 3: ([4], [0.5])})
        save_scores(table, tmp_path / "scores.bin")
        export_scores(table, tmp_path / "scores.tsv")
        for t in (table, load_scores(tmp_path / "scores.bin"), import_scores(tmp_path / "scores.tsv")):
            items, vals = t.get(0)
            with pytest.raises(ValueError):
                vals[0] = np.nan
            with pytest.raises(ValueError):
                items[0] = 2
            assert not any(a.flags.writeable for a in (t.ids, t.indptr, t.items, t.scores))
        assert table.get(0)[1][0] == 0.1

    def test_the_callers_arrays_stay_writable(self):
        items = np.array([5, 6])
        table = ScoreTable([0, 1], [0, 1, 2], items, np.array([0.1, 0.2]))
        assert items.flags.writeable and table.get(1)[0].tolist() == [6]

    @pytest.mark.parametrize("ids, indptr, items, scores", [
        ([1, 0], [0, 1, 2], [5, 6], [0.1, 0.2]),  # ids not increasing
        ([0, 0], [0, 1, 2], [5, 6], [0.1, 0.2]),
        ([0, 1], [1, 1, 2], [5, 6], [0.1, 0.2]),  # indptr[0] != 0
        ([0, 1], [0, 1, 1], [5, 6], [0.1, 0.2]),  # indptr[-1] != nnz
        ([0, 1], [0, 2, 1], [5], [0.1]),  # decreasing indptr
        ([0, 1], [0, 1], [5, 6], [0.1, 0.2]),  # indptr too short
        ([0, 1], [0, 1, 2], [5, 6], [0.1]),  # scores and items differ
        ([[0, 1]], [0, 1, 2], [5, 6], [0.1, 0.2]),
        # non-integers were truncated: user 0 and item 1
        ([0.5], [0, 1], [1], [0.1]),
        ([0], [0.0, 1.0], [1], [0.1]),
        ([0], [0, 1], [1.7], [0.1]),
        ([0], [0, 1], [True], [0.1]),
        ([0], [0, 1], np.array([2**63], dtype=np.uint64), [0.1]),  # past int64
        ([2**70], [0, 1], [1], [0.1]),
    ])
    def test_arrays_that_are_no_csr_table_are_rejected(self, ids, indptr, items, scores):
        with pytest.raises(ValueError, match="do not form a CSR table"):
            ScoreTable(ids, indptr, items, scores)

    @pytest.mark.parametrize("key, accepted", [
        (1.5, False), (np.float64(2.0), False), (3, True), (np.int64(3), True)])
    def test_user_keys_must_be_integers(self, key, accepted):
        # a float key was truncated: {1.5: ..., 2.9: ...} gave users [1, 2]
        entries = {key: ([1], [0.1]), 7: ([3], [0.2])}
        if not accepted:
            with pytest.raises(TypeError):
                ScoreTable.from_entries(entries)
            return
        table = ScoreTable.from_entries(entries)
        assert table.users() == [3, 7] and table.get(3)[0].tolist() == [1]

    @pytest.mark.parametrize("user, accepted", [
        (1.5, False), (1.9, False), (np.float64(1.0), False), (1, True), (np.int64(1), True)])
    def test_lookups_take_integer_users(self, user, accepted):
        # a float id was truncated: 1.5 was in the table, get(1.9) gave user 1
        table = ScoreTable.from_entries({0: ([2], [0.1]), 1: ([3, 4], [0.2, 0.3])})
        pairs = InteractionSet.from_pairs(np.array([[0, 2], [1, 3]]), np.arange(2), np.arange(5))
        lookups = (lambda: user in table, lambda: table.get(user), lambda: pairs.items_of(user))
        if not accepted:
            for lookup in lookups:
                with pytest.raises(TypeError):
                    lookup()
            return
        assert user in table
        assert table.get(user)[0].tolist() == [3, 4] and pairs.items_of(user).tolist() == [3]

    def test_import_sorts_for_duplicates_once(self, tmp_path, monkeypatch):
        # the file's rows are checked with line numbers; the table built from
        # them checks its layout only
        path = tmp_path / "s.tsv"
        path.write_text("1\t2\t0.5\n0\t1\t0.25\n1\t0\t-1.0\n")
        calls = []

        def counted(*keys):
            calls.append(len(keys[0]))
            return util._repeats(*keys)

        monkeypatch.setattr(scorer_module, "_repeats", counted)
        table = import_scores(path)
        assert calls == [3]
        assert table.users() == [0, 1] and table.items.tolist() == [1, 0, 2]
        assert table.scores.tolist() == [0.25, -1.0, 0.5]

    def test_lookup_of_a_user_without_scores(self):
        table = ScoreTable.from_entries({2: ([1], [0.1]), 5: ([], [])})
        assert 5 in table and np.int64(2) in table
        assert all(u not in table for u in (0, 3, 6, 2**70, -2**70))
        with pytest.raises(ValueError, match="^user 3 has no scored candidates$"):
            table.get(3)
        assert len(table.get(5)[0]) == 0


class TestCanonicalOrder:
    """Each user's items rise in every table, whatever order they came in."""

    def _entries(self, seed=0):
        rng = np.random.default_rng(seed)
        return {u: (rng.permutation(40)[:n], np.round(rng.normal(size=n), 1))
                for u, n in ((1, 12), (4, 0), (6, 30), (9, 1))}

    def test_shuffled_entries_give_the_sorted_table(self):
        entries = self._entries()
        table = ScoreTable.from_entries(entries)
        for u, (items, scores) in entries.items():
            order = np.argsort(items)
            got_items, got_scores = table.get(u)
            assert got_items.tolist() == items[order].tolist()
            assert got_scores.tobytes() == scores[order].tobytes()
        again = ScoreTable.from_entries({u: (i[::-1], s[::-1]) for u, (i, s) in entries.items()})
        _same_table(again, table)

    def test_shuffled_import_gives_the_sorted_table(self, tmp_path):
        # a file holds no row of a user without entries
        table = ScoreTable.from_entries({u: e for u, e in self._entries(1).items() if len(e[0])})
        export_scores(table, tmp_path / "sorted.tsv")
        lines = (tmp_path / "sorted.tsv").read_text().splitlines()
        shuffled = [lines[j] for j in np.random.default_rng(2).permutation(len(lines))]
        (tmp_path / "shuffled.tsv").write_text("\n".join(shuffled) + "\n")
        assert shuffled != lines
        for name in ("sorted.tsv", "shuffled.tsv"):
            save_scores(import_scores(tmp_path / name), tmp_path / f"{name}.bin")
        assert (tmp_path / "sorted.tsv.bin").read_bytes() == \
            (tmp_path / "shuffled.tsv.bin").read_bytes()
        _same_table(import_scores(tmp_path / "shuffled.tsv"), table)

    def test_without_keeps_the_order(self):
        table = ScoreTable.from_entries(self._entries(3))
        shown = table.without([(6, int(i)) for i in table.get(6)[0][::3]] + [(1, 5)])
        for u in shown.users():
            items = shown.get(u)[0]
            assert np.all(np.diff(items) > 0)
            assert set(items.tolist()) <= set(table.get(u)[0].tolist())

    @pytest.mark.parametrize("items, message", [
        ([3, 1, 2, 7, 8], "user 5: " + re.escape(scorer_module._OUT_OF_ORDER)),
        ([1, 2, 2, 7, 8], "user 5: duplicate item ids"),
        ([1, 2, 3, 8, 7], "user 9: " + re.escape(scorer_module._OUT_OF_ORDER)),
        ([1, 2, 3, 0, 0], "user 9: duplicate item ids"),
        ([2, 2, 1, 0, 0], "user 5: duplicate item ids"),  # a repeat is named before a fall
    ])
    def test_the_constructor_names_a_fall_or_a_repeat(self, items, message):
        # users 5 and 9 own 3 and 2 entries
        with pytest.raises(ValueError, match=f"^{message}$"):
            ScoreTable([5, 9], [0, 3, 5], items, [0.1] * 5)

    def test_a_user_may_start_below_the_last_users_items(self):
        table = ScoreTable([5, 7, 9], [0, 3, 3, 5], [1, 2, 3, 0, 4], [0.1] * 5)
        assert table.get(9)[0].tolist() == [0, 4]

    def test_a_store_out_of_item_order_is_refused(self, tmp_path):
        path = tmp_path / "scores.bin"
        ints = [[2, 4], [0, 3], [0, 2, 4], [1, 4, 6, 5]]
        path.write_bytes(b"".join(np.asarray(x, dtype="<i8").tobytes() for x in ints)
                         + np.zeros(4).astype("<f8").tobytes())
        message = (f"{path}: user 3: item ids out of order (each user's item ids must rise "
                   "strictly); rerun train to rewrite the store")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_scores(path)
