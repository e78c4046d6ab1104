import re

import numpy as np
import pytest

from persize.dataset import CandidateSet, InteractionSet
from persize.scorer import (
    BPRConfig,
    DegenerateUserError,
    ScoreModel,
    ScoreTable,
    export_scores,
    import_scores,
    load_model,
    load_scores,
    rank_topk,
    save_model,
    save_scores,
    score,
    score_candidates,
    train_bpr,
)


def _toy_train():
    # two users, two items, each user likes a distinct item
    return InteractionSet.from_pairs([[0, 0], [1, 1]], users=[0, 1], items=[0, 1])


class TestTrainBpr:
    def test_learns_toy_preference(self):
        config = BPRConfig(d=4, epochs=200, learning_rate=0.1, weight_decay=0.0, seed=0)
        model = train_bpr(_toy_train(), config)
        assert score(model, 0, 0) > score(model, 0, 1)
        assert score(model, 1, 1) > score(model, 1, 0)

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


class TestScore:
    def test_zero_user_vector(self):
        model = ScoreModel(np.zeros((1, 3)), np.ones((4, 3)))
        assert score(model, 0, 2) == 0.0

    def test_dot_product(self):
        model = ScoreModel(np.array([[1.0, 0.0]]), np.array([[2.0, 3.0]]))
        assert score(model, 0, 0) == 2.0

    def test_out_of_range(self):
        model = ScoreModel(np.zeros((1, 2)), np.zeros((1, 2)))
        with pytest.raises(IndexError):
            score(model, 1, 0)
        with pytest.raises(IndexError):
            score(model, 0, 5)

    def test_matches_batch_scoring(self):
        rng = np.random.default_rng(0)
        model = ScoreModel(rng.normal(size=(3, 5)), rng.normal(size=(8, 5)))
        batch = score_candidates(model, 1, np.arange(8))
        for i in range(8):
            assert batch[i] == score(model, 1, i)


class TestRankTopk:
    def _table(self):
        return ScoreTable({0: (np.array([0, 1, 2]), np.array([0.1, 0.9, 0.5]))})

    def test_orders_by_score(self):
        ranked = rank_topk(self._table(), 0, CandidateSet(0, np.array([0, 1, 2])), 2)
        np.testing.assert_array_equal(ranked.items, [1, 2])

    def test_tie_break_by_item_id(self):
        table = ScoreTable({0: (np.array([5, 2, 9]), np.array([1.0, 1.0, 1.0]))})
        ranked = rank_topk(table, 0, CandidateSet(0, np.array([2, 5, 9])), 2)
        np.testing.assert_array_equal(ranked.items, [2, 5])

    def test_k_larger_than_candidates(self):
        ranked = rank_topk(self._table(), 0, CandidateSet(0, np.array([0, 1, 2])), 10)
        np.testing.assert_array_equal(ranked.items, [1, 2, 0])

    def test_prefix_closed_family(self):
        rng = np.random.default_rng(1)
        items = np.arange(30)
        table = ScoreTable({0: (items, rng.normal(size=30))})
        cand = CandidateSet(0, items)
        full = rank_topk(table, 0, cand, 30)
        for k in (1, 3, 12, 30):
            part = rank_topk(table, 0, cand, k)
            np.testing.assert_array_equal(part.items, full.items[:k])

    def test_empty_candidates_degenerate(self):
        with pytest.raises(DegenerateUserError):
            rank_topk(self._table(), 0, CandidateSet(0, np.empty(0, dtype=np.int64)), 5)

    def test_scores_nonincreasing(self):
        rng = np.random.default_rng(2)
        items = np.arange(50)
        table = ScoreTable({0: (items, rng.integers(0, 5, 50).astype(float))})
        ranked = rank_topk(table, 0, CandidateSet(0, items), 50)
        assert np.all(np.diff(ranked.scores) <= 0)


class TestImportExport:
    def test_round_trip_full_precision(self, tmp_path):
        rng = np.random.default_rng(3)
        table = ScoreTable({
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

    def test_model_checkpoint_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        model = ScoreModel(rng.normal(size=(3, 6)), rng.normal(size=(9, 6)))
        save_model(model, tmp_path / "model.bin")
        back = load_model(tmp_path / "model.bin")
        np.testing.assert_array_equal(model.user_vectors, back.user_vectors)
        np.testing.assert_array_equal(model.item_vectors, back.item_vectors)

    def test_truncated_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(ScoreModel(np.ones((3, 6)), np.ones((9, 6))), path)
        data = path.read_bytes()
        for cut in (8, 100, len(data) - 8):
            path.write_bytes(data[:cut])
            with pytest.raises(ValueError, match=re.escape(str(path))):
                load_model(path)

    def test_export_matches_model_scores(self, tmp_path):
        model = train_bpr(_toy_train(), BPRConfig(d=4, epochs=3, learning_rate=0.1, seed=1))
        table = ScoreTable({
            0: (np.arange(2), score_candidates(model, 0, np.arange(2))),
        })
        export_scores(table, tmp_path / "s.tsv")
        back = import_scores(tmp_path / "s.tsv")
        _, vals = back.get(0)
        assert vals[0] == score(model, 0, 0)
        assert vals[1] == score(model, 0, 1)


class TestScoreStore:
    def _table(self):
        return ScoreTable({
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
