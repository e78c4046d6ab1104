import re

import numpy as np
import pytest
from oracles import SCORE_FORMS, scan_scores, write_adversarial

from persize import util
from persize.calibrate import PlattParams
from persize.dataset import InteractionSet
from persize.scorer import (
    BPRConfig,
    DegenerateUserError,
    ScoreModel,
    ScoreTable,
    export_scores,
    import_scores,
    load_model,
    load_scores,
    save_model,
    save_scores,
    score,
    score_candidates,
    train_bpr,
)
from persize.selection import rank, recommend
from persize.utility import Measure


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
    """A top-K list is the first K items of ``selection.rank``'s order."""

    def _table(self):
        return ScoreTable({0: (np.array([0, 1, 2]), np.array([0.1, 0.9, 0.5]))})

    def test_orders_by_score(self):
        items, _ = rank(0, self._table())
        np.testing.assert_array_equal(items[:2], [1, 2])

    def test_tie_break_by_item_id(self):
        table = ScoreTable({0: (np.array([5, 2, 9]), np.array([1.0, 1.0, 1.0]))})
        np.testing.assert_array_equal(rank(0, table)[0][:2], [2, 5])

    def test_k_larger_than_candidates(self):
        np.testing.assert_array_equal(rank(0, self._table())[0][:10], [1, 2, 0])

    def test_prefix_closed_family(self):
        # dropping every item ranked below k leaves exactly the top k, in order
        rng = np.random.default_rng(1)
        table = ScoreTable({0: (np.arange(30), rng.normal(size=30))})
        full, _ = rank(0, table)
        for k in (1, 3, 12, 30):
            part, _ = rank(0, table, exclude=full[k:])
            np.testing.assert_array_equal(part, full[:k])

    def test_empty_candidates_degenerate(self):
        table = self._table()
        assert len(rank(0, table, exclude=[0, 1, 2])[0]) == 0
        with pytest.raises(DegenerateUserError):
            recommend(0, table, PlattParams(1.0, 0.0), [Measure.F1], K=5, exclude=[0, 1, 2])

    def test_scores_nonincreasing(self):
        rng = np.random.default_rng(2)
        items = np.arange(50)
        table = ScoreTable({0: (items, rng.integers(0, 5, 50).astype(float))})
        _, vals = rank(0, table)
        assert np.all(np.diff(vals) <= 0)


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
