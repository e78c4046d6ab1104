import json
import re

import numpy as np
import pytest
from oracles import scan_split, sequential_split, write_adversarial

from persize import util
from persize.scorer import ScoreModel, build_score_table
from persize.dataset import (
    SPLIT_RATIOS,
    InteractionSet,
    compact,
    kcore_filter,
    load_interactions,
    load_split,
    save_split,
    split,
)


def _write(tmp_path, text, name="data.tsv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoad:
    def test_basic_read(self, tmp_path):
        path = _write(tmp_path, "a\tx\na\ty\nb\tx\n")
        iset, id_map = load_interactions(path)
        assert len(iset.users) == 2
        assert len(iset.items) == 2
        assert iset.n_interactions == 3
        assert id_map["users"] == {"a": 0, "b": 1}

    def test_duplicates_collapse(self, tmp_path):
        path = _write(tmp_path, "a\tx\na\tx\n")
        iset, _ = load_interactions(path)
        assert iset.n_interactions == 1

    def test_malformed_line_names_lineno(self, tmp_path):
        path = _write(tmp_path, "a\tx\na\n")
        with pytest.raises(ValueError, match="line 2"):
            load_interactions(path)

    def test_empty_file_rejected(self, tmp_path):
        path = _write(tmp_path, "")
        with pytest.raises(ValueError, match="no interactions"):
            load_interactions(path)

    def test_extra_fields_ignored_and_comments_skipped(self, tmp_path):
        path = _write(tmp_path, "# header\na\tx\t123\textra\n\nb\ty\n")
        iset, _ = load_interactions(path)
        assert iset.n_interactions == 2


class TestFromPairs:
    @pytest.mark.parametrize("n", [0, 1, 2, 50, 3000])
    def test_sorted_unique_rows(self, n):
        pairs = np.random.default_rng(n).integers(-5, 30, size=(n, 2))
        got = InteractionSet.from_pairs(pairs).pairs
        want = np.unique(pairs, axis=0) if n else pairs
        assert got.dtype == np.int64 and got.shape == want.shape
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n", [0, 1, 50, 3000])
    def test_items_of_each_user_ascending(self, n):
        pairs = np.random.default_rng(n).integers(-5, 30, size=(n, 2))
        iset = InteractionSet.from_pairs(pairs)
        for user in range(-7, 33):  # users below, inside and above the pairs' range
            got = iset.items_of(user)
            want = np.unique(pairs[pairs[:, 0] == user, 1])
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)
        assert len(iset.items_of(np.int64(99))) == 0


class TestKcore:
    def test_k1_is_identity(self):
        iset = InteractionSet.from_pairs([[0, 0], [0, 1], [1, 0]])
        out = kcore_filter(iset, 1)
        np.testing.assert_array_equal(out.pairs, iset.pairs)

    def test_star_graph_collapses(self):
        # one user, five items each seen once: 2-core starves everything
        pairs = [[0, i] for i in range(5)]
        out = kcore_filter(InteractionSet.from_pairs(pairs), 2)
        assert out.n_interactions == 0

    def test_complete_bipartite_unchanged(self):
        pairs = [[u, i] for u in range(20) for i in range(20)]
        out = kcore_filter(InteractionSet.from_pairs(pairs), 20)
        assert out.n_interactions == 400

    def test_fixpoint_degrees(self):
        rng = np.random.default_rng(0)
        pairs = np.unique(rng.integers(0, 30, size=(400, 2)), axis=0)
        out = kcore_filter(InteractionSet.from_pairs(pairs), 5)
        if out.n_interactions:
            _, u_deg = np.unique(out.pairs[:, 0], return_counts=True)
            _, i_deg = np.unique(out.pairs[:, 1], return_counts=True)
            assert u_deg.min() >= 5
            assert i_deg.min() >= 5

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            kcore_filter(InteractionSet.from_pairs([[0, 0]]), 0)


class TestSplit:
    def _user_with(self, n):
        pairs = [[0, i] for i in range(n)]
        return InteractionSet.from_pairs(pairs, users=[0], items=list(range(n)))

    def test_ten_interactions_split_622(self):
        sp = split(self._user_with(10), seed=1)
        assert len(sp.train.items_of(0)) == 6
        assert len(sp.val.items_of(0)) == 2
        assert len(sp.test.items_of(0)) == 2

    def test_five_interactions_split_311(self):
        sp = split(self._user_with(5), seed=1)
        sizes = tuple(len(part.items_of(0)) for part in (sp.train, sp.val, sp.test))
        assert sizes == (3, 1, 1)

    def test_tiny_users_get_empty_parts_not_errors(self):
        sp = split(self._user_with(1), seed=1)
        assert len(sp.train.items_of(0)) == 1
        assert len(sp.val.items_of(0)) == 0
        assert len(sp.test.items_of(0)) == 0

    def test_partition_property(self):
        rng = np.random.default_rng(2)
        pairs = []
        for u in range(15):
            items = rng.choice(40, size=int(rng.integers(1, 20)), replace=False)
            pairs.extend([u, int(i)] for i in items)
        iset = InteractionSet.from_pairs(pairs, users=np.arange(15), items=np.arange(40))
        sp = split(iset, seed=9)
        for u in range(15):
            tr = set(sp.train.items_of(u).tolist())
            va = set(sp.val.items_of(u).tolist())
            te = set(sp.test.items_of(u).tolist())
            assert not (tr & va) and not (tr & te) and not (va & te)
            assert tr | va | te == set(iset.items_of(u).tolist())
            assert len(tr) >= 1

    def test_determinism(self):
        iset = InteractionSet.from_pairs([[u, i] for u in range(5) for i in range(7)])
        a = split(iset, seed=42)
        b = split(iset, seed=42)
        for pa, pb in zip((a.train, a.val, a.test), (b.train, b.val, b.test)):
            np.testing.assert_array_equal(pa.pairs, pb.pairs)
        c = split(iset, seed=43)
        assert any(
            not np.array_equal(pa.pairs, pc.pairs)
            for pa, pc in zip((a.train, a.val, a.test), (c.train, c.val, c.test))
        )

    @pytest.mark.parametrize("seed", [0, 1, 9, 2024])
    @pytest.mark.parametrize("ratios", [(0.6, 0.2, 0.2), (1, 0, 0)])
    def test_matches_per_user_loop(self, seed, ratios):
        # users with 1 and 2 pairs and larger ones; the universe lists its
        # users unsorted and holds users 9 and 2 with no pairs
        rng = np.random.default_rng(seed)
        pairs = [[3, 4], [8, 0], [8, 5]]
        for u in (0, 5, 6, 11):
            items = rng.choice(30, size=int(rng.integers(3, 25)), replace=False)
            pairs.extend([u, int(i)] for i in items)
        iset = InteractionSet.from_pairs(pairs, users=[11, 3, 9, 0, 8, 5, 2, 6],
                                         items=np.arange(30))
        got, want = split(iset, ratios, seed), sequential_split(iset, ratios, seed)
        assert got.seed == want.seed == seed
        for a, b in zip((got.train, got.val, got.test), (want.train, want.val, want.test)):
            np.testing.assert_array_equal(a.pairs, b.pairs)
            np.testing.assert_array_equal(a.users, b.users)
            np.testing.assert_array_equal(a.items, b.items)

    def test_empty_set_matches_per_user_loop(self):
        iset = InteractionSet.from_pairs(np.empty((0, 2), dtype=np.int64), users=[4, 1],
                                         items=[0, 1])
        for part in (split(iset, seed=3).train, sequential_split(iset, SPLIT_RATIOS, 3).train):
            assert part.pairs.shape == (0, 2)
            np.testing.assert_array_equal(part.users, [4, 1])

    def test_bad_ratios(self):
        with pytest.raises(ValueError):
            split(self._user_with(4), ratios=(0.5, 0.2, 0.2))
        with pytest.raises(ValueError):
            split(self._user_with(4), ratios=(0.5, 0.5))
        with pytest.raises(ValueError, match="ratios must sum to 1"):
            split(self._user_with(4), ratios=(0.5, float("nan"), 0.5))

    def test_negative_ratio_rejected(self):
        # the sum is 1, yet a negative part would leave val and test empty
        with pytest.raises(ValueError, match=re.escape(
                "ratios must be non-negative, got (1.2, -0.1, -0.1)")):
            split(self._user_with(4), ratios=(1.2, -0.1, -0.1))


class TestCandidates:
    """A user's candidates are the items outside its train items: its
    segment of the table ``build_score_table`` scores."""

    def _split(self):
        users, items = np.arange(1), np.arange(5)
        train = InteractionSet.from_pairs([[0, 0], [0, 1]], users, items)
        val = InteractionSet.from_pairs([[0, 2]], users, items)
        test = InteractionSet.from_pairs([[0, 3]], users, items)
        from persize.dataset import SplitDataset

        return SplitDataset(train=train, val=val, test=test, seed=0)

    @staticmethod
    def _candidates(sp, user=0):
        model = ScoreModel(np.zeros((len(sp.users), 2)), np.zeros((len(sp.items), 2)))
        return build_score_table(model, sp.train).get(user)[0]

    def test_excludes_train(self):
        cand = self._candidates(self._split())
        np.testing.assert_array_equal(cand, [2, 3, 4])

    def test_union_with_train_covers_everything(self):
        sp = self._split()
        cand = self._candidates(sp)
        both = np.concatenate([sp.train.items_of(0), cand])
        np.testing.assert_array_equal(np.sort(both), np.arange(5))

    def test_user_owning_everything_gets_empty_set(self):
        users, items = np.arange(1), np.arange(2)
        from persize.dataset import SplitDataset

        train = InteractionSet.from_pairs([[0, 0], [0, 1]], users, items)
        empty = InteractionSet.from_pairs(np.empty((0, 2), dtype=np.int64), users, items)
        sp = SplitDataset(train=train, val=empty, test=empty, seed=0)
        assert len(self._candidates(sp)) == 0


class TestCompactAndRoundTrip:
    def test_compact_densifies(self):
        iset = InteractionSet.from_pairs([[3, 10], [3, 20], [9, 10], [9, 20]])
        dense, old_users, old_items = compact(iset)
        np.testing.assert_array_equal(dense.users, [0, 1])
        np.testing.assert_array_equal(old_users, [3, 9])
        np.testing.assert_array_equal(dense.items_of(0), [0, 1])

    def test_save_load_round_trip(self, tmp_path):
        iset = InteractionSet.from_pairs(
            [[u, i] for u in range(4) for i in range(u + 3)],
            users=np.arange(4),
            items=np.arange(7),
        )
        sp = split(iset, seed=5)
        id_map = {
            "users": {f"u{u}": u for u in range(4)},
            "items": {f"i{i}": i for i in range(7)},
        }
        save_split(sp, tmp_path, id_map, header="# cfg")
        back = load_split(tmp_path)
        assert back.seed == 5
        for pa, pb in zip((sp.train, sp.val, sp.test), (back.train, back.val, back.test)):
            np.testing.assert_array_equal(pa.pairs, pb.pairs)

    def test_twenty_core_on_bundled(self, bundled_split):
        # every bundled user keeps enough data for calibration and testing
        for u in bundled_split.users:
            assert len(bundled_split.train.items_of(u)) >= 1
            assert len(bundled_split.val.items_of(u)) >= 1
            assert len(bundled_split.test.items_of(u)) >= 1


_ID_MAP = {"users": {f"u{u}": u for u in range(4)}, "items": {f"i{i}": i for i in range(7)}}


def _saved_split(workdir, header=""):
    iset = InteractionSet.from_pairs(
        [[u, i] for u in range(4) for i in range(u + 3)], users=np.arange(4), items=np.arange(7)
    )
    sp = split(iset, seed=5)
    save_split(sp, workdir, _ID_MAP, header=header)
    return sp


def _same_split(a, b):
    assert a.seed == b.seed
    for pa, pb in zip((a.train, a.val, a.test), (b.train, b.val, b.test)):
        assert pa.pairs.dtype == pb.pairs.dtype == np.int64
        assert pa.pairs.tobytes() == pb.pairs.tobytes()
        np.testing.assert_array_equal(pa.users, pb.users)
        np.testing.assert_array_equal(pa.items, pb.items)


class TestSplitFiles:
    def test_str_paths(self, tmp_path):
        sp = _saved_split(str(tmp_path / "a"))
        _same_split(load_split(str(tmp_path / "a")), sp)
        save_split(sp, str(tmp_path / "b"), _ID_MAP)
        _same_split(load_split(str(tmp_path / "b")), sp)

    @pytest.mark.parametrize("crlf", [False, True])
    @pytest.mark.parametrize("scanned", [False, True])
    def test_adversarial_files_match_scan(self, tmp_path, crlf, scanned):
        _saved_split(tmp_path)
        rng = np.random.default_rng(1)
        for name in ("train.tsv", "val.tsv", "test.tsv"):
            pairs = rng.integers(0, [4, 7], size=(12, 2))  # repeats collapse
            rows = [(f"+{u}" if j % 2 else str(u), f"0{i}" if j % 3 else str(i))
                    for j, (u, i) in enumerate(pairs)]
            write_adversarial(tmp_path / name, rows, crlf=crlf, scanned=scanned)
        _same_split(load_split(tmp_path), scan_split(tmp_path))

    def test_headered_file_skips_the_hash_search(self, tmp_path, monkeypatch):
        # every '#' starts a line, so no data line can hold one
        sp = _saved_split(tmp_path, header="# persize prepare config={}")
        searched = []

        class Stub:
            def search(self, data):
                searched.append(data)
                return None

        monkeypatch.setattr(util, "_HASH_IN_DATA", Stub())
        _same_split(load_split(tmp_path), sp)
        assert searched == []
        path = tmp_path / "val.tsv"
        path.write_text("  # indented\n" + path.read_text())  # a '#' inside a line
        load_split(tmp_path)
        assert len(searched) == 1

    @pytest.mark.parametrize("mapping", [
        [], {**_ID_MAP, "users": 5, "seed": 5}, _ID_MAP, {**_ID_MAP, "items": [], "seed": 5},
        {**_ID_MAP, "seed": "5"}, {**_ID_MAP, "seed": True},
    ], ids=["list", "users_int", "no_seed", "items_list", "seed_string", "seed_bool"])
    def test_malformed_id_map_names_the_file(self, tmp_path, mapping):
        _saved_split(tmp_path)
        path = tmp_path / "id_map.json"
        path.write_text(json.dumps(mapping))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: expected an object with 'users' and 'items' objects and an "
                "integer 'seed'")):
            load_split(tmp_path)

    @pytest.mark.parametrize("bad, message", [
        ("3", "expected 'user<TAB>item'"),
        ("3\tx", "malformed row"),
        ("1.0\t2", "malformed row"),
        ("1\t2 # note", "malformed row"),
        ("4\t0", "user id 4 is outside the 4 users of id_map.json"),
        ("-1\t0", "user id -1 is outside"),
        ("0\t7", "item id 7 is outside the 7 items of id_map.json"),
        ("99999999999999999999\t0", "malformed row"),
    ])
    def test_bad_row_names_file_and_line(self, tmp_path, bad, message):
        _saved_split(tmp_path)
        path = tmp_path / "val.tsv"
        path.write_text("# header\n0\t1\n\n" + bad + "\n1\t1\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 4: {message}")):
            load_split(tmp_path)
