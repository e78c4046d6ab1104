import numpy as np
import pytest

from persize import calibrate
from persize.calibrate import PlattParams
from persize.dataset import InteractionSet, SplitDataset
from persize.scorer import ScoreTable
from persize.selection import (
    METHOD_ORACLE,
    METHOD_PERK,
    SKIP_NO_CANDIDATES,
    SKIP_NO_TEST,
    SKIP_REASONS,
    EvaluationReport,
    _padded,
    _row_argmax,
    baseline_rand,
    default_methods,
    evaluate,
    rank,
    recommend_block,
    recommend_users,
    user_blocks,
)
from persize.utility import Measure, expected_curves_batch, realized_curve

from oracles import CHI2_CRIT_DF19_A01


def _alone(user, table, params, measures, **kwargs):
    """One user's ``recommend_block`` result, as a block of one."""
    return recommend_block([user], table, {user: params}, measures, **kwargs)[user]


def _pairs(user, items) -> list:
    """The (user, item) pairs of one user's ``items``, for ``ScoreTable.without``."""
    return [(user, int(i)) for i in items]


def _perk_sizes(recs) -> dict:
    """``evaluate``'s ``perk`` argument from a ``recommend_users`` result:
    user -> {Measure: (k, expected_value)} for every served user."""
    return {user: {m: (rec.k_max, rec.expected_value) for m, rec in by_measure.items()}
            for user, by_measure in recs.items()}


def _select(values) -> int:
    """The PerK size of one curve: the one-row ``_row_argmax`` that
    ``recommend_block`` runs over a block of curves."""
    values = np.asarray(values, dtype=float)
    return int(_row_argmax(values[None, :], np.array([len(values)]))[0])


class TestPerkSelect:
    def test_argmax(self):
        assert _select([0.1, 0.3, 0.2]) == 2

    def test_tie_breaks_small(self):
        assert _select([0.5, 0.5]) == 1

    def test_pdcg_selection_law(self):
        # with non-increasing probabilities, the PDCG argmax is the number
        # of entries above 1/2 (at least 1); exact halves stop the growth
        rng = np.random.default_rng(0)
        for trial in range(60):
            n = int(rng.integers(1, 60))
            probs = np.sort(rng.random(n))[::-1]
            if trial % 3 == 0 and n >= 3:
                probs[n // 3] = 0.5  # plant an exact tie
                probs = np.sort(probs)[::-1]
            curves = expected_curves_batch(probs[None, :], [Measure.PDCG], M=5, K=n)
            want = max(1, int(np.sum(probs > 0.5)))
            assert _select(curves[Measure.PDCG][0]) == want


class TestRank:
    def test_descending_score_ties_to_lower_item(self):
        items = np.array([7, 3, 5, 1, 9])
        table = ScoreTable.from_entries({0: (items, np.array([0.5, 2.0, 0.5, 0.5, -1.0]))})
        ranked, vals = rank(0, table)
        np.testing.assert_array_equal(ranked, [3, 1, 5, 7, 9])
        np.testing.assert_array_equal(vals, [2.0, 0.5, 0.5, 0.5, -1.0])

    def test_matches_lexsort_order(self):
        rng = np.random.default_rng(2)
        scores = np.round(rng.normal(size=25), 1)  # rounding plants ties
        table = ScoreTable.from_entries({0: (np.arange(25), scores)})
        order = np.lexsort((np.arange(25), -scores))
        np.testing.assert_array_equal(rank(0, table)[0], np.arange(25)[order])

    @pytest.mark.parametrize("top", [0, 1, 3, 7, 12, 24, 25, 40])
    def test_top_is_the_head_of_the_full_order(self, top):
        rng = np.random.default_rng(4)
        scores = np.round(rng.normal(size=25), 0)  # a few values, many ties at any cut
        scores[:3] = [0.0, -0.0, 0.0]
        table = ScoreTable.from_entries({0: (rng.permutation(25), scores)})
        items, vals = rank(0, table)
        head_items, head_vals = rank(0, table, top)
        assert head_items.tolist() == items[:top].tolist()
        assert head_vals.tobytes() == vals[:top].tobytes()

    @pytest.mark.parametrize("top", [-1, -25])
    def test_negative_top_is_refused(self, top):
        # order[:-1] would silently drop the user's last item
        table = ScoreTable.from_entries({0: (np.arange(5), np.arange(5.0))})
        with pytest.raises(ValueError, match=f"top must be an integer >= 0, got {top}"):
            rank(0, table, top)

    def test_exclude_drops_items_and_keeps_order(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=30)
        table = ScoreTable.from_entries({0: (np.arange(30), scores)})
        full, _ = rank(0, table)
        dropped = [4, 11, 29, 100]  # 100 is not a candidate
        kept, kept_vals = rank(0, table.without(_pairs(0, dropped)))
        np.testing.assert_array_equal(kept, full[~np.isin(full, dropped)])
        np.testing.assert_array_equal(kept_vals, scores[kept])
        assert len(rank(0, table.without(_pairs(0, np.arange(30))))[0]) == 0


class TestRecommend:
    def _table(self, scores):
        items = np.arange(len(scores))
        return ScoreTable.from_entries({0: (items, np.asarray(scores, dtype=float))})

    def test_single_sure_candidate_exact(self):
        # at the default M the count keeps all its mass, so a sure
        # candidate's expected NDCG is 1 up to rounding
        table = self._table([4.0])
        params = PlattParams(a=10.0, b=0.0)  # sigmoid(40) ~ 1
        rec = _alone(0, table, params, [Measure.NDCG], K=1)[Measure.NDCG]
        assert rec.k_max == 1
        assert rec.expected_value == pytest.approx(1.0, abs=1e-10)

    def test_all_probs_below_half_pdcg_picks_one(self):
        table = self._table([0.5, 0.4, 0.3, 0.2])
        params = PlattParams(a=1.0, b=-3.0)  # all probabilities < 0.5
        rec = _alone(0, table, params, [Measure.PDCG], K=4)[Measure.PDCG]
        assert rec.k_max == 1

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        table = self._table(rng.normal(size=30))
        params = PlattParams(a=1.2, b=-1.0)
        a = _alone(0, table, params, [Measure.F1], K=10, M=50)[Measure.F1]
        b = _alone(0, table, params, [Measure.F1], K=10, M=50)[Measure.F1]
        assert a.k_max == b.k_max
        np.testing.assert_array_equal(a.items, b.items)

    def test_emits_prefix_of_ranking(self):
        rng = np.random.default_rng(2)
        scores = rng.normal(size=25)
        table = self._table(scores)
        params = PlattParams(a=1.0, b=0.0)
        for exclude in ((), [0, 3, 8]):
            shown = table.without(_pairs(0, exclude))
            recs = _alone(0, shown, params, list(Measure), K=10, M=40)
            ranked, _ = rank(0, shown)
            for rec in recs.values():
                np.testing.assert_array_equal(rec.items, ranked[: rec.k_max])

    def test_carries_its_curve(self):
        rng = np.random.default_rng(4)
        scores = rng.normal(size=40)
        table = self._table(scores)
        params = PlattParams(a=1.5, b=-0.5)
        recs = _alone(0, table, params, list(Measure), K=12, M=30)
        probs = calibrate.apply(params, rank(0, table)[1])
        want = {m: row[0] for m, row in
                expected_curves_batch(probs[None, :], list(Measure), M=30, K=12).items()}
        for measure, rec in recs.items():
            np.testing.assert_array_equal(rec.values, want[measure])
            assert rec.k_max == _select(want[measure])
            assert rec.expected_value == float(want[measure][rec.k_max - 1])
            assert not rec.values.flags.writeable

    def test_carries_its_ranking_cut_to_k(self):
        rng = np.random.default_rng(6)
        table = self._table(rng.normal(size=30))
        params = PlattParams(a=1.0, b=0.5)
        for K, exclude in ((10, ()), (40, [2, 7])):
            shown = table.without(_pairs(0, exclude))
            recs = _alone(0, shown, params, list(Measure), K=K, M=40)
            ranked, _ = rank(0, shown)
            for rec in recs.values():
                np.testing.assert_array_equal(rec.ranking, ranked[:K])
                assert rec.ranking.flags.owndata  # the full ranking is not kept alive
                assert rec.ranking is recs[Measure.F1].ranking  # one copy per user
                np.testing.assert_array_equal(rec.items, rec.ranking[: rec.k_max])

    def test_degenerate_user(self):
        table = ScoreTable.from_entries({0: (np.empty(0, dtype=np.int64), np.empty(0))})
        with pytest.raises(ValueError, match="user 0 has no scored candidates"):
            _alone(0, table, PlattParams(1.0, 0.0), [Measure.F1])
        full = self._table([0.3, 0.2])
        with pytest.raises(ValueError, match="user 0 has no scored candidates"):
            _alone(0, full.without(_pairs(0, [0, 1])), PlattParams(1.0, 0.0), [Measure.F1])


class TestRecommendBlock:
    """One padded curve call per block; a user is its own block of one."""

    # n = 1, below K, equal to K, around the 32-item chunk edge, far above K
    WIDTHS = {10: 1, 11: 5, 12: 12, 13: 31, 14: 32, 15: 33, 16: 65, 17: 400}

    def _table(self):
        rng = np.random.default_rng(41)
        return ScoreTable.from_entries({u: (rng.permutation(500)[:n], rng.normal(size=n))
                                        for u, n in self.WIDTHS.items()})

    def _params(self):
        return {u: PlattParams(1.0 + 0.1 * (u % 3), -1.0 + 0.2 * (u % 4))
                for u in self.WIDTHS}

    @pytest.mark.parametrize("M", [20, 2000])
    def test_mixed_widths_match_blocks_of_one(self, M):
        table, params = self._table(), self._params()
        table = table.without(_pairs(13, rank(13, table)[0][:2]))
        users = sorted(self.WIDTHS)
        assert user_blocks(users, table) == [users]  # one padded block
        block = recommend_block(users, table, params, list(Measure), K=12, M=M)
        assert list(block) == users
        for user in users:
            alone = _alone(user, table, params[user], list(Measure), K=12, M=M)
            n = len(rank(user, table)[0])
            for measure in Measure:
                got, want = block[user][measure], alone[measure]
                assert len(got.values) == min(12, n)
                np.testing.assert_allclose(got.values, want.values, rtol=1e-13, atol=0)
                assert got.k_max == want.k_max, (user, measure)
                np.testing.assert_array_equal(got.items, want.items)

    def test_unservable_users_are_refused(self):
        table, params = self._table(), self._params()
        with pytest.raises(ValueError, match="non-finite calibration parameters for scope 12"):
            PlattParams(float("nan"), 0.0, scope=12)
        table = table.without(_pairs(11, rank(11, table)[0]))  # every candidate excluded
        with pytest.raises(ValueError, match="user 11 has no scored candidates"):
            recommend_block([10, 11, 12, 17], table, params, [Measure.F1], K=5)
        block = recommend_block([10, 12, 17], table, params, [Measure.F1], K=5)
        assert block[10][Measure.F1].k_max == 1
        assert len(block[17][Measure.F1].values) == 5

    def test_user_without_scores_or_parameters_is_named(self):
        table, params = self._table(), self._params()
        del params[12]
        params[14] = None
        for user, why in ((7, "no scored candidates"), (12, "no calibration parameters"),
                          (14, "no calibration parameters")):
            with pytest.raises(ValueError, match=f"^user {user} has {why}$"):
                recommend_block([10, user], table, params, [Measure.F1], K=5)

    def test_bad_arguments_raise_before_any_user(self):
        table, params = self._table(), self._params()
        for kwargs, message in (({"K": 0}, "K must"), ({"M": 0}, "M must")):
            with pytest.raises(ValueError, match=message):
                recommend_block([10], table, params, [Measure.F1], **kwargs)

    @pytest.mark.parametrize("users", [[10], []])
    @pytest.mark.parametrize("measures, message", [
        ([], "^measures is empty: no measure to evaluate$"),
        ([Measure.F1, Measure.F1], "^repeated measure: f1$"),
        (["tp", Measure.TP], "^repeated measure: tp$"),
    ])
    def test_empty_or_repeated_measures_refused(self, users, measures, message):
        table, params = self._table(), self._params()
        with pytest.raises(ValueError, match=message):
            recommend_block(users, table, params, measures, K=5)

    def test_measure_names_are_members(self):
        table, params = self._table(), self._params()
        by_name = recommend_block([10, 16], table, params, ["f1", "tp"], K=5)
        by_member = recommend_block([10, 16], table, params, [Measure.F1, Measure.TP], K=5)
        for user in (10, 16):
            assert list(by_name[user]) == [Measure.F1, Measure.TP]
            for m in (Measure.F1, Measure.TP):
                assert by_name[user][m].k_max == by_member[user][m].k_max
                np.testing.assert_array_equal(by_name[user][m].values, by_member[user][m].values)

    def test_blocks_name_a_user_the_table_lacks(self):
        table = self._table()
        with pytest.raises(ValueError, match="^user 7 has no scored candidates$"):
            user_blocks([10, 7], table)
        with pytest.raises(ValueError, match="^user 7 has no scored candidates$"):
            user_blocks(np.array([7]), table)

    def test_blocks_cut_at_user_and_probability_caps(self):
        from persize import selection

        def table(widths):
            return ScoreTable.from_entries({u: (np.arange(n), np.zeros(n))
                                            for u, n in widths.items()})

        many = {u: 10 for u in range(130)}
        assert [len(b) for b in user_blocks(many, table(many))] == [64, 64, 2]
        per_block = selection._BLOCK_PROBS // 5000
        wide = {u: 5000 for u in range(2 * per_block + 1)}
        assert [len(b) for b in user_blocks(wide, table(wide))] == [per_block, per_block, 1]
        widths = {7: 5, 3: selection._BLOCK_PROBS + 1, 5: 5, 1: 6}
        assert user_blocks(widths, table(widths)) == [[5, 7, 1], [3]]


class TestRecommendUsers:
    """The routine the recommend stage calls."""

    def _world(self):
        # 150 users from 1 to 700 candidates: several blocks at both caps
        rng = np.random.default_rng(17)
        widths = {u: int(rng.integers(1, 700)) for u in range(150)}
        table = ScoreTable.from_entries({u: (rng.permutation(1000)[:n], rng.normal(size=n))
                                         for u, n in widths.items()})
        params = {u: PlattParams(1.0 + 0.05 * (u % 5), -1.5 + 0.3 * (u % 4))
                  for u in widths if u % 11}
        params[22] = None  # a user without parameters is not served
        exclude = {u: rank(u, table)[0][: u % 4] for u in widths}
        exclude[45] = rank(45, table)[0]  # nothing left to rank
        return table.without([(u, int(i)) for u, items in exclude.items() for i in items]), params

    def test_serves_the_blocks_of_served_users(self):
        table, params = self._world()
        got = recommend_users(table, params, iter([Measure.F1, Measure.NDCG]), K=20, M=100)
        # a user with no entry left is not served
        served = [u for u in table.users() if len(table.get(u)[0]) and params.get(u) is not None]
        assert list(got) == served
        assert len(user_blocks(served, table)) > 2
        assert 45 in params and 45 in table and 45 not in got
        with pytest.raises(ValueError, match="non-finite calibration parameters for scope 34"):
            PlattParams(float("nan"), 0.0, scope=34)
        for block in user_blocks(served, table):
            want = recommend_block(block, table, params, [Measure.F1, Measure.NDCG], K=20,
                                   M=100)
            for user in block:
                for measure, rec in want[user].items():
                    assert got[user][measure].k_max == rec.k_max
                    assert got[user][measure].values.tobytes() == \
                        rec.values.tobytes()

    def test_thread_count_never_changes_the_result(self):
        table, params = self._world()

        def flat(result):
            out = []
            for user, recs in result.items():
                for measure, rec in recs.items():
                    out.append((user, measure, rec.k_max, rec.ranking.tobytes(),
                                rec.values.tobytes()))
            return out

        runs = [flat(recommend_users(table, params, list(Measure), K=15, M=80,
                                     threads=threads))
                for threads in (1, 2, 8)]
        assert runs[0] == runs[1] == runs[2]

    def test_bad_arguments_raise_without_users(self):
        for kwargs, message in (({"K": 0}, "K must"), ({"M": 0}, "M must")):
            with pytest.raises(ValueError, match=message):
                recommend_users(ScoreTable.from_entries({}), {}, [Measure.F1], **kwargs)

    @pytest.mark.parametrize("measures, message", [
        ([], "^measures is empty: no measure to evaluate$"),
        ([Measure.F1, Measure.F1], "^repeated measure: f1$"),
    ])
    def test_empty_or_repeated_measures_refused(self, measures, message):
        # an empty list returned an empty dict per user, a repeated one one entry
        table = ScoreTable.from_entries({0: (np.arange(3), np.zeros(3)),
                                         2: (np.arange(3), np.ones(3))})
        params = {0: PlattParams(1.0, 0.0), 2: PlattParams(1.0, 0.0)}
        for served in (params, {}):  # also when no user is served
            with pytest.raises(ValueError, match=message):
                recommend_users(table, served, measures, K=3, M=5)


def _block_argmax(measure, ranked_items, positives) -> int:
    """The val_k / oracle size of one user: the one-row block argmax that
    ``evaluate`` runs over all its users."""
    lengths = np.array([len(ranked_items)])
    labels = _padded(np.isin(ranked_items, list(positives)), lengths)
    return int(_row_argmax(realized_curve(measure, labels, [len(positives)]), lengths)[0])


class TestBaselines:
    def _ranked(self):
        rng = np.random.default_rng(3)
        items = np.arange(40)
        return rank(5, ScoreTable.from_entries({5: (items, rng.normal(size=40))}))[0]

    def test_fixed_prefix_semantics(self, tiny_split):
        # a fixed size is min(k, |top-K|) of the evaluated ranking, and its
        # value is the realized utility of exactly that prefix
        rng = np.random.default_rng(3)
        table = ScoreTable.from_entries({int(u): (np.arange(8), rng.normal(size=8))
                                         for u in tiny_split.users})
        perk = {int(u): {Measure.TP: (1, 0.5)} for u in tiny_split.users}
        report = evaluate(tiny_split, table, perk, measures=[Measure.TP], K=100)
        fixed = [row for row in report.per_user if row[1].startswith("top-")]
        assert {row[1] for row in fixed} == {"top-1", "top-5", "top-10", "top-20", "top-50"}
        shown = table.without(tiny_split.val.pairs)
        for user, method, _, k, value in fixed:
            ranked, _ = rank(user, shown)
            assert k == min(int(method[4:]), len(ranked))
            test_items = tiny_split.test.items_of(user)
            labels = np.isin(ranked, test_items).astype(float)
            assert value == realized_curve(Measure.TP, labels, len(test_items))[k - 1]

    @pytest.mark.parametrize("measures, message", [
        ([Measure.F1, "f1"], "repeated measure: f1"),
        ([Measure.TP, Measure.F1, Measure.TP], "repeated measure: tp"),
        ([], "no measure"),
    ])
    def test_repeated_or_missing_measure_rejected(self, tiny_split, monkeypatch, measures,
                                                   message):
        # a repeated measure would write each user's rows twice and double
        # the averages, which divide by the users counted once
        from persize import selection

        def no_user(*args, **kwargs):
            raise AssertionError("a user was ranked")

        monkeypatch.setattr(selection, "rank", no_user)
        table = ScoreTable.from_entries({int(u): (np.arange(8), np.zeros(8))
                                         for u in tiny_split.users})
        perk = {int(u): {m: (1, 0.5) for m in Measure} for u in tiny_split.users}
        with pytest.raises(ValueError, match=message):
            evaluate(tiny_split, table, perk, measures=measures, K=5)

    def test_rand_reproducible_and_bounded(self):
        draws = {baseline_rand(5, 10, seed=4) for _ in range(5)}
        assert len(draws) == 1
        assert baseline_rand(5, 1, seed=4) == 1

    def test_rand_uniform_chi2(self):
        K = 20
        counts = np.zeros(K)
        for u in range(100000):
            counts[baseline_rand(u, K, seed=9) - 1] += 1
        expected = 100000 / K
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < CHI2_CRIT_DF19_A01

    def test_val_k_single_hit_ndcg(self):
        # one validation positive at rank 1: every larger k ties, so pick 1
        assert _block_argmax(Measure.NDCG, np.arange(10), [0]) == 1

    def test_val_k_no_positives_defaults_one(self):
        assert _block_argmax(Measure.F1, np.arange(4), []) == 1
        assert _block_argmax(Measure.F1, np.arange(4), np.empty(0, dtype=np.int64)) == 1

    def test_val_k_all_relevant_prefix_ties_to_one(self):
        # every rank relevant: TP is identically 1, ties resolve to k=1
        assert _block_argmax(Measure.TP, np.arange(6), list(range(6))) == 1

    def test_val_k_tp_unique_argmax_at_full_size(self):
        # rank 1 irrelevant, the rest relevant: TP only peaks at k=K
        assert _block_argmax(Measure.TP, np.arange(6), [1, 2, 3, 4, 5]) == 6

    def test_val_k_follows_the_given_ranking(self):
        ranked = self._ranked()
        # the only positive sits at rank 4 of the ranking: F1 peaks there
        assert _block_argmax(Measure.F1, ranked[:20], [int(ranked[3])]) == 4

    def test_oracle_k_mirrors_with_test_labels(self):
        # test positives at ranks 1..3: F1 peaks at k=3 with value 1
        k = _block_argmax(Measure.F1, np.arange(50), [0, 1, 2])
        assert k == 3
        labels = np.zeros(50)
        labels[:3] = 1
        assert realized_curve(Measure.F1, labels, 3)[k - 1] == 1.0


def _pipeline_fixture(bundled_split):
    """Score + calibrate the bundled split once for evaluation tests."""
    from persize.scorer import BPRConfig, build_score_table, train_bpr

    model = train_bpr(
        bundled_split.train, BPRConfig(d=16, epochs=8, learning_rate=0.05, seed=0)
    )
    table = build_score_table(model, bundled_split.train)
    params, _ = calibrate.fit_all_users(table, calibrate.calibration_labels(bundled_split, table))
    return table, params


def _served(split, table, params, K, M):
    """The recommend stage's result on ``split``: ``recommend_users`` with
    the validation positives excluded."""
    return recommend_users(table.without(split.val.pairs), params, list(Measure), K=K, M=M)


@pytest.fixture(scope="module")
def bundled_eval(request):
    bundled_split = request.getfixturevalue("bundled_split")
    table, params = _pipeline_fixture(bundled_split)
    perk = _perk_sizes(_served(bundled_split, table, params, K=20, M=200))
    report = evaluate(bundled_split, table, perk, K=20, seed=0)
    return bundled_split, table, params, report


class TestEvaluate:
    def test_oracle_dominates_pointwise(self, bundled_eval):
        _, _, _, report = bundled_eval
        by_user = {}
        for user, method, measure, k, value in report.per_user:
            by_user.setdefault((user, measure), {})[method] = value
        for (user, measure), methods in by_user.items():
            top = methods[METHOD_ORACLE]
            for method, value in methods.items():
                assert top >= value, (user, measure, method)

    def test_rand_between_extremes(self, bundled_eval):
        split, table, params, report = bundled_eval
        # realized utility at rand's k lies inside the per-user realized range
        rand_rows = [r for r in report.per_user if r[1] == "rand"]
        assert rand_rows
        for user, _, measure, k, value in rand_rows[:50]:
            items, vals = table.get(user)
            order = np.lexsort((items, -vals))
            ranked = items[order]
            ranked = ranked[~np.isin(ranked, split.val.items_of(user))]
            labels = np.isin(ranked[:20], split.test.items_of(user)).astype(float)
            curve = realized_curve(Measure(measure), labels, len(split.test.items_of(user)))
            assert curve.min() - 1e-12 <= value <= curve.max() + 1e-12
            assert 1 <= k <= len(curve)

    def test_averages_match_per_user_rows(self, bundled_eval):
        _, _, _, report = bundled_eval
        sums, counts = {}, {}
        users = set()
        for user, method, measure, _, value in report.per_user:
            users.add(user)
            sums[(method, measure)] = sums.get((method, measure), 0.0) + value
        n = len(users)
        for method, by_measure in report.averages.items():
            for measure, avg in by_measure.items():
                assert avg == pytest.approx(sums[(method, measure)] / n, abs=1e-12)

    def test_identical_user_set_per_method(self, bundled_eval):
        _, _, _, report = bundled_eval
        users_by_method = {}
        for user, method, measure, _, _ in report.per_user:
            users_by_method.setdefault(method, set()).add(user)
        sets = list(users_by_method.values())
        assert all(s == sets[0] for s in sets)

    def test_prefix_property_all_methods(self, bundled_eval):
        split, table, params, report = bundled_eval
        # reconstruct each user's eval ranking independently and check ks
        # select items as a prefix by construction: k <= |eval candidates|
        for user, method, measure, k, _ in report.per_user:
            items, vals = table.get(user)
            val_items = split.val.items_of(user)
            n_eval = int((~np.isin(items, val_items)).sum())
            assert 1 <= k <= min(20, n_eval)

    def test_deterministic(self, bundled_eval):
        split, table, params, _ = bundled_eval
        perk = _perk_sizes(_served(split, table, params, K=10, M=100))
        a = evaluate(split, table, perk, K=10, seed=1)
        b = evaluate(split, table, perk, K=10, seed=1)
        assert a.per_user == b.per_user
        assert a.averages == b.averages
        assert a.perk_expected == b.perk_expected

    def test_perk_size_is_the_recommend_users_size(self, bundled_eval, monkeypatch):
        from persize import selection

        split, table, params, _ = bundled_eval
        # a served user without test positives is still served, not evaluated
        gone = next(u for u in table.users() if params.get(u) is not None
                    and len(split.test.items_of(u)))
        test_pairs = split.test.pairs[split.test.pairs[:, 0] != gone]
        split = SplitDataset(
            train=split.train, val=split.val,
            test=InteractionSet.from_pairs(test_pairs, split.users, split.items), seed=0)
        recs = _served(split, table, params, K=10, M=100)

        def no_perk(*args, **kwargs):
            raise AssertionError("evaluate ran PerK itself")

        for name in ("recommend_users", "recommend_block", "expected_curves_batch"):
            monkeypatch.setattr(selection, name, no_perk)
        report = evaluate(split, table, _perk_sizes(recs), K=10, seed=2)
        assert gone in recs and gone not in {row[0] for row in report.per_user}
        perk_rows = [row for row in report.per_user if row[1] == METHOD_PERK]
        assert len(perk_rows) == report.n_users * len(Measure)
        for user, _, measure, k, _ in perk_rows:
            assert k == recs[user][Measure(measure)].k_max, (user, measure)

    def test_perk_rows_score_the_lists_perk_emits(self, bundled_eval):
        split, table, params, report = bundled_eval
        recs = _served(split, table, params, K=20, M=200)
        perk_rows = [row for row in report.per_user if row[1] == METHOD_PERK]
        assert len(perk_rows) == report.n_users * len(Measure)
        for user, _, measure, k, value in perk_rows:
            items = recs[user][Measure(measure)].items
            test = split.test.items_of(user)
            labels = np.isin(items, test).astype(float)
            assert k == len(items)
            assert value == realized_curve(Measure(measure), labels, len(test))[-1], user

    def test_no_evaluable_users_raises(self, tiny_split):
        empty = InteractionSet.from_pairs(
            np.empty((0, 2), dtype=np.int64), tiny_split.users, tiny_split.items
        )
        gutted = SplitDataset(
            train=tiny_split.train, val=tiny_split.val, test=empty, seed=0
        )
        table = ScoreTable.from_entries({int(u): (np.arange(3), np.arange(3, dtype=float))
                                         for u in tiny_split.users})
        perk = {int(u): {m: (1, 0.5) for m in Measure} for u in tiny_split.users}
        with pytest.raises(ValueError, match=r"^no evaluable users \(skipped 6 "
                           r"no_test_positives, 0 no_candidates, 0 no_perk_size\)$"):
            evaluate(gutted, table, perk, K=3)
        # users with test positives but without PerK sizes are not blamed on
        # missing test positives
        with pytest.raises(ValueError, match=r"\(skipped 0 no_test_positives, 0 "
                           r"no_candidates, 6 no_perk_size\)"):
            evaluate(tiny_split, table, {}, K=3)

    @pytest.mark.parametrize("K", [0, -2])
    def test_K_below_one_rejected_before_any_user(self, tiny_split, monkeypatch, K):
        # K = 0 read as every user lacking candidates, and a negative K cut
        # the rankings from their end
        from persize import selection

        def no_user(*args, **kwargs):
            raise AssertionError("a user was ranked")

        monkeypatch.setattr(selection, "rank", no_user)
        table = ScoreTable.from_entries({int(u): (np.arange(8), np.zeros(8))
                                         for u in tiny_split.users})
        perk = {int(u): {m: (1, 0.5) for m in Measure} for u in tiny_split.users}
        with pytest.raises(ValueError, match=f"^K must be an integer >= 1, got {K}$"):
            evaluate(tiny_split, table, perk, K=K)

    def test_skipped_users_counted_by_reason(self, tiny_split):
        test_pairs = tiny_split.test.pairs[tiny_split.test.pairs[:, 0] != 0]
        split = SplitDataset(
            train=tiny_split.train, val=tiny_split.val,
            test=InteractionSet.from_pairs(test_pairs, tiny_split.users, tiny_split.items),
            seed=0)
        rng = np.random.default_rng(5)
        entries = {u: (np.arange(8), rng.normal(size=8)) for u in (0, 2, 4, 5)}
        val_3 = split.val.items_of(3)
        entries[3] = (val_3, np.zeros(len(val_3)))  # only validation positives
        table = ScoreTable.from_entries(entries)
        perk = {u: {m: (1, 0.5) for m in Measure} for u in (0, 1, 3, 5)}
        report = evaluate(split, table, perk, K=5)
        assert report.skipped == {"no_test_positives": 1, "no_candidates": 2,
                                  "no_perk_size": 2}
        assert {row[0] for row in report.per_user} == {5}
        # with a PerK size for every user, only the first two reasons skip
        perk = {u: {m: (1, 0.5) for m in Measure} for u in range(6)}
        report = evaluate(split, table, perk, K=5)
        assert report.skipped == {"no_test_positives": 1, "no_candidates": 2,
                                  "no_perk_size": 0}
        assert {row[0] for row in report.per_user} == {2, 4, 5}

    def test_perk_size_past_the_ranking_names_the_user(self, tiny_split):
        table = ScoreTable.from_entries({int(u): (np.arange(8), np.zeros(8))
                                         for u in tiny_split.users})
        perk = {int(u): {m: (1, 0.5) for m in Measure} for u in tiny_split.users}
        user = int(tiny_split.users[2])
        n = len(rank(user, table.without(tiny_split.val.pairs))[0])
        perk[user][Measure.TP] = (n + 1, 0.5)
        with pytest.raises(ValueError, match=f"^user {user}: the PerK size for tp must be an "
                           f"integer in 1..{n}, got {n + 1}$"):
            evaluate(tiny_split, table, perk, K=8)

    @pytest.mark.parametrize("entry, message", [
        ((0, 0.5), "the PerK size for f1 must be an integer in 1..5, got 0"),
        ((True, 0.5), "the PerK size for f1 must be an integer in 1..5, got True"),
        ((2.0, 0.5), "the PerK size for f1 must be an integer in 1..5, got 2.0"),
        (None, "no PerK size for f1"),
    ], ids=["zero", "bool", "float", "missing"])
    def test_bad_perk_entry_names_the_user_and_measure(self, tiny_split, entry, message):
        # a size of 0 scored the block's last column, True scored as 1, a
        # float ended in numpy's IndexError and a missing measure in a bare
        # KeyError
        table = ScoreTable.from_entries({int(u): (np.arange(8), np.zeros(8))
                                         for u in tiny_split.users})
        perk = {int(u): {m: (1, 0.5) for m in Measure} for u in tiny_split.users}
        user = int(tiny_split.users[2])
        assert len(rank(user, table.without(tiny_split.val.pairs))[0]) >= 5  # ranking of K
        if entry is None:
            del perk[user][Measure.F1]
        else:
            perk[user][Measure.F1] = entry
        with pytest.raises(ValueError, match=f"^user {user}: {message}$"):
            evaluate(tiny_split, table, perk, K=5)

    def test_looks_up_each_users_test_and_validation_items_once(self, tiny_split, monkeypatch):
        calls = []
        items_of = InteractionSet.items_of
        monkeypatch.setattr(InteractionSet, "items_of",
                            lambda iset, user: calls.append(user) or items_of(iset, user))
        table = ScoreTable.from_entries({int(u): (np.arange(8), np.zeros(8))
                                         for u in tiny_split.users})
        perk = {int(u): {m: (1, 0.5) for m in Measure} for u in tiny_split.users}
        evaluate(tiny_split, table, perk, K=5)
        assert sorted(calls) == sorted(2 * tiny_split.users.tolist())

    def test_perk_expected_is_the_mean_promise_over_evaluated_users(self, bundled_eval):
        split, table, params, report = bundled_eval
        perk = _perk_sizes(_served(split, table, params, K=20, M=200))
        users = sorted({row[0] for row in report.per_user})
        assert len(users) == report.n_users
        for measure in Measure:
            total = 0.0
            for user in users:
                total += perk[user][measure][1]
            assert report.perk_expected[measure.value] == total / len(users)

    def test_default_methods_list(self):
        methods = default_methods(50)
        assert methods[0] == METHOD_PERK
        assert "top-50" in methods and "top-1" in methods
        assert default_methods(10)[-3:] == ["rand", "val_k", "oracle"]
        assert "top-50" not in default_methods(10)


def _sparse_id_split(seed: int):
    """A split and score table over sparse int64 item ids around 10**12,
    where validation positives sit inside and beyond each user's top K.
    Every user scores five more ids: B, B + 2**32, B + 2**40, 2**62 - 1 and
    the largest int64, and every third user holds B as a validation
    positive, so (row, item) keys packed by a shift or a multiple of the
    largest id collide. One user has no test positive and one holds only
    validation positives."""
    rng = np.random.default_rng(seed)
    base = 10**12 - 7
    shared = np.array([base, base + 2**32, base + 2**40, 2**62 - 1, 2**63 - 1], dtype=np.int64)
    items = np.concatenate([10**12 + np.sort(rng.choice(10**9, 55, replace=False)) * 997, shared])
    users = list(range(5, 5 + 7 * 14, 7))
    entries, val, test = {}, [], []
    for row, user in enumerate(users):
        cand = np.concatenate([rng.choice(items[:-5], size=int(rng.integers(12, 45)),
                                          replace=False), shared])
        vals = rng.normal(size=len(cand)).round(1)  # ties to the lower item id
        entries[user] = (cand, vals)
        picks = rng.permutation(cand[cand != base])
        n_val = int(rng.integers(0, 7))
        val += [[user, i] for i in picks[:n_val].tolist()]
        val += [[user, int(rng.choice(items))]]  # maybe not a candidate
        val += [[user, base]] if row % 3 == 0 else []
        test += [[user, i] for i in picks[n_val : n_val + int(rng.integers(1, 6))].tolist()]
    test = [pair for pair in test if pair[0] != users[1]]  # no test positive
    only_val = users[2]
    only = np.unique([i for u, i in val if u == only_val])
    entries[only_val] = (only, np.zeros(len(only)))
    test += [[only_val, int(items[0])], [only_val, int(items[1])]]
    val = [pair for pair in val if pair[0] != only_val or pair[1] in entries[only_val][0]]

    def part(pairs):
        return InteractionSet.from_pairs(pairs, users=users, items=items)

    split = SplitDataset(train=part([]), val=part(val), test=part(test), seed=seed)
    return split, ScoreTable.from_entries(entries)


def _reference_report(split, table, perk, K, seed) -> EvaluationReport:
    """``evaluate`` as a loop over users with one ``np.isin`` per membership
    test and the exclusion applied to the whole ranking; every user has a
    PerK size."""
    methods = default_methods(K)
    skipped = dict.fromkeys(SKIP_REASONS, 0)
    per_measure = {m: [] for m in Measure}
    promised = {m: [] for m in Measure}
    for user in sorted(int(u) for u in split.users):
        test, val = split.test.items_of(user), split.val.items_of(user)
        if not len(test):
            skipped[SKIP_NO_TEST] += 1
            continue
        order = rank(user, table)[0] if user in table else np.empty(0, np.int64)
        ranking = order[~np.isin(order, val)][:K]
        if not len(ranking):
            skipped[SKIP_NO_CANDIDATES] += 1
            continue
        labels = np.isin(ranking, test).astype(float)
        val_labels = np.isin(order[:K], val).astype(float)
        for measure in Measure:
            realized = realized_curve(measure, labels, len(test))
            val_curve = realized_curve(measure, val_labels, len(val))
            sizes = {METHOD_ORACLE: _select(realized), "rand": baseline_rand(user, K, seed),
                     "val_k": _select(val_curve), METHOD_PERK: perk[user][measure][0]}
            promised[measure].append(perk[user][measure][1])
            for method in methods:
                k = min(sizes[method] if method in sizes else int(method[4:]), len(ranking))
                per_measure[measure].append((user, method, measure.value, k, realized[k - 1]))
    users = sorted({row[0] for rows in per_measure.values() for row in rows})
    averages = {method: {} for method in methods}
    for measure, rows in per_measure.items():
        for method in methods:
            total = 0.0
            for row in rows:
                if row[1] == method:
                    total += row[4]
            averages[method][measure.value] = total / len(users)
    perk_expected = {}
    for measure, values in promised.items():
        total = 0.0
        for value in values:
            total += value
        perk_expected[measure.value] = total / len(users)
    rows = [row for user in users for measure in Measure
            for row in per_measure[measure] if row[0] == user]
    return EvaluationReport(averages=averages, n_users=len(users), per_user=tuple(rows),
                            skipped=skipped, perk_expected=perk_expected)


class TestEvaluateMembership:
    """``evaluate`` tests membership once per block over (row, item) keys."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_user_isin_on_sparse_large_ids(self, seed):
        split, table = _sparse_id_split(seed)
        K = 10
        # every evaluated ranking holds K items, so any size in 1..K fits
        rng = np.random.default_rng(seed)
        perk = {int(u): {m: (int(rng.integers(1, K + 1)), float(rng.random())) for m in Measure}
                for u in split.users}
        report = evaluate(split, table, perk, K=K, seed=seed)
        assert report == _reference_report(split, table, perk, K, seed)
        assert report.skipped[SKIP_NO_TEST] == 1 and report.skipped[SKIP_NO_CANDIDATES] == 1
        # validation positives sit inside and beyond the evaluated top K
        places = [np.flatnonzero(np.isin(rank(u, table)[0], split.val.items_of(u)))
                  for u in table.users()]
        assert any((p < K).any() for p in places) and any((p >= K).any() for p in places)
