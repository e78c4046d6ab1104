import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from persize import dataset, scorer, selection, util
from persize.calibrate import PlattParams
from persize.cli import _read_curves, _read_platt, main
from persize.utility import Measure

BPR_TEST = {"d": 8, "epochs": 4, "learning_rate": 0.05}


def _write_config(tmp_path, data_path, workdir, **extra):
    cfg = {
        "data": str(data_path),
        "workdir": str(workdir),
        "seed": 0,
        "K": 10,
        "M": 100,
        "bpr": BPR_TEST,
        **extra,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _run(*argv):
    return main(list(argv))


def _digest_dir(workdir: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(workdir.iterdir())
        if p.is_file()
    }


def _full_pipeline(cfg_path, threads="1"):
    for stage in ("prepare", "train", "calibrate", "recommend", "evaluate"):
        code = _run(stage, "--config", str(cfg_path), "--threads", threads)
        assert code == 0, stage


class TestStages:
    def test_full_pipeline_produces_all_methods(self, tmp_path, bundled_path):
        workdir = tmp_path / "run"
        cfg = _write_config(tmp_path, bundled_path, workdir, K=50)
        _full_pipeline(cfg)
        report = json.loads((workdir / "eval_report.json").read_text())
        methods = set(report["averages"])
        assert methods == {
            "perk", "top-1", "top-5", "top-10", "top-20", "top-50",
            "rand", "val_k", "oracle",
        }
        for by_measure in report["averages"].values():
            assert set(by_measure) == {"ndcg", "pdcg", "f1", "tp"}
        assert report["n_users"] > 0

    def test_small_K_drops_oversized_fixed_baselines(self, tmp_path, bundled_path):
        workdir = tmp_path / "run"
        cfg = _write_config(tmp_path, bundled_path, workdir)  # K=10
        _full_pipeline(cfg)
        report = json.loads((workdir / "eval_report.json").read_text())
        assert "top-20" not in report["averages"]
        assert "top-10" in report["averages"]

    def test_outputs_carry_config_echo(self, tmp_path, bundled_path):
        workdir = tmp_path / "run"
        cfg = _write_config(tmp_path, bundled_path, workdir)
        _run("prepare", "--config", str(cfg))
        first = (workdir / "train.tsv").read_text().splitlines()[0]
        assert first.startswith("# persize prepare config=")

    def test_missing_inputs_fail_cleanly(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, tmp_path / "nope.tsv", tmp_path / "w")
        assert _run("train", "--config", str(cfg)) == 1
        assert "persize train" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"workdir": "w", "mystery": 1}))
        assert _run("prepare", "--config", str(path)) == 1
        assert "unknown config keys: mystery" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("exact_cap", 98),  # M is the one count bound
        ("exclude_val", True),  # the validation positives always leave the candidates
        ("baselines", ["perk", "oracle"]),  # evaluate scores default_methods(K)
    ])
    def test_removed_key_is_unknown(self, tmp_path, bundled_path, capsys, key, value):
        cfg = _write_config(tmp_path, bundled_path, tmp_path / "w", **{key: value})
        assert _run("prepare", "--config", str(cfg)) == 1
        assert capsys.readouterr().err == f"persize prepare: unknown config keys: {key}\n"
        assert not (tmp_path / "w").exists()

    def test_mode_is_an_unknown_key_and_flag(self, tmp_path, bundled_path, recommended_workdir,
                                             capsys):
        # expected_curves_batch is the one curve estimator
        workdir = tmp_path / "run"
        shutil.copytree(recommended_workdir, workdir)
        (workdir / "recs.tsv").unlink()
        cfg = _write_config(tmp_path, bundled_path, workdir, mode="approx")
        assert _run("recommend", "--config", str(cfg)) == 1
        assert capsys.readouterr().err == "persize recommend: unknown config keys: mode\n"
        cfg = _write_config(tmp_path, bundled_path, workdir)
        with pytest.raises(SystemExit) as usage:
            _run("recommend", "--config", str(cfg), "--mode", "exact")
        assert usage.value.code == 2
        assert "unrecognized arguments: --mode exact" in capsys.readouterr().err
        assert not (workdir / "recs.tsv").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--seed", "1"), ("--measure", "f1"), ("--K", "5"), ("--M", "10"),
    ])
    def test_removed_flag_is_unrecognized(self, tmp_path, bundled_path, capsys, flag, value):
        # the config file is the one source of these settings
        cfg = _write_config(tmp_path, bundled_path, tmp_path / "w")
        with pytest.raises(SystemExit) as usage:
            _run("prepare", "--config", str(cfg), flag, value)
        assert usage.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not (tmp_path / "w").exists()

    def test_calibration_is_an_unknown_key(self, tmp_path, bundled_path, calibrated_workdir,
                                           capsys):
        # calibration has no settings
        workdir = tmp_path / "run"
        shutil.copytree(calibrated_workdir, workdir)
        (workdir / "platt.tsv").unlink()
        cfg = _write_config(tmp_path, bundled_path, workdir, calibration={})
        assert _run("calibrate", "--config", str(cfg)) == 1
        assert capsys.readouterr().err == "persize calibrate: unknown config keys: calibration\n"
        assert not (workdir / "platt.tsv").exists()

    def test_calibrated_probabilities_sum_to_validation_positives(self, calibrated_workdir):
        # every fit sees all the candidates that recommend applies it to, so
        # at a converged or degenerate fit the intercept's stationarity makes
        # the calibrated probabilities sum to the labels
        split_ds = dataset.load_split(calibrated_workdir)
        table = scorer.load_scores(calibrated_workdir / "scores.bin")
        rows = [line.split("\t") for line in
                (calibrated_workdir / "platt.tsv").read_text().splitlines()[1:]]
        sums = {}  # scope -> (sum of calibrated p, validation positives)
        pooled_s, pooled_y = [], []
        for scope, a, b, status in rows[1:]:
            items, s = table.get(int(scope))
            y = np.isin(items, split_ds.val.items_of(int(scope)))
            pooled_s.append(s)
            pooled_y.append(y)
            if status in ("converged", "degenerate"):
                sums[scope] = (_sigmoid(float(a) * s + float(b)).sum(), y.sum())
        scope, a, b, _ = rows[0]
        assert scope == "GLOBAL"
        sums[scope] = (_sigmoid(float(a) * np.concatenate(pooled_s) + float(b)).sum(),
                       np.concatenate(pooled_y).sum())
        assert len(sums) > len(rows) // 2
        off = {scope: p - y for scope, (p, y) in sums.items() if abs(p - y) >= 1e-6}
        assert not off, off

    def test_data_directory_fails_in_one_line(self, tmp_path, bundled_path, capsys):
        cfg = _write_config(tmp_path, bundled_path.parent, tmp_path / "w")
        assert _run("prepare", "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert err.startswith("persize prepare: ") and err.count("\n") == 1, err
        assert "Is a directory" in err and str(bundled_path.parent) in err, err

    def test_empty_kcore_fails_in_one_line(self, tmp_path):
        log = tmp_path / "two.tsv"
        log.write_text("u1\ti1\nu2\ti2\n", encoding="utf-8")
        cfg = _write_config(tmp_path, log, tmp_path / "run", kcore=5)
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(  # a child process, so a warning would reach its stderr
            [sys.executable, "-m", "persize", "prepare", "--config", str(cfg)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr == "persize prepare: 5-core filtering left no interactions\n"

    def test_diverged_training_fails_in_one_line(self, tmp_path, bundled_path):
        workdir = tmp_path / "run"
        cfg = _write_config(tmp_path, bundled_path, workdir,
                            bpr={"d": 8, "epochs": 30, "learning_rate": 1e6})
        assert _run("prepare", "--config", str(cfg)) == 0
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(  # a child process, so numpy warnings would reach its stderr
            [sys.executable, "-m", "persize", "train", "--config", str(cfg)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr == ("persize train: ranking loss became non-finite at epoch 1 "
                               "(lr=1000000.0, wd=1e-05); lower the learning rate\n"), proc.stderr
        assert not (workdir / "scores.bin").exists()

    def test_id_map_without_seed_fails_in_one_line(self, tmp_path, bundled_path,
                                                   calibrated_workdir, capsys):
        workdir = tmp_path / "run"
        shutil.copytree(calibrated_workdir, workdir)
        id_map = json.loads((workdir / dataset.ID_MAP_FILE).read_text())
        del id_map["seed"]
        (workdir / dataset.ID_MAP_FILE).write_text(json.dumps(id_map))
        cfg = _write_config(tmp_path, bundled_path, workdir)
        assert _run("recommend", "--config", str(cfg)) == 1
        assert capsys.readouterr().err == (
            f"persize recommend: {workdir / dataset.ID_MAP_FILE}: expected an object with "
            "'users' and 'items' objects and an integer 'seed'\n")
        assert not (workdir / "recs.tsv").exists()

    def test_flag_overrides_win(self, tmp_path, bundled_path):
        workdir = tmp_path / "w1"
        cfg = _write_config(tmp_path, bundled_path, tmp_path / "ignored")
        assert _run("prepare", "--config", str(cfg), "--workdir", str(workdir)) == 0
        assert (workdir / "train.tsv").exists()

    def test_import_scores_pass_through(self, tmp_path, bundled_path):
        workdir = tmp_path / "run"
        cfg = _write_config(tmp_path, bundled_path, workdir)
        _run("prepare", "--config", str(cfg))
        _run("train", "--config", str(cfg))
        # re-train importing the previous stage's scores verbatim
        ext = tmp_path / "external_scores.tsv"
        ext.write_text((workdir / "scores.tsv").read_text())
        cfg2 = _write_config(tmp_path, bundled_path, workdir, scores=str(ext))
        assert _run("train", "--config", str(cfg2)) == 0
        assert (workdir / "scores.tsv").read_text().splitlines()[1:] == \
            ext.read_text().splitlines()[1:]

    def test_import_rejects_ids_outside_the_split(self, tmp_path, bundled_path, capsys):
        workdir = tmp_path / "run"
        cfg = _write_config(tmp_path, bundled_path, workdir)
        assert _run("prepare", "--config", str(cfg)) == 0
        id_map = json.loads((workdir / "id_map.json").read_text())
        n_users, n_items = len(id_map["users"]), len(id_map["items"])
        ext = tmp_path / "external_scores.tsv"
        for row, message in [(f"{n_users}\t0\t0.5", f"user id {n_users} is outside"),
                             (f"0\t{n_items}\t0.5", f"item id {n_items} is outside")]:
            ext.write_text(f"# external\n0\t1\t0.25\n{row}\n")
            cfg2 = _write_config(tmp_path, bundled_path, workdir, scores=str(ext))
            assert _run("train", "--config", str(cfg2)) == 1
            assert f"{ext}: line 3: {message}" in capsys.readouterr().err
        assert not (workdir / "scores.bin").exists()

    def test_later_stages_read_the_score_store(self, tmp_path, bundled_path):
        workdir = tmp_path / "run"
        cfg = _write_config(tmp_path, bundled_path, workdir)
        _full_pipeline(cfg)
        before = _digest_dir(workdir)
        (workdir / "scores.tsv").unlink()
        for stage in ("calibrate", "recommend", "evaluate"):
            assert _run(stage, "--config", str(cfg)) == 0, stage
        del before["scores.tsv"]
        assert _digest_dir(workdir) == before

    def test_missing_score_store_fails_cleanly(self, tmp_path, bundled_path, capsys):
        workdir = tmp_path / "run"
        cfg = _write_config(tmp_path, bundled_path, workdir)
        for stage in ("prepare", "train"):
            assert _run(stage, "--config", str(cfg)) == 0
        (workdir / "scores.bin").unlink()
        assert _run("calibrate", "--config", str(cfg)) == 1
        assert "scores.bin" in capsys.readouterr().err


class TestCrossStageParity:
    def test_recs_and_evaluate_share_the_library_routine(self, tmp_path, bundled_path):
        workdir = tmp_path / "run"
        cfg = _write_config(tmp_path, bundled_path, workdir)
        _full_pipeline(cfg)
        split_ds = dataset.load_split(workdir)
        table = scorer.load_scores(workdir / "scores.bin")
        params, _ = _read_platt(workdir / "platt.tsv")

        recs = {}
        for line in (workdir / "recs.tsv").read_text().splitlines():
            assert not line.startswith("# skipped"), line
            if line.startswith("#"):
                continue
            user, measure, k, value, items = line.split("\t")
            recs[(int(user), measure)] = (int(k), value, items)
        assert {u for u, _ in recs} == set(params)
        # the stage pads each block of users, so its values equal the library
        # routine's over the same blocks (a one-user call moves low bits)
        lib = selection.recommend_users(table.without(split_ds.val.pairs), params,
                                        list(Measure), K=10, M=100)
        assert list(lib) == sorted(params)
        for user, by_measure in lib.items():
            for measure, rec in by_measure.items():
                want = (rec.k_max, repr(rec.expected_value),
                        ",".join(str(i) for i in rec.items))
                assert recs[(user, measure.value)] == want, (user, measure)

        perk_rows = 0
        for line in (workdir / "eval_per_user.tsv").read_text().splitlines():
            if line.startswith("#"):
                continue
            user, method, measure, k, _ = line.split("\t")
            if method == "perk":
                assert int(k) == recs[(int(user), measure)][0], (user, measure)
                perk_rows += 1
        assert perk_rows > 0


@pytest.fixture(scope="module")
def calibrated_workdir(tmp_path_factory, bundled_path):
    """A bundled-data workdir after prepare, train and calibrate."""
    base = tmp_path_factory.mktemp("calibrated")
    cfg = _write_config(base, bundled_path, base / "run")
    for stage in ("prepare", "train", "calibrate"):
        assert _run(stage, "--config", str(cfg)) == 0, stage
    return base / "run"


class TestRecommendBlocks:
    def test_block_membership_is_thread_invariant(self, tmp_path, calibrated_workdir,
                                                  bundled_path, monkeypatch):
        workdir = tmp_path / "run"
        shutil.copytree(calibrated_workdir, workdir)
        cfg = _write_config(tmp_path, bundled_path, workdir)
        calls = []

        def recording(probs, *args, **kwargs):
            calls.append((probs.shape, hashlib.sha256(probs.tobytes()).hexdigest()))
            return batch(probs, *args, **kwargs)

        batch = selection.expected_curves_batch
        monkeypatch.setattr(selection, "expected_curves_batch", recording)
        seen, outputs = {}, {}
        for threads in ("1", "2", "8"):
            calls.clear()
            assert _run("recommend", "--config", str(cfg), "--threads", threads) == 0
            seen[threads] = sorted(calls)
            outputs[threads] = (workdir / "recs.tsv").read_bytes()
        assert len(seen["1"]) > 1  # several blocks, so the pool has work to share
        assert seen["1"] == seen["2"] == seen["8"]
        assert outputs["1"] == outputs["2"] == outputs["8"]

    def test_validation_positives_leave_the_candidates(self, tmp_path, calibrated_workdir,
                                                       bundled_path):
        # one validation positive outscores its user's every other candidate
        workdir = tmp_path / "run"
        shutil.copytree(calibrated_workdir, workdir)
        split_ds = dataset.load_split(workdir)
        table = scorer.load_scores(workdir / "scores.bin")
        entries = {u: table.get(u) for u in table.users()}
        user = next(u for u in table.users() if len(split_ds.val.items_of(u)))
        item = int(split_ds.val.items_of(user)[0])
        items, scores = entries[user]
        entries[user] = (items, np.where(items == item, scores.max() + 1.0, scores))
        table = scorer.ScoreTable.from_entries(entries)
        scorer.save_scores(table, workdir / "scores.bin")
        cfg = _write_config(tmp_path, bundled_path, workdir)
        assert _run("recommend", "--config", str(cfg)) == 0

        recs = {}
        for line in (workdir / "recs.tsv").read_text().splitlines()[1:]:
            u, measure, k, value, listed = line.split("\t")
            recs[(int(u), measure)] = (int(k), value, [int(i) for i in listed.split(",")])
        params, _ = _read_platt(workdir / "platt.tsv")
        shown = table.without(split_ds.val.pairs)
        lib = selection.recommend_users(shown, params, list(Measure), K=10, M=100)
        assert {u for u, _ in recs} == set(lib) == set(table.users())
        for u, by_measure in lib.items():
            for measure, rec in by_measure.items():
                assert recs[(u, measure.value)] == (
                    rec.k_max, repr(rec.expected_value), rec.items.tolist()), (u, measure)
        heads = {listed[0] for (u, _), (_, _, listed) in recs.items() if u == user}
        assert item not in heads
        for (u, _), (_, _, listed) in recs.items():
            assert not set(listed) & set(split_ds.val.items_of(u).tolist()), u

    def test_evaluate_reads_the_recommend_sizes(self, tmp_path, calibrated_workdir,
                                                bundled_path, monkeypatch, capsys):
        workdir = tmp_path / "run"
        shutil.copytree(calibrated_workdir, workdir)
        cfg = _write_config(tmp_path, bundled_path, workdir)
        split_ds = dataset.load_split(workdir)
        table = scorer.load_scores(workdir / "scores.bin")
        params, _ = _read_platt(workdir / "platt.tsv")
        # a served user loses its test positives: it keeps its recs.tsv rows,
        # and evaluate leaves it out
        user = next(u for u in selection.served_users(table, params)
                    if len(split_ds.test.items_of(u)))
        test_path = workdir / dataset.SPLIT_FILES[2]
        rows = [line for line in test_path.read_text().splitlines()
                if line.startswith("#") or int(line.split("\t")[0]) != user]
        test_path.write_text("\n".join(rows) + "\n")
        assert len(dataset.load_split(workdir).test.items_of(user)) == 0

        def recording(name, fn):
            def record(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return record

        for name in ("recommend_users", "expected_curves_batch"):
            monkeypatch.setattr(selection, name, recording(name, getattr(selection, name)))
        seen = {}
        for stage in ("recommend", "evaluate"):
            calls = []
            assert _run(stage, "--config", str(cfg), "--threads", "2") == 0
            seen[stage] = calls
        assert seen["recommend"].count("recommend_users") == 1
        assert seen["recommend"].count("expected_curves_batch") > 1
        assert seen["evaluate"] == []
        assert "evaluate: skipped 1 users (1 no_test_positives, " in capsys.readouterr().out

        recs = {}
        for line in (workdir / "recs.tsv").read_text().splitlines():
            if not line.startswith("#"):
                u, measure, k, _, _ = line.split("\t")
                recs[(int(u), measure)] = int(k)
        perk = {}
        for line in (workdir / "eval_per_user.tsv").read_text().splitlines():
            if not line.startswith("#") and line.split("\t")[1] == "perk":
                u, _, measure, k, _ = line.split("\t")
                perk[(int(u), measure)] = int(k)
        assert (user, "f1") in recs and (user, "f1") not in perk
        assert perk and all(recs[key] == k for key, k in perk.items())

    def test_skipped_users_are_counted_apart(self, tmp_path, calibrated_workdir,
                                             bundled_path, capsys):
        workdir = tmp_path / "run"
        shutil.copytree(calibrated_workdir, workdir)
        cfg = _write_config(tmp_path, bundled_path, workdir)
        split_ds = dataset.load_split(workdir)
        table = scorer.load_scores(workdir / "scores.bin")
        entries = {u: table.get(u) for u in table.users()}
        user = next(u for u in table.users() if len(split_ds.val.items_of(u)))
        val = split_ds.val.items_of(user)
        entries[user] = (val, np.zeros(len(val)))  # every candidate is excluded
        scorer.save_scores(scorer.ScoreTable.from_entries(entries), workdir / "scores.bin")
        capsys.readouterr()
        assert _run("recommend", "--config", str(cfg)) == 0
        out = capsys.readouterr().out
        assert f"wrote sizes for {len(entries) - 1} users, skipped 1 -> " in out
        assert f"# skipped user={user}: no candidates" in (workdir / "recs.tsv").read_text()
        assert _run("evaluate", "--config", str(cfg)) == 0
        out = capsys.readouterr().out
        assert "evaluate: skipped 1 users (0 no_test_positives, 1 no_candidates, " \
            "0 no_perk_size)" in out

    def test_no_candidates_is_told_before_a_missing_platt_row(self, tmp_path,
                                                               calibrated_workdir,
                                                               bundled_path, capsys):
        # every candidate is a validation positive and the Platt row is gone:
        # recommend and evaluate both name the missing candidates
        workdir = tmp_path / "run"
        shutil.copytree(calibrated_workdir, workdir)
        cfg = _write_config(tmp_path, bundled_path, workdir)
        split_ds = dataset.load_split(workdir)
        table = scorer.load_scores(workdir / "scores.bin")
        entries = {u: table.get(u) for u in table.users()}
        user = next(u for u in table.users()
                    if len(split_ds.val.items_of(u)) and len(split_ds.test.items_of(u)))
        val = split_ds.val.items_of(user)
        entries[user] = (val, np.zeros(len(val)))
        scorer.save_scores(scorer.ScoreTable.from_entries(entries), workdir / "scores.bin")
        platt = workdir / "platt.tsv"
        rows = [line for line in platt.read_text().splitlines()
                if line.split("\t")[0] != str(user)]
        platt.write_text("\n".join(rows) + "\n")
        capsys.readouterr()
        assert _run("recommend", "--config", str(cfg)) == 0
        assert f"# skipped user={user}: no candidates" in (workdir / "recs.tsv").read_text()
        assert _run("evaluate", "--config", str(cfg)) == 0
        assert "evaluate: skipped 1 users (0 no_test_positives, 1 no_candidates, " \
            "0 no_perk_size)" in capsys.readouterr().out

    def test_users_without_platt_row_are_skipped(self, tmp_path, calibrated_workdir,
                                                 bundled_path, capsys):
        workdir = tmp_path / "run"
        shutil.copytree(calibrated_workdir, workdir)
        cfg = _write_config(tmp_path, bundled_path, workdir)
        split_ds = dataset.load_split(workdir)
        table = scorer.load_scores(workdir / "scores.bin")
        user = next(u for u in table.users()[1:-1] if len(split_ds.test.items_of(u)))
        platt = workdir / "platt.tsv"
        rows = [line for line in platt.read_text().splitlines()
                if line.split("\t")[0] != str(user)]
        platt.write_text("\n".join(rows) + "\n")
        capsys.readouterr()
        assert _run("recommend", "--config", str(cfg)) == 0
        out = capsys.readouterr().out
        assert f"wrote sizes for {len(table) - 1} users, skipped 1 -> " in out
        recs = (workdir / "recs.tsv").read_text().splitlines()[1:]
        skip = recs.index(f"# skipped user={user}: no Platt parameters")
        # the skip row keeps its place in user order
        assert int(recs[skip - 1].split("\t")[0]) < user < int(recs[skip + 1].split("\t")[0])
        assert _run("evaluate", "--config", str(cfg)) == 0
        out = capsys.readouterr().out
        assert "evaluate: skipped 1 users (0 no_test_positives, 0 no_candidates, " \
            "1 no_perk_size)" in out


    def test_user_without_candidates_is_labelled_and_counted(self, tmp_path, bundled_path,
                                                              capsys):
        # user 0's train part holds every item, so it is scored with no candidates
        workdir = tmp_path / "run"
        cfg = _write_config(tmp_path, bundled_path, workdir)
        assert _run("prepare", "--config", str(cfg)) == 0
        n_items = len(dataset.load_split(workdir).items)
        train = workdir / dataset.SPLIT_FILES[0]
        train.write_text(train.read_text() + "".join(f"0\t{i}\n" for i in range(n_items)))
        split_ds = dataset.load_split(workdir)
        np.testing.assert_array_equal(split_ds.train.items_of(0), split_ds.items)
        assert len(split_ds.test.items_of(0)) and len(split_ds.val.items_of(0))
        n_users = len(split_ds.users)
        capsys.readouterr()
        for stage in ("train", "calibrate", "recommend", "evaluate"):
            assert _run(stage, "--config", str(cfg)) == 0, stage
        out = capsys.readouterr().out
        assert f"train: scored {n_users} users" in out
        assert f"calibrate: {n_users - 1} users (" in out
        assert "1 skipped with no candidates), ECE" in out
        assert f"wrote sizes for {n_users - 1} users, skipped 1 -> " in out
        recs = (workdir / "recs.tsv").read_text().splitlines()
        assert recs[1] == "# skipped user=0: no candidates"
        assert "evaluate: skipped 1 users (0 no_test_positives, 1 no_candidates, " \
            "0 no_perk_size)" in out


class TestPlattFile:
    @pytest.mark.parametrize("row, why", [
        ("{u}\tnan\tnan\tconverged", "non-finite"),
        ("{u}\t{a}\tnan\tconverged", "non-finite"),
        ("{u}\t{a}\tinf\tconverged", "non-finite"),
        ("{u}\t{a}\t{b}", "expected 'user<TAB>a<TAB>b<TAB>fit_status'"),
        ("u{u}\t{a}\t{b}\tconverged", "scope 'u{u}' is neither GLOBAL nor an int64 user id"),
        ("{u}\t{a}\tslope\tconverged", "malformed row"),
        ("GLOBAL\t{a}\t{b}\tconverged", "repeated row for GLOBAL"),
        ("{u}\t{a}\t{b}\tconverged\n{u}\t1.0\t-3.0\tconverged", "repeated row for user {u}"),
    ], ids=["nan_row", "nan_b", "inf_b", "three_columns", "non_numeric_user", "non_numeric_b",
            "repeated_global", "repeated_user"])
    def test_malformed_row_rejected(self, tmp_path, bundled_path, calibrated_workdir,
                                    capsys, row, why):
        workdir = tmp_path / "run"
        shutil.copytree(calibrated_workdir, workdir)
        platt = workdir / "platt.tsv"
        lines = platt.read_text().splitlines()
        assert lines[2].count("\t") == 3  # header, GLOBAL, then the first user
        u, a, b, _ = lines[2].split("\t")
        lines[2] = row.format(u=u, a=a, b=b)
        platt.write_text("\n".join(lines) + "\n")
        cfg = _write_config(tmp_path, bundled_path, workdir)
        bad_line = 3 + row.count("\n")  # the last of the row's lines is the bad one
        assert _run("recommend", "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert f"platt.tsv: line {bad_line}: " in err and why.format(u=u) in err, err
        assert not (workdir / "recs.tsv").exists()
        # evaluate reads PerK's sizes, not platt.tsv, so it names the missing recs.tsv
        assert _run("evaluate", "--config", str(cfg)) == 1
        assert f"{workdir / 'recs.tsv'} is missing; run recommend first" in \
            capsys.readouterr().err
        assert not (workdir / "eval_report.json").exists()


@pytest.fixture(scope="module")
def recommended_workdir(tmp_path_factory, bundled_path, calibrated_workdir):
    """``calibrated_workdir`` after recommend, with the config it ran."""
    base = tmp_path_factory.mktemp("recommended")
    shutil.copytree(calibrated_workdir, base / "run")
    assert _run("recommend", "--config", str(_write_config(base, bundled_path, base / "run"))) == 0
    return base / "run"


def _no_eval_files(workdir: Path) -> bool:
    return not list(workdir.glob("eval_*"))


class TestRecsFile:
    """evaluate takes PerK's sizes from recs.tsv, and only from the recs.tsv
    that recommend wrote for the same inputs and config."""

    def _copy(self, tmp_path, bundled_path, recommended_workdir, **extra):
        workdir = tmp_path / "run"
        shutil.copytree(recommended_workdir, workdir)
        return workdir, _write_config(tmp_path, bundled_path, workdir, **extra)

    def test_missing_recs_rejected(self, tmp_path, bundled_path, recommended_workdir, capsys):
        workdir, cfg = self._copy(tmp_path, bundled_path, recommended_workdir)
        (workdir / "recs.tsv").unlink()
        assert _run("evaluate", "--config", str(cfg)) == 1
        assert f"{workdir / 'recs.tsv'} is missing; run recommend first" in \
            capsys.readouterr().err
        assert _no_eval_files(workdir)

    def test_recs_header_carries_the_inputs_digest(self, recommended_workdir):
        header = (recommended_workdir / "recs.tsv").read_text().splitlines()[0]
        assert re.fullmatch(r"# persize recommend config=\{.*\} inputs=[0-9a-f]{64}", header)

    @pytest.mark.parametrize("key, value", [
        ("K", 9), ("M", 99),
        ("measures", ["f1"]),  # fewer measures: refused by the digest before any row check
        ("measures", ["ndcg", "pdcg", "f1"]),
    ])
    def test_config_changed_after_recommend_rejected(self, tmp_path, bundled_path,
                                                     recommended_workdir, capsys, key, value):
        workdir, cfg = self._copy(tmp_path, bundled_path, recommended_workdir, **{key: value})
        assert _run("evaluate", "--config", str(cfg)) == 1
        assert f"{workdir / 'recs.tsv'} was built from other inputs or config; " \
            "rerun recommend" in capsys.readouterr().err
        assert _no_eval_files(workdir)

    @pytest.mark.parametrize("name", ["scores.bin", "platt.tsv", "val.tsv"])
    def test_input_changed_after_recommend_rejected(self, tmp_path, bundled_path,
                                                    recommended_workdir, capsys, name):
        workdir, cfg = self._copy(tmp_path, bundled_path, recommended_workdir)
        if name == "scores.bin":
            table = scorer.load_scores(workdir / name)
            entries = {u: table.get(u) for u in table.users()}
            items, vals = entries[table.users()[0]]
            entries[table.users()[0]] = (items, vals + 1e-9)
            scorer.save_scores(scorer.ScoreTable.from_entries(entries), workdir / name)
        else:  # same rows, other bytes
            (workdir / name).write_text((workdir / name).read_text() + "# edited\n")
        assert _run("evaluate", "--config", str(cfg)) == 1
        assert f"{workdir / 'recs.tsv'} was built from other inputs or config; " \
            "rerun recommend" in capsys.readouterr().err
        assert _no_eval_files(workdir)

    @pytest.mark.parametrize("edit, why", [
        (lambda rows: rows.__setitem__(1, re.sub(r"\t\w+\t", "\tmap\t", rows[1], count=1)),
         "line 2: measure 'map' is not one of ndcg, pdcg, f1, tp"),
        (lambda rows: rows.__setitem__(1, _set_field(rows[1], 2, "0")),
         "line 2: size k must be in 1..10, got 0"),
        (lambda rows: rows.__setitem__(1, _set_field(rows[1], 2, "11")),
         "line 2: size k must be in 1..10, got 11"),
        (lambda rows: rows.__setitem__(2, rows[1]),
         "line 3: repeated row for user {u}, measure ndcg"),
        (lambda rows: rows.pop(1), "user {u} has no row for measure ndcg"),
        (lambda rows: rows.__setitem__(1, rows[1].rsplit("\t", 1)[0]),
         "line 2: expected 'user<TAB>measure<TAB>k<TAB>expected_value<TAB>items'"),
    ], ids=["unknown_measure", "k_zero", "k_above_K", "repeated_row", "missing_measure",
            "four_columns"])
    def test_malformed_row_rejected(self, tmp_path, bundled_path, recommended_workdir, capsys,
                                    edit, why):
        workdir, cfg = self._copy(tmp_path, bundled_path, recommended_workdir)
        path = workdir / "recs.tsv"
        rows = path.read_text().splitlines()
        u = rows[1].split("\t")[0]
        assert rows[1].split("\t")[1] == "ndcg" and rows[2].split("\t")[1] == "pdcg"
        edit(rows)
        path.write_text("\n".join(rows) + "\n")
        assert _run("evaluate", "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert f"{path}: {why.format(u=u)}" in err, err
        assert _no_eval_files(workdir)

    def test_perk_expected_is_the_mean_of_recs_column_4(self, tmp_path, bundled_path,
                                                         recommended_workdir):
        workdir, cfg = self._copy(tmp_path, bundled_path, recommended_workdir)
        # one served user without test positives is not evaluated, so its
        # promise stays out of the mean
        split_ds = dataset.load_split(workdir)
        gone = next(u for u in split_ds.users.tolist() if len(split_ds.test.items_of(u)))
        test_path = workdir / dataset.SPLIT_FILES[2]
        rows = [line for line in test_path.read_text().splitlines()
                if line.startswith("#") or int(line.split("\t")[0]) != gone]
        test_path.write_text("\n".join(rows) + "\n")
        assert _run("evaluate", "--config", str(cfg)) == 0
        evaluated = sorted({int(line.split("\t")[0]) for line in
                            (workdir / "eval_per_user.tsv").read_text().splitlines()[1:]})
        assert gone not in evaluated
        promised = {}
        for line in (workdir / "recs.tsv").read_text().splitlines()[1:]:
            user, measure, _, value, _ = line.split("\t")
            promised[(int(user), measure)] = float(value)
        assert (gone, "f1") in promised
        report = json.loads((workdir / "eval_report.json").read_text())
        want = {}
        for measure in ("ndcg", "pdcg", "f1", "tp"):
            total = 0.0
            for user in evaluated:  # user order, one addition at a time
                total += promised[(user, measure)]
            want[measure] = total / len(evaluated)
        assert report["perk_expected"] == want
        assert "perk_expected" not in report["averages"]

class TestCountBound:
    """M truncates the count sum; it refuses no user."""

    def _recommend(self, tmp_path, bundled_path, calibrated_workdir):
        """recommend with M one below the largest candidate count: (exit code,
        candidate counts, M, users with a list, comment rows)."""
        workdir = tmp_path / "run"
        shutil.copytree(calibrated_workdir, workdir)
        split_ds = dataset.load_split(workdir)
        table = scorer.load_scores(workdir / "scores.bin")
        shown = table.without(split_ds.val.pairs)
        counts = {u: len(selection.rank(u, shown)[0]) for u in table.users()}
        M = max(counts.values()) - 1
        cfg = _write_config(tmp_path, bundled_path, workdir, M=M)
        code = _run("recommend", "--config", str(cfg))
        rows = (workdir / "recs.tsv").read_text().splitlines()[1:]
        listed = {int(row.split("\t")[0]) for row in rows if not row.startswith("#")}
        return code, counts, M, listed, [row for row in rows if row.startswith("#")]

    def test_approx_mode_serves_every_user(self, tmp_path, bundled_path, calibrated_workdir):
        code, counts, _, listed, comments = self._recommend(tmp_path, bundled_path,
                                                            calibrated_workdir)
        assert code == 0 and comments == [] and listed == set(counts)


def _set_field(row: str, column: int, value: str) -> str:
    fields = row.split("\t")
    fields[column] = value
    return "\t".join(fields)


class TestConfigValues:
    @pytest.mark.parametrize("key, value", [
        ("K", "5"), ("M", 2.5), ("seed", True), ("threads", "2"), ("kcore", None),
    ])
    def test_non_integer_value_rejected(self, tmp_path, capsys, key, value):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"workdir": str(tmp_path / "w"), key: value}))
        assert _run("prepare", "--config", str(path)) == 1
        low = 0 if key == "seed" else 1
        assert f"{key} must be an integer >= {low}, got {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, low", [
        ("K", 0, 1), ("M", 0, 1), ("threads", -4, 1), ("seed", -1, 0), ("kcore", 0, 1),
    ])
    def test_integer_below_bound_rejected(self, tmp_path, capsys, key, value, low):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"workdir": str(tmp_path / "w"), key: value}))
        assert _run("prepare", "--config", str(path)) == 1
        err = capsys.readouterr().err
        assert f"{key} must be an integer >= {low}, got {value}" in err and err.count("\n") == 1, err
        assert not (tmp_path / "w").exists()

    def test_negative_ratio_rejected(self, tmp_path, bundled_path, capsys):
        workdir = tmp_path / "run"
        cfg = _write_config(tmp_path, bundled_path, workdir, ratios=[1.2, -0.1, -0.1])
        assert _run("prepare", "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert "ratios must be non-negative, got (1.2, -0.1, -0.1)" in err, err
        assert err.count("\n") == 1 and not (workdir / dataset.SPLIT_FILES[0]).exists()

    @pytest.mark.parametrize("key, value", [
        ("negatives_per_positive", 0), ("epochs", -1), ("d", 2.5), ("learning_rate", "0.05"),
    ])
    def test_invalid_bpr_value_rejected(self, tmp_path, bundled_path, capsys, key, value):
        workdir = tmp_path / "run"
        cfg = _write_config(tmp_path, bundled_path, workdir, bpr={**BPR_TEST, key: value})
        assert _run("prepare", "--config", str(cfg)) == 0
        assert _run("train", "--config", str(cfg)) == 1
        assert f"BPRConfig.{key} must be" in capsys.readouterr().err
        assert not (workdir / "scores.bin").exists()

    @pytest.mark.parametrize("key, value", [("dump_curves", 0), ("dump_curves", "true")])
    def test_non_boolean_value_rejected(self, tmp_path, capsys, key, value):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"workdir": str(tmp_path / "w"), key: value}))
        assert _run("prepare", "--config", str(path)) == 1
        assert f"{key} must be true or false, got {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        pytest.param("allow_zero", False, "unknown allocate keys: allow_zero",
                     id="allow_zero-False-unknown-key"),
        pytest.param("allow_zero", True, "unknown allocate keys: allow_zero",
                     id="allow_zero-True-unknown-key"),
        ("budget", 2.7, "allocate.budget must be an integer >= 0, got 2.7"),
        ("budget", True, "allocate.budget must be an integer >= 0, got True"),
        ("budget", -1, "allocate.budget must be an integer >= 0, got -1"),
        ("budget", "3", "allocate.budget must be an integer >= 0, got '3'"),
        ("domains", [], "allocate.domains must be a non-empty list, got []"),
        ("domains", {"id": "a"}, "allocate.domains must be a non-empty list, got {'id': 'a'}"),
        ("domains", [{"id": "a", "curves": "a.tsv"}, {"id": "b", "curves": "b.tsv"},
                     {"id": "a", "curves": "c.tsv"}], "allocate.domains[2] repeats id 'a'"),
    ])
    def test_bad_allocate_value_rejected(self, tmp_path, capsys, key, value, message):
        path = tmp_path / "alloc.json"
        path.write_text(json.dumps({
            "workdir": str(tmp_path / "alloc"),
            "allocate": {"budget": 3, "domains": [{"id": "a", "curves": "a.tsv"}],
                         key: value},
        }))
        assert _run("allocate", "--config", str(path)) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "alloc").exists()

    def test_repeated_measure_rejected(self, tmp_path, capsys):
        # a repeated measure would write every user's rows twice and double
        # evaluate's averages
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"workdir": str(tmp_path / "w"),
                                    "measures": ["f1", "tp", "f1"]}))
        assert _run("recommend", "--config", str(path)) == 1
        assert "repeated measure: f1" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, message", [
        ({"measures": []}, "measures is empty: no measure to evaluate"),
        ({"allocate": ["budget"]}, "allocate must be an object, got ['budget']"),
        ({"ratios": 5}, "ratios must be a list of three numbers, got 5"),
        ({"ratios": ["a", "b", "c"]},
         "ratios must be a list of three numbers, got ['a', 'b', 'c']"),
        ({"ratios": [1, 0, False]}, "ratios must be a list of three numbers, got [1, 0, False]"),
        ({"ratios": [0.5, 0.5]}, "ratios must be a list of three numbers, got [0.5, 0.5]"),
        ({"bpr": 3}, "bpr must be an object, got 3"),
        ({"measures": "f1"}, "measures must be a list, got 'f1'"),
    ])
    def test_empty_measures_or_non_object_allocate_rejected(self, tmp_path, capsys, extra,
                                                             message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"workdir": str(tmp_path / "w"), **extra}))
        assert _run("recommend", "--config", str(path)) == 1
        assert message in capsys.readouterr().err

    def test_non_string_measure_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"workdir": str(tmp_path / "w"), "measures": ["f1", 5]}))
        assert _run("prepare", "--config", str(path)) == 1
        assert "unknown measures: 5" in capsys.readouterr().err

    @pytest.mark.parametrize("domain, key", [
        ({"curves": "c.tsv"}, "id"), ({"id": "b"}, "curves"), ("c.tsv", "id"),
    ])
    def test_domain_without_key_rejected(self, tmp_path, capsys, domain, key):
        path = tmp_path / "alloc.json"
        path.write_text(json.dumps({
            "workdir": str(tmp_path / "alloc"),
            "allocate": {"budget": 3, "domains": [{"id": "a", "curves": "a.tsv"}, domain]},
        }))
        assert _run("allocate", "--config", str(path)) == 1
        assert f"allocate.domains[1] needs '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("stage, extra, message", [
        ("prepare", {"data": 0}, "data must be a non-empty string, got 0"),
        ("prepare", {"data": ""}, "data must be a non-empty string, got ''"),
        ("prepare", {"workdir": 5}, "workdir must be a non-empty string, got 5"),
        ("train", {"scores": ["s.tsv"]}, "scores must be a non-empty string, got ['s.tsv']"),
        ("allocate", {"allocate": {"budget": 3, "domains": [{"id": "a", "curves": 7}]}},
         "allocate.domains[0].curves must be a non-empty string, got 7"),
        ("allocate", {"allocate": {"budget": 3, "domains": [
            {"id": "a", "curves": "a.tsv"}, {"id": ["a"], "curves": "b.tsv"}]}},
         "allocate.domains[1].id must be a string, got ['a']"),
        ("allocate", {"allocate": {"budget": 3, "domains": [{"id": 1, "curves": "a.tsv"}]}},
         "allocate.domains[0].id must be a string, got 1"),
        ("allocate", {"allocate": {"budget": 3, "measure": "map",
                                   "domains": [{"id": "a", "curves": "a.tsv"}]}},
         "allocate.measure must be one of ndcg, pdcg, f1, tp, got 'map'"),
        ("evaluate", {"allocate": {"measure": ["f1"]}},
         "allocate.measure must be one of ndcg, pdcg, f1, tp, got ['f1']"),
        ("recommend", {"measures": [["f1"]]}, "unknown measures: ['f1']"),
        ("recommend", 5, "bad.json: expected a JSON object, got 5"),
        ("recommend", None, "bad.json: expected a JSON object, got null"),
        ("recommend", [1], "bad.json: expected a JSON object, got [1]"),
        ("recommend", [], "bad.json: expected a JSON object, got []"),
        ("recommend", "ab", 'bad.json: expected a JSON object, got "ab"'),
    ], ids=["data_int", "data_empty", "workdir_int", "scores_list", "curves_int", "id_list",
            "id_int", "measure_unknown", "measure_list", "measures_nested", "config_int",
            "config_null", "config_list", "config_empty_list", "config_string"])
    def test_bad_path_id_or_measure_rejected(self, tmp_path, capsys, stage, extra, message):
        # a config that is not an object is written as it is
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"workdir": str(tmp_path / "w"), **extra}
                                   if isinstance(extra, dict) else extra))
        assert _run(stage, "--config", str(path)) == 1
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1, err
        assert not (tmp_path / "w").exists()


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path, bundled_path):
        workdir = tmp_path / "run"
        cfg = _write_config(tmp_path, bundled_path, workdir)
        _full_pipeline(cfg)
        first = _digest_dir(workdir)
        _full_pipeline(cfg)
        assert _digest_dir(workdir) == first

    def test_thread_count_never_changes_bytes(self, tmp_path, bundled_path):
        workdir = tmp_path / "run"
        cfg = _write_config(tmp_path, bundled_path, workdir)
        _full_pipeline(cfg, threads="1")
        single = _digest_dir(workdir)
        _full_pipeline(cfg, threads="8")
        assert _digest_dir(workdir) == single


class TestAllocate:
    def test_allocates_across_two_domains(self, tmp_path, bundled_path):
        workdirs = []
        for name, seed in (("east", 0), ("west", 1)):
            workdir = tmp_path / name
            cfg = _write_config(
                tmp_path, bundled_path, workdir, seed=seed, dump_curves=True, measures=["f1"]
            )
            for stage in ("prepare", "train", "calibrate", "recommend"):
                assert _run(stage, "--config", str(cfg)) == 0
            workdirs.append(workdir)

        out = tmp_path / "alloc"
        alloc_cfg = tmp_path / "alloc.json"
        alloc_cfg.write_text(json.dumps({
            "workdir": str(out),
            "measures": ["f1"],
            "allocate": {
                "budget": 12,
                "domains": [
                    {"id": "east", "curves": str(workdirs[0] / "curves.tsv")},
                    {"id": "west", "curves": str(workdirs[1] / "curves.tsv")},
                ],
            },
        }))
        assert _run("allocate", "--config", str(alloc_cfg)) == 0
        rows = [
            line.split("\t")
            for line in (out / "allocations.tsv").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        by_user = {}
        for user, domain, k in rows:
            by_user.setdefault(user, {})[domain] = int(k)
        assert by_user
        for user, sizes in by_user.items():
            assert set(sizes) == {"east", "west"}
            assert sum(sizes.values()) <= 12
        report = json.loads((out / "allocation_report.json").read_text())
        assert report["n_users"] == len(by_user)

    @staticmethod
    def _allocate_bad_dump(tmp_path, rows, capsys):
        good = tmp_path / "good.tsv"
        good.write_text("".join(f"0\tf1\t{k}\t0.{k}\n" for k in (1, 2)))
        bad = tmp_path / "bad.tsv"
        bad.write_text("# curves\n" + "".join(f"{row}\n" for row in rows))
        cfg = tmp_path / "alloc.json"
        cfg.write_text(json.dumps({
            "workdir": str(tmp_path / "alloc"),
            "measures": ["f1"],
            "allocate": {"budget": 3, "domains": [
                {"id": "good", "curves": str(good)},
                {"id": "bad", "curves": str(bad)},
            ]},
        }))
        assert _run("allocate", "--config", str(cfg)) == 1
        assert not (tmp_path / "alloc" / "allocations.tsv").exists()
        return capsys.readouterr().err

    def test_repeated_curve_row_rejected(self, tmp_path, capsys):
        rows = ["0\tf1\t1\t0.1", "0\tf1\t2\t0.2", "0\tf1\t2\t0.9"]
        err = self._allocate_bad_dump(tmp_path, rows, capsys)
        assert "bad.tsv: line 4: repeated row for user 0, k=2" in err

    def test_zero_size_curve_row_rejected(self, tmp_path, capsys):
        rows = ["0\tf1\t0\t0.0", "0\tf1\t1\t0.1", "0\tf1\t2\t0.2"]
        err = self._allocate_bad_dump(tmp_path, rows, capsys)
        assert "bad.tsv: line 2: size k must be >= 1, got 0" in err

    @pytest.mark.parametrize("row, why", [
        ("0\tf1\t3", "expected 'user<TAB>measure<TAB>k<TAB>value'"),
        ("0\tf1\t3\t0.3\t9", "expected 'user<TAB>measure<TAB>k<TAB>value'"),
        ("u0\tf1\t3\t0.3", "malformed row"),
        ("0\tf1\tthree\t0.3", "malformed row"),
        ("0\tf1\t3\thigh", "malformed row"),
    ], ids=["three_columns", "five_columns", "non_numeric_user", "non_numeric_k",
            "non_numeric_value"])
    def test_malformed_curve_row_rejected(self, tmp_path, capsys, row, why):
        rows = ["0\tf1\t1\t0.1", "0\tf1\t2\t0.2", row]
        err = self._allocate_bad_dump(tmp_path, rows, capsys)
        assert "bad.tsv: line 4: " in err and why in err, err


PLATT_TEXT = ("# persize calibrate\nGLOBAL\t0.5\t-1.25\tconverged\n"
              "3\t1.5\t-2.0\tconverged\n7\t0.0\t-0.75\tdegenerate\n"
              "0\t0.5\t-1.25\tfallback_global_with_a_long_status_name\n")
CURVE_TEXT = ("# curves\n" + "".join(f"{u}\tf1\t{k}\t{u + k / 8!r}\n" for u in (2, 0)
                                     for k in (1, 2, 3))
              + "".join(f"0\tndcg\t{k}\t{k / 4!r}\n" for k in (1, 2)))


def _quirky(text: str) -> str:
    """The same rows with the blanks and comments only the row scan reads:
    an indented comment, a blank-only line, a padded row and a tab-led row."""
    lines = text.splitlines()
    lines[2] = "  " + lines[2] + " \x0b"
    lines[3] = "\t" + lines[3]
    return "\n".join(lines[:2] + ["   # indented comment", " \t "] + lines[2:]) + "\n"


class TestRowReader:
    """Platt files and curve dumps go through ``util._read_rows``."""

    @staticmethod
    def _same_curves(got, want):
        assert sorted(got) == sorted(want)
        for u in want:
            np.testing.assert_array_equal(got[u], want[u])

    def test_plain_and_scanned_files_read_alike(self, tmp_path, monkeypatch):
        platt, curves = tmp_path / "platt.tsv", tmp_path / "curves.tsv"
        platt.write_text(PLATT_TEXT)
        curves.write_text(CURVE_TEXT)

        def no_scan(*args):
            raise AssertionError("plain file went to the row scan")

        monkeypatch.setattr(util, "_scan_rows", no_scan)
        per_user, global_params = _read_platt(platt)
        by_user = _read_curves(curves, Measure.F1)
        assert global_params == PlattParams(0.5, -1.25, "GLOBAL", "converged")
        assert per_user == {
            3: PlattParams(1.5, -2.0, 3, "converged"), 7: PlattParams(0.0, -0.75, 7, "degenerate"),
            0: PlattParams(0.5, -1.25, 0, "fallback_global_with_a_long_status_name")}
        self._same_curves(by_user, {0: np.array([1, 2, 3]) / 8, 2: 2 + np.array([1, 2, 3]) / 8})
        self._same_curves(_read_curves(curves, Measure.NDCG), {0: np.array([0.25, 0.5])})
        platt.write_text(_quirky(PLATT_TEXT))
        curves.write_text(_quirky(CURVE_TEXT))
        for read in (lambda: _read_platt(platt), lambda: _read_curves(curves, Measure.F1)):
            with pytest.raises(AssertionError, match="row scan"):
                read()
        monkeypatch.undo()
        assert _read_platt(platt) == (per_user, global_params)
        self._same_curves(_read_curves(curves, Measure.F1), by_user)
        for pad in (" ", "\x0b", "\x0c"):  # the only quirk: a string field's end blank
            for old, new in (("\nGLOBAL", f"\n{pad}GLOBAL"), ("ate\n", f"ate{pad}\n")):
                platt.write_text(PLATT_TEXT.replace(old, new))
                assert _read_platt(platt) == (per_user, global_params)

    @pytest.mark.parametrize("name", ["f1x", "f1" + "x" * 40, "F1", " f1"])
    def test_string_field_is_never_cut(self, tmp_path, name):
        curves = tmp_path / "curves.tsv"
        curves.write_text(CURVE_TEXT + "".join(f"5\t{name}\t{k}\t0.5\n" for k in (1, 2)))
        assert sorted(_read_curves(curves, Measure.F1)) == [0, 2]

    def test_a_measure_outside_the_known_ones_repeats_only_itself(self, tmp_path):
        curves = tmp_path / "curves.tsv"
        rows = "".join(f"0\t{name}\t1\t0.5\n" for name in ("map", "mrr", "f1x", "tp"))
        curves.write_text(CURVE_TEXT + rows)
        assert sorted(_read_curves(curves, Measure.F1)) == [0, 2]
        curves.write_text(CURVE_TEXT + rows + "0\tmrr\t1\t0.6\n")
        with pytest.raises(ValueError, match=re.escape("line 14: repeated row for user 0, k=1")):
            _read_curves(curves, Measure.F1)

    @pytest.mark.parametrize("scope, message", [
        ("GLOBALX", "scope 'GLOBALX' is neither GLOBAL nor an int64 user id"),
        ("GLOBA", "scope 'GLOBA' is neither GLOBAL"),
        ("99999999999999999999", "scope '99999999999999999999' is neither GLOBAL"),
        ("+3", "repeated row for user 3"),
        ("GLOBAL", "repeated row for GLOBAL"),
    ])
    @pytest.mark.parametrize("scanned", [False, True])
    def test_bad_scope_names_its_line(self, tmp_path, scope, message, scanned):
        platt = tmp_path / "platt.tsv"
        text = PLATT_TEXT + f"{scope}\t1.0\t2.0\tconverged\n"
        platt.write_text(_quirky(text) if scanned else text)
        with pytest.raises(ValueError, match=re.escape(f"line {6 + 2 * scanned}: {message}")):
            _read_platt(platt)

    @pytest.mark.parametrize("rows, message", [
        ("0\tndcg\tthree\t0.3", "malformed row '0\\tndcg\\tthree\\t0.3'"),
        ("0\ttp\t1\t0.3\t9", "expected 'user<TAB>measure<TAB>k<TAB>value'"),
        ("0\tndcg\t0\t0.3", "size k must be >= 1, got 0"),
        ("0\tndcg\t2\t0.3", "repeated row for user 0, k=2"),
    ])
    @pytest.mark.parametrize("scanned", [False, True])
    def test_rows_of_every_measure_are_checked(self, tmp_path, rows, message, scanned):
        curves = tmp_path / "curves.tsv"
        text = CURVE_TEXT + rows + "\n"
        curves.write_text(_quirky(text) if scanned else text)
        with pytest.raises(ValueError, match=re.escape(f"line {10 + 2 * scanned}: {message}")):
            _read_curves(curves, Measure.F1)


class TestEntryPoint:
    def test_module_invocation(self, tmp_path, bundled_path):
        workdir = tmp_path / "run"
        cfg = _write_config(tmp_path, bundled_path, workdir)
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "persize", "prepare", "--config", str(cfg)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (workdir / "id_map.json").exists()

    def test_usage_error_nonzero(self):
        with pytest.raises(SystemExit):
            main(["not-a-command"])
