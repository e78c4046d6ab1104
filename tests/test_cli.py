import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from persize.cli import main

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

    def test_flag_overrides_win(self, tmp_path, bundled_path):
        workdir = tmp_path / "w1"
        cfg = _write_config(tmp_path, bundled_path, tmp_path / "ignored")
        assert _run("prepare", "--config", str(cfg), "--workdir", str(workdir)) == 0
        assert (workdir / "train.tsv").exists()

    def test_exact_mode_within_cap_succeeds(self, tmp_path, bundled_path):
        workdir = tmp_path / "run"
        cfg = _write_config(tmp_path, bundled_path, workdir)
        for stage in ("prepare", "train", "calibrate"):
            assert _run(stage, "--config", str(cfg)) == 0
        assert _run("recommend", "--config", str(cfg), "--mode", "exact", "--K", "3") == 0

    def test_exact_mode_cap_reports_partial_failure(self, tmp_path, bundled_path, capsys):
        workdir = tmp_path / "run"
        cfg = _write_config(tmp_path, bundled_path, workdir, exact_cap=1)
        for stage in ("prepare", "train", "calibrate"):
            assert _run(stage, "--config", str(cfg)) == 0
        code = _run("recommend", "--config", str(cfg), "--mode", "exact", "--K", "3")
        assert code == 2
        recs = (workdir / "recs.tsv").read_text()
        assert "# error user=" in recs

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
                tmp_path, bundled_path, workdir, dump_curves=True, measures=["f1"]
            )
            cfg = Path(cfg)
            for stage in ("prepare", "train", "calibrate"):
                assert _run(stage, "--config", str(cfg), "--seed", str(seed)) == 0
            assert _run("recommend", "--config", str(cfg), "--seed", str(seed)) == 0
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
        bad.write_text("# curves\n" + "".join(f"0\tf1\t{k}\t{v}\n" for k, v in rows))
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
        err = self._allocate_bad_dump(tmp_path, [(1, 0.1), (2, 0.2), (2, 0.9)], capsys)
        assert "bad.tsv: line 4: repeated row for user 0, k=2" in err

    def test_zero_size_curve_row_rejected(self, tmp_path, capsys):
        err = self._allocate_bad_dump(tmp_path, [(0, 0.0), (1, 0.1), (2, 0.2)], capsys)
        assert "bad.tsv: line 2: size k must be >= 1, got 0" in err


class TestEntryPoint:
    def test_module_invocation(self, tmp_path, bundled_path):
        workdir = tmp_path / "run"
        cfg = _write_config(tmp_path, bundled_path, workdir)
        proc = subprocess.run(
            [sys.executable, "-m", "persize", "prepare", "--config", str(cfg)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (workdir / "id_map.json").exists()

    def test_usage_error_nonzero(self):
        with pytest.raises(SystemExit):
            main(["not-a-command"])
