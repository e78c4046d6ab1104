"""Every demo script runs to completion against the package in src/.

The demos locate the bundled data next to themselves, so each runs from a
copy of ``demos/`` and ``data/`` in a temporary directory: a demo that
writes under ``data/`` (00 regenerates the bundled log) never touches the
tracked files.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))
BUNDLED = Path("data") / "synth200" / "interactions.tsv"


def test_demos_present():
    assert DEMOS, "no demo scripts found"


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(script, tmp_path):
    shutil.copytree(REPO_ROOT / "demos", tmp_path / "demos")
    shutil.copytree(REPO_ROOT / "data", tmp_path / "data")
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "demos" / script.name)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    # demo 00 regenerates the bundled log; it must reproduce it byte for byte
    assert (tmp_path / BUNDLED).read_bytes() == (REPO_ROOT / BUNDLED).read_bytes()
