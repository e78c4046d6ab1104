"""Every demo script, and README's quickstart, runs to completion against
the package in src/, with every warning an error.

The demos locate the bundled data next to themselves, so each runs from a
copy of ``demos/`` and ``data/`` in a temporary directory: a demo that
writes under ``data/`` (00 regenerates the bundled log) never touches the
tracked files. The quickstart reads ``data/`` relative to its working
directory, so it runs from the same copy. README's lists of recognized
config keys and of override flags are checked against the keys and the
flags the CLI accepts.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from persize import cli

REPO_ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))
BUNDLED = Path("data") / "synth200" / "interactions.tsv"


def _run_in_copy(args, tmp_path):
    shutil.copytree(REPO_ROOT / "demos", tmp_path / "demos")
    shutil.copytree(REPO_ROOT / "data", tmp_path / "data")
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    # -W error: a demo that warns fails, as code under pytest does
    return subprocess.run([sys.executable, "-W", "error", *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)


def test_demos_present():
    assert DEMOS, "no demo scripts found"


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(script, tmp_path):
    proc = _run_in_copy([str(tmp_path / "demos" / script.name)], tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
    # demo 00 regenerates the bundled log; it must reproduce it byte for byte
    assert (tmp_path / BUNDLED).read_bytes() == (REPO_ROOT / BUNDLED).read_bytes()


def test_readme_quickstart_exits_zero(tmp_path):
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1, "README should hold exactly one python block"
    proc = _run_in_copy(["-c", blocks[0]], tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_readme_lists_the_recognized_config_keys():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    lists = re.findall(r"^Recognized keys: `([^`]*)`", readme, re.MULTILINE)
    assert len(lists) == 1, "README should hold exactly one recognized-keys list"
    keys = lists[0].split()  # the list wraps onto a second line
    assert sorted(keys) == sorted(cli._TOP_KEYS) and len(keys) == len(set(keys))


def test_readme_lists_the_parser_flags():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    lists = re.findall(r"^Flags `([^`]*)` override", readme, re.MULTILINE)
    assert len(lists) == 1, "README should hold exactly one list of override flags"
    commands = next(action for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    for name, parser in commands.choices.items():
        flags = [opt for action in parser._actions for opt in action.option_strings
                 if opt not in ("-h", "--help", "--config")]
        assert lists[0].split() == flags, name
