"""Smoke test of the benchmark itself on tiny inputs.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that traced self times add up to the span totals and cover each stage's
wall time, that the predicted zeros hold (no BPR on world-5k, no allocation
on log-300), that computed counts repeat exactly, and that a second seed
gives the same metric names.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["run_info"], json.loads(lines[-1])


def _assert_result(result: dict, specs: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in specs} == {
        name: v["unit"] for name, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_on_two_seeds(workload):
    for seed in (1, 2):
        info, result = _run(workload, seed, trace=0)
        _assert_result(result, SPEC["end_to_end"])
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert info["seed"] == seed and info["inputs"] and info["nproc"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload):
    info, result = _run(workload, 3, trace=1)
    _assert_result(result, SPEC["per_layer"])
    value = {name: v["value"] for name, v in result["metrics"].items()}

    acct = info["trace_accounting"]
    assert acct["self_s_total"] - acct["overlap_s"] == pytest.approx(acct["root_spans_s"])
    assert acct["root_spans_s"] >= 0.95 * acct["traced_pipeline_s"]
    assert acct["root_spans_s"] <= acct["traced_pipeline_s"]

    assert value["poibin.distribution.calls"] > 0
    if workload == "log-300":
        assert value["scorer.train_bpr.calls"] == 1
        assert value["multidomain.allocate.calls"] == 0
        assert value["cli.cmd_allocate.self_s"] == 0
    if workload == "world-5k":
        assert value["scorer.train_bpr.calls"] == 0
        assert value["scorer.train_bpr.self_s"] == 0
        assert value["multidomain.allocate.calls"] > 0

    again, _ = _run(workload, 3, trace=1)
    assert again["computed_counts"] == info["computed_counts"]
