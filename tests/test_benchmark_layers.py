"""The benchmark's counted layers still name functions of the program, and
the program still runs the benchmark's stages on the configs it writes.

``perfbench/tracing.py`` computes work counts for the layers in its
``COUNTERS`` table, keyed ``<module>.<function>``, and wraps only public
functions defined in a persize module. A layer whose function was deleted
or renamed would silently read 0, so each key must name such a function,
and the counters must still read the program's objects. A config key or
stage the program no longer knows would fail only a benchmark run, so each
workload's generated config must load and each stage must be a command.
A ``per_layer`` metric of ``BENCHMARK.json`` whose function is gone reads 0
too; the ones that do today are listed, and no other may join them. These
tests only read ``perfbench/`` and ``BENCHMARK.json``.
"""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from persize import cli
from persize.calibrate import fit_all_users
from persize.scorer import ScoreTable

REPO_ROOT = Path(__file__).resolve().parent.parent


def _perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", REPO_ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_WORKLOADS = _perfbench("workloads")

# per-layer metrics of functions the program no longer has: each reads 0
DEAD_METRICS = {
    "utility.expected_curves.self_s", "utility.expected_curves.calls",
    "utility.expected_curve_approx.self_s", "utility.expected_curve_approx.calls",
    "utility.expected_curve_exact.self_s", "utility.expected_curve_exact.calls",
    "calibrate.build_calibration_set.self_s", "calibrate.fit_user.self_s",
    "selection.perk_select.self_s", "dataset.candidate_items.self_s",
    "scorer.score_candidates.self_s",
}
# fit_all_users' status histogram, not a function's layer
HISTOGRAMS = ("calibrate.fit_status.",)


def _traced_function(short, attr) -> bool:
    """Whether ``persize.<short>.<attr>`` is a public function defined in
    that module, the kind the tracer wraps."""
    try:
        module = importlib.import_module(f"persize.{short}")
    except ModuleNotFoundError:
        return False
    fn = getattr(module, attr, None)
    return (inspect.isfunction(fn) and not attr.startswith("_")
            and fn.__module__ == module.__name__)


@pytest.mark.parametrize("size", ["tiny", "full"])
@pytest.mark.parametrize("workload", sorted(_WORKLOADS.SIZES))
def test_workload_config_loads_and_stages_are_commands(tmp_path, workload, size):
    _WORKLOADS.setup(workload, 1, size, tmp_path)
    path = tmp_path / "config.json"
    written = json.loads(path.read_text())
    stages = _WORKLOADS.STAGES[workload]
    assert set(stages) <= set(cli._COMMANDS)
    for stage in stages:
        cfg = cli._load_config(cli.build_parser().parse_args([stage, "--config", str(path)]))
        assert {key: cfg[key] for key in written} == written


def test_every_counted_layer_is_a_traced_function():
    counters = _perfbench("tracing").COUNTERS
    # the benchmark's smoke test requires this layer to be called
    assert "poibin.distribution" in counters
    for name in counters:
        assert _traced_function(*name.split(".")), name


def test_no_per_layer_metric_goes_dead_silently():
    metrics = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())["per_layer"]
    dead = {m["name"] for m in metrics if m["name"].count(".") == 2
            and not m["name"].startswith(HISTOGRAMS)
            and not _traced_function(*m["name"].split(".")[:2])}
    assert dead <= DEAD_METRICS


def test_table_rows_counts_every_entry():
    # the scorer.{import_scores,build_score_table,export_scores}.rows counts
    # read a table through users() and get()
    table = ScoreTable.from_entries({0: ([3, 1], [0.1, 0.2]), 2: ([], []), 5: ([4], [0.3])})
    assert _perfbench("tracing")._table_rows(table) == len(table.items) == 3


def test_fit_status_histogram_reads_a_real_fit():
    # the calibrate.fit_status.* metrics read fit_all_users' per-user dict
    rng = np.random.default_rng(0)
    segments = []
    for _ in range(3):
        s = rng.normal(size=400)
        segments.append((s, (rng.random(400) < 1 / (1 + np.exp(-s))) * 1.0))
    segments.append((np.full(10, 0.5), np.arange(10) % 2 * 1.0))  # constant
    segments.append((np.linspace(-1, 1, 10), np.zeros(10)))  # one class
    s = np.linspace(-1.0, 1.0, 200)
    segments.append((s, (s > 0.995) * 1.0))  # separable: diverges
    scores = np.concatenate([s for s, _ in segments])
    table = ScoreTable(np.arange(6), np.cumsum([0] + [len(s) for s, _ in segments]),
                       np.arange(len(scores)), scores)
    labels = np.concatenate([y for _, y in segments])
    assert dict(_perfbench("tracing")._fit_status(fit_all_users(table, labels))) == {
        "calibrate.fit_status.converged": 3, "calibrate.fit_status.degenerate": 1,
        "calibrate.fit_status.fallback_global": 2}
