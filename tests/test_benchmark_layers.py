"""The benchmark's counted layers still name functions of the program.

``perfbench/tracing.py`` computes work counts for the layers in its
``COUNTERS`` table, keyed ``<module>.<function>``, and wraps only public
functions defined in a persize module. A layer whose function was deleted
or renamed would silently read 0, so each key must name such a function,
and the counters must still read the program's objects. These tests only
read ``perfbench/``.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from persize.calibrate import CalibrationBatch, fit_all_users
from persize.scorer import ScoreTable

REPO_ROOT = Path(__file__).resolve().parent.parent


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", REPO_ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_counted_layer_is_a_traced_function():
    counters = _tracing().COUNTERS
    # the benchmark's smoke test requires this layer to be called
    assert "poibin.distribution" in counters
    for name in counters:
        short, attr = name.split(".")
        module = importlib.import_module(f"persize.{short}")
        fn = getattr(module, attr, None)
        assert inspect.isfunction(fn) and not attr.startswith("_"), name
        assert fn.__module__ == module.__name__, name


def test_table_rows_counts_every_entry():
    # the scorer.{import_scores,build_score_table,export_scores}.rows counts
    # read a table through users() and get()
    table = ScoreTable.from_entries({0: ([3, 1], [0.1, 0.2]), 2: ([], []), 5: ([4], [0.3])})
    assert _tracing()._table_rows(table) == len(table.items) == 3


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
    batch = CalibrationBatch(np.arange(6), np.cumsum([0] + [len(s) for s, _ in segments]),
                             np.concatenate([s for s, _ in segments]),
                             np.concatenate([y for _, y in segments]))
    assert dict(_tracing()._fit_status(fit_all_users(batch))) == {
        "calibrate.fit_status.converged": 3, "calibrate.fit_status.degenerate": 1,
        "calibrate.fit_status.fallback_global": 2}
