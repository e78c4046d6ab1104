"""The benchmark's counted layers still name functions of the program.

``perfbench/tracing.py`` computes work counts for the layers in its
``COUNTERS`` table, keyed ``<module>.<function>``, and wraps only public
functions defined in a persize module. A layer whose function was deleted
or renamed would silently read 0, so each key must name such a function.
This test only reads ``perfbench/``.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _counters() -> dict:
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", REPO_ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.COUNTERS


def test_every_counted_layer_is_a_traced_function():
    counters = _counters()
    # the benchmark's smoke test requires this layer to be called
    assert "poibin.distribution" in counters
    for name in counters:
        short, attr = name.split(".")
        module = importlib.import_module(f"persize.{short}")
        fn = getattr(module, attr, None)
        assert inspect.isfunction(fn) and not attr.startswith("_"), name
        assert fn.__module__ == module.__name__, name
