"""One benchmark child process: either generate a workload's inputs, or run
its persize CLI stages in-process once, measure them, and check the outputs.

Each pass runs in a fresh process so that its peak RSS belongs to that
workload alone. Usage (from run.py):

    python3 perfbench/worker.py setup  --workload W --seed N --size full --dir D
    python3 perfbench/worker.py stages --workload W --size full --dir D --trace 0 --out R
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from persize import cli  # noqa: E402
from tracing import Tracer, summarize  # noqa: E402


# Set-up repeats at least this often and until this long went into it
# (reference timings included), at most SETUP_MAX_REPEATS times; run.py
# reports the median.
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_BUDGET_S = 5, 40, 3.0

# The median time of reference_s() on a 2-vCPU Xeon VM (development runs).
# Stage and set-up times are scaled by REFERENCE_NOMINAL_S / (the reference
# time measured next to them), so pipeline_norm_s and setup_s read in
# seconds at that speed, whatever the shared host's speed was meanwhile.
REFERENCE_NOMINAL_S = 0.22


def reference_s() -> float:
    """Wall time of a fixed reference workload made of the kinds of work the
    stages do: parsing and sorting TSV rows in Python, numpy FFT convolution,
    and numpy sorts and scans. Its inputs are constants and it touches no
    persize code, so only the host's speed moves its time. It holds under
    10 MB, less than any stage, so it leaves peak_rss_mb alone."""
    t0 = time.perf_counter()
    text = "".join(f"{u}\t{i}\t{(u * 7919 + i * 104729) % 1000 / 997.0!r}\n"
                   for u in range(40) for i in range(500))
    rows: dict = {}
    for line in text.splitlines():
        user, item, score = line.split("\t")
        rows.setdefault(int(user), []).append((float(score), int(item)))
    for ranked in rows.values():
        ranked.sort()
    rng = np.random.default_rng(0)
    x = rng.random(5000)
    for _ in range(60):
        f = np.fft.rfft(x, 16384)
        np.fft.irfft(f * f, 16384)
    a = rng.random(300_000)
    for _ in range(3):
        np.argsort(a)
    for _ in range(24):
        np.cumsum(a) * 1.5 + a
    return time.perf_counter() - t0


def _scaled(seconds: float, ref_before: float, ref_after: float) -> float:
    return seconds * REFERENCE_NOMINAL_S / ((ref_before + ref_after) / 2)


def run_setup(workload: str, seed: int, size: str, d: Path) -> dict:
    """Generate the inputs repeatedly, timing each in-process between two
    reference timings; every repeat writes the same files. Returns the input
    sizes and the scaled set-up times."""
    start, times, ref_s = time.perf_counter(), [], [reference_s()]
    while len(times) < SETUP_MIN_REPEATS or (
            len(times) < SETUP_MAX_REPEATS and time.perf_counter() - start < SETUP_BUDGET_S):
        t0 = time.perf_counter()
        sizes = workloads.setup(workload, seed, size, d)
        elapsed = time.perf_counter() - t0
        ref_s.append(reference_s())
        times.append(_scaled(elapsed, ref_s[-2], ref_s[-1]))
    return {"sizes": sizes, "setup_s": times}


def run_stages(workload: str, size: str, d: Path, traced: bool) -> dict:
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    checks = workloads.Checks()
    stage_s, norm_s, ref_s = {}, {}, [reference_s()]
    for stage in workloads.STAGES[workload]:
        t0 = time.perf_counter()
        rc = cli.main([stage, "--config", str(d / "config.json")])
        stage_s[stage] = time.perf_counter() - t0
        ref_s.append(reference_s())
        norm_s[stage] = _scaled(stage_s[stage], ref_s[-2], ref_s[-1])
        checks.check(rc == 0, f"persize {stage} exited {rc}")
        if rc != 0:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    spans = list(tracer.spans) if tracer is not None else None  # not the checks' calls
    share = None
    if checks.failed == 0:
        share = workloads.check_outputs(workload, size, d, checks)
    out = {"stage_s": stage_s, "pipeline_s": sum(stage_s.values()), "reference_s": ref_s,
           "pipeline_norm_s": sum(norm_s.values()), "peak_rss_mb": peak_rss_mb,
           "f1_oracle_share": share, "attempted": checks.attempted,
           "failed": checks.failed, "errors": checks.errors, "numpy": np.__version__}
    if spans is not None:
        out["trace"] = summarize(spans)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "stages"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        result = run_setup(args.workload, args.seed, args.size, args.dir)
        (args.dir / "inputs.json").write_text(json.dumps(result, sort_keys=True) + "\n")
        return 0
    result = run_stages(args.workload, args.size, args.dir, bool(args.trace))
    args.out.write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
