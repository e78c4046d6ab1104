"""persize benchmark: run the real CLI stages on one seeded workload.

    python3 perfbench/run.py --workload log-300 --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload in turn and prints each one's lines.

Set-up (input generation) runs in its own process, apart from the timed
stages; it repeats there (5-40 times, ~3 s), each repeat timed in-process
between two timings of a fixed reference workload, and the median is
reported. Each pass of the timed stages runs in a fresh worker process, with
the reference workload timed before the first stage and after each one;
passes repeat while the next one is expected to end within ``--seconds`` (at
least one), and the median pass is reported. Stage and set-up times are
scaled by the reference timings next to them (see worker.reference_s).
With ``--trace 1`` one untraced and one traced pass run instead, and the
per-layer metrics come from the traced one.

The second-to-last stdout line is a ``run_info`` record (versions, nproc,
source revision, seed, input sizes, per-stage times, full layer table); the
last line is the result object. The exit code is non-zero when any stage or
output check fails. This process imports no numpy, so the workers' peak RSS
is their own.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK = ROOT / ".perfbench_work"
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


class Runner:
    def __init__(self, args, d: Path):
        self.args = args
        self.d = d
        self.deadline = time.monotonic() + DEADLINE_S

    def worker(self, *argv: str) -> None:
        """Run one worker process to completion."""
        cmd = [sys.executable, str(WORKER), *argv, "--workload", self.args.workload,
               "--size", self.args.size, "--dir", str(self.d)]
        try:
            proc = subprocess.run(cmd, cwd=self.d, capture_output=True, text=True,
                                  timeout=max(self.deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker {argv[0]} passed the {DEADLINE_S:.0f} s deadline") from exc
        if proc.returncode != 0:
            raise BenchError(f"worker {argv[0]} exited {proc.returncode}:\n{proc.stderr[-4000:]}")

    def setup(self) -> dict:
        """Generate the inputs; returns their sizes and the set-up times."""
        self.worker("setup", "--seed", str(self.args.seed))
        return json.loads((self.d / "inputs.json").read_text(encoding="utf-8"))

    def stages(self, traced: bool) -> dict:
        out = self.d / "pass.json"
        self.worker("stages", "--trace", str(int(traced)), "--out", str(out))
        return json.loads(out.read_text(encoding="utf-8"))


def _digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _revision() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            sha = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"git_sha": sha, "src_sha256": _digest(ROOT / "src" / "persize"),
            "bench_sha256": _digest(WORKER.parent)}


def _layer_value(name: str, summary: dict, untraced: dict, overhead: float) -> float:
    if name == "trace_overhead_s":
        return overhead
    if name.startswith("stage."):
        return untraced["stage_s"].get(name[len("stage."):-len("_s")], 0.0)
    layer, _, what = name.rpartition(".")
    if what == "self_s":
        return summary["self_s"].get(layer, 0.0)
    if what == "calls":
        return summary["calls"].get(layer, 0)
    return summary["counts"].get(name, 0)


def _computed_counts(summary: dict) -> dict:
    counts = {f"{k}.calls": v for k, v in summary["calls"].items()}
    counts.update((k, v) for k, v in summary["counts"].items() if not k.endswith("_s"))
    return dict(sorted(counts.items()))


def measure_traced(spec: dict, runner: Runner) -> tuple[dict, dict, list]:
    """One untraced and one traced pass; returns (metrics, run_info, passes)."""
    info = runner.setup()
    untraced = runner.stages(traced=False)
    traced = runner.stages(traced=True)
    summary = traced["trace"]
    overhead = traced["pipeline_s"] - untraced["pipeline_s"]
    values = {m["name"]: _layer_value(m["name"], summary, untraced, overhead)
              for m in spec["per_layer"]}
    info["computed_counts"] = _computed_counts(summary)
    info["layers_self_s"] = dict(sorted(summary["self_s"].items()))
    info["trace_accounting"] = {
        "self_s_total": sum(summary["self_s"].values()),
        "overlap_s": summary["overlap_s"],
        "root_spans_s": sum(dur for _, dur in summary["roots"]),
        "traced_pipeline_s": traced["pipeline_s"],
    }
    return values, info, [untraced, traced]


def measure(seconds: float, runner: Runner) -> tuple[dict, dict, list]:
    """Untraced passes for about ``seconds``; returns (metrics, run_info, passes)."""
    info = runner.setup()
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(runner.stages(traced=False))
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(passes) > seconds:
            break
    shares = {p["f1_oracle_share"] for p in passes}
    passes[-1]["attempted"] += 1
    if len(shares) != 1:
        passes[-1]["failed"] += 1
        passes[-1]["errors"].append(f"f1_oracle_share differs between passes: {list(shares)}")
    values = {
        "pipeline_norm_s": statistics.median(p["pipeline_norm_s"] for p in passes),
        "setup_s": statistics.median(info["setup_s"]),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "f1_oracle_share": passes[-1]["f1_oracle_share"],
    }
    return values, info, passes


def _check_counts_repeat(path: Path, counts: dict, traced: dict) -> None:
    """Computed counts depend on the seed and the source only: they must
    repeat exactly across runs of the same code."""
    traced["attempted"] += 1
    if path.exists():
        before = json.loads(path.read_text(encoding="utf-8"))
        if before != counts:
            diff = sorted(k for k in set(before) | set(counts) if before.get(k) != counts.get(k))
            traced["failed"] += 1
            traced["errors"].append(f"computed counts differ from an earlier run: {diff}")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counts, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny: seconds-long inputs for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "persize" / "cli.py").is_file():
        print(f"persize sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return max(run_workload(argparse.Namespace(**{**vars(args), "workload": name}), spec)
                   for name in names)
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    return run_workload(args, spec)


def run_workload(args, spec: dict) -> int:
    d = WORK / f"{args.workload}-{args.size}-{args.seed}-{os.getpid()}"
    d.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(args, d)
        values, info, passes = (measure_traced(spec, runner) if args.trace
                                else measure(args.seconds, runner))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(d, ignore_errors=True)
    revision = _revision()
    if args.trace:
        digests = f"{revision['src_sha256'][:12]}-{revision['bench_sha256'][:12]}"
        _check_counts_repeat(
            WORK / "counts" / f"{args.workload}-{args.size}-{args.seed}-{digests}.json",
            info["computed_counts"], passes[-1])

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for err in (e for p in passes for e in p["errors"]):
        print(f"check failed: {err}", file=sys.stderr)
    metrics_spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    info.update({
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace, "inputs": info.pop("sizes"),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": passes[0]["numpy"], **revision,
        "passes": [{k: p[k] for k in ("stage_s", "pipeline_s", "pipeline_norm_s",
                                      "reference_s", "peak_rss_mb")} for p in passes],
    })
    print(json.dumps({"run_info": info}, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics_spec},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
