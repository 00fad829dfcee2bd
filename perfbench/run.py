#!/usr/bin/env python3
"""p2k benchmark: one workload per call, from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Starts fresh interpreters running perfbench/child.py against the
checkout's src/: several set-up probes, then the workload process, which
makes closed-loop passes for S seconds and checks every output.  The last
line of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  A record of the run with its provenance is written under
perfbench/out/.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYER_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CHILD = HERE / "child.py"

WORKLOADS = ("density-11", "chen-top", "cover-enum", "small-mix")

# OpenBLAS/OpenMP threads in the workload process.  One thread and two gave
# overlapping density-11 times on a 2-core machine; one is the steadier.
BLAS_THREADS = 1
SETUP_PROBES = 6  # plus the workload process itself
CHILD_TIMEOUT_S = 170

# besides the per-layer times, one per name in spans.LAYER_NAMES
LAYER_COUNTS = (
    "density.rows_left",
    "density.rows_right",
    "density.cross_pairs",
    "density.g",
    "chenscan.moduli",
    "chenscan.uncovered",
    "chenscan.shifts_used",
    "covering.systems",
    "covering.distinct_progressions",
    "progressions.certified",
)


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def start_child(args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start child.py and wait for its "ready" line; returns the process and
    the seconds from start to ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), *args],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        env=child_env(),
    )
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"child did not get ready (exit {proc.returncode})")
    return proc, ready


def finish_child(proc: subprocess.Popen) -> str:
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"child still running after {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"child exited with {proc.returncode}")
    return out


def provenance(args, child: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30,
        )
        commit = git.stdout.strip() or None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": child["numpy"],
        "blas": child["blas"],
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": child["inputs"],
    }


def metrics_of(child: dict, setup: list[float], trace: bool) -> dict:
    if not trace:
        values = {
            "wall_s": (statistics.median(child["wall_s"]), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (child["peak_rss_mb"], "MB"),
        }
    else:
        traced = statistics.median(child["traced_wall_s"])
        values = {f"{n}_s": (child["per_layer"][n], "s") for n in LAYER_NAMES}
        values.update({n: (child["counts"].get(n, 0), "count") for n in LAYER_COUNTS})
        values["trace.wall_s"] = (traced, "s")
        values["trace.overhead_s"] = (traced - statistics.median(child["wall_s"]), "s")
        values["trace.spans"] = (child["spans"], "count")
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "p2k" / "__init__.py").is_file():
        print(f"error: no p2k package under {SRC}", file=sys.stderr)
        return 2

    try:
        setup = []
        for _ in range(SETUP_PROBES):
            proc, ready = start_child(["--probe"])
            finish_child(proc)
            setup.append(ready)
        proc, ready = start_child(
            ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]
        )
        setup.append(ready)
        child = json.loads(finish_child(proc).strip().splitlines()[-1])
    except (BenchError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    result = {
        "correct": child["failed"] == 0 and child["attempted"] >= 1,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics_of(child, setup, bool(args.trace)),
    }
    record = {
        "provenance": provenance(args, child),
        "passes": child["passes"],
        "fail_ratio": child["failed"] / child["attempted"],
        "failures": child["failures"],
        "wall_s_samples": child["wall_s"],
        "setup_s_samples": setup,
        "spans_file": child.get("spans_file"),
        "result": result,
    }
    OUT.mkdir(exist_ok=True)
    record_file = OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_file.write_text(json.dumps(record, indent=2) + "\n")
    for failure in child["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed}: {child['passes']} passes, "
        f"fail_ratio={record['fail_ratio']:.6g}, record {record_file.relative_to(ROOT)}"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
