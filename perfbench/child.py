"""One workload in a fresh interpreter; started by run.py, not by hand.

    child.py --probe
    child.py --workload NAME --seed N --seconds S --trace 0|1

Both forms import numpy and p2k from the checkout's src/, run the probe
of every layer once, and print "ready".  A probe then exits: run.py times
fresh interpreter to "ready" as the set-up cost.  A workload run then
makes one warm-up pass, times passes until `--seconds` have elapsed and
prints one JSON line with its results.  With `--trace 1` passes alternate
traced and untraced (at least one of each), and the spans go to
perfbench/out/ as JSON lines.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from spans import LAYER_NAMES, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _import_package():
    sys.path.insert(0, str(SRC))
    import numpy
    import p2k

    if not Path(p2k.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"p2k imported from {p2k.__file__}, not from {SRC}")
    return numpy


def measure(workload, seconds: float, ops, tracer=None) -> dict:
    """One untimed warm-up pass, then a closed loop of passes until
    `seconds` have elapsed; with a tracer, every other pass is traced.
    Each pass starts after a full garbage collection, so no pass pays for
    the garbage of the one before."""
    trace = tracer is not None
    untraced: list[float] = []
    pass_counts: list[dict[str, int]] = []
    workload.run(ops)  # warm-up: checked, not timed
    start = time.perf_counter()
    i = 0
    while True:
        gc.collect()
        if trace and i % 2 == 0:
            with tracer.installed(run_id=i):
                counts = workload.run(ops)
            pass_counts.append({**counts, **tracer.counts})
        else:
            t0 = time.perf_counter()
            counts = workload.run(ops)
            untraced.append(time.perf_counter() - t0)
            if not trace:
                pass_counts.append(counts)
        i += 1
        if time.perf_counter() - start >= seconds and (not trace or i >= 2):
            break

    result = {"passes": i, "wall_s": untraced}
    ops.run(
        "counts repeat exactly across passes",
        lambda: pass_counts,
        lambda seen: all(c == seen[0] for c in seen),
    )
    if not trace:
        return result

    traced = tracer.pass_seconds()
    top = tracer.top_level_seconds()
    layer_s = {name: top.get(name, 0.0) / len(traced) for name in LAYER_NAMES}
    ops.run("spans nest inside their parents", tracer.well_nested, lambda ok: ok)
    spans = ops.run(
        "every traced pass records the same spans",
        tracer.spans_per_pass,
        lambda per_pass: len(set(per_pass)) == 1,
    )
    ops.run(
        "per-layer times sum to at most the traced pass time",
        lambda: sum(layer_s.values()),
        lambda total: total <= statistics.fmean(traced),
    )
    expected = getattr(workload, "expected_counts", None)
    if expected:
        ops.run(
            "pinned per-layer counts",
            lambda: pass_counts[-1],
            lambda c: all(c.get(k) == v for k, v in expected.items()),
        )
    result["per_layer"] = layer_s
    result["counts"] = pass_counts[-1]
    result["traced_wall_s"] = traced
    result["spans"] = spans[0] if spans else 0
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    numpy = _import_package()
    import workloads

    workloads.probe(workloads.Ops())
    print("ready", flush=True)
    if args.probe:
        return 0

    workload = workloads.WORKLOADS[args.workload](args.seed)
    ops = workloads.Ops()
    tracer = Tracer() if args.trace else None
    result = measure(workload, args.seconds, ops, tracer)
    if tracer is not None:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        spans_file = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_jsonl(spans_file)
        result["spans_file"] = str(spans_file.relative_to(ROOT))

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    result.update(
        attempted=ops.attempted,
        failed=len(ops.failures),
        failures=ops.failures[:20],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        inputs=workload.inputs,
        numpy=numpy.__version__,
        blas={k: blas.get(k) for k in ("name", "version")},
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
