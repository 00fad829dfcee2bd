"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded from outside the package: `Tracer.installed` swaps each
layer function named in LAYERS for a wrapper in its module's namespace, so
both the benchmark's own calls and the package's internal calls through
that module-level name (run_estimate -> merge, scan_range ->
check_even_modulus, dispatch -> enumerate_cdl_systems, ...) are timed.
Calls nested inside other traced calls get spans too and go to the JSON
lines file; the per-layer times count only calls made directly in a pass.
Each pass of a workload is one root span; the spans under it share the
pass's run id.  Nothing is written until `write_jsonl` at the end.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
from collections import defaultdict
from time import perf_counter_ns

# (module, function) pairs wrapped in a traced run; the span name is
# "<module>.<function>" and the per-layer metric "<module>.<function>_s".
LAYERS = (
    ("density", "cross_histogram"),
    ("density", "merge"),
    ("density", "prime_cluster"),
    ("density", "evaluate_bound"),
    ("density", "brute_force_delta"),
    ("chenscan", "scan_range"),
    ("chenscan", "check_even_modulus"),
    ("chenscan", "find_witness"),
    ("covering", "enumerate_cdl_systems"),
    ("covering", "is_minimal"),
    ("progressions", "derive_progression"),
    ("progressions", "membership_in_U_is_certified"),
    ("progressions", "pair_gcd_census"),
    ("cli", "dispatch"),
)

LAYER_NAMES = tuple(f"{mod}.{fn}" for mod, fn in LAYERS)


def _observe_cross(counts, args):
    # run_estimate never returns its half clusters; their sizes are read
    # off the arguments of the largest cross stage in the pass
    a, b = args[0], args[1]
    pairs = len(a.rows) * len(b.rows)
    if pairs > counts["density.cross_pairs"]:
        counts["density.rows_left"] = len(a.rows)
        counts["density.rows_right"] = len(b.rows)
        counts["density.cross_pairs"] = pairs
        counts["density.g"] = math.gcd(a.order, b.order)


OBSERVERS = {"density.cross_histogram": _observe_cross}


class Tracer:
    """Spans as tuples (span_id, name, start_ns, end_ns, parent_id, run_id)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._run = None
        self.counts: dict[str, int] = defaultdict(int)

    def _open(self, name: str) -> int:
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((span_id, name, perf_counter_ns(), None, parent, self._run))
        self._stack.append(span_id)
        return span_id

    def _close(self, span_id: int) -> None:
        end = perf_counter_ns()
        self._stack.pop()
        sid, name, start, _, parent, run = self.spans[span_id]
        self.spans[span_id] = (sid, name, start, end, parent, run)

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span_id)
            if observe is not None:
                observe(self.counts, args)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, run_id):
        """Trace one pass: a root span named "pass" with every layer
        function wrapped; the originals are restored on exit."""
        originals = []
        for mod_name, fn_name in LAYERS:
            module = importlib.import_module(f"p2k.{mod_name}")
            fn = getattr(module, fn_name)
            originals.append((module, fn_name, fn))
            setattr(module, fn_name, self._wrap(f"{mod_name}.{fn_name}", fn))
        self._run = run_id
        self.counts = defaultdict(int)
        root = self._open("pass")
        try:
            yield
        finally:
            self._close(root)
            self._run = None
            for module, fn_name, fn in originals:
                setattr(module, fn_name, fn)

    def pass_seconds(self) -> list[float]:
        return [(s[3] - s[2]) / 1e9 for s in self.spans if s[1] == "pass"]

    def top_level_seconds(self) -> dict[str, float]:
        """Per span name, the summed duration of the spans directly under a
        pass.  A layer call made from inside another traced call (such as
        check_even_modulus under scan_range) is part of its caller's time,
        so the totals never overlap and add up to at most the pass time."""
        roots = {s[0] for s in self.spans if s[1] == "pass"}
        totals: dict[str, float] = defaultdict(float)
        for _, name, start, end, parent, _ in self.spans:
            if parent in roots:
                totals[name] += (end - start) / 1e9
        return totals

    def spans_per_pass(self) -> list[int]:
        per_run: dict[int, int] = defaultdict(int)
        for *_, run in self.spans:
            per_run[run] += 1
        return list(per_run.values())

    def well_nested(self) -> bool:
        """Every span ends after it starts and lies inside its parent."""
        for _, _, start, end, parent, run in self.spans:
            if end is None or end < start:
                return False
            if parent is not None:
                p = self.spans[parent]
                if not (p[2] <= start and end <= p[3] and p[5] == run):
                    return False
        return True

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent, run in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "span": sid,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "run": run,
                        }
                    )
                    + "\n"
                )
