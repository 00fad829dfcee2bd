#!/usr/bin/env python3
"""Self-test of the benchmark's checks, at reduced size (about 15 s).

    python3 perfbench/selftest.py

Runs each workload class on small inputs, once with its true expected
values (no operation may fail) and once with one expectation deliberately
wrong or one call that raises (exactly one operation must fail, and the
pass must finish).  Then one traced measurement checks the per-layer
report.  Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import sys

from child import _import_package, measure
from spans import LAYER_NAMES, Tracer


def run_case(label, workload, expect_failed: int) -> bool:
    from workloads import Ops

    ops = Ops()
    try:
        workload.run_pass(ops)
    except Exception as exc:  # a crash is what this test exists to catch
        print(f"FAIL {label}: pass crashed with {type(exc).__name__}: {exc}")
        return False
    ok = ops.attempted > 0 and len(ops.failures) == expect_failed
    print(f"{'PASS' if ok else 'FAIL'} {label}: {len(ops.failures)} of "
          f"{ops.attempted} operations failed, expected {expect_failed}")
    for note in ops.failures:
        print(f"     {note}")
    return ok


def main() -> int:
    _import_package()
    import workloads as w

    small_primes = (3, 5, 7, 11, 13)

    def density(bound="0.49621815", primes=small_primes):
        wl = w.Density11(seed=1, primes=primes)
        wl.expected_bound = bound
        return wl

    def chen(shifts=24):
        wl = w.ChenTop(seed=1, width=4)
        wl.expected_shifts = shifts
        return wl

    def small(fixtures=w.DENSITY_FIXTURES[:4]):
        return w.SmallMix(seed=1, scan_hi=2000, witness_pairs=20, fixtures=fixtures)

    wrong_fixture = ((3, 5, 7, 11), "0.49807092")  # published: 0.49807089
    cases = [
        ("density, true bound", density(), 0),
        ("density, wrong bound", density(bound="0.49621825"), 1),
        ("density, call raises (9 is not prime)", density(primes=(3, 5, 9)), 1),
        ("chen, true verdict", chen(), 0),
        ("chen, wrong shift count", chen(shifts=23), 1),
        ("cover, true counts", w.CoverEnum(seed=1, expected={24: (96, 48)}), 0),
        ("cover, wrong system count", w.CoverEnum(seed=1, expected={24: (97, 48)}), 1),
        ("small-mix, true values", small(), 0),
        ("small-mix, wrong fixture", small(w.DENSITY_FIXTURES[:3] + (wrong_fixture,)), 1),
    ]
    ok = all([run_case(label, wl, n) for label, wl, n in cases])

    ops = w.Ops()
    result = measure(small(), 0, ops, Tracer())
    layer_ok = (
        not ops.failures
        and set(result["per_layer"]) == set(LAYER_NAMES)
        and all(v > 0 for v in result["per_layer"].values())
        and result["counts"]["chenscan.moduli"] == 1001
        and result["spans"] > 0
    )
    print(f"{'PASS' if layer_ok else 'FAIL'} traced measurement: "
          f"{result['passes']} passes, {result['spans']} spans per traced pass, "
          f"failures {ops.failures}")
    return 0 if ok and layer_ok else 1


if __name__ == "__main__":
    sys.exit(main())
