"""Acceptance gate: one test per shipping criterion, each printing a
PASS/FAIL line (run with -s to see them live).

Three checks are expected to stay red; each asserts a published figure that
the package's own exact computation refutes, with the evidence pinned by
green tests elsewhere in the suite:

* criterion 2: the published D = 36 and D = 72 constructions do not cover
  (explicit p + 2^k members exist inside both progressions; see
  test_progressions.test_d36_row_really_contains_p_plus_2k and
  ..._d72_...), so 2 of the 5 large rows cannot certify;
* criterion 3: the gcd = 2 pair count over the published 48 progressions
  is 384, not 768 (768 is the gcd in {2, 6, 14} count);
* criterion 7, oracle fixture: the exact bound for M = 23205 equals the
  {3,5,7,11,13,17} bound (identical rationals), not the quoted 0.49250245.
"""

import itertools
import random
import time

import pytest

from conftest import M48, RESIDUES_48, TABLE_MOD3_ROWS, MOD3_MODULI
from p2k import chenscan, covering, density, progressions
from p2k.catalog import LARGE_CONSTRUCTIONS
from p2k.cli import dispatch
from p2k.modcore import divisors


def _report(criterion: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_cdl_enumeration(capsys, enumeration_24):
    t0 = time.monotonic()
    report = enumeration_24
    systems_ok = len(report.systems) == 96
    distinct_ok = report.distinct_progression_count == 48
    residues = sorted({a for a, _ in report.progressions})
    residues_ok = residues == sorted(RESIDUES_48)

    empty_ok = True
    screened = []
    for d in range(2, 24):
        if sum(d // q for q in divisors(d)) > 2 * d:
            screened.append(d)
            empty_ok &= len(covering.enumerate_cdl_systems(d).systems) == 0
    screen_ok = screened == [12, 18, 20]

    code = dispatch(["cover", "enumerate", "--D", "24", "--format", "csv"])
    cli_ok = code == 0 and capsys.readouterr().out.count("\n") >= 97
    elapsed = time.monotonic() - t0
    ok = all([systems_ok, distinct_ok, residues_ok, empty_ok, screen_ok, cli_ok,
              elapsed < 120])
    _report(
        "1",
        ok,
        f"96 systems={systems_ok} 48 distinct={distinct_ok} residues={residues_ok} "
        f"D<=23 empty={empty_ok} ({elapsed:.1f}s)",
    )
    assert ok


def test_criterion_2_progression_certification():
    t0 = time.monotonic()
    certified = []
    for residues, a in TABLE_MOD3_ROWS:
        system = covering.CoveringSystem.from_pairs(zip(residues, MOD3_MODULI))
        asg = covering.canonical_assignment(system.moduli)
        prog = progressions.derive_progression(system, asg)
        certified.append(
            (prog.residue, prog.modulus) == (a, M48)
            and progressions.membership_in_U_is_certified(prog)
        )
    table1_ok = all(certified)

    large_status = {}
    d36_exact = False
    for D, mods, res, a, m in LARGE_CONSTRUCTIONS:
        system = covering.CoveringSystem.from_pairs(zip(res, mods))
        asg = progressions.assignment_matching_modulus(mods, m)
        prog = progressions.derive_progression(system, asg)
        if D == 36:
            d36_exact = (prog.residue, prog.modulus) == (309547193, 412729590)
        large_status[D] = progressions.membership_in_U_is_certified(prog)
    large_ok = all(large_status.values())
    elapsed = time.monotonic() - t0
    ok = table1_ok and large_ok and d36_exact and elapsed < 60
    _report(
        "2",
        ok,
        f"48 rows={table1_ok} large rows={large_status} "
        f"D36 bit-exact={d36_exact} ({elapsed:.1f}s)",
    )
    assert table1_ok and d36_exact
    assert large_ok, (
        "published D=36/72 class tuples do not cover; both progressions "
        "contain p + 2^k members, so certification rejects them"
    )


def test_criterion_3_pair_census(residues_48):
    total, hits = progressions.pair_gcd_census([(a, M48) for a in residues_48])
    ok = (total, hits) == (1128, 768)
    _report("3", ok, f"census=({total}, {hits}), required (1128, 768)")
    assert total == 1128
    assert hits == 768, (
        "gcd = 2 holds for 384 of the 1128 pairs over the published table "
        "(768 matches the gcd in {2, 6, 14} count instead)"
    )


def test_criterion_4_chen_point_check(big_modulus_verdict):
    t0 = time.monotonic()
    verdict = chenscan.check_even_modulus(M48)
    elapsed = time.monotonic() - t0
    ok = (
        not verdict.covered
        and verdict.shifts_used == 24
        and list(verdict.leftover) == sorted(RESIDUES_48)
        and elapsed < 60
    )
    _report(
        "4",
        ok,
        f"covered={verdict.covered} m={verdict.shifts_used} "
        f"leftover={len(verdict.leftover)} ({elapsed:.1f}s)",
    )
    assert ok


def test_criterion_5_chen_scan_and_witnesses():
    t0 = time.monotonic()
    report = chenscan.scan_range(2, 100000)
    scan_ok = report.uncovered_moduli == []

    missing = []
    for b in range(2, 301, 2):
        for j in range(1, b, 2):
            found = chenscan.find_witness(b, j)
            if found is None:
                missing.append((b, j))
            else:
                p, k = found
                assert (p + 2**k) % b == j % b
    witness_ok = not missing
    elapsed = time.monotonic() - t0
    ok = scan_ok and witness_ok and elapsed < 1200
    _report(
        "5",
        ok,
        f"scan(2,100000) uncovered={len(report.uncovered_moduli)} "
        f"witness misses={missing[:3]} ({elapsed:.1f}s)",
    )
    assert ok


def test_criterion_6_oracle_equivalence():
    t0 = time.monotonic()
    all_ok = True
    for M, primes in [(15, (3, 5)), (105, (3, 5, 7)), (1155, (3, 5, 7, 11)),
                      (23205, (3, 5, 7, 13, 17))]:
        left, right = density.balance_partition(primes)
        hist = density.cross_histogram(
            density._half_cluster(left), density._half_cluster(right)
        )
        oracle = density.brute_force_delta(M)
        hist.validate()
        oracle.validate()
        all_ok &= hist.counts == oracle.counts
    elapsed = time.monotonic() - t0
    _report("6", all_ok, f"pipeline == oracle for 15/105/1155/23205 ({elapsed:.1f}s)")
    assert all_ok


DENSITY_FIXTURES = [
    ((3,), "0.5"),
    ((3, 5), "0.5"),
    ((3, 5, 7), "0.5"),
    ((3, 5, 7, 11), "0.49807089"),
    ((3, 5, 7, 11, 13), "0.49621815"),
    ((3, 5, 7, 11, 13, 17), "0.49252410"),
    ((3, 5, 7, 13, 17, 241), "0.49243452466582"),
    ((3, 5, 7, 11, 17, 19), "0.494609133024577"),
    ((3, 5, 7, 11, 17, 19, 29), "0.494213278918742"),
]


@pytest.mark.parametrize("primes,printed", DENSITY_FIXTURES,
                         ids=[",".join(map(str, p)) for p, _ in DENSITY_FIXTURES])
def test_criterion_7_density_fixtures(primes, printed):
    t0 = time.monotonic()
    result = density.run_estimate(primes)
    value = float(result.bound_upper)
    tol = 10.0 ** -len(printed.split(".")[1])
    ok = abs(value - float(printed)) <= tol
    _report(
        "7",
        ok,
        f"{primes} -> {value:.15f} vs {printed} "
        f"({time.monotonic() - t0:.1f}s)",
    )
    assert ok


def test_criterion_7_oracle_path_23205():
    t0 = time.monotonic()
    hist = density.brute_force_delta(23205)
    result = density.evaluate_bound(hist)
    value = float(result.bound_upper)
    ok = abs(value - 0.49250245) <= 1e-8
    _report(
        "7",
        ok,
        f"M=23205 oracle -> {value:.15f} vs 0.49250245 "
        f"({time.monotonic() - t0:.1f}s)",
    )
    assert ok, (
        "the exact bound at M=23205 equals the {3,5,7,11,13,17} bound "
        "(same rational), not the quoted 0.49250245"
    )


MEDIUM_FIXTURES = [
    ((3, 5, 7, 11, 13, 17, 19, 31, 41, 73, 241), "0.49098556503467"),
    ((3, 5, 7, 11, 13, 17, 19, 31, 41, 73, 241, 257), "0.49089834"),
]


@pytest.mark.parametrize("primes,printed", MEDIUM_FIXTURES,
                         ids=["11-prime", "12-prime"])
def test_criterion_8_medium_runs(primes, printed):
    t0 = time.monotonic()
    result = density.run_estimate(primes)
    value = float(result.bound_upper)
    elapsed = time.monotonic() - t0
    tol = 2 * 10.0 ** -len(printed.split(".")[1])
    ok = abs(value - float(printed)) <= tol and elapsed < 3600
    _report("8", ok, f"{len(primes)} primes -> {value:.15f} vs {printed} ({elapsed:.0f}s)")
    assert ok


def test_criterion_9_property_suite(enumeration_24):
    t0 = time.monotonic()
    # partition independence over all 2-partitions of {3,5,7,11,13}
    primes = [3, 5, 7, 11, 13]
    baseline = None
    partition_ok = True
    for r in range(len(primes) + 1):
        for left in itertools.combinations(primes, r):
            right = tuple(p for p in primes if p not in left)
            result = density.run_estimate(primes, partition=(left, right))
            if baseline is None:
                baseline = result
            partition_ok &= result.histogram.counts == baseline.histogram.counts
            partition_ok &= result.bound_upper == baseline.bound_upper

    # dedup conservation along an iterated merge
    dedup_ok = True
    cluster = density.TRIVIAL_CLUSTER
    product = 1
    for p in (3, 5, 7, 13, 17):
        cluster = density.merge(cluster, density.prime_cluster(p))
        product *= p
        dedup_ok &= sum(cluster.rows.values()) == product

    # augment/merge identities
    c3 = density.prime_cluster(3)
    ident_ok = density.augment(c3, 2).rows == c3.rows
    ident_ok &= density.merge(c3, density.TRIVIAL_CLUSTER).rows == c3.rows
    lifted = density.augment(c3, 8)
    ident_ok &= all(m.bit_count() == 4 * k.bit_count()
                    for m, k in zip(sorted(lifted.rows), sorted(c3.rows)))

    # double_cover on 100 randomized minimal covering inputs
    from test_covering import _minimal_coverings_with_lcm_12

    pool = _minimal_coverings_with_lcm_12() + [s for s, _ in enumeration_24.systems]
    rng = random.Random(11184810)
    double_ok = True
    for system in rng.sample(pool, 100):
        doubled = covering.double_cover(system)
        double_ok &= covering.is_covering(doubled)
        double_ok &= covering.is_minimal(doubled)
        double_ok &= bool(covering.find_prime_assignments(doubled.moduli))

    elapsed = time.monotonic() - t0
    ok = partition_ok and dedup_ok and ident_ok and double_ok
    _report(
        "9",
        ok,
        f"partition={partition_ok} dedup={dedup_ok} identities={ident_ok} "
        f"double_cover={double_ok} ({elapsed:.1f}s)",
    )
    assert ok
