import dataclasses
import itertools
import json
import math
import random

import pytest

from conftest import MOD3_MODULI, MOD6_MODULI, TABLE_MOD3_ROWS, TABLE_MOD6_ROWS
from mersenne_table import MERSENNE_FACTORS
from p2k import covering
from p2k.catalog import CHEN_SYSTEM_2, ERDOS_ASSIGNMENT, ERDOS_SYSTEM
from p2k.covering import (
    CoveringSystem,
    EnumerationReport,
    PrimeAssignment,
    _class_mask,
    _minimal_coverings,
    canonical_assignment,
    cdl_progression_residue,
    double_cover,
    enumerate_cdl_systems,
    find_prime_assignments,
    is_covering,
    is_minimal,
    iter_prime_assignments,
)
from p2k.modcore import CongruenceCondition, divisors
from p2k.progressions import derive_progression, membership_in_U_is_certified


def test_type_rejects_repeated_moduli():
    with pytest.raises(ValueError):
        CoveringSystem.from_pairs([(0, 2), (1, 2), (0, 3)])


def test_from_pairs_rejects_nonpositive_modulus():
    for bad in ([(0, 0)], [(1, 2), (0, 0)], [(1, -3)]):
        with pytest.raises(ValueError, match="modulus must be >= 1"):
            CoveringSystem.from_pairs(bad)


def test_type_rejects_wrong_lcm():
    # the lcm is derived from the moduli, never given
    with pytest.raises(TypeError):
        CoveringSystem((), 5)
    assert CoveringSystem(()).lcm_D == 1
    system = CoveringSystem((CongruenceCondition(0, 4), CongruenceCondition(1, 6)))
    assert system.lcm_D == 12
    with pytest.raises(AttributeError):
        system.lcm_D = 5


def test_assignment_type_invariants():
    # membership_in_U_is_certified trusts these: distinct primes, each
    # dividing 2^d - 1, fixed once the assignment is built
    for pairs in ([(2, 3), (4, 3)], [(2, 3), (3, 3)]):
        with pytest.raises(ValueError, match="primes must be distinct"):
            PrimeAssignment.from_pairs(pairs)
    for pairs in ([(2, 5)], [(2, 3), (4, 7)]):
        with pytest.raises(ValueError, match="does not divide"):
            PrimeAssignment.from_pairs(pairs)
    # 3 and 5 both divide 2^4 - 1; the map must still be injective
    with pytest.raises(ValueError, match="moduli must be distinct"):
        PrimeAssignment.from_pairs([(4, 3), (4, 5)])
    with pytest.raises(dataclasses.FrozenInstanceError):
        ERDOS_ASSIGNMENT.pairs = ((2, 3),)


@pytest.mark.parametrize("bad", [0, 1, -5, 15, 2])
def test_assignment_rejects_prime_that_is_not_an_odd_prime(bad):
    # 0 used to raise ZeroDivisionError; 1, -5 and the composite 15 all
    # divide 2^4 - 1 and used to pass; 2 is prime but even
    with pytest.raises(ValueError, match="not an odd prime"):
        PrimeAssignment.from_pairs([(2, 3), (4, bad)])


def test_assignment_rejects_nonpositive_modulus():
    # 2^0 - 1 = 0 is divisible by every prime
    with pytest.raises(ValueError, match="modulus must be >= 1"):
        PrimeAssignment.from_pairs([(0, 3)])


def test_is_covering_known_systems():
    assert is_covering(ERDOS_SYSTEM)
    assert is_covering(CHEN_SYSTEM_2)
    assert not is_covering(CoveringSystem.from_pairs([(0, 2)]))


def test_is_minimal():
    assert is_minimal(ERDOS_SYSTEM)
    # still covering with a redundant extra class, so not minimal
    padded = CoveringSystem.from_pairs(
        [(0, 2), (0, 3), (1, 4), (3, 8), (5, 16), (7, 12), (23, 24)]
    )
    assert is_covering(padded)
    assert not is_minimal(padded)
    # non-covering input is not a minimal covering
    assert not is_minimal(CoveringSystem.from_pairs([(0, 2), (1, 4)]))


def test_find_prime_assignments():
    assert find_prime_assignments([2, 3, 4, 6, 12]) == []
    found = find_prime_assignments([2, 3, 4, 8, 12, 24])
    expected = PrimeAssignment.from_pairs(
        [(2, 3), (3, 7), (4, 5), (8, 17), (12, 13), (24, 241)]
    )
    assert expected in found
    assert find_prime_assignments([2]) == [PrimeAssignment.from_pairs([(2, 3)])]


def test_modulus_1_has_no_prime_assignment():
    # 2^1 - 1 = 1 has no prime divisor, while the other moduli still do
    assert list(iter_prime_assignments([1])) == []
    assert list(iter_prime_assignments([1, 2, 3])) == []
    assert canonical_assignment([3, 1]) is None
    with pytest.raises(ValueError, match="d >= 2"):
        list(iter_prime_assignments([0, 2]))


def test_find_prime_assignments_rejects_duplicates():
    with pytest.raises(ValueError):
        find_prime_assignments([2, 2, 3])
    with pytest.raises(ValueError, match="distinct"):
        canonical_assignment([2, 3, 3])


def test_canonical_assignment_is_lexicographically_least():
    asg = canonical_assignment([2, 3, 4, 8, 12, 24])
    assert asg.pairs == ((2, 3), (3, 7), (4, 5), (8, 17), (12, 13), (24, 241))
    assert canonical_assignment([24, 12, 8, 4, 3, 2]) == asg  # any input order
    assert canonical_assignment([2, 3, 4, 6, 12]) is None


@pytest.mark.parametrize("D", [24, 36, 48, 80])
def test_assignments_equal_filtered_product(D):
    # oracle: every tuple of candidate primes (from the sympy table) with
    # distinct entries, sorted; the search must list exactly these, in
    # this order, and its first is canonical_assignment
    divs = [d for d in divisors(D) if d >= 2]
    for r in range(1, len(divs) + 1):
        for mods in itertools.combinations(divs, r):
            candidates = [[p for p, _ in MERSENNE_FACTORS[d]] for d in mods]
            expected = sorted(
                tuple(zip(mods, primes))
                for primes in itertools.product(*candidates)
                if len(set(primes)) == len(primes)
            )
            assert [a.pairs for a in find_prime_assignments(mods)] == expected, mods
            first = canonical_assignment(mods)
            assert (first.pairs if first else None) == (
                expected[0] if expected else None
            ), mods


def test_enumerate_skips_low_divisor_density():
    # every D <= 2000 with sigma(D) <= 2D, the perfect 6, 28 and 496 included
    for D in range(1, 2001):
        sigma = sum(d for d in range(1, D + 1) if D % d == 0)
        if sigma <= 2 * D:
            report = enumerate_cdl_systems(D)
            assert report.skip_reason == (
                f"sum of 1/d over divisors of {D} does not exceed 2"
            ), D
            assert report.systems == ()


def test_enumerate_rejects_d_beyond_factor_range():
    # 1068 = 12 * 89 passes the divisor-density screen, but 2^89 - 1 is a
    # prime above psi_12 that factorize can neither split nor certify
    with pytest.raises(ValueError, match="2\\^1068 - 1"):
        enumerate_cdl_systems(1068)
    with pytest.raises(ValueError, match="out of supported enumeration range"):
        enumerate_cdl_systems(2**20 + 2)


def test_enumerate_small_d_finds_nothing():
    for D in (12, 18, 20):
        report = enumerate_cdl_systems(D)
        assert report.skip_reason is None
        assert len(report.systems) == 0


def test_enumerate_24_counts(enumeration_24):
    assert len(enumeration_24.systems) == 96
    assert enumeration_24.distinct_progression_count == 48


def test_enumerate_24_matches_published_tables(enumeration_24):
    got = {
        (sys.moduli, sys.residues): prog
        for (sys, _), prog in zip(enumeration_24.systems, enumeration_24.progressions)
    }
    assert len(got) == 96
    for residues, a in TABLE_MOD3_ROWS:
        pairs = sorted(zip(residues, MOD3_MODULI), key=lambda t: t[1])
        key = (tuple(d for _, d in pairs), tuple(r for r, _ in pairs))
        assert got[key] == (a, 11184810)
    for residues, a in TABLE_MOD6_ROWS:
        pairs = sorted(zip(residues, MOD6_MODULI), key=lambda t: t[1])
        key = (tuple(d for _, d in pairs), tuple(r for r, _ in pairs))
        assert got[key] == (a, 11184810)


def test_enumerate_24_systems_reassert_invariants(enumeration_24):
    from fractions import Fraction

    for system, asg in enumeration_24.systems:
        assert system.lcm_D == 24
        assert is_covering(system)
        assert is_minimal(system)
        assert asg.moduli == system.moduli
        assert sum(Fraction(1, d) for d in system.moduli) >= 1


def _reference_enumeration_24():
    """Exhaustive product-loop re-enumeration, no pruning."""
    found = set()
    divs = [d for d in divisors(24) if d >= 2]
    for r in range(1, len(divs) + 1):
        for mods in itertools.combinations(divs, r):
            if sum(24 // d for d in mods) <= 24:
                continue
            if math.lcm(*mods) != 24:
                continue
            if not find_prime_assignments(mods):
                continue
            for residues in itertools.product(*(range(d) for d in mods)):
                full = set(range(24))
                for a, d in zip(residues, mods):
                    full -= set(range(a, 24, d))
                if full:
                    continue
                system = CoveringSystem.from_pairs(zip(residues, mods))
                if is_minimal(system):
                    found.add((system.moduli, system.residues))
    return found


def test_enumeration_is_exhaustive_for_24(enumeration_24):
    reference = _reference_enumeration_24()
    ours = {(s.moduli, s.residues) for s, _ in enumeration_24.systems}
    assert ours == reference


def _plain_minimal_coverings(mods, D):
    """Residue tuples of every minimal covering of Z/D with one class per
    modulus of mods, sorted: residues tried in modulus order with the
    budget prune and no quotient, minimality checked on each covering."""
    masks = [[_class_mask(a, d, D) for a in range(d)] for d in mods]
    residues = [0] * len(mods)
    found = []

    def search(depth, remaining, budget):
        if remaining == 0:
            if depth == len(mods):
                found.append(tuple(residues))
            return
        if depth == len(mods) or remaining.bit_count() > budget:
            return
        for a in range(mods[depth]):
            residues[depth] = a
            search(depth + 1, remaining & ~masks[depth][a], budget - D // mods[depth])

    search(0, (1 << D) - 1, sum(D // d for d in mods))
    return sorted(
        res for res in found if is_minimal(CoveringSystem.from_pairs(zip(res, mods)))
    )


def _residue_order_enumeration(D: int) -> EnumerationReport:
    """The full report by the plain search: modulus tuples by combinations,
    in ascending order, each with minimal coverings recorded with its
    canonical assignment and _plain_minimal_coverings."""
    divs = [d for d in divisors(D) if d >= 2]
    tuples = sorted(
        mods
        for r in range(1, len(divs) + 1)
        for mods in itertools.combinations(divs, r)
        if sum(D // d for d in mods) > D
        and math.lcm(*mods) == D
        and canonical_assignment(mods) is not None
    )
    records = tuple(
        (mods, canonical_assignment(mods), tuple(found))
        for mods in tuples
        if (found := _plain_minimal_coverings(mods, D))
    )
    return EnumerationReport(D=D, records=records)


@pytest.mark.parametrize("D", [24, 36, 48, 80])
def test_enumeration_equals_residue_order_search(D):
    report = enumerate_cdl_systems(D)
    assert report == _residue_order_enumeration(D)
    keys = {(s.moduli, s.residues) for s, _ in report.systems}
    assert len(keys) == len(report.systems)
    for system, _ in report.systems:
        assert is_minimal(system)
        shifted = tuple((a + 1) % d for a, d in zip(system.residues, system.moduli))
        assert (system.moduli, shifted) in keys  # closed under x -> x + 1
    # report equality compares records only, so the progressions derived
    # from them are checked here by plain pow, not through the CRT lift
    assert len(report.progressions) == len(report.systems)
    for (system, asg), (a, M) in zip(report.systems, report.progressions):
        assert a % 2 == 1 and 0 < a < M
        assert M == 2 * math.prod(asg.primes)
        assert asg.moduli == system.moduli
        for r, p in zip(system.residues, asg.primes):
            assert a % p == pow(2, r, p)


# tuples that reach _minimal_coverings, past the p-power screen
SEARCHED_TUPLES = {24: 3, 36: 7, 48: 19, 60: 91, 72: 131, 80: 3, 96: 91, 108: 51}


def _p_power_counts_hold(mods, D):
    """For each p^a exactly dividing D (trial division), at least p of mods
    are divisible by p^a."""
    for p in range(2, D + 1):
        if D % p == 0 and all(p % f for f in range(2, p)):
            q = p
            while D % (q * p) == 0:
                q *= p
            if sum(d % q == 0 for d in mods) < p:
                return False
    return True


@pytest.mark.parametrize("D", sorted(SEARCHED_TUPLES))
def test_p_power_screen_drops_only_tuples_without_coverings(D, monkeypatch):
    searched = []

    def recording(mods, D):
        searched.append(mods)
        return _minimal_coverings(mods, D)

    monkeypatch.setattr(covering, "_minimal_coverings", recording)
    report = enumerate_cdl_systems(D)
    monkeypatch.undo()
    assert len(searched) == SEARCHED_TUPLES[D]
    assert all(_p_power_counts_hold(mods, D) for mods, _, _ in report.records)
    divs = [d for d in divisors(D) if d >= 2]
    unscreened = {
        mods
        for r in range(1, len(divs) + 1)
        for mods in itertools.combinations(divs, r)
        if sum(D // d for d in mods) > D
        and math.lcm(*mods) == D
        and canonical_assignment(mods) is not None
    }
    kept = {mods for mods in unscreened if _p_power_counts_hold(mods, D)}
    assert set(searched) == kept
    dropped = unscreened - kept
    assert dropped
    for mods in dropped:
        assert _minimal_coverings(mods, D) == [], mods


@pytest.mark.parametrize("D", [12, 24, 36])
def test_unit_quotient_keeps_every_minimal_covering(D):
    divs = [d for d in divisors(D) if d >= 2]
    tuples = [
        mods
        for r in range(2, len(divs) + 1)
        for mods in itertools.combinations(divs, r)
        if sum(D // d for d in mods) > D and math.lcm(*mods) == D
    ]
    found = 0
    for mods in tuples:
        plain = _plain_minimal_coverings(mods, D)
        assert _minimal_coverings(mods, D) == plain, mods
        found += len(plain)
    assert found


def test_enumeration_counts_for_60_and_72():
    for D, counts in ((60, (34560, 5760)), (72, (7488, 864))):
        report = enumerate_cdl_systems(D)
        assert (len(report.systems), report.distinct_progression_count) == counts


@pytest.mark.parametrize("D, counts", [(96, (3456, 480)), (108, (5184, 1296))])
def test_enumeration_past_d_80(D, counts):
    # lcms whose 2^D - 1 lies past the old factor table's d <= 80
    report = enumerate_cdl_systems(D)
    assert (len(report.systems), report.distinct_progression_count) == counts
    assert all(is_minimal(system) for system, _ in report.systems)
    first = {}
    for (system, asg), prog in zip(report.systems, report.progressions):
        first.setdefault(prog, (system, asg))
    for (a, m), (system, asg) in first.items():
        progression = derive_progression(system, asg)
        assert (progression.residue, progression.modulus) == (a, m)
        assert membership_in_U_is_certified(progression)


def test_progression_residue_for_erdos():
    assert cdl_progression_residue(ERDOS_SYSTEM, ERDOS_ASSIGNMENT) == (
        7629217,
        11184810,
    )


def test_double_cover_example():
    base = CoveringSystem.from_pairs([(0, 2), (0, 3), (1, 4), (5, 6), (7, 12)])
    doubled = double_cover(base)
    assert [(c.residue, c.modulus) for c in doubled.classes] == [
        (1, 2), (0, 4), (0, 6), (2, 8), (10, 12), (14, 24)
    ]
    assert is_covering(doubled)
    assert is_minimal(doubled)
    assert find_prime_assignments(doubled.moduli)


def test_double_cover_of_erdos_doubles_lcm():
    doubled = double_cover(ERDOS_SYSTEM)
    assert doubled.lcm_D == 48
    assert is_covering(doubled) and is_minimal(doubled)
    assert find_prime_assignments(doubled.moduli)


def test_double_cover_rejects_bad_inputs():
    with pytest.raises(ValueError, match="not a minimal covering"):
        double_cover(CoveringSystem.from_pairs([(0, 2)]))  # not covering
    padded = CoveringSystem.from_pairs(
        [(0, 2), (0, 3), (1, 4), (3, 8), (5, 16), (7, 12), (23, 24)]
    )
    with pytest.raises(ValueError, match="not a minimal covering"):
        double_cover(padded)  # covering but not minimal
    with pytest.raises(ValueError):
        double_cover(CoveringSystem.from_pairs([(0, 1)]))  # modulus 1


def _minimal_coverings_with_lcm_12():
    out = []
    divs = [2, 3, 4, 6, 12]
    for r in range(1, 6):
        for mods in itertools.combinations(divs, r):
            if sum(12 // d for d in mods) <= 12 or math.lcm(*mods) != 12:
                continue
            for residues in itertools.product(*(range(d) for d in mods)):
                full = set(range(12))
                for a, d in zip(residues, mods):
                    full -= set(range(a, 12, d))
                if not full:
                    system = CoveringSystem.from_pairs(zip(residues, mods))
                    if is_minimal(system):
                        out.append(system)
    return out


def test_double_cover_on_randomized_minimal_inputs(enumeration_24):
    pool = _minimal_coverings_with_lcm_12()
    pool += [s for s, _ in enumeration_24.systems]
    assert len(pool) >= 100
    rng = random.Random(20240817)
    for system in rng.sample(pool, 100):
        doubled = double_cover(system)
        assert doubled.lcm_D == 2 * system.lcm_D
        assert is_covering(doubled)
        assert is_minimal(doubled)
        assert find_prime_assignments(doubled.moduli)


def test_report_json_round_trip(enumeration_24):
    # to_json writes json.dumps(payload, indent=2) by hand; this is the
    # reference, byte for byte
    report = enumeration_24
    assert report.to_json() == json.dumps({
        "D": report.D,
        "systems": [
            {
                "classes": [[c.residue, c.modulus] for c in system.classes],
                "assignment": [list(pair) for pair in asg.pairs],
                "progression": list(progression),
            }
            for (system, asg), progression in zip(report.systems, report.progressions)
        ],
        "distinct_progression_count": report.distinct_progression_count,
    }, indent=2)
    assert report.skip_reason is None
    empty = enumerate_cdl_systems(12)  # not skipped, but no system
    assert empty.to_json() == json.dumps(
        {"D": 12, "systems": [], "distinct_progression_count": 0}, indent=2
    )
    skipped = enumerate_cdl_systems(6)
    assert skipped.to_json() == json.dumps({
        "D": 6, "systems": [], "distinct_progression_count": 0,
        "skip_reason": skipped.skip_reason,
    }, indent=2)


def test_report_csv_layout(enumeration_24):
    lines = enumeration_24.to_csv().splitlines()
    assert lines[0] == "mod_2,mod_3,mod_4,mod_8,mod_12,mod_24,a"
    table1 = {line for line in lines[1:49]}
    expected = {
        ",".join(map(str, residues)) + f",{a}" for residues, a in TABLE_MOD3_ROWS
    }
    assert table1 == expected
