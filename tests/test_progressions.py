import dataclasses
import math
import random

import pytest

from conftest import M48, MOD3_MODULI, TABLE_MOD3_ROWS
from p2k.catalog import (
    CHEN_PROGRESSION_1,
    CHEN_PROGRESSION_2,
    CHEN_SYSTEM_1,
    CHEN_SYSTEM_2,
    ERDOS_ASSIGNMENT,
    ERDOS_PROGRESSION,
    ERDOS_SYSTEM,
    LARGE_CONSTRUCTIONS,
)
from p2k.covering import (
    CoveringSystem,
    PrimeAssignment,
    canonical_assignment,
    enumerate_cdl_systems,
)
from p2k.modcore import is_prime, ord2
from p2k.progressions import (
    CdlProgression,
    assignment_matching_modulus,
    derive_progression,
    membership_in_U_is_certified,
    pair_gcd_census,
    verify_excludes_primes,
)


def _table_system(residues):
    return CoveringSystem.from_pairs(zip(residues, MOD3_MODULI))


ERDOS = derive_progression(ERDOS_SYSTEM, ERDOS_ASSIGNMENT)


def test_derive_erdos_and_chen():
    assert (ERDOS.residue, ERDOS.modulus) == ERDOS_PROGRESSION
    asg1 = canonical_assignment(CHEN_SYSTEM_1.moduli)
    p1 = derive_progression(CHEN_SYSTEM_1, asg1)
    assert (p1.residue, p1.modulus) == CHEN_PROGRESSION_1
    asg2 = canonical_assignment(CHEN_SYSTEM_2.moduli)
    p2 = derive_progression(CHEN_SYSTEM_2, asg2)
    assert (p2.residue, p2.modulus) == CHEN_PROGRESSION_2


def test_derive_rejects_mismatched_assignment():
    wrong = PrimeAssignment.from_pairs([(2, 3), (4, 5)])
    with pytest.raises(ValueError):
        derive_progression(ERDOS_SYSTEM, wrong)


def test_derive_rejects_shared_factor():
    # 15 divides 2^4 - 1 but shares the factor 3 with the prime for 2; the
    # assignment refuses it as composite before any progression is derived
    with pytest.raises(ValueError, match="15 is not an odd prime"):
        PrimeAssignment.from_pairs([(2, 3), (4, 15)])


def test_progression_type_invariants():
    # membership_in_U_is_certified trusts these: an odd residue in (0, M),
    # fixed once the progression is built
    with pytest.raises(ValueError, match="must be odd"):
        CdlProgression(2, 10, ERDOS_SYSTEM, ERDOS_ASSIGNMENT)  # even residue
    with pytest.raises(ValueError, match="must be odd"):
        CdlProgression(7629218, M48, ERDOS_SYSTEM, ERDOS_ASSIGNMENT)
    with pytest.raises(ValueError):
        CdlProgression(11, 10, ERDOS_SYSTEM, ERDOS_ASSIGNMENT)  # out of range
    with pytest.raises(dataclasses.FrozenInstanceError):
        ERDOS.residue = 7629219


def test_all_48_published_rows_derive_and_certify():
    for residues, a in TABLE_MOD3_ROWS:
        system = _table_system(residues)
        asg = canonical_assignment(system.moduli)
        prog = derive_progression(system, asg)
        assert (prog.residue, prog.modulus) == (a, M48)
        assert membership_in_U_is_certified(prog)


def test_exclusion_certificate_for_erdos():
    cert = verify_excludes_primes(ERDOS)
    assert cert.verdict
    assert cert.k_period == 24
    assert cert.checked_primes == (3, 7, 5, 17, 13, 241)
    assert cert.witnesses == ()


def test_exclusion_periodicity():
    m = ERDOS.modulus
    period = ord2(m // 2)
    assert period == 24
    assert pow(2, 1 + period, m) == pow(2, 1, m)


def test_lemma_divisibility_over_full_period():
    # every k has some assigned prime dividing a - 2^k
    a, m = ERDOS.residue, ERDOS.modulus
    primes = ERDOS.assignment.primes
    for k in range(ord2(m // 2)):
        assert any((a - pow(2, k, p)) % p == 0 for p in primes)


def test_constructed_failure_has_witnesses():
    # residue 7 contains 3 + 2^2 and 5 + 2^1
    fake = CdlProgression(7, M48, ERDOS_SYSTEM, ERDOS_ASSIGNMENT)
    cert = verify_excludes_primes(fake)
    assert not cert.verdict
    assert (3, 2) in cert.witnesses
    assert (5, 1) in cert.witnesses


def _assert_equals_direct_loop(prog):
    """verify_excludes_primes against the direct loop over every k in
    1..k_period, then every assigned prime c in order, c + 2^k = a (mod M);
    returns the certificate."""
    a, m = prog.residue, prog.modulus
    cert = verify_excludes_primes(prog)
    witnesses = []
    for k in range(1, cert.k_period + 1):
        power = pow(2, k, m)
        witnesses += [(c, k) for c in prog.assignment.primes if (c + power) % m == a]
    assert cert.witnesses == tuple(witnesses)
    assert cert.verdict == (not witnesses)
    return cert


def test_witnesses_equal_direct_double_loop():
    primes = ERDOS_ASSIGNMENT.primes
    rng = random.Random(20241018)
    residues = [7] + [
        (rng.choice(primes) + pow(2, rng.randrange(1, 25), M48)) % M48
        for _ in range(30)
    ]
    for a in residues:
        prog = CdlProgression(a, M48, ERDOS_SYSTEM, ERDOS_ASSIGNMENT)
        assert _assert_equals_direct_loop(prog).witnesses
    # moduli other than 2 * prod p_i: mod 6 the powers of 2 repeat within
    # the period 24, so one prime can have several witnesses
    certs = [
        _assert_equals_direct_loop(CdlProgression(a, m, ERDOS_SYSTEM, ERDOS_ASSIGNMENT))
        for a, m in ((1, 6), (3, 6), (5, 6), (7629217, M48 + 2))
    ]
    assert len(certs[0].witnesses) > len(primes)


@pytest.mark.parametrize("D", [24, 36, 48, 80])
def test_exclusion_equals_direct_loop_on_enumerated_progressions(D):
    report = enumerate_cdl_systems(D)
    first = {}
    for pair, prog in zip(report.systems, report.progressions):
        first.setdefault(prog, pair)
    assert len(first) == report.distinct_progression_count
    for system, asg in first.values():
        prog = derive_progression(system, asg)
        assert _assert_equals_direct_loop(prog).k_period == ord2(prog.modulus // 2)
    if D == 80:
        # residues built to fail: a = c + 2^k (mod M) for each assigned c,
        # at k across the period and past it
        system, asg = next(iter(first.values()))
        m = 2 * math.prod(asg.primes)
        for c in asg.primes:
            for k in (1, 2, 7, 40, ord2(m // 2), ord2(m // 2) + 3):
                a = (c + pow(2, k, m)) % m
                assert _assert_equals_direct_loop(CdlProgression(a, m, system, asg)).witnesses


@pytest.mark.parametrize(
    "residue, modulus, assignment",
    [
        # the assignment's moduli are not the system's
        (7629217, M48, PrimeAssignment.from_pairs([(2, 3), (4, 5)])),
        # M is not 2 * prod p_i
        (7629217, M48 + 2, ERDOS_ASSIGNMENT),
        # 7629219 = 0 (mod 3), but the class 0 (mod 2) asks for 2^0 = 1
        (7629219, M48, ERDOS_ASSIGNMENT),
    ],
    ids=["moduli", "modulus", "congruence"],
)
def test_membership_rejects_each_broken_link(residue, modulus, assignment):
    prog = CdlProgression(residue, modulus, ERDOS_SYSTEM, assignment)
    assert not membership_in_U_is_certified(prog)


def test_membership_fails_for_noncovering_source():
    noncover = CoveringSystem.from_pairs([(0, 2), (1, 3)])
    asg = PrimeAssignment.from_pairs([(2, 3), (3, 7)])
    prog = derive_progression(noncover, asg)
    assert not membership_in_U_is_certified(prog)


def test_certificate_json_fields():
    assert verify_excludes_primes(ERDOS).to_dict() == {
        "a": 7629217,
        "M": 11184810,
        "primes": [3, 7, 5, 17, 13, 241],
        "k_period": 24,
        "verdict": True,
        "witnesses": [],
    }


def _large_row(D):
    for row in LARGE_CONSTRUCTIONS:
        if row[0] == D:
            return row
    raise KeyError(D)


def test_assignment_matching_modulus_unique_for_d36():
    D, mods, _res, _a, m = _large_row(36)
    asg = assignment_matching_modulus(mods, m)
    assert asg.pairs == ((2, 3), (3, 7), (4, 5), (9, 73), (12, 13), (18, 19), (36, 109))
    with pytest.raises(ValueError):
        assignment_matching_modulus(mods, m + 2)
    with pytest.raises(ValueError, match="must be even"):
        assignment_matching_modulus(mods, m + 1)


def test_large_rows_reproduce_printed_progressions():
    for D, mods, res, a, m in LARGE_CONSTRUCTIONS:
        system = CoveringSystem.from_pairs(zip(res, mods))
        asg = assignment_matching_modulus(mods, m)
        prog = derive_progression(system, asg)
        assert (prog.residue, prog.modulus) == (a, m)
        # the finite exclusion check passes for every published row
        assert verify_excludes_primes(prog).verdict


def test_large_row_membership_split():
    # The D = 48, 60, 80 rows certify end to end.  The D = 36 and 72 rows
    # cannot: their class tuples leave k = 0 (and infinitely many other k)
    # uncovered, so certification must reject them.
    outcomes = {}
    for D, mods, res, a, m in LARGE_CONSTRUCTIONS:
        system = CoveringSystem.from_pairs(zip(res, mods))
        asg = assignment_matching_modulus(mods, m)
        prog = derive_progression(system, asg)
        outcomes[D] = membership_in_U_is_certified(prog)
    assert outcomes == {36: False, 48: True, 60: True, 72: False, 80: True}


def test_d72_row_really_contains_p_plus_2k():
    # concrete witness that rejecting the published D = 72 row is correct:
    # its residue is itself prime + 2^8
    _D, _mods, _res, a, m = _large_row(72)
    p = a - 2**8
    assert is_prime(p)
    assert p + 2**8 == a and a % 2 == 1 and a % m == a


def test_d36_row_really_contains_p_plus_2k():
    _D, _mods, _res, a, m = _large_row(36)
    x = a + 2 * m
    p = x - 2**4
    assert is_prime(p)
    assert (p + 2**4) % m == a


def test_census_of_published_48(residues_48):
    progs = [(a, M48) for a in residues_48]
    total, hits = pair_gcd_census(progs)
    assert total == 1128
    # exact distribution over the published table: 384 pairs have gcd 2
    assert hits == 384


def test_census_symmetry_and_edge_cases(residues_48):
    import random

    progs = [(a, M48) for a in residues_48]
    rng = random.Random(7)
    shuffled = progs[:]
    rng.shuffle(shuffled)
    assert pair_gcd_census(shuffled) == pair_gcd_census(progs)
    assert pair_gcd_census([(7629217, M48)]) == (0, 0)
    assert pair_gcd_census([]) == (0, 0)


def test_census_of_the_published_example_pair():
    total, hits = pair_gcd_census([(992077, M48), (3292241, M48)])
    assert (total, hits) == (1, 1)
    assert math.gcd(M48, 992077 - 3292241) == 2


def test_census_rejects_mixed_moduli():
    with pytest.raises(ValueError):
        pair_gcd_census([(1, 10), (3, 14)])


@pytest.mark.parametrize("modulus", [0, -6, 1, 9])
def test_census_rejects_modulus_that_is_not_even_and_positive(modulus):
    with pytest.raises(ValueError, match="even and >= 2"):
        pair_gcd_census([(1, modulus), (3, modulus)])


@pytest.mark.parametrize(
    "progs, message",
    [
        ([(2, 6), (4, 6)], "odd"),
        ([(1, 6), (3, 6), (6, 6)], "odd"),
        ([(-1, 6), (1, 6)], r"\(0, 6\)"),
        ([(1, 6), (7, 6)], r"\(0, 6\)"),
        ([(1, 4), (1, 4)], "1 mod 4 is repeated"),
        ([(M48 - 1, M48), (1, M48), (M48 - 1, M48)], "repeated"),
    ],
)
def test_census_rejects_even_unreduced_or_repeated_residues(progs, message):
    with pytest.raises(ValueError, match=message):
        pair_gcd_census(progs)
