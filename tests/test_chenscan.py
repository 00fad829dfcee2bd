import itertools
import json
import math
import random

import pytest

from conftest import M48, RESIDUES_48, kernel_cases
from p2k import chenscan
from p2k.chenscan import (
    _N,
    ModulusVerdict,
    _longest_prefix,
    _sieved_blocks,
    check_even_modulus,
    find_witness,
    scan_range,
)
from p2k.covering import enumerate_cdl_systems
from p2k.modcore import _ord2_prime, class_cover_search, factorize, ord2, primes_up_to


def test_smallest_moduli_covered_in_one_shift():
    v2 = check_even_modulus(2)
    assert v2.covered and v2.shifts_used == 1
    # j - 2 is odd for odd j, hence coprime to 4
    v4 = check_even_modulus(4)
    assert v4.covered and v4.shifts_used == 1


def test_rejects_odd_or_nonpositive():
    for bad in (1, 3, 0, -2):
        with pytest.raises(ValueError):
            check_even_modulus(bad)
        with pytest.raises(ValueError, match="even and >= 2"):
            find_witness(bad, 1)


def _direct_leftover(b):
    """Per-residue gcd loop over all distinct shifts."""
    shifts, seen, s = [], set(), 1
    while True:
        s = s * 2 % b
        if s in seen:
            break
        seen.add(s)
        shifts.append(s)
    return [
        j
        for j in range(1, b, 2)
        if all(math.gcd(j - s, b) != 1 for s in shifts)
    ]


def _multiples(q, b):
    """Bits at 0, q, 2q, ... below b, built by doubling replication."""
    pattern, width = 1, q
    while width < b:
        pattern |= pattern << width
        width <<= 1
    return pattern & ((1 << b) - 1)


def _bitset_verdict(b):
    """The strike-out sieve, one bit per residue mod b: start from the odd
    residues and clear the reduced residue system shifted by 2^k for
    k = 1, 2, ... until the set empties or the shift values repeat."""
    full = (1 << b) - 1
    noncoprime = _multiples(2, b)
    for q, _ in factorize(b):
        noncoprime |= _multiples(q, b)
    coprime = full ^ noncoprime
    remaining = full // 3 << 1  # bits at the odd residues
    seen, shift, k = set(), 1, 0
    while True:
        shift = shift * 2 % b
        if shift in seen:
            leftover, m = [], remaining
            while m:
                low = m & -m
                leftover.append(low.bit_length() - 1)
                m ^= low
            return ModulusVerdict(b, False, k, tuple(leftover))
        seen.add(shift)
        k += 1
        remaining &= ~(((coprime << shift) & full) | (coprime >> (b - shift)))
        if remaining == 0:
            return ModulusVerdict(b, True, k)


def test_order_covering_equals_bitset_sieve_up_to_20000():
    uncovered = []
    for b in range(2, 20001, 2):
        oracle = _bitset_verdict(b)
        assert check_even_modulus(b) == oracle, b
        if not oracle.covered:
            uncovered.append(oracle)
    assert scan_range(2, 20000).uncovered_moduli == uncovered


@pytest.mark.parametrize("multiple", [1, 2, 3, 4])
def test_order_covering_equals_bitset_sieve_at_multiples_of_m48(multiple):
    b = multiple * M48
    assert check_even_modulus(b) == _bitset_verdict(b)


# covered b whose prefix walk is long or whose T is large: L ends 33 above
# its start for 16686180 (T = 360) and 21 and 18 above for 14718990
# (T = 4140) and 13334970 (T = 11880); T = 265932, 1337076 and 7976610 for
# the last three
@pytest.mark.parametrize(
    "b", [16686180, 14718990, 13334970, 17039010, 16353786, 15953222]
)
def test_order_covering_equals_bitset_sieve_on_large_covered_b(b):
    verdict = check_even_modulus(b)
    assert verdict.covered
    assert verdict == _bitset_verdict(b)


def test_longest_prefix_equals_brute_force():
    # over every choice vector of each seeded moduli list, the longest
    # covered prefix from position 0 is T exactly when the full walk finds
    # a covering, and otherwise the upward walk's L
    for moduli, T, _, _ in kernel_cases():
        def cover(vector):
            covered = 0
            for c, d in zip(vector, moduli):
                if c is not None:
                    covered |= sum(1 << x for x in range(c, T, d))
            return covered

        vectors = itertools.product(*[[None, *range(d)] for d in moduli])
        longest = max((~m & (m + 1)).bit_length() - 1 for m in map(cover, vectors))
        covers = any(class_cover_search(moduli, T))
        assert covers == (longest == T), moduli
        if not covers:
            assert _longest_prefix(moduli, T) == longest, moduli


def test_bitset_equals_direct_gcd_loop_up_to_1000():
    for b in range(2, 1001, 2):
        verdict = check_even_modulus(b)
        direct = _direct_leftover(b)
        assert list(verdict.leftover) == direct
        assert verdict.covered == (not direct)


def test_shift_budget_respects_preperiod_plus_order():
    for b in (2, 4, 6, 8, 12, 24, 90, 11184810):
        verdict = check_even_modulus(b)
        j = (b & -b).bit_length() - 1
        b_odd = b >> j
        assert verdict.shifts_used <= j + ord2(b_odd)


def test_big_modulus_leftover_is_the_published_48(big_modulus_verdict):
    v = big_modulus_verdict
    assert not v.covered
    assert v.shifts_used == 24
    assert list(v.leftover) == sorted(RESIDUES_48)


def test_extra_shifts_clear_nothing_new(big_modulus_verdict):
    # beyond the applied shifts the power-of-two values only repeat, so
    # every survivor stays non-coprime after shifting by any 2^k at all
    b = big_modulus_verdict.b
    for j in big_modulus_verdict.leftover[:6]:
        for k in range(1, 61):
            assert math.gcd(j - pow(2, k, b), b) > 1


def test_doubled_modulus_keeps_lifted_survivors():
    # any residue surviving mod b also survives in both lifts mod 2b
    v = check_even_modulus(2 * M48)
    assert not v.covered
    lifted = {a for a in RESIDUES_48} | {a + M48 for a in RESIDUES_48}
    assert lifted <= set(v.leftover)


def test_prime_that_cannot_help_keeps_every_lift():
    # ord_2(11) = 10 shares only the factor 2 with the period 24 of the 48,
    # so no class of 11 completes a failed cover: the survivors mod 11 * M48
    # are all 11 lifts of the 48, residues divisible by 11 included
    v = check_even_modulus(11 * M48)
    assert not v.covered and v.shifts_used == 120
    assert list(v.leftover) == sorted(a + M48 * t for a in RESIDUES_48 for t in range(11))


@pytest.mark.parametrize("b", [M48, 3 * M48, 4 * M48, 11 * M48])
def test_leftover_is_counted_exactly_before_it_is_listed(monkeypatch, b):
    # 11 * M48's walk leaves 11 open with barred classes in some families
    n = len(check_even_modulus(b).leftover)
    monkeypatch.setattr(chenscan, "_LEFTOVER_LIMIT", n)
    assert len(check_even_modulus(b).leftover) == n
    monkeypatch.setattr(chenscan, "_LEFTOVER_LIMIT", n - 1)
    with pytest.raises(ValueError, match=f"b = {b} leaves {n} odd residues"):
        check_even_modulus(b)


def test_huge_leftover_is_refused_before_it_is_listed():
    # 11184810 * 2^22 leaves 48 * 2^22 residues, some 8 GB as Python ints
    b = M48 << 22
    with pytest.raises(ValueError, match=f"b = {b} leaves {48 << 22} odd residues"):
        check_even_modulus(b)


def test_scan_tiny_ranges():
    report = scan_range(2, 2)
    assert report.uncovered_moduli == []
    report = scan_range(2, 1000)
    assert report.uncovered_moduli == []
    assert (report.b_lo, report.b_hi) == (2, 1000)


@pytest.mark.parametrize("lo, hi", [(3, 3), (0, 1), (5, 4), (-10, 0)])
def test_scan_without_even_modulus_is_an_error(lo, hi):
    with pytest.raises(ValueError):
        scan_range(lo, hi)


def test_scan_above_its_limit_is_refused_before_any_sieving(monkeypatch):
    # a window near 10^18 would list every prime below 10^9 for its sieve
    sieved = []
    monkeypatch.setattr(chenscan, "primes_up_to", lambda n: sieved.append(n) or [])
    lo = 10**18
    with pytest.raises(ValueError, match=f"b up to {10**16}, got {lo + 10}; .* chen check"):
        scan_range(lo, lo + 10)
    assert sieved == []


def test_scan_at_its_limit_is_accepted(monkeypatch):
    # the sieve itself (about 6 s and 0.4 GB at 10^16) is left out
    monkeypatch.setattr(chenscan, "_sieved_blocks", lambda start, stop: iter(()))
    report = scan_range(10**16 - 20, 10**16)
    assert (report.b_lo, report.b_hi, report.uncovered_moduli) == (10**16 - 20, 10**16, [])


def test_scan_finds_uncovered_when_present():
    report = scan_range(M48, M48)
    assert len(report.uncovered_moduli) == 1
    assert list(report.uncovered_moduli[0].leftover) == sorted(RESIDUES_48)


def test_full_range_leaves_only_11184810():
    # the paper's result 2: every even b below 11184810 is covered
    verdict = check_even_modulus(M48)
    assert scan_range(2, M48).uncovered_moduli == [verdict]
    assert verdict.shifts_used == 24
    assert list(verdict.leftover) == sorted(RESIDUES_48)


def _reference_odd_prime_factors(lo, hi, odd_primes):
    """Distinct odd prime factors, ascending, of each even b in [lo, hi]
    (lo even), by sieving with odd_primes, which must reach sqrt(hi)."""
    count = (hi - lo) // 2 + 1
    factors = [[] for _ in range(count)]
    rest = list(range(lo // 2, lo // 2 + count))  # b / 2
    for p in odd_primes:
        if p * p > hi:
            break
        for i in range(-(lo // 2) % p, count, p):
            factors[i].append(p)
            r = rest[i] // p
            while r % p == 0:
                r //= p
            rest[i] = r
    for fs, r in zip(factors, rest):
        r >>= (r & -r).bit_length() - 1
        if r > 1:
            fs.append(r)  # the one prime factor above sqrt(hi)
    return factors


def _reference_scan(b_lo, b_hi):
    """The per-b scan: factor lists for every b, its orders, the exact
    screen sum(T // o) >= T, then a walk over Z/T for a covering."""
    start, stop = max(2, b_lo + b_lo % 2), b_hi - b_hi % 2
    odd_primes = primes_up_to(math.isqrt(stop))[1:]
    width = 2 * math.isqrt(stop)
    uncovered = []
    for lo in range(start, stop + 1, width):
        hi = min(lo + width - 2, stop)
        for b, qs in zip(range(lo, hi + 1, 2), _reference_odd_prime_factors(lo, hi, odd_primes)):
            ords = [_ord2_prime(q) for q in qs]
            T = math.lcm(*ords)
            if sum(T // o for o in ords) >= T and any(class_cover_search(ords, T)):
                uncovered.append(check_even_modulus(b))
    return uncovered


def _exact_weight(b):
    """(N * sum(T // o), T) over the distinct odd primes of b, T = lcm."""
    ords = [_ord2_prime(q) for q, _ in factorize(b) if q != 2]
    T = math.lcm(*ords)
    return _N * sum(T // o for o in ords), T


def _assert_bounds_hold(start, stop):
    seen = []
    for lo, bounds in _sieved_blocks(start, stop):
        for i, bound in enumerate(bounds):
            b = lo + 2 * i
            weight, T = _exact_weight(b)
            assert bound * T >= weight, b
            seen.append(b)
    assert seen == list(range(start, stop + 1, 2))


def test_sieved_bound_never_below_the_order_weight():
    # early blocks have hi far below the range's stop, so the credit for
    # the prime above sqrt(hi) must come from each block's own hi
    _assert_bounds_hold(2, 200000)


def test_sieved_bound_drops_most_b():
    kept = total = 0
    for _, bounds in _sieved_blocks(2, 200000):
        kept += sum(bound >= _N for bound in bounds)
        total += len(bounds)
    assert total == 100000 and kept < total // 20


@pytest.mark.parametrize("center", [10**3, 10**6, 11_000_000])
@pytest.mark.parametrize("seed", [1, 2])
def test_scan_matches_reference_across_block_boundaries(center, seed):
    rng = random.Random(seed)
    lo = center - 2 * rng.randrange(0, 300)
    hi = lo + 2 * math.isqrt(2 * lo) + 2 * rng.randrange(1, 300)
    assert (hi - lo) // 2 + 1 > math.isqrt(hi)  # more than one block
    report = scan_range(lo, hi)
    assert report.uncovered_moduli == _reference_scan(lo, hi)
    _assert_bounds_hold(lo, hi)
    # per-b verdicts: every b near 10^3 and 10^6; about 3 ms each near
    # 1.1e7, so a seeded sample there
    evens = range(lo, hi + 1, 2)
    checked = evens if center < 10**7 else sorted(rng.sample(evens, 40))
    uncovered = [v for v in map(check_even_modulus, checked) if not v.covered]
    assert uncovered == [v for v in report.uncovered_moduli if v.b in checked]


def test_window_around_twice_the_top_modulus():
    top = 2 * M48
    expected = [check_even_modulus(top)]
    assert scan_range(top - 2000, top + 2000).uncovered_moduli == expected
    assert _reference_scan(top - 2000, top + 2000) == expected


# per progression modulus M of D: (distinct progression residues mod M,
# odd residues the Chen sieve leaves mod M)
_CDL_MODULI = {
    24: {M48: (48, 48)},
    36: {140100870: (144, 144)},  # 37 is D = 36's order-36 prime
    48: {1084926570: (96, 4656), 1156954890: (96, 96)},
}


@pytest.mark.parametrize("D", sorted(_CDL_MODULI))
def test_chen_leftover_holds_every_cdl_progression(D):
    # cross-pipeline oracle: a CDL progression mod M avoids every p + 2^k,
    # so the sieve must leave M uncovered with each of its residues left
    by_modulus = {}
    for a, M in enumerate_cdl_systems(D).progressions:
        by_modulus.setdefault(M, set()).add(a)
    sizes = {}
    for M, residues in by_modulus.items():
        verdict = check_even_modulus(M)
        assert not verdict.covered, M
        assert residues <= set(verdict.leftover), M
        sizes[M] = (len(residues), len(verdict.leftover))
    assert sizes == _CDL_MODULI[D]


@pytest.mark.parametrize("b", [209191710, 803736570])
def test_uncovered_with_both_order_36_primes(b):
    # past 11184810: b holds 37 and 109, the two primes of order 36, and a
    # CDL system gives each modulus one prime, so none reaches b
    assert {37, 109} <= {q for q, _ in factorize(b)} and ord2(37) == ord2(109) == 36
    verdict = check_even_modulus(b)
    assert (verdict.covered, verdict.shifts_used, len(verdict.leftover)) == (False, 36, 144)
    # 2^k mod b for k = 1..36 is every shift: b = 2 * odd with ord_2(odd) = 36
    shifts = [pow(2, k, b) for k in range(1, 37)]
    for j in verdict.leftover:
        assert all(math.gcd(j - s, b) > 1 for s in shifts), j
    left = set(verdict.leftover)
    others = [j for j in random.Random(b).sample(range(1, b, 2), 1000) if j not in left]
    for j in others:
        assert any(math.gcd(j - s, b) == 1 for s in shifts), j


def test_window_around_the_d36_modulus():
    top = 140100870
    assert scan_range(top - 2000, top + 2000).uncovered_moduli == [check_even_modulus(top)]


def test_verdict_json_round_trip(big_modulus_verdict):
    v = big_modulus_verdict
    assert json.loads(v.to_json()) == {
        "b": v.b, "covered": v.covered, "m": v.shifts_used, "leftover": list(v.leftover),
    }


def test_find_witness_small_moduli():
    for b in range(2, 61, 2):
        for j in range(1, b, 2):
            found = find_witness(b, j)
            assert found is not None, (b, j)
            p, k = found
            assert (p + 2**k) % b == j % b
            assert 1 <= k <= 30


def test_no_witness_in_the_surviving_classes(big_modulus_verdict):
    # every j - 2^k shares an odd prime with b in a surviving class, so
    # the search space is exhausted
    for j in big_modulus_verdict.leftover:
        assert find_witness(M48, j) is None
