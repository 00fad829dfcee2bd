import itertools
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import kernel_cases
from mersenne_table import MERSENNE_FACTORS
from p2k import modcore
from p2k.chenscan import check_even_modulus
from p2k.modcore import (
    _RHO_STEPS,
    CongruenceCondition,
    class_cover_search,
    crt_basis,
    divisors,
    euler_phi,
    factorize,
    is_prime,
    mersenne_prime_divisors,
    ord2,
    period_mask,
    primes_up_to,
    primitive_mersenne_divisors,
)


def test_ord2_basic_values():
    assert ord2(7) == 3  # 2^3 = 8 = 1 mod 7
    assert ord2(9) == 6
    assert ord2(1) == 1
    assert ord2(37) == 36
    assert ord2(61) == 60
    assert ord2(257) == 16
    assert ord2(29) == 28
    assert ord2(53) == 52


def test_ord2_rejects_even_and_nonpositive():
    for bad in (0, -3, 4, 10):
        with pytest.raises(ValueError):
            ord2(bad)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=10**6))
def test_ord2_is_least_exponent(n):
    n = n | 1  # force odd
    t = ord2(n)
    assert pow(2, t, n) == 1 % n
    for q, _ in factorize(t):
        assert pow(2, t // q, n) != 1 % n


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=10**3), st.integers(min_value=1, max_value=10**3))
def test_ord2_lcm_multiplicative_on_coprime_pairs(a, b):
    a, b = a | 1, b | 1
    if math.gcd(a, b) != 1:
        return
    assert ord2(a * b) == math.lcm(ord2(a), ord2(b))


def test_factorize_fixtures():
    assert factorize(11184810) == [
        (2, 1), (3, 1), (5, 1), (7, 1), (13, 1), (17, 1), (241, 1)
    ]
    assert factorize(1) == []
    assert factorize(2**18 - 1) == [(3, 3), (7, 1), (19, 1), (73, 1)]
    assert factorize(2**61 - 1) == [(2305843009213693951, 1)]
    with pytest.raises(ValueError, match="n >= 1"):
        factorize(0)


def test_factorize_round_trip_below_one_million():
    for n in range(1, 10**6 + 1):
        m = 1
        for p, e in factorize(n):
            m *= p**e
        assert m == n


def test_factorize_large_table_products():
    # above psi_12, so rho has to split off 4278255361 before certifying
    n = 581283643249112959 * 4278255361
    assert factorize(n) == [(4278255361, 1), (581283643249112959, 1)]


def _next_prime(n):
    while not is_prime(n):
        n += 1
    return n


def test_factorize_splits_products_of_primes_past_trial_division():
    # primes in (10^5, 10^7): no trial division reaches them, rho must
    rng = random.Random(10)
    for _ in range(20):
        p, q = sorted(_next_prime(rng.randrange(10**5, 10**7)) for _ in range(2))
        if p == q:
            continue
        assert factorize(p * q) == [(p, 1), (q, 1)]
        assert factorize(p * p * q) == [(p, 2), (q, 1)]


def test_factorize_certified_prime_returns_whole():
    table_primes = sorted({p for items in MERSENNE_FACTORS.values() for p, _ in items})
    largest = table_primes[-1]
    assert factorize(largest) == [(largest, 1)]
    # products of table primes above 10^5 still split
    big = [p for p in table_primes if p > 10**5]
    p, q = big[0], big[-1]
    assert factorize(p * q) == [(p, 1), (q, 1)]
    assert factorize(p * p) == [(p, 2)]


def test_euler_phi():
    assert euler_phi(1) == 1
    assert euler_phi(3) == 2
    assert euler_phi(23205) == 9216
    with pytest.raises(ValueError, match="n >= 1"):
        euler_phi(0)


def test_divisors():
    assert divisors(24) == [1, 2, 3, 4, 6, 8, 12, 24]
    assert divisors(1) == [1]


def test_congruence_condition_validation():
    with pytest.raises(ValueError):
        CongruenceCondition(3, 2)
    with pytest.raises(ValueError):
        CongruenceCondition(0, 0)


def test_mersenne_prime_divisors():
    assert mersenne_prime_divisors(2) == [3]
    assert mersenne_prime_divisors(3) == [7]
    assert mersenne_prime_divisors(6) == [3, 7]
    assert 241 in mersenne_prime_divisors(24)
    assert mersenne_prime_divisors(9) == [7, 73]


def test_primitive_divisor_filter():
    assert primitive_mersenne_divisors(24) == [241]
    assert primitive_mersenne_divisors(9) == [73]
    assert primitive_mersenne_divisors(6) == []  # the Bang exception


def test_bang_spot_check():
    for d in range(2, 41):
        if d == 6:
            continue
        assert primitive_mersenne_divisors(d), f"no primitive prime for d={d}"


def test_mersenne_range_errors():
    # 2^89 - 1 is a prime above psi_12: rho cannot split it, Miller-Rabin
    # cannot certify it
    for bad in (1, 0, 89):
        with pytest.raises(ValueError):
            mersenne_prime_divisors(bad)


def test_mersenne_refusal_is_remembered(monkeypatch):
    with pytest.raises(ValueError) as first:
        mersenne_prime_divisors(1068)
    calls = []
    rho = modcore._rho_divisor
    monkeypatch.setattr(modcore, "_rho_divisor", lambda n: calls.append(n) or rho(n))
    with pytest.raises(ValueError) as again:
        mersenne_prime_divisors(1068)
    assert str(again.value) == str(first.value)
    assert str(again.value).startswith("cannot factor 2^1068 - 1: 89-bit cofactor")
    with pytest.raises(ValueError, match=r"cannot factor 2\^89 - 1"):
        mersenne_prime_divisors(89)
    assert calls == []


@pytest.mark.parametrize("e", [521, 607, 1279])
def test_rho_budget_shrinks_with_cofactor_size(e):
    # Mersenne primes above psi_12 (79 bits): a rho step costs about the
    # square of the size, so the budget shrinks by that square and no
    # refusal does more work than that of a 79-bit cofactor
    with pytest.raises(ValueError, match=f"{e}-bit cofactor") as info:
        factorize(2**e - 1)
    steps = int(re.search(r"within (\d+) ", str(info.value)).group(1))
    assert steps * e**2 <= _RHO_STEPS * 79**2
    assert steps * e**2 > _RHO_STEPS * 79**2 - e**2


def test_factorizer_reproduces_the_sympy_table():
    for d, items in MERSENNE_FACTORS.items():
        assert factorize(2**d - 1) == list(items), d
        assert mersenne_prime_divisors(d) == [p for p, _ in items], d


def test_mersenne_table_is_consistent():
    for d, items in MERSENNE_FACTORS.items():
        prod = 1
        for p, e in items:
            assert is_prime(p)
            prod *= p**e
        assert prod == 2**d - 1
        assert [p for p, _ in items] == sorted(p for p, _ in items)


def test_ord2_matches_table_orders():
    # the least table exponent containing p is its order
    for d, items in MERSENNE_FACTORS.items():
        for p, _ in items:
            t = ord2(p)
            assert d % t == 0 and pow(2, t, p) == 1
            assert all(pow(2, t // q, p) != 1 for q, _ in factorize(t))


def test_primes_up_to():
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_up_to(1) == []


def test_is_prime():
    assert is_prime(2) and is_prime(241) and is_prime(2305843009213693951)
    assert not is_prime(1) and not is_prime(561) and not is_prime(2**24 - 1)


# psi_k (OEIS A014233): the least odd composite that passes Miller-Rabin
# to each of the first k prime bases
PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051,
    3825123056546413051, 3825123056546413051, 318665857834031151167461,
)
BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


@pytest.mark.parametrize("k", range(1, 13))
def test_strong_pseudoprimes_to_the_first_k_bases_are_composite(k):
    psi = PSI[k - 1]
    assert all(_strong_probable_prime(psi, a) for a in BASES[:k])
    if k < 12:
        assert is_prime(psi) is False
    else:
        # every one of the twelve bases passes psi_12 = 399165290221 *
        # 798330580441, so it lies outside the proven window; rho splits it
        # into two primes that Miller-Rabin certifies
        assert psi == 399165290221 * 798330580441
        with pytest.raises(ValueError):
            is_prime(psi)
        assert factorize(psi) == [(399165290221, 1), (798330580441, 1)]


def test_is_prime_matches_sieve_below_one_million():
    primes = set(primes_up_to(10**6))
    assert [n for n in range(10**6) if is_prime(n)] == sorted(primes)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.lists(
        st.tuples(st.sampled_from((3, 5, 7, 11, 13, 17)), st.integers(1, 3)),
        max_size=4,
        unique_by=lambda pf: pf[0],
    ),
    st.data(),
)
def test_crt_basis_is_the_brute_force_crt(v, odd, data):
    # a power of 2 and distinct odd prime powers, as the Chen leftovers
    # and the CDL progressions pass them
    moduli = (2**v, *(q**f for q, f in odd))
    M, basis = crt_basis(moduli)
    assert M == math.prod(moduli)
    for i, e in enumerate(basis):
        assert 0 <= e < M
        for j, m in enumerate(moduli):
            assert e % m == (1 if i == j else 0)
    residues = [data.draw(st.integers(0, m - 1)) for m in moduli]
    x = sum(r * e for r, e in zip(residues, basis)) % M
    assert [x % m for m in moduli] == residues
    if M <= 50_000:
        hits = [y for y in range(M) if all(y % m == r for m, r in zip(moduli, residues))]
        assert hits == [x]


def test_period_mask_equals_bit_loop():
    # d need not divide T, and may exceed it (the mask is then bit 0 alone)
    for T in [*range(1, 121), 360, 10920]:
        for d in range(1, 2 * T + 1):
            assert period_mask(d, T) == sum(1 << x for x in range(0, T, d)), (d, T)


def test_class_cover_search_equals_brute_force():
    for moduli, T, target, barred in kernel_cases():
        _check_class_cover_search(moduli, T, target, barred)
        _check_class_cover_search(moduli, T, (1 << T) - 1, [0] * len(moduli))


def test_class_cover_search_on_any_ring_size():
    # T need not be a multiple of any modulus, as in the Chen prefix walk's
    # rings of L + 1 positions: class c mod d then holds ceil((T - c) / d)
    # of the positions, so each entry's room is ceil(T / d), not T // d
    rng = random.Random(28)
    for _ in range(300):
        moduli = [rng.randint(1, 12) for _ in range(rng.randint(1, 4))]
        T = rng.randint(1, 30)
        target = rng.getrandbits(T) | rng.getrandbits(T)
        barred = [rng.getrandbits(d) & rng.getrandbits(d) for d in moduli]
        _check_class_cover_search(moduli, T, target, barred)
        _check_class_cover_search(moduli, T, (1 << T) - 1, [0] * len(moduli))


def test_counting_screen_runs_before_any_mask(monkeypatch):
    # classes with fewer positions in total than the walk must cover are
    # refused on entry, before any period mask or the target is built: the
    # covered verdict's full walk over Z/T builds nothing T bits wide
    widths = []
    real = modcore.period_mask

    def recording(d, T):
        widths.append(T)
        return real(d, T)

    monkeypatch.setattr(modcore, "period_mask", recording)
    assert list(class_cover_search([3, 5, 7], 105)) == []
    assert list(class_cover_search([2], 4, target=0b111)) == []
    assert widths == []
    verdict = check_even_modulus(16353786)
    assert verdict.covered and verdict.shifts_used == 6
    assert 1_337_076 not in widths
    # an empty target needs no room
    assert len(list(class_cover_search([3], 10, target=0))) == 1


def _check_class_cover_search(moduli, T, target, start_barred):
    def cover(vector):
        covered = 0
        for c, d in zip(vector, moduli):
            if c is not None:
                covered |= sum(1 << x for x in range(c, T, d))
        return covered

    options = [
        [None, *(c for c in range(d) if not bar >> c & 1)]
        for d, bar in zip(moduli, start_barred)
    ]
    covering = {v for v in itertools.product(*options) if cover(v) & target == target}

    def family(classes, barred):
        choices = [
            [c] if c is not None
            else [None, *(e for e in range(d) if not bar >> e & 1)]
            for c, d, bar in zip(classes, moduli, barred)
        ]
        return set(itertools.product(*choices))

    families = []
    for classes, barred in class_cover_search(moduli, T, target, start_barred):
        assert cover(classes) & target == target
        assert all(b & s == s for b, s in zip(barred, start_barred))
        families.append(family(classes, barred))
    union = set().union(*families)
    assert sum(map(len, families)) == len(union)  # pairwise disjoint
    assert union == covering
    # a first node exists exactly when some vector covers, and dropping the
    # walk there leaves the caller's barred list as it was
    caller_barred = list(start_barred)
    walk = class_cover_search(moduli, T, target, caller_barred)
    assert (next(walk, None) is not None) == bool(covering)
    walk.close()
    assert caller_barred == list(start_barred)
    # a fresh walk yields the whole family set again
    again = [family(*node) for node in class_cover_search(moduli, T, target, caller_barred)]
    assert again == families
