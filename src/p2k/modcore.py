"""Elementary modular arithmetic shared by every other module.

Covers multiplicative orders of 2, exact CRT over big integers, deterministic
factorization in the supported range, Euler phi, the prime divisors of
2^d - 1 (backed by the compiled-in table in mersenne_table), and
class_cover_search, the one search for one class (or none) per modulus
covering Z/T that both the CDL enumeration (covering) and the Chen scan
(chenscan) run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import compress

from .mersenne_table import MAX_TABLE_D, MERSENNE_FACTORS

# Deterministic Miller-Rabin: the first k prime bases are proven exact for
# odd n < psi_k (OEIS A014233).  Each entry is (psi_k, k), listed with the
# least k where psi_k repeats; the twelve bases reach psi_12 ~ 3.19e23, past
# every prime in the Mersenne table (the largest is ~5.8e17).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_WINDOWS = (
    (2_047, 1),
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12),
)
_MR_LIMIT = _MR_WINDOWS[-1][0]

_TRIAL_LIMIT = 10**7
_SMALL_PRIME_LIMIT = 10**5


@dataclass(frozen=True, order=True)
class CongruenceCondition:
    """A congruence class residue (mod modulus), normalized to 0 <= residue < modulus."""

    residue: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {self.modulus}")
        if not 0 <= self.residue < self.modulus:
            raise ValueError(
                f"residue {self.residue} not reduced modulo {self.modulus}"
            )

    def contains(self, x: int) -> bool:
        return x % self.modulus == self.residue


def _check_odd_positive(n: int, what: str = "modulus") -> None:
    if n < 1:
        raise ValueError(f"{what} must be positive, got {n}")
    if n % 2 == 0:
        raise ValueError(f"{what} must be odd, got {n}")


def primes_up_to(n: int) -> list[int]:
    """All primes <= n by a byte sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return list(compress(range(n + 1), sieve))


_small_primes_cache: list[int] | None = None
_trial_primes_cache: list[int] | None = None


def _small_primes() -> list[int]:
    global _small_primes_cache
    if _small_primes_cache is None:
        _small_primes_cache = primes_up_to(_SMALL_PRIME_LIMIT)
    return _small_primes_cache


def _trial_primes() -> list[int]:
    global _trial_primes_cache
    if _trial_primes_cache is None:
        _trial_primes_cache = primes_up_to(_TRIAL_LIMIT)
    return _trial_primes_cache


def is_prime(n: int) -> bool:
    """Deterministic primality check for n < psi_12 ~ 3.19e23.

    Trial division by small primes, then Miller-Rabin with the fewest prime
    bases proven complete below n.  Larger inputs are out of scope and
    rejected rather than answered probabilistically.
    """
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    for limit, k in _MR_WINDOWS:
        if n < limit:
            break
    else:
        raise ValueError(f"primality check unsupported for n >= {_MR_LIMIT}")
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES[:k]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Primes above the small-prime limit that appear in the Mersenne table;
# factorize tries these before grinding trial division to 10^7, because
# moduli in this codebase are mostly products of such primes.
_large_table_primes_cache: list[int] | None = None


def _large_table_primes() -> list[int]:
    global _large_table_primes_cache
    if _large_table_primes_cache is None:
        seen = set()
        for items in MERSENNE_FACTORS.values():
            for p, _ in items:
                if p > _SMALL_PRIME_LIMIT:
                    seen.add(p)
        _large_table_primes_cache = sorted(seen)
    return _large_table_primes_cache


def _certified_prime(n: int) -> bool:
    """is_prime, but False (rather than an error) beyond the proven range."""
    return n < _MR_LIMIT and is_prime(n)


def factorize(n: int) -> list[tuple[int, int]]:
    """Factor n >= 1 into [(prime, exponent), ...] with primes ascending.

    Deterministic: a certified prime above 10^5 (such as a prime of the
    2^d - 1 table) returns at once; otherwise trial division (small primes
    first, then up to 10^7) plus the primes of the 2^d - 1 table for the
    large cofactors this project actually meets.  Raises ValueError when a
    cofactor cannot be resolved within that range.
    """
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    if n == 1:
        return []
    if n > _SMALL_PRIME_LIMIT and _certified_prime(n):
        return [(n, 1)]
    factors: dict[int, int] = {}

    def strip(m: int, p: int) -> int:
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
        return m

    for p in _small_primes():
        if p * p > n:
            break
        if n % p == 0:
            n = strip(n, p)
    if n == 1:
        return sorted(factors.items())
    if n < _SMALL_PRIME_LIMIT**2 or _certified_prime(n):
        factors[n] = factors.get(n, 0) + 1
        return sorted(factors.items())
    for p in _large_table_primes():
        if p * p > n:
            break
        if n % p == 0:
            n = strip(n, p)
            if n == 1 or _certified_prime(n):
                break
    if n > 1 and not _certified_prime(n):
        for p in _trial_primes():
            if p <= _SMALL_PRIME_LIMIT:
                continue
            if p * p > n:
                break
            if n % p == 0:
                n = strip(n, p)
                if n == 1 or _certified_prime(n):
                    break
    if n > 1:
        if n < _TRIAL_LIMIT**2 or _certified_prime(n):
            factors[n] = factors.get(n, 0) + 1
        else:
            raise ValueError(f"cofactor {n} out of supported factorization range")
    return sorted(factors.items())


def euler_phi(n: int) -> int:
    """phi(n) = #{1 <= x <= n : gcd(x, n) = 1}, from the factorization."""
    if n < 1:
        raise ValueError(f"euler_phi requires n >= 1, got {n}")
    phi = 1
    for p, e in factorize(n):
        phi *= (p - 1) * p ** (e - 1)
    return phi


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def pow2_mod(k: int, m: int) -> int:
    """2^k mod m by square-and-multiply (k >= 0, m >= 1)."""
    if k < 0:
        raise ValueError(f"exponent must be nonnegative, got {k}")
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    return pow(2, k, m)


# prime -> least d with p | 2^d - 1, read off the table; that least d is
# exactly ord_2(p) whenever ord_2(p) <= MAX_TABLE_D.
_table_order_cache: dict[int, int] | None = None


def _table_orders() -> dict[int, int]:
    global _table_order_cache
    if _table_order_cache is None:
        orders: dict[int, int] = {}
        for d in sorted(MERSENNE_FACTORS):
            for p, _ in MERSENNE_FACTORS[d]:
                orders.setdefault(p, d)
        _table_order_cache = orders
    return _table_order_cache


def _ord2_prime(p: int) -> int:
    """Order of 2 modulo an odd prime p."""
    table = _table_orders()
    if p in table:
        return table[p]
    # ord divides p - 1; shrink p - 1 by its prime factors.
    t = p - 1
    for q, _ in factorize(p - 1):
        while t % q == 0 and pow(2, t // q, p) == 1:
            t //= q
    return t


def ord2(n: int) -> int:
    """Least t >= 1 with 2^t = 1 (mod n), for odd n >= 1; ord2(1) = 1.

    Multiplicative over coprime parts: computed per prime power and
    combined by lcm.
    """
    _check_odd_positive(n)
    if n == 1:
        return 1
    table = _table_orders()
    if n in table:  # a prime of the 2^d - 1 table
        return table[n]
    result = 1
    for p, e in factorize(n):
        t = _ord2_prime(p)
        pe = p**e
        while pow(2, t, pe) != 1:
            t *= p
        result = math.lcm(result, t)
    return result


def crt_solve(conditions: list[CongruenceCondition]) -> CongruenceCondition:
    """Combine congruences with pairwise coprime moduli into one class.

    Returns the unique residue modulo the product; an empty list yields
    0 (mod 1).  Raises ValueError naming the first non-coprime pair.
    """
    conds = list(conditions)
    for i in range(len(conds)):
        for j in range(i + 1, len(conds)):
            g = math.gcd(conds[i].modulus, conds[j].modulus)
            if g != 1:
                raise ValueError(
                    f"moduli {conds[i].modulus} and {conds[j].modulus} "
                    f"share factor {g}"
                )
    x, m = 0, 1
    for cond in conds:
        # x' = x (mod m), x' = r (mod q); lift by the inverse of m mod q.
        q = cond.modulus
        inv = pow(m, -1, q) if q > 1 else 0
        x = x + m * ((cond.residue - x) * inv % q)
        m *= q
    return CongruenceCondition(x % m, m)


def mersenne_prime_divisors(d: int) -> list[int]:
    """Distinct prime divisors of 2^d - 1, ascending, for 2 <= d <= 80."""
    if not 2 <= d <= MAX_TABLE_D:
        raise ValueError(
            f"2^d - 1 factorizations available for 2 <= d <= {MAX_TABLE_D}, got d={d}"
        )
    return [p for p, _ in MERSENNE_FACTORS[d]]


def primitive_mersenne_divisors(d: int) -> list[int]:
    """Primes p | 2^d - 1 with ord_2(p) = d exactly.

    Nonempty for every 2 <= d <= 80 except d = 6 (Bang's theorem).
    """
    return [p for p in mersenne_prime_divisors(d) if _table_orders()[p] == d]


def lcm_all(values) -> int:
    return reduce(math.lcm, values, 1)


def class_cover_search(moduli, T: int, visit, covered: int = 0) -> None:
    """Walk the choices of one class (or none) per entry of moduli over Z/T,
    branching on the least uncovered position (Knuth's Algorithm X).

    Each modulus divides T; repeats are allowed.  Position p is bit p of the
    mask covered (the walk starts from the given mask).  Each node calls
    visit(x, covered, room, classes, barred): x is the least uncovered
    position (T once Z/T is covered), room the sum of T // moduli[i] over
    the unplaced entries, classes[i] the class of entry i or None, and bit c
    of barred[i] bars class c from entry i; the lists are live.  Only when
    visit returns True and x < T does each unplaced entry i try the class
    x mod moduli[i], barred in the later sibling branches once its branch
    returns.  So every choice vector is reached along one path, and the
    covering nodes (x = T) are disjoint families of choice vectors: an
    entry left at None takes any class outside barred[i], or none.
    """
    # bits 0, d, 2d, ... below T; parsed from a bit string, which takes
    # linear time where (2^T - 1) // (2^d - 1) is quadratic in large T
    periods = [int(("0" * (d - 1) + "1") * (T // d), 2) for d in moduli]
    entries = [(i, d, periods[i], T // d) for i, d in enumerate(moduli)]
    classes: list[int | None] = [None] * len(moduli)
    barred = [0] * len(moduli)

    def walk(covered: int, room: int) -> None:
        x = (~covered & (covered + 1)).bit_length() - 1
        if not visit(x, covered, room, classes, barred) or x == T:
            return
        entry_barred = barred[:]
        for i, d, period, size in entries:
            if classes[i] is None:
                c = x % d
                if not barred[i] >> c & 1:
                    classes[i] = c
                    walk(covered | period << c, room - size)
                    classes[i] = None
                    barred[i] |= 1 << c
        barred[:] = entry_barred

    walk(covered, sum(T // d for d in moduli))
