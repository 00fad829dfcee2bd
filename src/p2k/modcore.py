"""Elementary modular arithmetic shared by every other module.

Covers multiplicative orders of 2, deterministic factorization (trial
division, then Pollard-Brent rho, every factor proven prime), Euler phi,
the prime divisors of 2^d - 1, crt_basis, the CRT idempotents that lift
residues to a product of coprime moduli for both the CDL progressions
(covering) and the Chen leftovers (chenscan), and class_cover_search, the
one search for one class (or none) per modulus covering the positions
0..T - 1 (or a target part of them), for any T >= 1, that the CDL
enumeration (covering), the Chen scan and the Chen prefix walk (chenscan)
all run: Z/T when every modulus divides T, a prefix of the periodic
classes otherwise.  It first applies the counting screen: when the
classes hold fewer positions in total, sum(ceil(T / d)), than it must
cover, it returns before building any mask, so the Chen scan and the Chen
verdict decide most b from their orders alone.  Otherwise it branches on
a position with the fewest open classes and is a generator: it yields
each covering node, a disjoint family of covering choices, as live
(classes, barred) lists, and a caller that stops drawing stops the walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import compress, count

# Deterministic Miller-Rabin: the first k prime bases are proven exact for
# odd n < psi_k (OEIS A014233).  Each entry is (psi_k, k), listed with the
# least k where psi_k repeats; the twelve bases reach psi_12 ~ 3.19e23, the
# bound on every prime factorize returns above 10^10.
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

_SMALL_PRIME_LIMIT = 10**5
# Pollard-Brent iterations factorize spends on one cofactor of up to 79 bits
# (psi_12's size) before refusing it.  Rho finds a prime p after some
# sqrt(p) iterations, and a composite below psi_12 has one below 5.7e11, so
# the budget leaves room for those; it also bounds the refusal of a prime
# above psi_12, which no iteration count splits or certifies (2^89 - 1:
# about 1 s on a 2-core Xeon).  A step costs at most about the square of
# the cofactor's size, so a larger cofactor gets the budget divided by that
# square, and refusing 2^607 - 1 takes no longer than refusing 2^89 - 1.
_RHO_STEPS = 2**22


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


@cache
def _small_primes() -> list[int]:
    return primes_up_to(_SMALL_PRIME_LIMIT)


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


def _certified_prime(n: int) -> bool:
    """is_prime, but False (rather than an error) beyond the proven range."""
    return n < _MR_LIMIT and is_prime(n)


def _rho_divisor(n: int) -> int:
    """A proper divisor of n > 1, which has no prime factor below 10^5 and
    is not a certified prime, by Pollard's rho in Brent's form.

    The walk y -> y^2 + c (mod n) is compared with its value x at the last
    power-of-two step, the differences multiplied together 128 at a time
    per gcd; a batch that jumps straight to gcd n is replayed one step at a
    time, and a walk that still meets n restarts with the next c.  Raises
    ValueError once the budget, _RHO_STEPS scaled down by the square of n's
    size past 79 bits, has found no divisor: n is then an uncertifiable
    prime or beyond the supported range.
    """
    size = max(n.bit_length(), _MR_LIMIT.bit_length())
    budget = _RHO_STEPS * _MR_LIMIT.bit_length() ** 2 // size**2
    steps = 0
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            steps += 2 * r  # r steps leave x behind, up to r compare with it
            if steps > budget:
                raise ValueError(
                    f"{n.bit_length()}-bit cofactor not split or certified "
                    f"within {budget} Pollard-Brent steps"
                )
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def factorize(n: int) -> list[tuple[int, int]]:
    """Factor n >= 1 into [(prime, exponent), ...] with primes ascending.

    Deterministic: a certified prime above 10^5 returns at once; otherwise
    trial division by the primes below 10^5, then Pollard-Brent rho on what
    is left.  Every factor returned is proven prime: below 10^10 because
    it has no prime factor below 10^5, above that by the deterministic
    Miller-Rabin of is_prime, so below psi_12.  Raises ValueError, after at
    most _RHO_STEPS rho iterations per cofactor (fewer past 79 bits, see
    _rho_divisor), when a cofactor can be neither split nor certified.
    """
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    if n == 1:
        return []
    if n > _SMALL_PRIME_LIMIT and _certified_prime(n):
        return [(n, 1)]
    factors: dict[int, int] = {}
    for p in _small_primes():
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    # n is now 1, a prime below 10^10 (the loop passed its square root), or
    # free of primes below 10^5, like every divisor rho splits off it; such
    # a number below 10^10 is prime
    rest = [n] if n > 1 else []
    while rest:
        m = rest.pop()
        if m < _SMALL_PRIME_LIMIT**2 or _certified_prime(m):
            factors[m] = factors.get(m, 0) + 1
        else:
            g = _rho_divisor(m)
            rest += [g, m // g]
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


@cache
def _ord2_prime(p: int) -> int:
    """Order of 2 modulo an odd prime p."""
    # ord divides p - 1; shrink p - 1 by its prime factors.
    t = p - 1
    for q, _ in factorize(p - 1):
        while t % q == 0 and pow(2, t // q, p) == 1:
            t //= q
    return t


@cache
def ord2(n: int) -> int:
    """Least t >= 1 with 2^t = 1 (mod n), for odd n >= 1; ord2(1) = 1.

    Multiplicative over coprime parts: computed per prime power and
    combined by lcm.
    """
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    if n % 2 == 0:
        raise ValueError(f"modulus must be odd, got {n}")
    result = 1
    for p, e in factorize(n):
        t = _ord2_prime(p)
        pe = p**e
        while pow(2, t, pe) != 1:
            t *= p
        result = math.lcm(result, t)
    return result


@cache
def _mersenne_primes(d: int) -> tuple[int, ...] | str:
    # the primes of 2^k - 1 for each proper divisor k of d, ascending, then
    # those of what is left of 2^d - 1 once they are divided out (a part of
    # the cyclotomic factor Phi_d(2)): each factorize call meets only new
    # primes, and 2^D - 1 is refused at its least k | D with 2^k - 1 out of
    # range, so 2^1068 - 1 at 2^89 - 1 rather than after rho on 800 bits.
    # A refusal is returned as factorize's message, not raised: the cache
    # keeps return values only, and a refusal costs a whole rho budget
    primes: set[int] = set()
    for k in divisors(d)[1:-1]:
        found = _mersenne_primes(k)
        if isinstance(found, str):
            return found
        primes.update(found)
    rest = 2**d - 1
    for p in primes:
        while rest % p == 0:
            rest //= p
    try:
        primes.update(p for p, _ in factorize(rest))
    except ValueError as exc:
        return str(exc)
    return tuple(sorted(primes))


def mersenne_prime_divisors(d: int) -> list[int]:
    """Distinct prime divisors of 2^d - 1, ascending, for d >= 2.

    Raises ValueError when 2^d - 1 cannot be factored (see factorize); the
    refusal is remembered, so asking again for the same d raises at once.
    """
    if d < 2:
        raise ValueError(f"2^d - 1 has prime divisors only for d >= 2, got d={d}")
    found = _mersenne_primes(d)
    if isinstance(found, str):
        raise ValueError(f"cannot factor 2^{d} - 1: {found}")
    return list(found)


def primitive_mersenne_divisors(d: int) -> list[int]:
    """Primes p | 2^d - 1 with ord_2(p) = d exactly.

    Nonempty for every d >= 2 except d = 6 (Bang's theorem).
    """
    return [p for p in mersenne_prime_divisors(d) if _ord2_prime(p) == d]


@lru_cache(maxsize=256)
def crt_basis(moduli: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """M = prod(moduli) and the CRT basis mod M of pairwise-coprime moduli:
    per m_i the e_i with e_i = 1 (mod m_i) and 0 modulo the others, so the
    x in [0, M) with x = r_i (mod m_i) is sum(r_i * e_i) % M.  Bounded like
    period_mask: the single-progression and Chen verdict callers repeat a
    few tuples."""
    M = math.prod(moduli)
    return M, tuple(M // m * pow(M // m, -1, m) for m in moduli)


@lru_cache(maxsize=256)
def period_mask(d: int, T: int) -> int:
    """Bits 0, d, 2d, ... below T, for any d, T >= 1: the positions x < T
    with x = 0 (mod d), just bit 0 when d >= T.  So the class c is
    period_mask(d, T) << c (class_cover_search, which reads only its bits
    below T, and covering's class masks), and for d dividing T a row m of
    Z/d lifts to its inverse image m * period_mask(d, T) in Z/T (density's
    row lifts; m < 2^d, so the product has no carries).  The pattern
    doubles its width until it spans T, log2(T/d) big-int shifts (the
    quotient (2^T - 1) // (2^d - 1) would be quadratic in large T).  The
    cache is bounded: a Chen scan meets tens of thousands of (d, T) pairs,
    with T up to 319,380 bits."""
    mask, width = 1, d
    while width < T:
        mask |= mask << width
        width <<= 1
    return mask & ((1 << T) - 1)


def class_cover_search(moduli, T: int, target=None, barred=None):
    """Yield the choices of one class (or none) per entry of moduli that
    cover the positions of target (a mask over positions 0..T - 1, all of
    them by default), for any T >= 1.

    Class c of modulus d holds the positions x < T with x = c (mod d):
    Z/T's class when d divides T, else the first T positions of the
    periodic one, at most ceil(T / d) of them (the Chen prefix walk asks
    for the first L + 1 positions).  Repeats are allowed.  Bit c of
    barred[i] (none by default) bars class c from entry i.  At each node
    entry i's open positions are ~(period * barred[i]), period the mask of
    class 0 mod moduli[i]: barred[i] < 2^moduli[i], so the product has no
    carries, and no bit at T or above is read.  The room of an entry is
    ceil(T / moduli[i]), the most positions one of its classes holds.  On
    entry the search yields nothing when the room of all entries is below
    the number of positions to cover, T or target.bit_count() (the counting
    screen, the root node's room test run before any period mask or the
    target is built; an empty target always passes).  Three bit-sliced
    counters over the unplaced entries mark the uncovered positions with
    at least one, two and three open classes.  A node dies when an
    uncovered position has none, or when the uncovered positions outnumber
    the room of the unplaced entries.  Else it branches on the least
    position x with one open class, else with two, else on the least
    uncovered one (Knuth's Algorithm X, "Dancing Links",
    arXiv cs/0011047): each unplaced entry i whose class x mod moduli[i] is
    open takes it, and bars it in the later sibling branches once its
    branch is done.  Any x must be covered by some entry, so every choice
    vector is reached along one path.

    A generator: it yields (classes, barred) at each covering node, in
    walk order, where classes[i] is the class of entry i or None.  The
    two lists are the walk's own and change as soon as it resumes, so a
    caller that keeps a node copies them; the caller's barred is never
    changed.  The covering nodes are disjoint families of choice vectors:
    an entry left at None takes any class outside barred[i], or none.  A
    caller that needs only the first covering node (or to know there is
    one) stops drawing; the walk goes no further.
    """
    room = sum(-(-T // d) for d in moduli)
    if room < (T if target is None else target.bit_count()):
        return
    entries = [(i, d, period_mask(d, T), -(-T // d)) for i, d in enumerate(moduli)]
    classes: list[int | None] = [None] * len(moduli)
    barred = [0] * len(moduli) if barred is None else list(barred)

    def walk(uncovered: int, room: int):
        if not uncovered:
            yield classes, barred
            return
        if uncovered.bit_count() > room:
            return
        ones = twos = threes = 0
        for i, d, period, size in entries:
            if classes[i] is None:
                m = ~(period * barred[i])
                threes |= twos & m
                twos |= ones & m
                ones |= m
        if uncovered & ~ones:
            return  # a dead position: no open class covers it
        pick = uncovered & ~twos or uncovered & ~threes or uncovered
        x = (pick & -pick).bit_length() - 1
        entry_barred = barred[:]
        for i, d, period, size in entries:
            if classes[i] is None:
                c = x % d
                if not barred[i] >> c & 1:
                    classes[i] = c
                    yield from walk(uncovered & ~(period << c), room - size)
                    classes[i] = None
                    barred[i] |= 1 << c
        barred[:] = entry_barred

    yield from walk((1 << T) - 1 if target is None else target, room)
