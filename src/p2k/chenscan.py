"""Even-modulus sieve: which odd classes mod b contain no number p + 2^k.

For even b, an odd residue j provably contains a number p + 2^k as soon as
gcd(j - 2^k, b) = 1 for some k >= 1 (Dirichlet then supplies the prime).
j - 2^k is odd, so the gcd exceeds 1 exactly when some odd prime q | b
divides j - 2^k, i.e. when 2^k = j (mod q).  For one q those k form a single
class mod ord_2(q) when j mod q lies in the subgroup <2>, and there are none
otherwise (j = 0 mod q included).  So j survives every shift exactly when
its blocked classes, at most one per odd prime q | b, cover Z.  Only j mod q
matters for each q, so by CRT every choice of one class or none per q is
met by some j; the powers of q in b and the factor 2^v2(b) only multiply the
number of such j.

Everything therefore lives on exponents mod T = lcm of the orders, and
modcore.class_cover_search decides b: it picks one class per prime over
Z/T, branching on a position with the fewest open classes and pruning
positions no open class covers, once the orders pass its counting screen
(below).  Its position x stands for exponent x + 1, so position class c
blocks the residue 2^(c+1) mod q.  The search is a generator of covering
nodes.  check_even_modulus first draws every node of
one walk over all of Z/T and copies each family, which the leftovers are
rebuilt from.  A yes-or-no walk, any(class_cover_search(...)), draws at
most one node, so it ends at its first covering node.
* Covered b (the full walk found no node): some j survives the first K
  shifts exactly when one class per order covers 1..K.  With L the
  longest such prefix (L < T), the sieve empties after shifts_used = L + 1
  shifts.  Entry i can take position i, so L >= min(len(orders), T - 1),
  and covering a prefix is monotone in its length, so _longest_prefix
  walks upward from there, one yes-or-no walk per length, and stops at the
  first prefix with no covering.  Each walk's ring is its prefix, the
  positions 0..L, not Z/T, so its masks are L + 1 bits wide whatever T
  is.  On every even b <= 20000 plus 3000 seeded even b in
  [2 * 10^5, 2 * 10^7] (13,000 covered), L is that starting value for
  8,157 b and at most 18 above it, the full walk ends at the counting
  screen (below) for 12,830 b, and the covered verdicts take 0.20-0.25 s
  in all (2-core Xeon, Python 3.11).
* Uncovered b: the shift values 2^k mod b run through v2(b) - 1 pre-period
  values and then ord_2(b_odd) periodic ones, and the strike-out stops at the
  first repeat, so shifts_used = v2(b) - 1 + ord_2(b_odd).  leftover holds
  every odd j whose choice vector covers Z/T, rebuilt from each covering
  family of the walk: class e for q gives j = 2^e (mod q), an entry left
  open every residue mod q but the 2^e of its barred classes, each lifted
  to the power of q in b.  The CRT basis of modcore.crt_basis, which the
  CDL progressions (covering) read too, combines them with every odd
  residue mod 2^v2(b): each residue adds its multiple of its modulus'
  basis element, and each sum is reduced mod b once.  The residues are
  counted before any is built, and a b that leaves more than
  _LEFTOVER_LIMIT of them (10^7) is refused with ValueError.

Every walk starts with class_cover_search's counting screen,
sum(T // o) >= T over Z/T, i.e. sum(1 / o) >= 1: one class mod o holds
T / o of the T exponents mod T, so classes with fewer than T exponents in
total cannot cover Z/T, and the search returns before building any mask.
Most b fail it; for such a covered b the verdict's full walk costs a sum
over its orders, and only the prefix walks build masks, each L + 1 bits
wide.  The range scan drops most b that fail it before any factoring: a
segmented sieve adds, for each b, an integer upper bound on
N * sum(1 / o) with N = 2^62.  Each odd prime q <= sqrt(hi), hi the last b
of the block, adds ceil(N / ord_2(q)) to its multiples.  What is left of b
after those primes and its factor 2 is 1 or one prime r > isqrt(hi).
2^ord_2(r) - 1 is a positive multiple of r, so 2^ord_2(r) > isqrt(hi) + 1
and ord_2(r) >= l = (isqrt(hi) + 1).bit_length(); every b is credited
ceil(N / l) for it.  A total below N proves sum(1 / o) < 1, so dropping on
it is exact.  Both the sieve and the screen are integer arithmetic and
only ever drop covered b.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

from .modcore import (
    _ord2_prime,
    class_cover_search,
    crt_basis,
    factorize,
    is_prime,
    ord2,
    primes_up_to,
)


@dataclass(frozen=True)
class ModulusVerdict:
    """Outcome for one even modulus: covered (all odd classes cleared after
    m shifts) or not, with the surviving odd residues."""

    b: int
    covered: bool
    shifts_used: int
    leftover: tuple[int, ...] = ()

    def to_dict(self) -> dict:
        return {
            "b": self.b,
            "covered": self.covered,
            "m": self.shifts_used,
            "leftover": list(self.leftover),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def to_table(self) -> str:
        if self.covered:
            return f"b={self.b}: covered after {self.shifts_used} shifts"
        return (
            f"b={self.b}: NOT covered after {self.shifts_used} shifts; "
            f"{len(self.leftover)} odd residues left: " + ",".join(map(str, self.leftover))
        )


@dataclass
class ScanReport:
    b_lo: int
    b_hi: int
    uncovered_moduli: list[ModulusVerdict] = field(default_factory=list)
    elapsed: float = 0.0

    def to_json(self) -> str:
        return json.dumps(
            {
                "from": self.b_lo,
                "to": self.b_hi,
                "uncovered": [v.to_dict() for v in self.uncovered_moduli],
                "elapsed": self.elapsed,
            },
            indent=2,
        )

    def to_table(self) -> str:
        """A summary line, then one line per uncovered b."""
        return "\n".join(
            [
                f"scanned even b in [{self.b_lo}, {self.b_hi}]: "
                f"{len(self.uncovered_moduli)} uncovered ({self.elapsed:.1f}s)"
            ]
            + [f"  b={v.b}: {len(v.leftover)} residues left" for v in self.uncovered_moduli]
        )


def _longest_prefix(orders, T: int) -> int:
    """The largest L < T such that one class per order covers 0..L - 1, for
    orders that do not cover Z/T: a walk upward from
    L = min(len(orders), T - 1), which entry i taking position i always
    reaches.  Each step asks class_cover_search about the ring of the
    L + 1 positions 0..L itself, which no order need divide.  Covering a
    prefix is monotone in its length, so the first prefix no walk covers
    ends it, by L = T - 1 at the latest."""
    L = min(len(orders), T - 1)
    while any(class_cover_search(orders, L + 1)):
        L += 1
    return L


# The most leftover residues a verdict lists, about 0.4 GB of Python ints;
# b = 11184810 * 2^22 leaves 201,326,592.
_LEFTOVER_LIMIT = 10**7


def _leftover(two: int, odd_factors, orders, families) -> tuple[int, ...]:
    """Odd residues mod two * prod(q^f) whose blocked classes cover Z, by
    CRT over the covering families of a walk over Z/T, as the module
    docstring says.  They are counted first: each family lists two / 2
    odd residues mod two times the q^(f - 1) lifts of each residue mod q
    it leaves, one for a placed class and q less the barred classes for
    an open entry.  Raises ValueError when the count exceeds
    _LEFTOVER_LIMIT."""
    M, (e_two, *basis) = crt_basis((two, *(q**f for q, f in odd_factors)))
    size = two // 2 * math.prod(q ** (f - 1) for q, f in odd_factors) * sum(
        math.prod(
            q - bar.bit_count()
            for (q, _), c, bar in zip(odd_factors, classes, barred)
            if c is None
        )
        if None in classes
        else 1
        for classes, barred in families
    )
    if size > _LEFTOVER_LIMIT:
        raise ValueError(
            f"b = {M} leaves {size} odd residues, more than the "
            f"{_LEFTOVER_LIMIT} a verdict lists"
        )
    out: list[int] = []
    for classes, barred in families:
        sums = [s * e_two for s in range(1, two, 2)]
        for (q, f), o, c, bar, e in zip(odd_factors, orders, classes, barred, basis):
            # position class c stands for exponent class c + 1
            if c is None:
                blocked = {pow(2, k + 1, q) for k in range(o) if bar >> k & 1}
                base = [r for r in range(q) if r not in blocked]
            else:
                base = [pow(2, c + 1, q)]
            lifts = [(r + q * t) * e for r in base for t in range(q ** (f - 1))]
            sums = [s + lift for s in sums for lift in lifts]
        out.extend(s % M for s in sums)
    return tuple(sorted(out))


def check_even_modulus(b: int) -> ModulusVerdict:
    """Verdict for one even modulus from the orders of its odd primes.
    Raises ValueError for b that is odd or below 2, cannot be factored,
    or leaves more than _LEFTOVER_LIMIT odd residues."""
    if b < 2 or b % 2 != 0:
        raise ValueError(f"modulus must be even and >= 2, got {b}")
    odd_factors = [(q, f) for q, f in factorize(b) if q != 2]
    orders = [_ord2_prime(q) for q, _ in odd_factors]
    T = math.lcm(*orders)
    families = [(classes[:], barred[:]) for classes, barred in class_cover_search(orders, T)]
    if not families:
        return ModulusVerdict(b, True, _longest_prefix(orders, T) + 1)
    two = b & -b
    return ModulusVerdict(
        b,
        False,
        two.bit_length() - 2 + ord2(b // two),
        _leftover(two, odd_factors, orders, families),
    )


# Common denominator of the sieved order weights.  Any N keeps the bound
# sound, since ceil(N / o) >= N / o; a large one only keeps the rounding
# from passing b whose true sum lies just below 1.
_N = 1 << 62


def _sieved_blocks(start: int, stop: int):
    """Yield (lo, bounds) for blocks of about sqrt(stop) even b covering
    [start, stop] (start even): bounds[i] >= N * sum(1 / ord_2(q)) over the
    distinct odd primes q of b = lo + 2i, sieved as the module docstring
    says.

    l comes from the block's own hi, not from stop: on an early block a
    prime just above sqrt(hi) can have a much smaller order than
    log2(sqrt(stop)) (r = 31 has order 5).
    """
    odd_primes = primes_up_to(math.isqrt(stop))[1:]
    width = 2 * math.isqrt(stop)
    for lo in range(start, stop + 1, width):
        hi = min(lo + width - 2, stop)
        count = (hi - lo) // 2 + 1
        root = math.isqrt(hi)
        bounds = [-(-_N // (root + 1).bit_length())] * count
        half = lo // 2
        for q in odd_primes:
            if q > root:
                break
            first = -half % q  # q | b exactly when q | b / 2 = half + i
            if first < count:
                w = -(-_N // _ord2_prime(q))
                for i in range(first, count, q):
                    bounds[i] += w
        yield lo, bounds


# The largest b_hi scan_range takes: past it the sieve primes pass 10^8.
_SCAN_LIMIT = 10**16


def scan_range(b_lo: int, b_hi: int) -> ScanReport:
    """Uncovered verdicts for every even b >= 2 in [b_lo, b_hi].

    Block by block, the sieved bound (_sieved_blocks) drops every b whose
    odd primes certainly fail the counting screen, with no division and no
    factor list.  Only the rest are factored, get their orders (memoised
    per prime in modcore) and meet one walk over Z/T, which ends at the
    exact counting screen (class_cover_search's entry test) or at its
    first covering node; its yes or no is memoised per sorted multiset of
    orders.  check_even_modulus runs only on the b found uncovered.
    Memory grows with the range only through that memo, one small tuple
    per distinct multiset (32,416 over the even b in [2, 11184810], the
    ones that fail the screen included).

    The sieve lists every prime up to isqrt(b_hi), however narrow the
    window, so b_hi above _SCAN_LIMIT (10^16, where those primes pass
    10^8) raises ValueError before any sieving; check_even_modulus
    decides a single larger b.  A 21-wide window ending at 10^14, 10^15
    and 10^16 takes 0.35 s and 67 MB, 1.2 s and 147 MB, and 5.7 s and
    375 MB peak memory (2-core Xeon, Python 3.11).
    """
    start = max(2, b_lo + b_lo % 2)
    stop = b_hi - b_hi % 2
    if start > stop:
        raise ValueError(f"no even b >= 2 in [{b_lo}, {b_hi}]")
    if b_hi > _SCAN_LIMIT:
        raise ValueError(
            f"scan_range takes b up to {_SCAN_LIMIT}, got {b_hi}; "
            "check a single b with check_even_modulus (p2k chen check)"
        )
    t0 = time.monotonic()
    covers: dict[tuple[int, ...], bool] = {}
    uncovered: list[ModulusVerdict] = []
    for lo, bounds in _sieved_blocks(start, stop):
        for i in [i for i, total in enumerate(bounds) if total >= _N]:
            b = lo + 2 * i
            ords = [_ord2_prime(q) for q, _ in factorize(b) if q != 2]
            T = math.lcm(*ords)
            key = tuple(sorted(ords))
            if key not in covers:
                covers[key] = any(class_cover_search(key, T))
            if covers[key]:
                uncovered.append(check_even_modulus(b))
    return ScanReport(start, stop, uncovered, time.monotonic() - t0)


_WITNESS_PRIME_LIMIT = 10**7
_WITNESS_K_LIMIT = 30


def find_witness(b: int, j: int) -> tuple[int, int] | None:
    """An explicit (p, k) with p prime <= 10^7 (_WITNESS_PRIME_LIMIT),
    1 <= k <= 30 (_WITNESS_K_LIMIT) and p + 2^k = j (mod b); end-to-end
    evidence that the class j (mod b) meets the form p + 2^k.  Returns None
    if the search space is exhausted."""
    if b < 2 or b % 2 != 0:
        raise ValueError(f"modulus must be even and >= 2, got {b}")
    for k in range(1, _WITNESS_K_LIMIT + 1):
        t = (j - pow(2, k, b)) % b
        g = math.gcd(t, b)
        if g > 1:
            # every candidate in this class shares g except possibly t itself
            if t > 1 and t <= _WITNESS_PRIME_LIMIT and is_prime(t):
                return (t, k)
            continue
        p = t if t > 1 else t + b
        while p <= _WITNESS_PRIME_LIMIT:
            if is_prime(p):
                return (p, k)
            p += b
    return None
