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

Everything therefore lives on exponents mod T = lcm of the orders, and one
search decides b: modcore.class_cover_search picks one class per prime,
branching on the least uncovered exponent (Knuth's Algorithm X).  Its
position x stands for exponent x + 1, so position class c blocks the
residue 2^(c+1) mod q.
* Covered b: some j survives the first K shifts exactly when one class per
  order covers 1..K.  With L the longest such prefix (L < T), the sieve
  empties after shifts_used = L + 1 shifts.
* Uncovered b: the shift values 2^k mod b run through v2(b) - 1 pre-period
  values and then ord_2(b_odd) periodic ones, and the strike-out stops at the
  first repeat, so shifts_used = v2(b) - 1 + ord_2(b_odd).  leftover holds
  every odd j whose choice vector covers Z/T, rebuilt by CRT: class e for q
  gives j = 2^e (mod q), no class gives the residues mod q outside <2>, each
  lifted to the power of q in b and combined with every odd residue mod
  2^v2(b).

The range scan first drops every b that fails the counting screen
sum(T // o) >= T: one class mod o holds T / o of the T exponents mod T, so
classes with fewer than T exponents in total cannot cover Z/T.  The screen
is exact integer arithmetic and only ever drops covered b.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

from .modcore import (
    _ord2_prime,
    class_cover_search,
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

    def to_json(self) -> str:
        return json.dumps(
            {
                "b": self.b,
                "covered": self.covered,
                "m": self.shifts_used,
                "leftover": list(self.leftover),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "ModulusVerdict":
        d = json.loads(text)
        return cls(d["b"], d["covered"], d["m"], tuple(d["leftover"]))


@dataclass
class ScanReport:
    b_lo: int
    b_hi: int
    uncovered_moduli: list[ModulusVerdict] = field(default_factory=list)
    elapsed: float = 0.0


def _longest_prefix(orders) -> int:
    """Largest L <= lcm(orders) such that one exponent class per entry
    covers 1..L; L = lcm(orders) exactly when the classes can cover Z."""
    T = math.lcm(*orders)
    best = 0

    def visit(x, covered, room, classes, barred):
        nonlocal best
        best = max(best, x)
        return best < T

    class_cover_search(orders, T, visit)
    return best


def _leftover(two: int, odd_factors, orders) -> tuple[int, ...]:
    """Odd residues mod two * prod(q^f) whose blocked classes cover Z, by
    CRT over the covering families of class_cover_search."""
    T = math.lcm(*orders)
    out: list[int] = []

    def visit(x, covered, room, classes, barred):
        if x < T:
            return True
        residues, m = list(range(1, two, 2)), two
        for (q, f), o, c, bar in zip(odd_factors, orders, classes, barred):
            # position class c stands for exponent class c + 1
            if c is None:
                blocked = {pow(2, e + 1, q) for e in range(o) if bar >> e & 1}
                base = [r for r in range(q) if r not in blocked]
            else:
                base = [pow(2, c + 1, q)]
            qf = q**f
            lifts = [r + q * t for r in base for t in range(qf // q)]
            inv = pow(m, -1, qf)
            residues = [s + m * ((r - s) * inv % qf) for s in residues for r in lifts]
            m *= qf
        out.extend(residues)
        return False

    class_cover_search(orders, T, visit)
    return tuple(sorted(out))


def check_even_modulus(b: int) -> ModulusVerdict:
    """Verdict for one even modulus from the orders of its odd primes."""
    if b < 2 or b % 2 != 0:
        raise ValueError(f"modulus must be even and >= 2, got {b}")
    odd_factors = [(q, f) for q, f in factorize(b) if q != 2]
    orders = [_ord2_prime(q) for q, _ in odd_factors]
    prefix = _longest_prefix(orders)
    if prefix < math.lcm(*orders):
        return ModulusVerdict(b, True, prefix + 1)
    two = b & -b
    return ModulusVerdict(
        b,
        False,
        two.bit_length() - 2 + ord2(b // two),
        _leftover(two, odd_factors, orders),
    )


def residual_to_progressions(verdict: ModulusVerdict) -> list[tuple[int, int]]:
    """Surviving odd residues as candidate progressions (a, b) for the
    covering-system machinery to certify."""
    if verdict.covered:
        raise ValueError(f"b={verdict.b} is covered; no residual progressions")
    return [(a, verdict.b) for a in verdict.leftover]


def _chunk_odd_prime_factors(lo: int, hi: int, odd_primes) -> list[list[int]]:
    """Distinct odd prime factors, ascending, of each even b in [lo, hi]
    (lo even), by sieving with odd_primes, which must reach sqrt(hi)."""
    count = (hi - lo) // 2 + 1
    factors: list[list[int]] = [[] for _ in range(count)]
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


def scan_range(b_lo: int, b_hi: int) -> ScanReport:
    """Uncovered verdicts for every even b >= 2 in [b_lo, b_hi].

    Blocks of about sqrt(b_hi) consecutive integers, the usual segmented
    sieve length, are factored at a time, so memory stays flat over any
    range.  Orders are computed once per prime that divides some b, and the
    longest prefix once per multiset of orders that passes the screen;
    check_even_modulus runs only on the b found uncovered.
    """
    start = max(2, b_lo + b_lo % 2)
    stop = b_hi - b_hi % 2
    if start > stop:
        raise ValueError(f"no even b >= 2 in [{b_lo}, {b_hi}]")
    t0 = time.monotonic()
    odd_primes = primes_up_to(math.isqrt(stop))[1:]
    orders: dict[int, int] = {}
    prefixes: dict[tuple[int, ...], int] = {}
    uncovered: list[ModulusVerdict] = []
    width = 2 * math.isqrt(stop)
    for lo in range(start, stop + 1, width):
        hi = min(lo + width - 2, stop)
        for b, qs in zip(range(lo, hi + 1, 2), _chunk_odd_prime_factors(lo, hi, odd_primes)):
            for q in qs:
                if q not in orders:
                    orders[q] = _ord2_prime(q)
            ords = [orders[q] for q in qs]
            T = math.lcm(*ords)
            if sum(T // o for o in ords) < T:
                continue
            key = tuple(sorted(ords))
            if key not in prefixes:
                prefixes[key] = _longest_prefix(key)
            if prefixes[key] == T:
                uncovered.append(check_even_modulus(b))
    return ScanReport(start, stop, uncovered, time.monotonic() - t0)


def find_witness(
    b: int, j: int, prime_limit: int = 10**7, k_limit: int = 30
) -> tuple[int, int] | None:
    """An explicit (p, k) with p prime <= prime_limit, 1 <= k <= k_limit and
    p + 2^k = j (mod b); end-to-end evidence that the class j (mod b) meets
    the form p + 2^k.  Returns None if the search space is exhausted."""
    if b < 2 or b % 2 != 0:
        raise ValueError(f"modulus must be even and >= 2, got {b}")
    for k in range(1, k_limit + 1):
        t = (j - pow(2, k, b)) % b
        g = math.gcd(t, b)
        if g > 1:
            # every candidate in this class shares g except possibly t itself
            if t > 1 and t <= prime_limit and is_prime(t):
                return (t, k)
            continue
        p = t if t > 1 else t + b
        while p <= prime_limit:
            if is_prime(p):
                return (p, k)
            p += b
    return None
