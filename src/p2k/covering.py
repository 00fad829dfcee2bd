"""Covering systems with distinct moduli and their prime assignments.

A covering system here is a finite set of congruence classes a_i (mod d_i),
d_1 < d_2 < ... < d_n, whose union is all of Z.  When the d_i admit pairwise
distinct primes p_i with p_i | 2^{d_i} - 1, the system supports an arithmetic
progression all of whose elements avoid the form p + 2^k; this module finds
and checks such systems.  Everything works over Z/D (D = lcm of the moduli)
with D-bit masks: a class clears the bits of an arithmetic progression, and a
tuple of classes covers iff the mask empties.

Enumeration first screens the modulus tuples.  Let p^a exactly divide D.
A minimal covering with lcm D has at least p moduli divisible by p^a: some
class C has such a modulus, and by minimality some x is covered by C alone.  A class
whose modulus m has v_p(m) < a is invariant under x -> x + D/p, so none
meets the fibre {x + t D/p : 0 <= t < p}, which the covering must still
cover; a class with p^a | m meets it at most once, as the fibre's points
are distinct mod p^a.  So p such classes are needed.  Of the tuples with
lcm D, density above 1 and a prime assignment, the screen drops 68-95% at
D = 24 ... 108, never one with a minimal covering (tests/test_covering.py).

It then searches one class per modulus tuple under translations and
unit multipliers (the largest modulus fixed on class 0, the next one on 0
or a proper divisor of its modulus, the images emitted afterwards) with
modcore.class_cover_search, whose positions are the residues of Z/D, and
checks minimality only at covering leaves; enumerate_cdl_systems gives the
details.  The report stores plain ints, one record per modulus tuple with
minimal coverings: (moduli, canonical prime assignment, residue tuples).
The CongruenceCondition/CoveringSystem objects and the progressions of its
systems are built from the records only when read.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from functools import cached_property

from .modcore import (
    CongruenceCondition,
    class_cover_search,
    crt_basis,
    divisors,
    factorize,
    is_prime,
    mersenne_prime_divisors,
    period_mask,
)


@dataclass(frozen=True)
class CoveringSystem:
    """Congruence classes with strictly increasing moduli."""

    classes: tuple[CongruenceCondition, ...]

    def __post_init__(self):
        mods = [c.modulus for c in self.classes]
        if any(m2 <= m1 for m1, m2 in zip(mods, mods[1:])):
            raise ValueError(f"moduli must be strictly increasing, got {mods}")

    @classmethod
    def from_pairs(cls, pairs) -> "CoveringSystem":
        """Build from (residue, modulus) pairs in any order."""
        conds = []
        for a, d in pairs:
            if d < 1:  # checked before a % d, which fails on d = 0
                raise ValueError(f"modulus must be >= 1, got {d}")
            conds.append(CongruenceCondition(a % d, d))
        conds.sort(key=lambda c: c.modulus)
        return cls(tuple(conds))

    @cached_property
    def moduli(self) -> tuple[int, ...]:
        return tuple(c.modulus for c in self.classes)

    @property
    def residues(self) -> tuple[int, ...]:
        return tuple(c.residue for c in self.classes)

    @property
    def lcm_D(self) -> int:
        """The lcm of the moduli, 1 for no classes."""
        return math.lcm(*self.moduli)


@dataclass(frozen=True)
class PrimeAssignment:
    """Injective map modulus -> prime with p | 2^d - 1 for every pair."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        mods = [d for d, _ in self.pairs]
        if len(set(mods)) != len(mods):
            raise ValueError(f"assigned moduli must be distinct, got {mods}")
        primes = [p for _, p in self.pairs]
        if len(set(primes)) != len(primes):
            raise ValueError(f"assigned primes must be distinct, got {primes}")
        for d, p in self.pairs:
            # checked before (2^d - 1) % p, which fails on p = 0 and passes p = 1
            if d < 1:
                raise ValueError(f"modulus must be >= 1, got {d}")
            if p % 2 == 0 or not is_prime(p):
                raise ValueError(f"{p} is not an odd prime")
            if (2**d - 1) % p != 0:
                raise ValueError(f"{p} does not divide 2^{d} - 1")

    @classmethod
    def from_pairs(cls, pairs) -> "PrimeAssignment":
        return cls(tuple(sorted((d, p) for d, p in pairs)))

    @cached_property
    def moduli(self) -> tuple[int, ...]:
        return tuple(d for d, _ in self.pairs)

    @cached_property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for _, p in self.pairs)


@dataclass(frozen=True)
class EnumerationReport:
    """All minimal CDL covering systems with lcm of moduli exactly D.

    records holds one (moduli, assignment, residue tuples) triple per
    modulus tuple that has minimal coverings, in ascending order of the
    moduli: the tuple's canonical prime assignment (the first that
    iter_prime_assignments yields, the same search that admitted the
    tuple) and the sorted residue tuples of its systems, one residue per
    modulus.  systems and progressions list each system with its
    assignment, and the progression (a, M) it supports, in that order.
    to_json, to_csv and to_table write the report from the same walk over
    the records (_paired).
    """

    D: int
    records: tuple[tuple[tuple[int, ...], PrimeAssignment, tuple[tuple[int, ...], ...]], ...]
    skip_reason: str | None = None

    @cached_property
    def systems(self) -> tuple[tuple[CoveringSystem, PrimeAssignment], ...]:
        # each class of each modulus built (and validated) once, shared by
        # every system that has it
        classes = {
            d: [CongruenceCondition(a, d) for a in range(d)]
            for d in {d for mods, _, _ in self.records for d in mods}
        }
        systems = []
        for mods, asg, residue_tuples in self.records:
            rows = [classes[d] for d in mods]
            systems += (
                (CoveringSystem(tuple(map(list.__getitem__, rows, res))), asg)
                for res in residue_tuples
            )
        return tuple(systems)

    @cached_property
    def progressions(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            prog
            for _, asg, residue_tuples in self.records
            for prog in _progressions(asg.primes, residue_tuples)
        )

    @property
    def distinct_progression_count(self) -> int:
        """The number of distinct (a, M) values: two systems differing only
        in a modulus-3 vs modulus-6 class can support the same progression."""
        return len(set(self.progressions))

    def _paired(self):
        """Each record as (moduli, assignment, pairs), pairs the list of
        (residue tuple, progression (a, M)) of its systems: the one place
        the records meet the flat progressions, which the writers read."""
        progs = iter(self.progressions)
        for mods, asg, residue_tuples in self.records:
            yield mods, asg, [(res, next(progs)) for res in residue_tuples]

    def to_json(self) -> str:
        """json.dumps(payload, indent=2) of the payload {"D", "systems",
        "distinct_progression_count"[, "skip_reason"]}, each system a
        {"classes", "assignment", "progression"} of int pairs, written by
        hand: indent sends json.dumps to its pure-Python encoder, seconds
        at D = 60.  A record's systems differ only in their residues and
        progression, so each fills its record's template."""
        systems = []
        for mods, asg, pairs in self._paired():
            classes = [_json_list(["%d", str(d)], 8) for d in mods]
            assignment = [_json_list([str(d), str(p)], 8) for d, p in asg.pairs]
            template = _json_object(
                [
                    ("classes", _json_list(classes, 6)),
                    ("assignment", _json_list(assignment, 6)),
                    ("progression", _json_list(["%d", "%d"], 6)),
                ],
                4,
            )
            systems += (template % (*res, *prog) for res, prog in pairs)
        fields = [
            ("D", str(self.D)),
            ("systems", _json_list(systems, 2)),
            ("distinct_progression_count", str(self.distinct_progression_count)),
        ]
        if self.skip_reason is not None:
            fields.append(("skip_reason", json.dumps(self.skip_reason)))
        return _json_object(fields, 0)

    def to_csv(self) -> str:
        """One block per modulus tuple, blank-line separated: a header of
        one column per modulus (ascending) and a final column for the
        progression residue a, then one row per system."""
        out = io.StringIO()
        writer = csv.writer(out)
        for i, (mods, _, pairs) in enumerate(self._paired()):
            if i:
                writer.writerow([])
            writer.writerow([f"mod_{d}" for d in mods] + ["a"])
            writer.writerows([*res, a] for res, (a, _) in pairs)
        return out.getvalue()

    def to_table(self) -> str:
        """A summary line, then one line per system: its classes and the
        progression it supports.  A skipped D gives one line, its reason."""
        if self.skip_reason is not None:
            return f"D={self.D}: skipped ({self.skip_reason})"
        lines = [
            f"D={self.D}: {len(self.progressions)} minimal CDL covering systems, "
            f"{self.distinct_progression_count} distinct progressions"
        ]
        for mods, _, pairs in self._paired():
            for res, (a, m) in pairs:
                classes = " ".join(f"{r}(mod {d})" for r, d in zip(res, mods))
                lines.append(f"  {classes}  ->  {a} (mod {m})")
        return "\n".join(lines)


def _json_list(items: list[str], pad: int) -> str:
    """A list as json.dumps(..., indent=2) writes it at indent pad, its
    items already written."""
    if not items:
        return "[]"
    inner = ",\n".join(" " * (pad + 2) + item for item in items)
    return f"[\n{inner}\n{' ' * pad}]"


def _json_object(fields, pad: int) -> str:
    """A dict of (key, written value) pairs as _json_list writes a list;
    the keys are plain ASCII, so need no escapes."""
    inner = ",\n".join(f'{" " * (pad + 2)}"{key}": {value}' for key, value in fields)
    return f"{{\n{inner}\n{' ' * pad}}}"


def _class_mask(residue: int, modulus: int, D: int) -> int:
    """Bits of {x in Z/D : x = residue (mod modulus)}, for modulus | D."""
    return period_mask(modulus, D) << residue % modulus


def is_covering(c: CoveringSystem) -> bool:
    """True iff the classes cover every residue in Z/lcm_D (hence all of Z)."""
    D = c.lcm_D
    remaining = (1 << D) - 1
    for cond in c.classes:
        remaining &= ~_class_mask(cond.residue, cond.modulus, D)
        if remaining == 0:
            return True
    return remaining == 0


def _each_essential(masks, full: int) -> bool:
    """True iff every mask is essential: the union of the others misses
    part of full.  Read off prefix/suffix ORs."""
    prefix = [0]
    for m in masks:
        prefix.append(prefix[-1] | m)
    suffix = 0
    for i in range(len(masks) - 1, -1, -1):
        if prefix[i] | suffix == full:
            return False
        suffix |= masks[i]
    return True


def is_minimal(c: CoveringSystem) -> bool:
    """True iff c covers and removing any single class breaks covering.

    Non-covering input is not minimal-covering, so it returns False.
    """
    D = c.lcm_D
    masks = [_class_mask(cond.residue, cond.modulus, D) for cond in c.classes]
    full = (1 << D) - 1
    union = 0
    for m in masks:
        union |= m
    return union == full and _each_essential(masks, full)


def iter_prime_assignments(moduli):
    """Yield every injective assignment d -> p | 2^d - 1 as a PrimeAssignment,
    in lexicographic order of the (d, p) pairs.

    Depth first: the moduli in ascending order, each trying its primes in
    ascending order and skipping those already used, so the first yield is
    canonical_assignment.  Moduli must be distinct, each >= 1 with 2^d - 1
    within factorize's range; ValueError otherwise.  2^1 - 1 has no prime
    divisor, so moduli with a 1 among them yield nothing.
    """
    mods = sorted(moduli)
    if len(set(mods)) != len(mods):
        raise ValueError(f"moduli must be distinct, got {mods}")
    candidates = [[] if d == 1 else mersenne_prime_divisors(d) for d in mods]
    chosen: list[int] = []

    def rec(i: int):
        if i == len(mods):
            yield PrimeAssignment(tuple(zip(mods, chosen)))
            return
        for p in candidates[i]:
            if p not in chosen:
                chosen.append(p)
                yield from rec(i + 1)
                chosen.pop()

    yield from rec(0)


def find_prime_assignments(moduli) -> list[PrimeAssignment]:
    """All injective assignments for the given distinct moduli, in
    lexicographic order (may be empty)."""
    return list(iter_prime_assignments(moduli))


def canonical_assignment(moduli) -> PrimeAssignment | None:
    """The lexicographically least assignment by (modulus, prime): the first
    that iter_prime_assignments yields, or None when there is none.
    Repeated moduli raise ValueError."""
    return next(iter_prime_assignments(moduli), None)


def _progressions(primes: tuple[int, ...], residue_tuples) -> list[tuple[int, int]]:
    """The progression (a, M) of each residue tuple (r_i): the CRT class
    x = 1 (mod 2), x = 2^{r_i} (mod p_i), with M = 2 * prod p_i.  The
    primes must be distinct and odd, as a PrimeAssignment's are, so the
    basis exists; each sum reduced mod M is the unique x in [0, M)."""
    M, (half, *basis) = crt_basis((2, *primes))
    return [
        ((half + sum(pow(2, r, p) * e for r, p, e in zip(res, primes, basis))) % M, M)
        for res in residue_tuples
    ]


def cdl_progression_residue(system: CoveringSystem, assignment: PrimeAssignment) -> tuple[int, int]:
    """The progression (a, M) supported by a CDL system: the CRT class
    x = 1 (mod 2), x = 2^{a_i} (mod p_i), with M = 2 * prod p_i."""
    if assignment.moduli != system.moduli:
        raise ValueError(
            f"assignment moduli {assignment.moduli} do not match "
            f"system moduli {system.moduli}"
        )
    return _progressions(assignment.primes, [system.residues])[0]


def _minimal_coverings(mods: tuple[int, ...], D: int) -> list[tuple[int, ...]]:
    """Residue tuples, one class per modulus of mods (ascending, lcm D), of
    every minimal covering of Z/D, sorted.

    The search runs with the largest modulus on class 0 and the next one on
    class 0 or a proper divisor of its modulus; it returns the images of
    what it finds under the units mod D, and their shifts (see
    enumerate_cdl_systems).
    """
    *rest, top = mods
    full = (1 << D) - 1
    top_mask = _class_mask(0, top, D)
    barred = [0] * len(rest)
    if rest:
        d = rest[-1]
        kept = 1 | sum(1 << g for g in divisors(d)[:-1])
        barred[-1] = (1 << d) - 1 & ~kept
    found: list[tuple[int, ...]] = []
    for classes, _ in class_cover_search(rest, D, full ^ top_mask, barred):
        # covered with moduli unplaced: any extension is redundant
        if None not in classes:
            masks = [_class_mask(a, d, D) for a, d in zip(classes, rest)]
            if _each_essential(masks + [top_mask], full):
                found.append((*classes, 0))
    units = [u for u in range(D) if math.gcd(u, D) == 1]
    bases = {tuple(u * a % d for a, d in zip(res, mods)) for res in found for u in units}
    return sorted(
        tuple((a + r) % d for a, d in zip(res, mods))
        for res in bases
        for r in range(top)
    )


def enumerate_cdl_systems(D: int) -> EnumerationReport:
    """All minimal CDL covering systems whose moduli have lcm exactly D.

    Screens D by the divisor-density necessary condition (sum of 1/d over
    d | D must exceed 2), then selects modulus tuples from the divisors of
    D with density sum > 1, at least p moduli divisible by p^a for each
    p^a exactly dividing D, and a distinct-prime assignment, which
    canonical_assignment both checks and supplies.  That middle test is the
    p-power screen: a tuple that fails it has no minimal covering with lcm
    D (proof in the module docstring), and one that passes has lcm exactly
    D, as p >= 2.  It runs first, so it spares the assignment search and
    the class search on most tuples.  For each tuple:

    * Translation quotient.  x -> x + r maps minimal coverings with these
      moduli to minimal coverings, and every system is the shift of exactly
      one system whose largest modulus d_top sits on class 0 (shift by its
      top residue).  The search fixes that class and emits the d_top shifts
      of each system it finds.
    * Unit quotient.  x -> u x, u a unit mod D, also maps minimal coverings
      with these moduli to minimal coverings, and fixes class 0 of d_top.
      It acts on the classes of the next largest modulus d through the
      units mod d (each lifts to a unit mod D), whose orbits are the sets
      {a : gcd(a, d) = g}, g | d; so each orbit holds 0 or a proper divisor
      of d.  The search bars every other class of d, then emits the images
      of what it finds under every unit mod D, without repeats, before the
      shifts.
    * The walk (modcore.class_cover_search).  Each node branches on the
      least uncovered residue of Z/D that only one unplaced modulus can
      still cover (its class there not barred), else only two, else on the
      least uncovered residue.  Each unplaced d whose class there is open
      tries it, barred in the later sibling branches once its branch is
      done, so every system is reached along exactly one path.  A branch
      dies when some uncovered residue has no open class left, or when the
      uncovered residues outnumber what the unplaced classes can clear.
      The walk yields each covering node, and _minimal_coverings reads
      them in one loop: a node with moduli still unplaced is dropped (the
      rest would be redundant).
    * Leaf minimality.  A covering leaf is kept iff each class is
      essential (_each_essential, shared with is_minimal).

    Each tuple with minimal coverings gives one record of the report: the
    tuple, its canonical prime assignment and its sorted residue tuples,
    the records in ascending order of the tuples.
    """
    if D < 1:
        raise ValueError(f"D must be >= 1, got D={D}")
    if D > 2**20:
        raise ValueError(f"D={D} out of supported enumeration range")
    divs = [d for d in divisors(D) if d >= 2]
    # total_rest = sigma(D) - D, so sum of 1/d over d | D exceeds 2 iff it
    # exceeds D; pick's root prune is the same test
    total_rest = sum(D // d for d in divs)
    if total_rest <= D:
        reason = f"sum of 1/d over divisors of {D} does not exceed 2"
        return EnumerationReport(D=D, records=(), skip_reason=reason)
    # raise early if 2^D - 1 cannot be factored; this also factors 2^d - 1
    # for every d | D that the tuple search asks for
    mersenne_prime_divisors(D)

    # (p^a, p) for each p^a exactly dividing D: the p-power screen
    powers = [(p**a, p) for p, a in factorize(D)]
    # modulus tuples: subsets with sum 1/d > 1 that pass the screen (so
    # have lcm exactly D) and have an assignment; each with minimal
    # coverings gives a record
    records = []

    def pick(idx: int, subset: list[int], weight: int, rest_weight: int):
        # weight counts sum of D/d so far; need strict > D at the end
        if idx == len(divs):
            if (
                weight > D
                and all(sum(d % q == 0 for d in subset) >= p for q, p in powers)
                and (asg := canonical_assignment(subset))
                and (residue_tuples := _minimal_coverings(tuple(subset), D))
            ):
                records.append((tuple(subset), asg, tuple(residue_tuples)))
            return
        if weight + rest_weight <= D:
            return  # cannot reach density 1 even taking everything
        d = divs[idx]
        pick(idx + 1, subset, weight, rest_weight - D // d)
        subset.append(d)
        pick(idx + 1, subset, weight + D // d, rest_weight - D // d)
        subset.pop()

    pick(0, [], 0, total_rest)
    return EnumerationReport(D=D, records=tuple(sorted(records, key=lambda r: r[0])))


def double_cover(c: CoveringSystem) -> CoveringSystem:
    """{1 mod 2} together with {2 a_i mod 2 d_i}: a minimal CDL covering
    system with lcm doubled, for any minimal covering input with distinct
    moduli >= 2."""
    if any(cond.modulus == 1 for cond in c.classes):
        raise ValueError("doubling a system with modulus 1 repeats modulus 2")
    if not is_minimal(c):
        raise ValueError("input system is not a minimal covering")
    pairs = [(1, 2)] + [(2 * cond.residue, 2 * cond.modulus) for cond in c.classes]
    return CoveringSystem.from_pairs(pairs)
