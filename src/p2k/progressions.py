"""Arithmetic progressions that avoid every number of the form p + 2^k.

A covering system {a_i (mod d_i)} with pairwise distinct primes p_i | 2^{d_i}-1
supports the progression x = 1 (mod 2), x = 2^{a_i} (mod p_i): for every k,
some p_i divides x - 2^k.  Such a progression contains no p + 2^k at all once
the finitely many candidate equalities x - 2^k = p_i are ruled out; the
exclusion check here does exactly that, working directly modulo M and using
that 2^k mod M is periodic in k >= 1 with period ord_2(M/2).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .covering import (
    CoveringSystem,
    PrimeAssignment,
    cdl_progression_residue,
    is_covering,
    iter_prime_assignments,
)
from .modcore import ord2


@dataclass(frozen=True)
class CdlProgression:
    """The progression a (mod M) supported by a covering system and its
    prime assignment (M = 2 * product of the assigned primes)."""

    residue: int
    modulus: int
    system: CoveringSystem
    assignment: PrimeAssignment

    def __post_init__(self):
        if not 0 < self.residue < self.modulus:
            raise ValueError(
                f"residue must lie in (0, M), got {self.residue} mod {self.modulus}"
            )
        if self.residue % 2 == 0:
            raise ValueError(f"residue must be odd, got {self.residue}")

    def to_json(self) -> str:
        return json.dumps(
            {
                "a": self.residue,
                "M": self.modulus,
                "assignment": [[d, p] for d, p in self.assignment.pairs],
            },
            indent=2,
        )

    def to_table(self) -> str:
        return f"{self.residue} (mod {self.modulus})"


@dataclass(frozen=True)
class ExclusionCertificate:
    """Outcome of checking that no assigned prime c has c + 2^k in the
    progression.  k = 0 needs no computation: c + 1 is even while every
    element of the progression is odd."""

    progression: CdlProgression
    checked_primes: tuple[int, ...]
    k_period: int
    verdict: bool
    witnesses: tuple[tuple[int, int], ...]

    def to_dict(self) -> dict:
        return {
            "a": self.progression.residue,
            "M": self.progression.modulus,
            "primes": list(self.checked_primes),
            "k_period": self.k_period,
            "verdict": self.verdict,
            "witnesses": [list(w) for w in self.witnesses],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def derive_progression(
    system: CoveringSystem, assignment: PrimeAssignment
) -> CdlProgression:
    """CRT of {1 mod 2} and {2^{a_i} mod p_i} for the system's classes."""
    a, m = cdl_progression_residue(system, assignment)
    return CdlProgression(a, m, system, assignment)


def assignment_matching_modulus(moduli, target_modulus: int) -> PrimeAssignment:
    """The prime assignment whose progression modulus 2 * prod p_i equals
    target_modulus.  Used for published progressions where only the modulus
    is printed; it identifies the assignment uniquely in practice."""
    if target_modulus % 2 != 0:
        raise ValueError(f"progression modulus must be even, got {target_modulus}")
    for asg in iter_prime_assignments(moduli):
        if 2 * math.prod(asg.primes) == target_modulus:
            return asg
    raise ValueError(f"no assignment for {tuple(moduli)} gives modulus {target_modulus}")


@lru_cache(maxsize=256)
def _exponent_index(m: int, primes: tuple[int, ...]) -> tuple[int, dict[int, list[int]]]:
    """T = lcm of the ord_2(c) over primes, and 2^k mod m -> the k in 1..T
    with that power, ascending.  Bounded like crt_basis; cover enumerate
    certifies many progressions per modulus."""
    period = math.lcm(*map(ord2, primes))
    index: dict[int, list[int]] = {}
    power = 1
    for k in range(1, period + 1):
        power = power * 2 % m
        index.setdefault(power, []).append(k)
    return period, index


def verify_excludes_primes(progression: CdlProgression) -> ExclusionCertificate:
    """Check c + 2^k != a (mod M) for every assigned prime c and every
    k in 1..T, T the lcm of the ord_2(c); that range is exhaustive because
    2^(k+T) = 2^k (mod M) for k >= 1 when M = 2 * prod c (T = ord_2(M/2)).

    c + 2^k = a (mod M) iff 2^k = (a - c) (mod M), so each c needs one
    lookup of (a - c) mod M in an index of 2^1, ..., 2^T mod M, cached with
    T per (M, primes).  When M = 2 * prod c, as derive_progression
    makes it, T is the order of 2 mod M/2, so those powers are distinct
    mod M/2 and hence mod M: each c has at most one witness k.  An entry
    lists every k with its power, so any other M is checked exactly too.
    Witnesses come in ascending k, then in the order of the primes.
    """
    a = progression.residue
    m = progression.modulus
    primes = progression.assignment.primes
    period, index = _exponent_index(m, primes)
    hits = [(k, i, c) for i, c in enumerate(primes) for k in index.get((a - c) % m, ())]
    hits.sort()
    return ExclusionCertificate(
        progression=progression,
        checked_primes=primes,
        k_period=period,
        verdict=not hits,
        witnesses=tuple((c, k) for k, _, c in hits),
    )


def membership_in_U_is_certified(progression: CdlProgression) -> bool:
    """Full sufficiency chain for the progression to avoid p + 2^k entirely.

    The frozen types prove their own facts when built: PrimeAssignment that
    its primes are distinct odd primes with p_i | 2^{d_i} - 1, CdlProgression
    that its residue is odd and lies in (0, M).  This checks the rest, each
    independently of the computation that produced it: the assignment's
    moduli are the system's, the system covers Z (is_covering, not the
    enumeration's search), M = 2 * prod p_i, a = 2^{a_i} (mod p_i) for each
    class (not the CRT lift), and no assigned prime occurs as a - 2^k
    (verify_excludes_primes).
    """
    system = progression.system
    assignment = progression.assignment
    if assignment.moduli != system.moduli:
        return False
    if not is_covering(system):
        return False
    if progression.modulus != 2 * math.prod(assignment.primes):
        return False
    a = progression.residue
    for cond, (_, p) in zip(system.classes, assignment.pairs):
        if a % p != pow(2, cond.residue, p):
            return False
    return verify_excludes_primes(progression).verdict


def pair_gcd_census(progressions) -> tuple[int, int]:
    """Over all unordered pairs of (a, M) progressions sharing one modulus
    M, count how many satisfy gcd(M, a_i - a_j) = 2.  M must be even and
    >= 2, as every progression modulus 2 * prod p_i is, and the residues
    odd, in (0, M) and distinct, as CdlProgression's are: an even class is
    no progression of odd numbers, and a repeated one would be paired with
    itself.  Raises ValueError otherwise, the modulus checked first."""
    progs = list(progressions)
    if not progs:
        return (0, 0)
    m = progs[0][1]
    if m < 2 or m % 2:
        raise ValueError(f"progression modulus must be even and >= 2, got {m}")
    seen = set()
    for a, mm in progs:
        if mm != m:
            raise ValueError(f"mixed moduli: {mm} != {m}")
        if a % 2 == 0 or not 0 < a < m:
            raise ValueError(f"residue must be odd and lie in (0, {m}), got {a}")
        if a in seen:
            raise ValueError(f"residue {a} mod {m} is repeated")
        seen.add(a)
    hits = sum(math.gcd(m, a - b) == 2 for (a, _), (b, _) in combinations(progs, 2))
    return (math.comb(len(progs), 2), hits)
