"""Certified upper bounds on the upper density of integers of the form p + 2^k.

For an odd squarefree M, let f_M(m) = {k in Z/ord_2(M)Z : m - 2^k is a unit
mod M} and delta_M(nu) = #{m : |f_M(m)| = nu}.  The density of representable
integers is then bounded above by

    sum_nu delta_M(nu) * min(1/(2M), nu / (ord_2(M) phi(M) ln 2)):

a residue m mod M meets the representable numbers only inside one odd class
mod 2M (density 1/(2M)), and only for exponents k in f_M(m), each worth at
most a Brun-Titchmarsh portion of the primes.

delta_M is computed exactly by the cluster pipeline: the value distribution
of f_p for a prime p is the full set Z/ord_2(p)Z with multiplicity
p - ord_2(p) plus each co-singleton with multiplicity 1; value sets combine
across coprime parts by lifting to the common exponent ring (inverse image
under the natural surjection) and intersecting, with multiplicities
multiplying and equal rows merging.  Value sets are bit rows (Python ints),
multiplicities are exact integers, and a brute-force f_M oracle
cross-checks the whole pipeline at small scales.

Clusters are stored by rotation orbit.  Since f_M(2m) = f_M(m) + 1, rotating
a row by one exponent gives a row of the same cluster with the same
multiplicity, so every cluster is a union of whole rotation orbits and keeps
one entry per orbit: its least rotation (the smallest int among its
rotations) and its weight W, the number of residues whose row lies in the
orbit, so the weights of a cluster sum to its modulus part.  The period p of
an orbit (its number of members) divides the order and W, each member row
having multiplicity W / p; lifting to a larger ring keeps both the least
rotation and the period.  For orbits of periods p_a and p_b, the p_a * p_b
member pairs fall into gcd(p_a, p_b) joint orbits, one per pair
(a, rot^s b) with s < gcd(p_a, p_b).  A joint orbit is lcm(p_a, p_b) pairs
of multiplicity (W_a / p_a) * (W_b / p_b) each, so it carries weight
W_a * W_b / gcd(p_a, p_b): merge adds that to the orbit of
c = a & rot^s b, and the pure cross adds it at nu = popcount(c).

The two halves of a split are crossed without building the merged cluster,
by one of two engines that cross_histogram chooses between; neither is
selectable from outside.  Over g = gcd of the two orders, a row reduces to
its profile (set bits per residue mod g), a pair of rows intersects in the
dot product of their profiles (x -> (x mod L_a, x mod L_b) is a bijection
onto the pairs that agree mod g), and rotating a row rotates its profile
mod g.  The numpy engine takes the profiles of the orbit representatives
only and groups them by least profile rotation: a profile orbit of period q
carries the summed weight W of the row orbits in it, W / q on each member
(exact, since q divides the period, and so the weight, of each such row
orbit).  The other side's profile -> weight map is rotation-invariant, and
dot(rot^s r, p) = dot(r, rot^-s p), so every member of a profile orbit
meets the same nu-histogram against it: one side's orbit profiles, weighted
W, are multiplied against every member profile of the other side, weighted
W / q.

A larger group folds further.  The row multiset of a half cluster is fixed
by every affine map k -> u k + s of its exponent ring, u a unit: each prime
contributes its full row and every co-singleton, a multiset that any
bijection of Z/ord_2(p) fixes, and an affine map of Z/L reduces to one mod
each ord_2(p).  Every unit mod g lifts to a unit mod L, so the side's
weighted profile multiset is then fixed by AGL(1, Z/g), the maps
r -> u r + s on profile entries.  Against a side so fixed, dot products are
unchanged when both profiles are permuted together, so every profile of an
affine orbit meets the same nu-histogram: the other side is multiplied as
affine orbit representatives, each carrying its orbit's summed W, against
every member profile of the fixed side, in whichever orientation forms
fewer dot products.  The invariance is checked, not assumed: each side's
rotation orbits must map, under each generator of (Z/g)^x, onto rotation
orbits of equal weight.  A pair failing the check on either side takes the
joint-orbit loop, which is exact for any rotation-closed cluster; every
product of prime clusters passes it.

The numpy engine is exact inside three windows: profile counts are at most
max order / g and are summed in uint16 (< 2^16); dot products are at most
lcm(orders) and are formed in float32 from nonnegative integer terms, so
every partial sum is an exact integer (< 2^24); the weights one orbit
profile meets are summed in float64 and total at most the other side's
modulus part (< 2^52).  cross_histogram alone chooses, from sizes the
halves already hold: an orbit pair gives gcd(p_a, p_b) joint orbits, at
least 1 and at most g, so |orbits of a| * |orbits of b| * g bounds the
joint-orbit loop's work from above without computing a period.  The numpy
engine runs when the pair fits all three windows, that bound is at least
2^13 and both sides pass the invariance check.  Every other pair takes the
joint-orbit loop in Python ints, which is also the reference the numpy
engine is tested against.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, reduce

import numpy as _np

from .modcore import euler_phi, factorize, is_prime, ord2, period_mask

ORACLE_LIMIT = 10**7

# exactness windows of the numpy cross engine (see the module docstring)
_F64_EXACT_LIMIT = 1 << 52
_U16_EXACT_LIMIT = 1 << 16
_F32_EXACT_LIMIT = 1 << 24
# the numpy cross's fixed cost (about 0.2 ms) outweighs the joint-orbit
# loop below this bound on its joint orbits, |orbits| * |orbits| * g: every
# published fixture stays under it (at most 4,560) and takes the loop; over
# 300 seeded random splits (2-core Xeon, numpy 2.4) rule plus engine took
# 0.66 s, against 0.97 s when the rule counted joint orbits exactly (2^12)
_NUMPY_MIN_JOINT_ORBIT_BOUND = 1 << 13
# the oracle's narrow counter (see brute_force_delta)
_U8_EXACT_LIMIT = 1 << 8


def _period(mask: int, order: int) -> int:
    """Least p > 0 with rot^p(mask) = mask, for a row of Z/order: the first
    match of the row's bit string inside itself doubled, past offset 0."""
    bits = format(mask, f"0{order}b")
    return (bits + bits).find(bits, 1)


def _canonical(mask: int, order: int) -> int:
    """Least rotation of a row of Z/order.

    Rotation i (bit j of it is bit i + j of the row) reads the row's bits
    i - 1, i - 2, ... from its top bit down, so the least rotation starts
    just above a longest run of zeros: only those starts are compared.
    """
    full = (1 << order) - 1
    doubled = mask | (mask << order)
    # after t rounds, bit k of runs says bits k, k - 1, ..., k - t of
    # `doubled` are all zero; the rounds stop at the longest such runs, and
    # a run topped at bit j of the row is read first by rotation j + 1
    runs = (full ^ mask) | ((full ^ mask) << order)
    while (longer := runs & (runs << 1)) >> order:
        runs = longer
    ends = runs >> order
    least = mask
    while ends:
        low = ends & -ends
        least = min(least, (doubled >> low.bit_length()) & full)
        ends ^= low
    return least


@dataclass(frozen=True)
class Cluster:
    """Deduplicated multiset of f-value bit rows for one odd modulus part,
    stored one entry per rotation orbit.

    A row is a subset of Z/order as an int mask; rotating it by one
    exponent gives a row with the same multiplicity.  orbits maps each
    orbit's least rotation to its weight, the number of residues whose row
    lies in the orbit: its period times the multiplicity of each member row.
    The weights sum to modulus_part, and rows expands them into the full
    row -> multiplicity map.  order is ord_2 of modulus_part, except in
    augmented intermediates where it is a multiple.  No period is stored:
    rows, validate and the joint-orbit walk each compute the periods of the
    orbits they reach with _period, and the numpy cross calls it on none.
    Treated as immutable once built.
    """

    modulus_part: int
    order: int
    orbits: dict[int, int]

    @cached_property
    def rows(self) -> dict[int, int]:
        """Every member row of every orbit, with its multiplicity."""
        full = (1 << self.order) - 1
        rows: dict[int, int] = {}
        for mask, weight in self.orbits.items():
            doubled = mask | (mask << self.order)
            period = _period(mask, self.order)
            mult = weight // period
            for i in range(period):
                rows[(doubled >> i) & full] = mult
        return rows

    def validate(self) -> None:
        if self.modulus_part % 2 == 0:
            raise ValueError("modulus part must be odd")
        if self.order % ord2(self.modulus_part) != 0:
            raise ValueError("order must be a multiple of ord2(modulus part)")
        full = (1 << self.order) - 1
        for mask, weight in self.orbits.items():
            if mask < 0 or mask > full:
                raise ValueError("row outside the ambient exponent ring")
            if weight < 0:
                raise ValueError("negative multiplicity")
            least = _canonical(mask, self.order)
            if least != mask:
                raise ValueError(
                    f"row {mask:#x} is not the least rotation of its orbit ({least:#x})"
                )
            if weight % (period := _period(mask, self.order)):
                raise ValueError(
                    f"weight {weight} of row {mask:#x} is not a multiple of its "
                    f"period {period}"
                )
        if (total := sum(self.orbits.values())) != self.modulus_part:
            raise ValueError(f"weights sum to {total}, expected {self.modulus_part}")


TRIVIAL_CLUSTER = Cluster(modulus_part=1, order=1, orbits={1: 1})


def prime_cluster(p: int) -> Cluster:
    """The value distribution of f_p for an odd prime p: the full row with
    multiplicity p - ord_2(p), plus each co-singleton with multiplicity 1
    (one orbit of weight ord_2(p), whose least rotation lacks the top
    exponent)."""
    if p % 2 == 0 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    order = ord2(p)
    full = (1 << order) - 1
    return Cluster(modulus_part=p, order=order, orbits={full: p - order, full >> 1: order})


def augment(cluster: Cluster, target_order: int) -> Cluster:
    """Lift every row to the larger exponent ring Z/target_order; bit a
    becomes bits a + k*order for k = 0 .. target_order/order - 1, which is
    the row times period_mask(order, target_order).  The lift commutes with
    rotation and keeps the order of ints, so each orbit's least rotation
    lifts to the least rotation of its lifted orbit."""
    if target_order % cluster.order != 0:
        raise ValueError(
            f"target order {target_order} not a multiple of {cluster.order}"
        )
    if target_order == cluster.order:
        return cluster
    lift = period_mask(cluster.order, target_order)
    orbits = {mask * lift: weight for mask, weight in cluster.orbits.items()}
    return Cluster(cluster.modulus_part, target_order, orbits)


def _check_coprime(a: Cluster, b: Cluster) -> None:
    if math.gcd(a.modulus_part, b.modulus_part) != 1:
        raise ValueError(
            f"modulus parts {a.modulus_part}, {b.modulus_part} are not coprime"
        )


def _joint_orbits(a: Cluster, b: Cluster):
    """Yield (c, w) for each joint rotation orbit of a pair of orbits lifted
    to Z/L, L = lcm of the orders: c = a & rot^s b for s < gcd(p_a, p_b),
    and w its weight W_a * W_b / gcd(p_a, p_b).  Lifting keeps each orbit's
    period, computed once per orbit as the walk reaches it; b's rows are
    lifted to Z/2L, which lays the row lifted to Z/L out twice, so rot^s is
    a shift and a mask."""
    order = math.lcm(a.order, b.order)
    lift_a, lift_b = period_mask(a.order, order), period_mask(b.order, 2 * order)
    items_b = [(mask * lift_b, _period(mask, b.order), w_b) for mask, w_b in b.orbits.items()]
    for mask, w_a in a.orbits.items():
        lifted = mask * lift_a
        p_a = _period(mask, a.order)
        for doubled_b, p_b, w_b in items_b:
            shifts = math.gcd(p_a, p_b)
            w = w_a // shifts * w_b
            for s in range(shifts):
                yield lifted & (doubled_b >> s), w


def merge(a: Cluster, b: Cluster) -> Cluster:
    """Cluster of the product modulus: rows are pairwise intersections of
    the lifted rows, multiplicities multiply, equal rows merge.  Each joint
    orbit adds its weight to the orbit of its intersection c; equal
    intersections are summed before c's least rotation is found."""
    _check_coprime(a, b)
    order = math.lcm(a.order, b.order)
    found: dict[int, int] = {}
    for key, w in _joint_orbits(a, b):
        found[key] = found.get(key, 0) + w
    orbits: dict[int, int] = {}
    for key, w in found.items():
        least = _canonical(key, order)
        orbits[least] = orbits.get(least, 0) + w
    return Cluster(a.modulus_part * b.modulus_part, order, orbits)


@dataclass(frozen=True)
class DeltaHistogram:
    """Exact counts delta_M(nu) for nu = |f_M(m)| over m in Z/MZ."""

    M: int
    counts: dict[int, int]

    def validate(self) -> None:
        """Both mass identities: total count M, total nu-weighted count
        ord_2(M) * phi(M)."""
        order = ord2(self.M)
        phi = euler_phi(self.M)
        total = sum(self.counts.values())
        if total != self.M:
            raise ValueError(f"counts sum to {total}, expected M = {self.M}")
        weighted = sum(nu * c for nu, c in self.counts.items())
        if weighted != order * phi:
            raise ValueError(
                f"nu-weighted sum {weighted}, expected ord2(M)*phi(M) = {order * phi}"
            )

    def sorted_items(self) -> list[tuple[int, int]]:
        return sorted(self.counts.items())


def histogram_of(cluster: Cluster) -> DeltaHistogram:
    counts: dict[int, int] = {}
    for mask, weight in cluster.orbits.items():
        nu = mask.bit_count()
        counts[nu] = counts.get(nu, 0) + weight
    return DeltaHistogram(M=cluster.modulus_part, counts=counts)


def _masks_to_matrix(masks: list[int], words: int):
    buf = b"".join(m.to_bytes(words * 8, "little") for m in masks)
    return _np.frombuffer(buf, dtype="<u8").reshape(len(masks), words)


def _profile_matrix(keys, g: int):
    """The uint16 profiles behind big-endian byte keys, one row each."""
    return _np.frombuffer(keys.tobytes(), dtype=">u2").reshape(-1, g)


def _least_rotations(prof):
    """(least rotation, period) of each row of a profile matrix over Z/g.

    Rows are compared as big-endian bytes, whose order is the
    lexicographic order of the counts; the least rotation comes back as
    that byte key (numpy drops trailing zero bytes when comparing keys of
    one width, which keeps both the order and equality)."""
    g = prof.shape[1]
    width = f"S{2 * g}"
    # rotation s of a row is the window [s, s + g) of the row laid out twice
    doubled = _np.empty((len(prof), 2 * g), dtype=">u2")
    doubled[:, :g] = doubled[:, g:] = prof
    rotations = [doubled[:, s : s + g].view(width)[:, 0] for s in range(g)]
    best = rotations[0]
    for key in rotations[1:]:
        best = _np.where(key < best, key, best)
    # a period divides g: try the divisors in descending order, so the
    # least one wins
    q = _np.full(len(prof), g, dtype=_np.int64)
    for s in range(g - 1, 0, -1):
        if g % s == 0:
            q[rotations[s] == rotations[0]] = s
    return best, q


def _profile_orbits(cluster: Cluster, g: int):
    """The Z/g profiles of the orbit representatives, grouped by least
    profile rotation: (least profiles as sorted big-endian byte keys, their
    periods q, their weights W, the summed weights of the row orbits whose
    profiles lie in the profile orbit, in float64).

    profile[r] counts the set bits of a row at positions = r (mod g), each
    at most order/g, which the caller has checked is below 2^16.  A row of
    period p has a profile whose period q divides gcd(p, g), so a row orbit
    of weight W puts W / q on each of the q profile rotations.  The weights
    are integers below 2^52 (the caller's window), so their float64 sums
    are exact.
    """
    order = cluster.order
    reps = list(cluster.orbits)
    weights = _np.array(list(cluster.orbits.values()), dtype=_np.float64)
    words = (order + 63) // 64
    least = _np.empty(len(reps), dtype=f"S{2 * g}")
    periods = _np.empty(len(reps), dtype=_np.int64)
    chunk = max(1, (1 << 24) // max(order, 1))
    for lo in range(0, len(reps), chunk):
        sub = reps[lo : lo + chunk]
        mat = _masks_to_matrix(sub, words)
        bits = _np.unpackbits(
            mat.view(_np.uint8), axis=1, bitorder="little"
        )[:, :order]
        prof = bits.reshape(len(sub), order // g, g).sum(axis=1, dtype=_np.uint16)
        least[lo : lo + len(sub)], periods[lo : lo + len(sub)] = _least_rotations(prof)
    keys, first, inverse = _np.unique(least, return_index=True, return_inverse=True)
    return keys, periods[first], _np.bincount(inverse, weights=weights)


def _unit_generators(g: int) -> list[int]:
    """Units mod g that generate (Z/g)^x, each the least unit not in the
    group generated before it (7, 11 and 13 for g = 60)."""
    gens: list[int] = []
    group = {1}
    for u in range(2, g):
        if math.gcd(u, g) == 1 and u not in group:
            gens.append(u)
            # the group is abelian, so u adds the cosets H u, H u^2, ... of
            # the group H so far, until one falls back into H
            coset = group
            while not (coset := {x * u % g for x in coset}) <= group:
                group = group | coset
    return gens


def _affine_fold(least, weights, g: int):
    """Group one side's profile rotation orbits by AGL(1, Z/g) orbit:
    (representative keys, summed weights), or None unless the side is
    invariant.

    A unit u maps a profile P to P(u r), a permutation of its entries; an
    orbit's image under each generator of (Z/g)^x is looked up by its least
    rotation in the sorted keys.  The side is invariant, its weighted
    profile multiset fixed by every map r -> u r + s, exactly when every
    image is found with the weight of the orbit it came from (an orbit and
    its image have the same period, so equal W means equal weight per
    member); the first generator with an image missing or of another
    weight gives None.  Each orbit joins the least-keyed orbit that the
    images reach from it, always one of its own affine orbit."""
    prof = _profile_matrix(least, g)
    images = []
    for u in _unit_generators(g):
        image, _ = _least_rotations(prof[:, u * _np.arange(g) % g])
        pos = _np.minimum(_np.searchsorted(least, image), len(least) - 1)
        if not ((least[pos] == image).all() and (weights[pos] == weights).all()):
            return None
        images.append(pos)
    rep = _np.arange(len(least))
    while not _np.array_equal(
        grown := reduce(_np.minimum, (rep[image] for image in images), rep), rep
    ):
        rep = grown
    reps, inverse = _np.unique(rep, return_inverse=True)
    return least[reps], _np.bincount(inverse, weights=weights)


def _cross_arrangement(a: Cluster, b: Cluster):
    """The numpy cross as (orbit profiles as float32 rows, their weights,
    member profiles as float32 columns, their weights), or None unless both
    sides pass the affine-invariance check.

    One side gives its affine orbit representatives, weighted W, and the
    other every member profile, at weight W / q of its rotation orbit; of
    the two orientations, the one with fewer dot products is taken."""
    g = math.gcd(a.order, b.order)
    sides = [_profile_orbits(c, g) for c in (a, b)]
    folds = [_affine_fold(keys, weights, g) for keys, _, weights in sides]
    if any(fold is None for fold in folds):
        return None
    x = min((0, 1), key=lambda x: len(folds[x][0]) * int(sides[1 - x][1].sum()))
    keys, weights = folds[x]
    keys_m, q_m, w_m = sides[1 - x]
    # the members of a profile orbit are its least profile rotated by s < q;
    # with the orbits in descending period, those with q > s are a prefix
    by_period = _np.argsort(-q_m, kind="stable")
    q_m = q_m[by_period]
    per_member = w_m[by_period] / q_m  # exact: q divides W < 2^52
    prof_t = _profile_matrix(keys_m, g)[by_period].T
    doubled = _np.concatenate([prof_t, prof_t])
    counts = [int(_np.count_nonzero(q_m > s)) for s in range(g)]
    weights_m = _np.concatenate([per_member[:n] for n in counts])
    members_t = _np.empty((g, len(weights_m)), dtype=_np.float32)
    col = 0
    for s, n in enumerate(counts):
        members_t[:, col : col + n] = doubled[s : s + g, :n]
        col += n
    # uint16 counts are exact in float32
    return _profile_matrix(keys, g).astype(_np.float32), weights, members_t, weights_m


def _cross_histogram_numpy(rows, weights, members_t, weights_m, order: int) -> dict[int, int]:
    """Cross histogram over Z/order of one side's orbit profiles (weight W)
    against every member profile of the other side (weight W / q), as
    _cross_arrangement lays them out.  Exact only inside the windows that
    _fits_numpy_windows checks, which cross_histogram does before choosing
    this engine."""
    block = max(1, min(len(rows), (1 << 20) // max(len(weights_m), 1)))
    dots = _np.empty((block, len(weights_m)), dtype=_np.float32)
    nus = _np.empty((block, len(weights_m)), dtype=_np.int64)
    totals = [0] * (order + 1)
    for lo in range(0, len(rows), block):
        n = min(block, len(rows) - lo)
        _np.matmul(rows[lo : lo + n], members_t, out=dots[:n])
        _np.copyto(nus[:n], dots[:n], casting="unsafe")
        for i in range(n):
            hist = _np.bincount(nus[i], weights=weights_m, minlength=order + 1)
            nz = _np.flatnonzero(hist)
            w = int(weights[lo + i])
            for nu, c in zip(nz.tolist(), hist[nz].astype(_np.int64).tolist()):
                totals[nu] += w * c
    return {nu: c for nu, c in enumerate(totals) if c}


def _cross_histogram_pure(a: Cluster, b: Cluster) -> dict[int, int]:
    """Cross histogram over the joint rotation orbits, in exact ints."""
    counts: dict[int, int] = {}
    for key, w in _joint_orbits(a, b):
        nu = key.bit_count()
        counts[nu] = counts.get(nu, 0) + w
    return counts


def _fits_numpy_windows(a: Cluster, b: Cluster) -> bool:
    """Whether the numpy cross stays inside all three exactness windows:
    weights below 2^52, profile counts below 2^16, intersection sizes
    below 2^24."""
    return (
        max(a.modulus_part, b.modulus_part) < _F64_EXACT_LIMIT
        and max(a.order, b.order) // math.gcd(a.order, b.order) < _U16_EXACT_LIMIT
        and math.lcm(a.order, b.order) < _F32_EXACT_LIMIT
    )


def cross_histogram(a: Cluster, b: Cluster) -> DeltaHistogram:
    """Histogram of the merged cluster without materializing it: for every
    row pair, mult_a * mult_b is accumulated at nu = popcount of the
    intersection.  Exact, and the one place an engine is chosen: numpy when
    the pair fits its three exactness windows, the joint-orbit loop's size
    bound len(a.orbits) * len(b.orbits) * gcd(a.order, b.order) is at least
    _NUMPY_MIN_JOINT_ORBIT_BOUND and both sides fold (_cross_arrangement),
    the joint-orbit loop otherwise.  No period is computed to choose."""
    _check_coprime(a, b)
    arrangement = None
    bound = len(a.orbits) * len(b.orbits) * math.gcd(a.order, b.order)
    if _fits_numpy_windows(a, b) and bound >= _NUMPY_MIN_JOINT_ORBIT_BOUND:
        arrangement = _cross_arrangement(a, b)
    if arrangement is None:
        counts = _cross_histogram_pure(a, b)
    else:
        counts = _cross_histogram_numpy(*arrangement, math.lcm(a.order, b.order))
    return DeltaHistogram(M=a.modulus_part * b.modulus_part, counts=counts)


def _coprime_table(M: int, primes) -> _np.ndarray:
    """U[x] = [gcd(x, M) = 1] for x < M as uint8, given the primes of M:
    every p-th entry from 0 is cleared."""
    table = _np.ones(M, dtype=_np.uint8)
    for p in primes:
        table[::p] = 0
    return table


def brute_force_delta(M: int) -> DeltaHistogram:
    """Independent oracle: compute |f_M(m)| = #{t in <2> : gcd(m - t, M) = 1}
    for every residue m, over every pair (m, t), and histogram the sizes.
    Limited to M <= 10^7.

    gcd(m - t, M) depends only on (m - t) mod M, so the coprimality table
    U[x] = [gcd(x, M) = 1] is sieved from the primes of M (every p-th entry
    cleared, p | M; the squarefree check already factors M), and for each t
    a slice of U laid out twice is added into a counter over m.  The counter
    holds nu <= ord2(M), so it is exact in uint8 when ord2(M) < 2^8, and in
    int32 otherwise (ord2(M) < M <= ORACLE_LIMIT < 2^31).
    """
    if M % 2 == 0 or M < 1:
        raise ValueError(f"M must be odd and positive, got {M}")
    if M > ORACLE_LIMIT:
        raise ValueError(f"M = {M} beyond oracle range {ORACLE_LIMIT}")
    factors = factorize(M)
    if any(e > 1 for _, e in factors):
        raise ValueError(f"M = {M} is not squarefree")
    order = ord2(M)
    pows = [pow(2, k, M) for k in range(order)]
    coprime = _coprime_table(M, [p for p, _ in factors])
    doubled = _np.concatenate([coprime, coprime])
    counter = _np.uint8 if order < _U8_EXACT_LIMIT else _np.int32
    counts: dict[int, int] = {}
    chunk = 1 << 20
    for lo in range(0, M, chunk):
        hi = min(lo + chunk, M)
        nu = _np.zeros(hi - lo, dtype=counter)
        for t in pows:
            # (m - t) mod M = m - t + M for 0 <= t < M
            nu += doubled[M - t + lo : M - t + hi]
        hist = _np.bincount(nu)  # length at most ord2(M) + 1
        nz = _np.flatnonzero(hist)
        for v, c in zip(nz.tolist(), hist[nz].tolist()):
            counts[v] = counts.get(v, 0) + c
    return DeltaHistogram(M=M, counts=counts)


def _ln2_bounds() -> tuple[Fraction, Fraction]:
    """Rational enclosure of ln 2 from the first 200 terms of
    sum 1/(k 2^k); the tail after them is below 1/(201 * 2^200).  The terms
    are summed as one numerator over their common denominator
    lcm(1..200) * 2^200, a single reduction rather than 200."""
    L = math.lcm(*range(1, 201))
    s = Fraction(sum((L // k) << (200 - k) for k in range(1, 201)), L << 200)
    return s, s + Fraction(1, 201 << 200)


_LN2_LO, _LN2_HI = _ln2_bounds()


@dataclass(frozen=True)
class BoundResult:
    """An evaluated density bound: exact rational enclosure plus context.

    bound_upper is a certified upper value (every rounding directed
    upward); bound_lower differs from it only by the ln-2 enclosure slack.
    """

    primes: tuple[int, ...]
    partition: tuple[tuple[int, ...], tuple[int, ...]]
    M: int
    order: int
    phi: int
    histogram: DeltaHistogram
    bound_upper: Fraction
    bound_lower: Fraction

    def decimal_upper(self) -> str:
        """The upper bound as a decimal string, rounded up at 15 places."""
        digits = str(math.ceil(self.bound_upper * 10**15)).rjust(16, "0")
        return digits[:-15] + "." + digits[-15:]

    def to_json(self) -> str:
        return json.dumps(
            {
                "primes": list(self.primes),
                "partition": [list(self.partition[0]), list(self.partition[1])],
                "M": self.M,
                "ord2": self.order,
                "phi": self.phi,
                "histogram": [[nu, c] for nu, c in self.histogram.sorted_items()],
                "bound": self.decimal_upper(),
                "bound_exact": f"{self.bound_upper.numerator}/{self.bound_upper.denominator}",
                "bound_lower_exact": f"{self.bound_lower.numerator}/{self.bound_lower.denominator}",
                # the one lemma form, named for readers of earlier outputs
                "variant": "corrected",
                "rounding": "upward",
            },
            indent=2,
        )

    def to_csv(self) -> str:
        """One nu,delta row per histogram entry, then the bound."""
        lines = ["nu,delta"]
        lines += [f"{nu},{c}" for nu, c in self.histogram.sorted_items()]
        lines.append(f"bound,{self.decimal_upper()}")
        return "\n".join(lines)

    def to_table(self) -> str:
        return (
            f"primes={','.join(map(str, self.primes))} M={self.M} "
            f"ord2={self.order} phi={self.phi}\n"
            f"bound <= {self.decimal_upper()} (corrected, rounded upward)"
        )


def _capped_sum(items, M: int, denom: int, ln2: Fraction) -> Fraction:
    """sum of count * min(1/(2M), nu/(denom ln2)) over (nu, count).

    The Brun term is at most the cap exactly when
    nu ln2.den 2M <= denom ln2.num, that is when nu <= nu*, the floor of
    denom ln2.num / (ln2.den 2M).  Counts at nu > nu* add count/(2M), and
    those at nu <= nu* add count times a Brun term linear in nu, so each
    side is one Fraction of an integer sum."""
    nu_star = denom * ln2.numerator // (ln2.denominator * 2 * M)
    capped = sum(count for nu, count in items if nu > nu_star)
    weighted = sum(nu * count for nu, count in items if nu <= nu_star)
    return Fraction(capped, 2 * M) + Fraction(
        weighted * ln2.denominator, denom * ln2.numerator
    )


def evaluate_bound(histogram: DeltaHistogram) -> BoundResult:
    """Apply the density lemma to an exact histogram:
    sum delta(nu) min(1/(2M), nu/(T phi ln 2)) with T = ord_2(M), where a
    residue mod M is one odd class mod 2M of density 1/(2M).  M's primes, T
    and phi come from factoring M.  All arithmetic is exact rational; ln 2
    enters as a 200-term enclosure with the division directed so
    bound_upper is a certified upper value.

    Only nu up to the threshold nu* = T phi ln 2 / (2M) fall under the cap,
    so the histogram is split there with one integer comparison per nu,
    separately for each end of the ln 2 enclosure: each bound is the capped
    counts over 2M plus sum(nu * count below nu*) / (T phi ln 2), two
    Fractions in all.  A nu exactly at the threshold adds the same value to
    either part, and Fractions are canonical, so the rationals equal the
    per-nu sum.
    """
    histogram.validate()
    M = histogram.M
    primes = tuple(p for p, _ in factorize(M))
    order = ord2(M)
    phi = euler_phi(M)
    items = histogram.counts.items()
    return BoundResult(
        primes=primes,
        partition=(primes, ()),
        M=M,
        order=order,
        phi=phi,
        histogram=histogram,
        bound_upper=_capped_sum(items, M, order * phi, _LN2_LO),
        bound_lower=_capped_sum(items, M, order * phi, _LN2_HI),
    )


def balance_partition(primes) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split primes into two groups with roughly equal products (greedy on
    descending size), which keeps both half-cluster row counts tame."""
    left: list[int] = []
    right: list[int] = []
    prod_l = prod_r = 1
    for p in sorted(primes, reverse=True):
        if prod_l <= prod_r:
            left.append(p)
            prod_l *= p
        else:
            right.append(p)
            prod_r *= p
    return tuple(sorted(left)), tuple(sorted(right))


def _half_cluster(primes) -> Cluster:
    # merging in ascending ord2 keeps intermediate exponent rings small
    clusters = sorted(map(prime_cluster, primes), key=lambda c: (c.order, c.modulus_part))
    return reduce(merge, clusters, TRIVIAL_CLUSTER)


def run_estimate(primes, partition: tuple | None = None) -> BoundResult:
    """Full pipeline: per-prime clusters (prime_cluster rejects any p that
    is not an odd prime), merge within each half, cross the halves into the
    histogram (cross_histogram picks its engine), and evaluate the bound."""
    prime_list = list(primes)
    if not prime_list:
        raise ValueError("need at least one prime")
    if len(set(prime_list)) != len(prime_list):
        raise ValueError(f"primes must be distinct, got {prime_list}")
    if partition is None:
        left, right = balance_partition(prime_list)
    else:
        left, right = tuple(sorted(partition[0])), tuple(sorted(partition[1]))
        if sorted(left + right) != sorted(prime_list):
            raise ValueError(
                f"partition {partition} does not split {sorted(prime_list)}"
            )
    cluster_l = _half_cluster(left)
    cluster_r = _half_cluster(right)
    hist = cross_histogram(cluster_l, cluster_r)
    return replace(evaluate_bound(hist), partition=(left, right))
