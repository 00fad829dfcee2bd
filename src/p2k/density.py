"""Certified upper bounds on the upper density of integers of the form p + 2^k.

For an odd squarefree M, let f_M(m) = {k in Z/ord_2(M)Z : m - 2^k is a unit
mod M} and delta_M(nu) = #{m : |f_M(m)| = nu}.  The density of representable
integers is then bounded above by

    sum_nu delta_M(nu) * min(1/(2M), nu / (ord_2(M) phi(M) ln 2)):

a residue m mod M meets the representable numbers only inside one odd class
mod 2M (density 1/(2M)), and only for exponents k in f_M(m), each worth at
most a Brun-Titchmarsh portion of the primes.  The lemma is usually typeset
with min(1/M, 2 nu / ...), which is identically twice this (it bounds the
density among odd integers); that form stays available as the "printed"
variant, but it cannot reproduce the known value 0.5 for M = 3.

delta_M is computed exactly by the cluster pipeline: the value distribution
of f_p for a prime p is the full set Z/ord_2(p)Z with multiplicity
p - ord_2(p) plus each co-singleton with multiplicity 1; value sets combine
across coprime parts by lifting to the common exponent ring (inverse image
under the natural surjection) and intersecting, with multiplicities
multiplying and equal rows merging.  Value sets are bit rows (Python ints),
multiplicities are exact integers, and a brute-force f_M oracle
cross-checks the whole pipeline at small scales.

The two halves of a split are crossed without building the merged cluster.
Over g = gcd of the two orders, a row reduces to its profile (set bits per
residue mod g), and a pair of rows intersects in the dot product of their
profiles.  Since f_M(2m) = f_M(m) + 1, every cluster is closed under
rotation by one exponent with equal multiplicities, so its profile -> weight
map is invariant under a shift by one position mod g.  With
dot(rot^s r, p) = dot(r, rot^-s p), every profile in a rotation orbit meets
the same nu-histogram against such a side, and the numpy backend iterates
one representative per orbit of the smaller side, weighted by the orbit's
summed multiplicity.  It runs only inside its exactness windows: profile
counts (at most order/g) below 2^16 for uint16, dot products (at most the
lcm of the orders) below 2^24 for float32, and multiplicity totals below
2^52 for float64 sums.  Outside them "auto" takes the pure path, which is
also the oracle the numpy backend is tested against.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from .modcore import euler_phi, factorize, is_prime, lcm_all, ord2

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is a declared dependency
    _np = None

ORACLE_LIMIT = 10**7

# exactness windows of the numpy cross backend (see _cross_histogram_numpy)
_F64_EXACT_LIMIT = 1 << 52
_U16_EXACT_LIMIT = 1 << 16
_F32_EXACT_LIMIT = 1 << 24


@dataclass(frozen=True)
class Cluster:
    """Deduplicated multiset of f-value bit rows for one odd modulus part.

    rows maps a bit row (subset of Z/order as an int mask) to its exact
    multiplicity; multiplicities sum to modulus_part.  order is ord_2 of
    modulus_part, except in augmented intermediates where it is a multiple.
    Treated as immutable once built.
    """

    modulus_part: int
    order: int
    rows: dict[int, int]

    def validate(self) -> None:
        if self.modulus_part % 2 == 0:
            raise ValueError("modulus part must be odd")
        if self.order % ord2(self.modulus_part) != 0:
            raise ValueError("order must be a multiple of ord2(modulus part)")
        total = sum(self.rows.values())
        if total != self.modulus_part:
            raise ValueError(
                f"multiplicities sum to {total}, expected {self.modulus_part}"
            )
        full = (1 << self.order) - 1
        for mask, mult in self.rows.items():
            if mask < 0 or mask > full:
                raise ValueError("row outside the ambient exponent ring")
            if mult < 0:
                raise ValueError("negative multiplicity")

    def row_count(self) -> int:
        return len(self.rows)


TRIVIAL_CLUSTER = Cluster(modulus_part=1, order=1, rows={1: 1})


def prime_cluster(p: int) -> Cluster:
    """The value distribution of f_p for an odd prime p: the full row with
    multiplicity p - ord_2(p), plus each co-singleton with multiplicity 1."""
    if p % 2 == 0 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    order = ord2(p)
    full = (1 << order) - 1
    rows: dict[int, int] = {}
    if p - order > 0:
        rows[full] = p - order
    for j in range(order):
        rows[full ^ (1 << j)] = 1
    return Cluster(modulus_part=p, order=order, rows=rows)


def _lift_mask(mask: int, order: int, target: int) -> int:
    """Inverse image of a subset of Z/order under Z/target -> Z/order."""
    if target == order:
        return mask
    pattern = mask
    width = order
    while width < target:
        pattern |= pattern << width
        width <<= 1
    return pattern & ((1 << target) - 1)


def augment(cluster: Cluster, target_order: int) -> Cluster:
    """Lift every row to the larger exponent ring Z/target_order; bit a
    becomes bits a + k*order for k = 0 .. target_order/order - 1."""
    if target_order % cluster.order != 0:
        raise ValueError(
            f"target order {target_order} not a multiple of {cluster.order}"
        )
    if target_order == cluster.order:
        return cluster
    rows = {
        _lift_mask(mask, cluster.order, target_order): mult
        for mask, mult in cluster.rows.items()
    }
    return Cluster(cluster.modulus_part, target_order, rows)


def merge(a: Cluster, b: Cluster) -> Cluster:
    """Cluster of the product modulus: rows are pairwise intersections of
    the lifted rows, multiplicities multiply, equal rows merge."""
    if math.gcd(a.modulus_part, b.modulus_part) != 1:
        raise ValueError(
            f"modulus parts {a.modulus_part}, {b.modulus_part} are not coprime"
        )
    order = math.lcm(a.order, b.order)
    lifted_a = augment(a, order)
    lifted_b = augment(b, order)
    rows: dict[int, int] = {}
    items_b = list(lifted_b.rows.items())
    for mask_a, mult_a in lifted_a.rows.items():
        for mask_b, mult_b in items_b:
            key = mask_a & mask_b
            w = mult_a * mult_b
            if key in rows:
                rows[key] += w
            else:
                rows[key] = w
    return Cluster(a.modulus_part * b.modulus_part, order, rows)


@dataclass(frozen=True)
class DeltaHistogram:
    """Exact counts delta_M(nu) for nu = |f_M(m)| over m in Z/MZ."""

    M: int
    counts: dict[int, int]

    def validate(self, order: int | None = None, phi: int | None = None) -> None:
        """Both mass identities: total count M, total nu-weighted count
        ord_2(M) * phi(M)."""
        order = ord2(self.M) if order is None else order
        phi = euler_phi(self.M) if phi is None else phi
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
    for mask, mult in cluster.rows.items():
        nu = mask.bit_count()
        counts[nu] = counts.get(nu, 0) + mult
    return DeltaHistogram(M=cluster.modulus_part, counts=counts)


def _masks_to_matrix(masks: list[int], words: int):
    buf = b"".join(m.to_bytes(words * 8, "little") for m in masks)
    return _np.frombuffer(buf, dtype="<u8").reshape(len(masks), words)


def _profiles(cluster: Cluster, g: int) -> dict[bytes, int]:
    """Deduplicated residue-count profiles of the rows over Z/g.

    profile[r] counts the set bits of a row at positions = r (mod g), stored
    as the bytes of g uint16 counts (each at most order/g, which the caller
    has checked is below 2^16).  For any two clusters, the intersection size
    of a pair of lifted rows equals the dot product of their profiles over
    g = gcd of the orders (the map x -> (x mod L_a, x mod L_b) is a bijection
    onto the pairs agreeing mod g), so the cross histogram only needs
    profiles; rows sharing a profile merge here, weights summing exactly.
    """
    order = cluster.order
    reps = order // g
    words = (order + 63) // 64
    masks = list(cluster.rows.keys())
    grouped: dict[bytes, int] = {}
    chunk = max(1, (1 << 24) // max(order, 1))
    for lo in range(0, len(masks), chunk):
        sub = masks[lo : lo + chunk]
        mat = _masks_to_matrix(sub, words)
        bits = _np.unpackbits(
            mat.view(_np.uint8), axis=1, bitorder="little"
        )[:, :order]
        prof = bits.reshape(len(sub), reps, g).sum(axis=1, dtype=_np.uint16)
        for i, mask in enumerate(sub):
            key = prof[i].tobytes()
            w = cluster.rows[mask]
            if key in grouped:
                grouped[key] += w
            else:
                grouped[key] = w
    return grouped


def _profile_matrix(keys: list[bytes], g: int):
    # uint16 counts are exact in float32
    return (
        _np.frombuffer(b"".join(keys), dtype=_np.uint16)
        .reshape(len(keys), g)
        .astype(_np.float32)
    )


def _rotate(key: bytes) -> bytes:
    """The profile shifted by one position mod g: out[r] = key[r - 1]."""
    return key[-2:] + key[:-2]


def _rotation_orbits(
    side: dict[bytes, int], other: dict[bytes, int]
) -> tuple[list[bytes], list[int]]:
    """Representatives of `side`'s profiles under rotation mod g, each with
    the summed weight of the orbit members present in `side`.

    dot(rot^s r, p) = dot(r, rot^-s p), so when `other`'s profile -> weight
    map is invariant under rotation, every member of an orbit meets the same
    nu-histogram against `other`, and one representative per orbit carries
    the orbit's weight.  Clusters built by prime_cluster and merge always
    pass (f_M(2m) = f_M(m) + 1 rotates a row by one exponent and keeps its
    multiplicity); a hand-built cluster may not, and then each profile is
    its own orbit.  One lookup per profile checks the invariance: rotation
    maps the finite support into itself injectively, hence onto itself.
    """
    if any(other.get(_rotate(key)) != w for key, w in other.items()):
        return list(side), list(side.values())
    reps: list[bytes] = []
    weights: list[int] = []
    seen: set[bytes] = set()
    for key in side:
        if key in seen:
            continue
        orbit = {key}
        member = _rotate(key)
        while member != key:
            orbit.add(member)
            member = _rotate(member)
        seen |= orbit
        reps.append(key)
        weights.append(sum(side.get(m, 0) for m in orbit))
    return reps, weights


def _cross_histogram_numpy(a: Cluster, b: Cluster, order: int) -> dict[int, int]:
    """Cross histogram over profile orbit representatives x full profiles.

    Exactness windows, checked by cross_histogram before this runs:
    profile counts are at most max order / g and are summed in uint16
    (< 2^16); dot products are at most lcm(orders) = order and are formed
    in float32 with nonnegative integer terms, so every partial sum is an
    exact integer (< 2^24); per-representative weight sums over the other
    side are float64 and total at most its modulus part (< 2^52).
    """
    g = math.gcd(a.order, b.order)
    prof_a = _profiles(a, g)
    prof_b = _profiles(b, g)
    if len(prof_a) > len(prof_b):
        prof_a, prof_b = prof_b, prof_a
    reps, mult_a = _rotation_orbits(prof_a, prof_b)
    mat_a = _profile_matrix(reps, g)
    prof_b_t = _np.ascontiguousarray(_profile_matrix(list(prof_b), g).T)
    weights_b = _np.array(list(prof_b.values()), dtype=_np.float64)
    counts: dict[int, int] = {}
    block = max(1, (1 << 24) // max(len(weights_b), 1))
    for lo in range(0, mat_a.shape[0], block):
        nu_block = (mat_a[lo : lo + block] @ prof_b_t).astype(_np.int64)
        for i in range(nu_block.shape[0]):
            hist = _np.bincount(nu_block[i], weights=weights_b, minlength=order + 1)
            nz = _np.nonzero(hist)[0]
            w_a = mult_a[lo + i]
            for v in nz:
                key = int(v)
                add = w_a * int(hist[v])
                if key in counts:
                    counts[key] += add
                else:
                    counts[key] = add
    return counts


def _numpy_window_error(a: Cluster, b: Cluster) -> str | None:
    """Why the numpy cross would leave an exactness window, or None."""
    count = max(a.order, b.order) // math.gcd(a.order, b.order)
    order = math.lcm(a.order, b.order)
    if max(a.modulus_part, b.modulus_part) >= _F64_EXACT_LIMIT:
        return "multiplicities too large for the numpy backend"
    if count >= _U16_EXACT_LIMIT:
        return f"profile counts up to {count} overflow uint16 in the numpy backend"
    if order >= _F32_EXACT_LIMIT:
        return (
            f"intersection sizes up to {order} are not exact in float32 "
            "in the numpy backend"
        )
    return None


def cross_histogram(a: Cluster, b: Cluster, backend: str = "auto") -> DeltaHistogram:
    """Histogram of the merged cluster without materializing it: for every
    row pair, mult_a * mult_b is accumulated at nu = popcount of the
    intersection.  Exact; the numpy backend is used when the work is large
    and the pair fits all of its exactness windows (a forced
    backend="numpy" outside them raises ValueError)."""
    if math.gcd(a.modulus_part, b.modulus_part) != 1:
        raise ValueError(
            f"modulus parts {a.modulus_part}, {b.modulus_part} are not coprime"
        )
    order = math.lcm(a.order, b.order)
    if backend not in ("auto", "numpy", "pure"):
        raise ValueError(f"unknown backend {backend!r}")
    window_error = _numpy_window_error(a, b)
    use_numpy = backend == "numpy"
    if backend == "auto":
        use_numpy = (
            _np is not None
            and len(a.rows) * len(b.rows) >= 1 << 18
            and window_error is None
        )
    if use_numpy:
        if _np is None:
            raise RuntimeError("numpy backend requested but numpy is unavailable")
        if window_error is not None:
            raise ValueError(window_error)
        counts = _cross_histogram_numpy(a, b, order)
    else:
        lifted_a = augment(a, order)
        lifted_b = augment(b, order)
        counts = {}
        items_b = list(lifted_b.rows.items())
        for mask_a, mult_a in lifted_a.rows.items():
            for mask_b, mult_b in items_b:
                nu = (mask_a & mask_b).bit_count()
                w = mult_a * mult_b
                if nu in counts:
                    counts[nu] += w
                else:
                    counts[nu] = w
    return DeltaHistogram(M=a.modulus_part * b.modulus_part, counts=counts)


def brute_force_delta(M: int, backend: str = "auto") -> DeltaHistogram:
    """Independent oracle: compute |f_M(m)| = #{t in <2> : gcd(m - t, M) = 1}
    for every residue m, over every pair (m, t), and histogram the sizes.
    Limited to M <= 10^7.

    gcd(m - t, M) depends only on (m - t) mod M, so the coprimality table
    U[x] = [gcd(x, M) = 1] is built once, one gcd per x, and each pair
    reads U[(m - t) mod M].  The numpy branch (M >= 4096 under "auto", any
    M when forced) sums slices of U laid out twice into an int32
    accumulator, exact because nu <= ord2(M) < ORACLE_LIMIT < 2^31.
    """
    if M % 2 == 0 or M < 1:
        raise ValueError(f"M must be odd and positive, got {M}")
    if M > ORACLE_LIMIT:
        raise ValueError(f"M = {M} beyond oracle range {ORACLE_LIMIT}")
    if any(e > 1 for _, e in factorize(M)):
        raise ValueError(f"M = {M} is not squarefree")
    order = ord2(M)
    pows = [pow(2, k, M) for k in range(order)]
    counts: dict[int, int] = {}
    if _np is None or backend == "pure" or (backend != "numpy" and M < 4096):
        coprime = [1 if math.gcd(x, M) == 1 else 0 for x in range(M)]
        for m in range(M):
            nu = 0
            for t in pows:
                nu += coprime[m - t]  # m - t > -M: a negative index wraps mod M
            counts[nu] = counts.get(nu, 0) + 1
    else:
        coprime = (_np.gcd(_np.arange(M, dtype=_np.int64), M) == 1).astype(_np.uint8)
        doubled = _np.concatenate([coprime, coprime])
        chunk = 1 << 20
        for lo in range(0, M, chunk):
            hi = min(lo + chunk, M)
            nu = _np.zeros(hi - lo, dtype=_np.int32)
            for t in pows:
                # (m - t) mod M = m - t + M for 0 <= t < M
                nu += doubled[M - t + lo : M - t + hi]
            for v, c in zip(*_np.unique(nu, return_counts=True)):
                counts[int(v)] = counts.get(int(v), 0) + int(c)
    return DeltaHistogram(M=M, counts=counts)


def _ln2_bounds(terms: int = 200) -> tuple[Fraction, Fraction]:
    """Rational enclosure of ln 2 from sum 1/(k 2^k); the tail after
    `terms` summands is below 1/((terms+1) 2^terms)."""
    s = Fraction(0)
    for k in range(1, terms + 1):
        s += Fraction(1, k * (1 << k))
    return s, s + Fraction(1, (terms + 1) * (1 << terms))


_LN2_LO, _LN2_HI = _ln2_bounds()

VARIANTS = ("corrected", "printed")


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
    variant: str
    bound_upper: Fraction
    bound_lower: Fraction

    def decimal_upper(self, places: int = 15) -> str:
        """The upper bound as a decimal string, rounded up at `places`."""
        scaled = self.bound_upper * 10**places
        n = scaled.numerator // scaled.denominator
        if n * scaled.denominator != scaled.numerator:
            n += 1
        digits = str(n).rjust(places + 1, "0")
        return digits[:-places] + "." + digits[-places:]

    def __float__(self) -> float:
        return float(self.bound_upper)

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
                "variant": self.variant,
                "rounding": "upward",
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "BoundResult":
        d = json.loads(text)
        return cls(
            primes=tuple(d["primes"]),
            partition=(tuple(d["partition"][0]), tuple(d["partition"][1])),
            M=d["M"],
            order=d["ord2"],
            phi=d["phi"],
            histogram=DeltaHistogram(
                M=d["M"], counts={nu: c for nu, c in d["histogram"]}
            ),
            variant=d["variant"],
            bound_upper=Fraction(d["bound_exact"]),
            bound_lower=Fraction(d["bound_lower_exact"]),
        )


def evaluate_bound(
    histogram: DeltaHistogram,
    variant: str = "corrected",
    primes: tuple[int, ...] | None = None,
    partition: tuple[tuple[int, ...], tuple[int, ...]] | None = None,
) -> BoundResult:
    """Apply the density lemma to an exact histogram.

    The "corrected" default computes sum delta(nu) min(1/(2M), nu/(T phi ln 2)):
    a residue mod M is one odd class mod 2M of density 1/(2M), and that form
    reproduces every published table value.  The "printed" variant evaluates
    the lemma exactly as typeset, min(1/M, 2 nu/(T phi log 2)), which is
    identically twice the corrected value (it bounds the density among odd
    integers).  All arithmetic is exact rational; ln 2 enters as a 200-term
    enclosure with the division directed so bound_upper is a certified
    upper value.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    M = histogram.M
    if primes is not None:
        order = lcm_all(ord2(p) for p in primes)
        phi = 1
        prod = 1
        for p in primes:
            phi *= p - 1
            prod *= p
        if prod != M:
            raise ValueError(f"primes multiply to {prod}, histogram has M = {M}")
    else:
        primes = tuple(p for p, _ in factorize(M))
        order = ord2(M)
        phi = euler_phi(M)
    histogram.validate(order=order, phi=phi)
    if variant == "corrected":
        cap = Fraction(1, 2 * M)
        numer = 1
    else:
        cap = Fraction(1, M)
        numer = 2
    denom = order * phi
    upper = Fraction(0)
    lower = Fraction(0)
    for nu, count in histogram.sorted_items():
        if count == 0:
            continue
        brun_hi = Fraction(numer * nu) / (denom * _LN2_LO)
        brun_lo = Fraction(numer * nu) / (denom * _LN2_HI)
        upper += count * min(cap, brun_hi)
        lower += count * min(cap, brun_lo)
    if partition is None:
        partition = (primes, ())
    return BoundResult(
        primes=tuple(primes),
        partition=partition,
        M=M,
        order=order,
        phi=phi,
        histogram=histogram,
        variant=variant,
        bound_upper=upper,
        bound_lower=lower,
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
    clusters = [prime_cluster(p) for p in sorted(primes, key=lambda p: (ord2(p), p))]
    return reduce(merge, clusters, TRIVIAL_CLUSTER)


def run_estimate(
    primes,
    partition: tuple | None = None,
    variant: str = "corrected",
    backend: str = "auto",
) -> BoundResult:
    """Full pipeline: per-prime clusters, merge within each half, cross the
    halves into the histogram, and evaluate the bound."""
    prime_list = list(primes)
    if not prime_list:
        raise ValueError("need at least one prime")
    if len(set(prime_list)) != len(prime_list):
        raise ValueError(f"primes must be distinct, got {prime_list}")
    for p in prime_list:
        if p % 2 == 0 or not is_prime(p):
            raise ValueError(f"{p} is not an odd prime")
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
    hist = cross_histogram(cluster_l, cluster_r, backend=backend)
    return evaluate_bound(
        hist,
        variant=variant,
        primes=tuple(sorted(prime_list)),
        partition=(left, right),
    )
