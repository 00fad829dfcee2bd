import itertools
import json
import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p2k.chenscan import check_even_modulus
from p2k.modcore import euler_phi, factorize, ord2, period_mask, primes_up_to
from p2k.density import (
    TRIVIAL_CLUSTER,
    Cluster,
    DeltaHistogram,
    augment,
    balance_partition,
    brute_force_delta,
    cross_histogram,
    evaluate_bound,
    histogram_of,
    merge,
    prime_cluster,
    run_estimate,
)
from p2k import density
from p2k.density import (
    _LN2_HI,
    _LN2_LO,
    _affine_fold,
    _canonical,
    _coprime_table,
    _cross_arrangement,
    _cross_histogram_numpy,
    _cross_histogram_pure,
    _fits_numpy_windows,
    _half_cluster,
    _joint_orbit_count,
    _joint_orbits,
    _period,
    _profile_orbits,
    _unit_generators,
)


def _numpy_cross(a, b):
    """The numpy engine on a pair that folds, whatever engine
    cross_histogram would choose for it."""
    return _cross_histogram_numpy(*_cross_arrangement(a, b), math.lcm(a.order, b.order))


@pytest.fixture
def engines_run(monkeypatch):
    """The engines cross_histogram runs, "numpy" or "pure", in call order."""
    run = []
    for name, engine in [("numpy", _cross_histogram_numpy), ("pure", _cross_histogram_pure)]:
        def spy(*args, name=name, engine=engine):
            run.append(name)
            return engine(*args)
        monkeypatch.setattr(density, f"_cross_histogram_{name}", spy)
    return run


def test_prime_cluster_3():
    c = prime_cluster(3)
    assert c.order == 2
    assert c.rows == {0b11: 1, 0b10: 1, 0b01: 1}
    c.validate()


def test_prime_cluster_7():
    c = prime_cluster(7)
    assert c.order == 3
    assert c.rows[0b111] == 4
    assert sorted(m for m in c.rows if m != 0b111) == [0b011, 0b101, 0b110]
    assert sum(c.rows.values()) == 7


def test_prime_cluster_5():
    c = prime_cluster(5)
    assert c.order == 4
    assert sum(c.rows.values()) == 5
    assert len(c.rows) == 5


def test_prime_cluster_rejects_bad_input():
    for bad in (4, 9, 1):
        with pytest.raises(ValueError):
            prime_cluster(bad)


def test_augment_examples():
    c3 = prime_cluster(3)
    lifted = augment(c3, 4)
    # row {1} over Z/2 lifts to {1, 3}; full row to all of Z/4
    assert lifted.rows == {0b1111: 1, 0b1010: 1, 0b0101: 1}
    assert augment(c3, 2) is c3
    with pytest.raises(ValueError):
        augment(c3, 5)


def test_merge_with_trivial_is_identity():
    c = prime_cluster(7)
    merged = merge(c, TRIVIAL_CLUSTER)
    assert merged.rows == c.rows
    assert merged.modulus_part == 7


def test_merge_mass_and_oracle_small():
    m35 = merge(prime_cluster(3), prime_cluster(5))
    assert m35.modulus_part == 15
    assert m35.order == 4
    assert sum(m35.rows.values()) == 15
    assert histogram_of(m35).counts == brute_force_delta(15).counts


def test_merge_rejects_common_factor():
    with pytest.raises(ValueError):
        merge(prime_cluster(3), prime_cluster(3))


@pytest.mark.parametrize("M,primes", [
    (15, (3, 5)),
    (105, (3, 5, 7)),
    (1155, (3, 5, 7, 11)),
    (23205, (3, 5, 7, 13, 17)),
])
def test_pipeline_matches_oracle(M, primes):
    cluster = TRIVIAL_CLUSTER
    for p in primes:
        cluster = merge(cluster, prime_cluster(p))
    cluster.validate()
    assert cluster.modulus_part == M
    hist = histogram_of(cluster)
    oracle = brute_force_delta(M)
    assert hist.counts == oracle.counts
    hist.validate()


def test_cross_histogram_equals_merge_histogram():
    left = merge(prime_cluster(3), prime_cluster(5))
    right = prime_cluster(7)
    assert cross_histogram(left, right).counts == histogram_of(merge(left, right)).counts


def test_cross_with_trivial_is_delta_3():
    hist = cross_histogram(prime_cluster(3), TRIVIAL_CLUSTER)
    assert hist.counts == {1: 2, 2: 1}


def test_cross_mass_identities_forced():
    left = merge(prime_cluster(3), prime_cluster(5))
    right = merge(prime_cluster(7), prime_cluster(11))
    hist = cross_histogram(left, right)
    hist.validate()  # sum = M and nu-weighted sum = ord2(M) phi(M)


def test_cross_numpy_backend_matches_pure():
    for primes_l, primes_r in [((3, 5), (7,)), ((3, 11, 17), (5, 7, 13)),
                               ((5, 7, 17), (3, 19,))]:
        left = TRIVIAL_CLUSTER
        for p in primes_l:
            left = merge(left, prime_cluster(p))
        right = TRIVIAL_CLUSTER
        for p in primes_r:
            right = merge(right, prime_cluster(p))
        assert _numpy_cross(left, right) == _cross_histogram_pure(left, right)


# full-row oracle: the merge and cross loops over every row pair, with an
# independent lift (bit k of the lifted row is bit k mod order of the row)


def _lift_row(mask, order, target):
    return sum(1 << k for k in range(target) if mask >> (k % order) & 1)


def _lift_rows(rows, order, target):
    return {_lift_row(mask, order, target): mult for mask, mult in rows.items()}


@pytest.mark.parametrize("order", [1, 3, 7, 12, 20, 64])
def test_augment_lifts_rows_to_their_inverse_images(order):
    # seeded random rows, half of them with the top bit o - 1 set, lifted to
    # several multiples of the order: bit x of the lift of a row is bit
    # x mod o of the row, so the lift is the row times period_mask(o, t);
    # row i's orbit weighs 1 + i per member
    rng = random.Random(order)
    rows = [rng.getrandbits(order) | (i % 2) << (order - 1) for i in range(40)]
    orbits = {
        _canonical(row, order): (1 + i) * _period(row, order) for i, row in enumerate(rows)
    }
    cluster = Cluster(sum(orbits.values()), order, orbits)
    for t in (order, 2 * order, 3 * order, 5 * order, 12 * order):
        for row in rows:
            assert row * period_mask(order, t) == _lift_row(row, order, t)
        assert augment(cluster, t).rows == _lift_rows(cluster.rows, order, t)


def _row_pairs(a, b):
    order = math.lcm(a.order, b.order)
    rows_a = _lift_rows(a.rows, a.order, order)
    rows_b = _lift_rows(b.rows, b.order, order)
    for mask_a, mult_a in rows_a.items():
        for mask_b, mult_b in rows_b.items():
            yield mask_a & mask_b, mult_a * mult_b


def _merge_rows(a, b):
    rows = {}
    for key, w in _row_pairs(a, b):
        rows[key] = rows.get(key, 0) + w
    return rows


def _cross_rows(a, b):
    counts = {}
    for key, w in _row_pairs(a, b):
        counts[key.bit_count()] = counts.get(key.bit_count(), 0) + w
    return counts


_DIFF_POOL = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 73, 127, 241)


@st.composite
def _split_prime_sets(draw):
    """A nonempty odd prime set with a random two-way split.  Primes are
    kept while M * ord2(M) <= 2 * 10^6, so the brute-force oracle stays
    fast (M itself is far inside its 10^7 range)."""
    drawn = draw(st.lists(st.sampled_from(_DIFF_POOL), min_size=1, max_size=6,
                          unique=True))
    primes = [drawn[0]]
    for p in drawn[1:]:
        M = math.prod(primes) * p
        if M * ord2(M) <= 2 * 10**6:
            primes.append(p)
    sides = draw(st.lists(st.booleans(), min_size=len(primes),
                          max_size=len(primes)))
    left = tuple(p for p, s in zip(primes, sides) if s)
    right = tuple(p for p, s in zip(primes, sides) if not s)
    return left, right


@settings(max_examples=60, deadline=None)
@given(_split_prime_sets())
def test_cross_numpy_quotient_equals_pure_and_oracle(split):
    # the orbit-stored augment, merge and both cross engines against the
    # full-row loops and the brute-force f_M oracle
    left, right = split
    a, b = _half_cluster(left), _half_cluster(right)
    order = math.lcm(a.order, b.order)
    # every half cluster passes the invariance check, so the numpy engine
    # below runs folded, never on the rotation-only fallback
    g = math.gcd(a.order, b.order)
    for c in (a, b):
        keys, _, weights = _profile_orbits(c, g)
        assert _affine_fold(keys, weights, g) is not None
    assert augment(a, order).rows == _lift_rows(a.rows, a.order, order)
    merged = merge(a, b)
    merged.validate()
    assert merged.rows == _merge_rows(a, b)
    h_np = _numpy_cross(a, b)
    h_pure = _cross_histogram_pure(a, b)
    assert h_np == h_pure == _cross_rows(a, b) == cross_histogram(a, b).counts
    assert h_pure == brute_force_delta(math.prod(left + right)).counts


def test_density_11_halves_expand_to_the_traced_row_counts():
    # the benchmark pins these sizes of the 11-prime cross stage
    left, right = balance_partition((3, 5, 7, 11, 13, 17, 19, 31, 41, 73, 241))
    a, b = _half_cluster(left), _half_cluster(right)
    assert (len(a.orbits), len(b.orbits)) == (379, 757)
    assert (a.row_count(), b.row_count()) == (37016, 106093)
    assert (len(a.rows), len(b.rows)) == (37016, 106093)
    assert sum(a.rows.values()) == a.modulus_part
    assert sum(b.rows.values()) == b.modulus_part
    assert math.gcd(a.order, b.order) == 60


def test_run_estimate_crosses_the_density_11_halves_through_the_module(monkeypatch):
    # a traced benchmark pass wraps density.cross_histogram through the
    # module attribute and reads the sizes of its largest call off the
    # arguments, so run_estimate must make that call, on the halves above
    calls = []
    cross = density.cross_histogram

    def spy(a, b):
        calls.append((len(a.rows), len(b.rows), math.gcd(a.order, b.order)))
        return cross(a, b)

    monkeypatch.setattr(density, "cross_histogram", spy)
    density.run_estimate([241, 3, 73, 5, 41, 7, 31, 11, 19, 13, 17])
    assert max(calls, key=lambda c: c[0] * c[1]) == (37016, 106093, 60)


def test_density_11_affine_fold_sizes():
    # the rotation orbits of the profiles mod 60 fold to their AGL(1, Z/60)
    # orbits, and the folded left half meets every member of the right
    left, right = balance_partition((3, 5, 7, 11, 13, 17, 19, 31, 41, 73, 241))
    a, b = _half_cluster(left), _half_cluster(right)
    assert _unit_generators(60) == [7, 11, 13]
    sizes = []
    for c in (a, b):
        keys, _, weights = _profile_orbits(c, 60)
        fold = _affine_fold(keys, weights, 60)
        assert fold is not None
        reps, summed = fold
        assert summed.sum() == weights.sum() == c.modulus_part
        sizes.append((len(keys), len(reps)))
    assert sizes == [(271, 94), (416, 209)]
    rows, weights, members_t, weights_m = _cross_arrangement(a, b)
    assert (len(rows), members_t.shape) == (94, (60, 19669))
    assert len(rows) * members_t.shape[1] == 1_848_886
    assert (weights.sum(), weights_m.sum()) == (a.modulus_part, b.modulus_part)


def test_unit_generators_generate_the_unit_group():
    for g in range(1, 181):
        gens = _unit_generators(g)
        units = {u % g for u in range(1, g + 1) if math.gcd(u, g) == 1}
        group = {1 % g}
        while (grown := group | {x * u % g for x in group for u in gens}) != group:
            group = grown
        assert group == units, g


def test_rotation_closed_but_not_affine_invariant_falls_back(monkeypatch, engines_run):
    # over Z/5 the unit 2 maps the orbit of {0, 1} onto that of {0, 2}, so
    # multiplicities 1 and 2 on them (plus a full row, which makes the
    # masses 17 and 19 coprime) give rotation-closed clusters that are not
    # affine invariant; the modulus parts only label the masses.  With the
    # size rule admitting every pair, each one still takes the joint-orbit
    # loop, since some side does not fold
    monkeypatch.setattr(density, "_NUMPY_MIN_JOINT_ORBITS", 0)
    c = Cluster(17, 5, {0b11111: 2, 0b00011: 5, 0b00101: 10})
    d = Cluster(19, 5, {0b11111: 4, 0b00011: 10, 0b00101: 5})
    for x in (c, d):
        keys, _, weights = _profile_orbits(x, 5)
        assert _affine_fold(keys, weights, 5) is None
    # neither side may fold
    assert _cross_arrangement(c, d) is None
    # the image of {0, 1} is missing altogether here, though the key it
    # would sort before (the full row) has the same weight
    e = Cluster(11, 5, {0b11111: 5, 0b00011: 5, 0: 1})
    keys, _, weights = _profile_orbits(e, 5)
    assert _affine_fold(keys, weights, 5) is None
    # one invariant side is not enough
    p31 = prime_cluster(31)
    assert _cross_arrangement(c, p31) is None
    assert _cross_arrangement(p31, d) is None
    pairs = [(c, d), (e, d), (c, p31), (p31, d)]
    for x, y in pairs:
        assert cross_histogram(x, y).counts == _cross_histogram_pure(x, y) == _cross_rows(x, y)
    assert engines_run == ["pure"] * len(pairs)


def test_large_non_invariant_pair_takes_the_joint_orbit_loop(engines_run):
    # over Z/20 the unit 3 maps the rotation orbit of {0, 4, 8} onto that of
    # {0, 4, 12}; moving one unit of multiplicity from one to the other
    # leaves the half cluster rotation closed but not affine invariant, and
    # the pair still fits the windows and walks enough joint orbits to pass
    # the size rule, so only the failed fold keeps it off the numpy engine
    a, b = _half_cluster((3, 5, 11, 41)), _half_cluster((7, 13, 31))
    assert a.order == math.gcd(a.order, b.order) == 20
    assert _cross_arrangement(a, b) is not None
    # both orbits have period 20, so multiplicity 2 is weight 40
    assert a.orbits[0b100010001] == a.orbits[0b1000000010001] == 40
    moved = {**a.orbits, 0b100010001: 20, 0b1000000010001: 60}
    altered = Cluster(a.modulus_part, a.order, moved)
    altered.validate()
    keys, _, weights = _profile_orbits(altered, 20)
    assert _affine_fold(keys, weights, 20) is None
    assert _fits_numpy_windows(altered, b)
    assert _joint_orbit_count(altered, b) >= 1 << 12
    assert _cross_arrangement(altered, b) is None
    expected = _cross_rows(altered, b)
    assert cross_histogram(altered, b).counts == expected
    assert engines_run == ["pure"]
    # the unaltered pair folds and takes the numpy engine
    assert cross_histogram(a, b).counts == _cross_rows(a, b)
    assert engines_run == ["pure", "numpy"]


def test_validate_rejects_non_canonical_key():
    # 0b110 is a rotation of 0b011, the least member of its orbit
    Cluster(7, 3, {0b111: 4, 0b011: 3}).validate()
    with pytest.raises(ValueError, match="least rotation"):
        Cluster(7, 3, {0b111: 4, 0b110: 3}).validate()


def test_validate_rejects_wrong_orbit_mass():
    # multiplicities 6 and 1 sum to 7, but the orbit of 0b011 has three
    # rows, so the cluster holds 6 + 3 = 9
    with pytest.raises(ValueError, match="sum to 9"):
        Cluster(7, 3, {0b111: 6, 0b011: 3}).validate()


@pytest.mark.parametrize(
    "cluster, message",
    [
        (Cluster(6, 2, {0b11: 6}), "modulus part must be odd"),
        (Cluster(7, 4, {0b1111: 7}), "multiple of ord2"),
        (Cluster(7, 3, {0b1000: 7}), "outside the ambient exponent ring"),
        (Cluster(7, 3, {0b111: 10, 0b011: -3}), "negative multiplicity"),
        (Cluster(7, 3, {0b111: 5, 0b011: 2}), "not a multiple of its period 3"),
    ],
    ids=["even", "order", "row", "negative", "weight"],
)
def test_validate_checks_each_cluster_invariant(cluster, message):
    # the negative and the fractional multiplicity keep the mass right:
    # 10 - 3 = 5 + 2 = 7
    with pytest.raises(ValueError, match=message):
        cluster.validate()


def test_cross_numpy_uint16_window():
    # order/g = 70000 used to wrap the uint16 profile count to 4464
    big = Cluster(15, 70000, {(1 << 70000) - 1: 15})
    assert not _fits_numpy_windows(big, TRIVIAL_CLUSTER)
    assert cross_histogram(big, TRIVIAL_CLUSTER).counts == {70000: 15}
    edge = Cluster(15, 65536, {(1 << 65536) - 1: 15})
    assert not _fits_numpy_windows(edge, TRIVIAL_CLUSTER)
    inside = Cluster(15, 65532, {(1 << 65532) - 1: 15})
    assert _fits_numpy_windows(inside, TRIVIAL_CLUSTER)
    assert _numpy_cross(inside, TRIVIAL_CLUSTER) == {65532: 15}


def test_cross_uint16_window_guards_the_default_path(monkeypatch, engines_run):
    # with the size rule admitting every pair, profile counts of 70000
    # still keep this pair off the numpy engine
    monkeypatch.setattr(density, "_NUMPY_MIN_JOINT_ORBITS", 0)
    full = (1 << 70000) - 1
    a = Cluster(70015, 70000, {full: 15, full >> 1: 70000})
    b = prime_cluster(7)
    assert not _fits_numpy_windows(a, b)
    expected = {139998: 210000, 140000: 45, 209997: 280000, 210000: 60}
    assert cross_histogram(a, b).counts == expected
    assert engines_run == ["pure"]
    # unguarded, the numpy engine wraps every count in uint16
    assert _numpy_cross(a, b) == {
        8926: 210000, 8928: 45, 13389: 280000, 13392: 60,
    }


def test_cross_numpy_float32_window(monkeypatch, engines_run):
    # order/g = 4097 fits uint16, but the lcm 4096 * 4097 >= 2^24 does not
    # fit float32 exactly; with the size rule admitting every pair, that
    # alone keeps the pair off the numpy engine
    monkeypatch.setattr(density, "_NUMPY_MIN_JOINT_ORBITS", 0)
    order = 4096 * 4097
    a = Cluster(15, order, {(1 << order) - 1: 15})
    b = Cluster(17, 4096, {(1 << 4096) - 1: 17})
    assert not _fits_numpy_windows(a, b)
    assert cross_histogram(a, b).counts == {order: 15 * 17}
    assert engines_run == ["pure"]


def test_cross_rejects_common_factor():
    with pytest.raises(ValueError):
        cross_histogram(prime_cluster(5), prime_cluster(5))


def test_brute_force_small_values():
    assert brute_force_delta(3).counts == {1: 2, 2: 1}
    h = brute_force_delta(105)
    assert sum(h.counts.values()) == 105
    assert sum(nu * c for nu, c in h.counts.items()) == 12 * 48


def test_brute_force_backends_agree():
    # the oracle and both cross engines on the 23205 split
    a, b = _half_cluster((3, 13)), _half_cluster((5, 7, 17))
    expected = brute_force_delta(23205).counts
    assert _cross_histogram_pure(a, b) == _numpy_cross(a, b) == expected


# ord2(3193) = 255 is the widest the oracle counts in uint8 (m = 0 reaches
# nu = 255); ord2(269) = ord2(807) = 268 takes the int32 counter
@pytest.mark.parametrize("M", [3, 15, 105, 1155, 3193, 269, 807])
@pytest.mark.parametrize("engine", ["pure", "numpy"])
def test_brute_force_equals_per_pair_gcd_loop(M, engine):
    # the per-pair gcd loop is the reference for the oracle and for each
    # cross engine on the balanced split of M
    pows = [pow(2, k, M) for k in range(ord2(M))]
    expected = {}
    for m in range(M):
        nu = sum(1 for t in pows if math.gcd(m - t, M) == 1)
        expected[nu] = expected.get(nu, 0) + 1
    assert brute_force_delta(M).counts == expected
    cross = {"pure": _cross_histogram_pure, "numpy": _numpy_cross}[engine]
    left, right = balance_partition(p for p, _ in factorize(M))
    assert cross(_half_cluster(left), _half_cluster(right)) == expected


def test_brute_force_rejects_bad_m():
    with pytest.raises(ValueError):
        brute_force_delta(10)  # even
    with pytest.raises(ValueError):
        brute_force_delta(9)  # not squarefree
    with pytest.raises(ValueError):
        brute_force_delta(10**7 + 1)  # beyond oracle range


def test_histogram_validation_catches_corruption():
    h = brute_force_delta(15)
    broken = DeltaHistogram(M=15, counts={**h.counts, 1: h.counts.get(1, 0) + 1})
    with pytest.raises(ValueError, match="counts sum to 16"):
        broken.validate()
    # one residue moved from nu = 1 to nu = 2: the total holds, the
    # nu-weighted sum is one too large
    moved = {**h.counts, 1: h.counts[1] - 1, 2: h.counts.get(2, 0) + 1}
    with pytest.raises(ValueError, match="nu-weighted sum"):
        DeltaHistogram(M=15, counts=moved).validate()


def _per_nu_bound(hist, order, phi):
    """Reference for evaluate_bound: the lemma summed one nu at a time,
    (upper, lower) with ln 2 from below and from above."""
    cap = Fraction(1, 2 * hist.M)
    denom = order * phi
    upper = lower = Fraction(0)
    for nu, count in hist.sorted_items():
        upper += count * min(cap, Fraction(nu) / (denom * _LN2_LO))
        lower += count * min(cap, Fraction(nu) / (denom * _LN2_HI))
    return upper, lower


PUBLISHED_SETS = [
    (3,), (3, 5), (3, 5, 7), (3, 5, 7, 11), (3, 5, 7, 11, 13),
    (3, 5, 7, 11, 13, 17), (3, 5, 7, 13, 17, 241), (3, 5, 7, 11, 17, 19),
    (3, 5, 7, 11, 17, 19, 29),
]


BOUND_SETS = PUBLISHED_SETS + [(3, 5, 7, 11, 13, 17, 19, 31, 41, 73, 241)]


@pytest.mark.parametrize(
    "primes", BOUND_SETS, ids=lambda primes: ",".join(map(str, primes))
)
def test_cross_engine_of_the_published_sets(primes, engines_run):
    # every published fixture is cheaper in the joint-orbit loop; the
    # 11-prime set walks 11,310,715 joint orbits and takes numpy
    left, right = balance_partition(primes)
    a, b = _half_cluster(left), _half_cluster(right)
    count = _joint_orbit_count(a, b)
    cross_histogram(a, b)
    if len(primes) < 11:
        assert sum(1 for _ in _joint_orbits(a, b, math.lcm(a.order, b.order))) == count
        assert count < 1 << 12
        assert engines_run == ["pure"]
    else:
        assert count == 11_310_715
        assert engines_run == ["numpy"]


@pytest.mark.parametrize(
    "primes", BOUND_SETS, ids=lambda primes: "corrected-" + ",".join(map(str, primes))
)
def test_evaluate_bound_equals_per_nu_loop(primes):
    r = run_estimate(primes)
    assert (r.bound_upper, r.bound_lower) == _per_nu_bound(r.histogram, r.order, r.phi)


@pytest.mark.parametrize("primes", BOUND_SETS, ids=lambda primes: ",".join(map(str, primes)))
def test_evaluate_bound_reads_everything_off_the_histogram(primes):
    # the pipeline's result differs from the bare histogram's only in the split
    r = run_estimate(primes)
    assert evaluate_bound(r.histogram) == replace(r, partition=(r.primes, ()))


def test_bound_for_3_is_exactly_half():
    r = run_estimate([3])
    assert r.bound_upper == Fraction(1, 2)
    assert r.bound_lower == Fraction(1, 2)


def test_bounds_for_degenerate_sets_are_half():
    for primes in ([3, 5], [3, 5, 7]):
        assert run_estimate(primes).bound_upper == Fraction(1, 2)


def test_bound_published_values():
    cases = [
        ((3, 5, 7, 11), "0.49807089"),
        ((3, 5, 7, 11, 13), "0.49621815"),
        ((3, 5, 7, 11, 13, 17), "0.49252410"),
    ]
    for primes, printed in cases:
        r = run_estimate(primes)
        tol = 10.0 ** -len(printed.split(".")[1])
        assert abs(float(r.bound_upper) - float(printed)) <= tol, primes


def test_certified_direction_and_gap():
    r = run_estimate([3, 5, 7, 11, 13])
    assert r.bound_lower <= r.bound_upper
    assert r.bound_upper - r.bound_lower < Fraction(1, 10**12)


def test_decimal_upper_rounds_up():
    r = run_estimate([3])
    assert r.decimal_upper() == "0.500000000000000"
    fake = replace(r, bound_upper=Fraction(1, 3), bound_lower=Fraction(1, 3))
    assert fake.decimal_upper() == "0.333333333333334"
    assert replace(r, bound_upper=Fraction(1)).decimal_upper() == "1.000000000000000"


def test_partition_independence_over_3_5_7_11_13():
    primes = [3, 5, 7, 11, 13]
    reference = None
    for r in range(len(primes) + 1):
        for left in itertools.combinations(primes, r):
            right = tuple(p for p in primes if p not in left)
            result = run_estimate(primes, partition=(left, right))
            if reference is None:
                reference = result
            assert result.histogram.counts == reference.histogram.counts
            assert result.bound_upper == reference.bound_upper


def test_partition_validation():
    with pytest.raises(ValueError):
        run_estimate([3, 5], partition=((3,), (7,)))


def test_balance_partition_splits_products_evenly():
    left, right = balance_partition([3, 5, 7, 11, 13, 17])
    assert sorted(left + right) == [3, 5, 7, 11, 13, 17]
    assert left and right


def test_run_estimate_input_validation():
    with pytest.raises(ValueError):
        run_estimate([])
    with pytest.raises(ValueError):
        run_estimate([3, 3])
    with pytest.raises(ValueError):
        run_estimate([3, 15])


@pytest.mark.parametrize("bad", [4, 0, 1, 9])
@pytest.mark.parametrize("split", [False, True])
def test_run_estimate_rejects_non_odd_primes(bad, split):
    # prime_cluster is the one check, and it runs before ord2 sees p
    partition = ((3,), (5, bad)) if split else None
    with pytest.raises(ValueError, match=f"^{bad} is not an odd prime$"):
        run_estimate([3, 5, bad], partition)


def test_dedup_conserves_mass():
    # iterated merges keep sum of multiplicities equal to the product
    cluster = TRIVIAL_CLUSTER
    expected = 1
    for p in (3, 5, 7, 13):
        cluster = merge(cluster, prime_cluster(p))
        expected *= p
        assert sum(cluster.rows.values()) == expected
        cluster.validate()


def test_bound_result_json_round_trip():
    r = run_estimate([3, 5, 7])
    assert json.loads(r.to_json()) == {
        "primes": list(r.primes),
        "partition": [list(half) for half in r.partition],
        "M": r.M,
        "ord2": r.order,
        "phi": r.phi,
        "histogram": [list(item) for item in r.histogram.sorted_items()],
        "bound": r.decimal_upper(),
        "bound_exact": str(r.bound_upper),
        "bound_lower_exact": str(r.bound_lower),
        "variant": "corrected",
        "rounding": "upward",
    }


def test_degenerate_single_prime_half():
    # one half trivial is fine; nu = 0 rows would contribute nothing
    r = run_estimate([3], partition=((3,), ()))
    assert r.bound_upper == Fraction(1, 2)


def test_oracle_agreement_through_run_estimate():
    r = run_estimate([3, 5, 7, 13, 17])
    assert r.histogram.counts == brute_force_delta(23205).counts
    assert r.M == 23205


_CDL24_PRIMES = (3, 5, 7, 13, 17, 241)


@pytest.mark.parametrize(
    "primes, count",
    [
        (_CDL24_PRIMES, 48),
        (_CDL24_PRIMES + (11,), 528),
        (_CDL24_PRIMES + (19,), 912),
        (_CDL24_PRIMES + (31,), 1488),
        (_CDL24_PRIMES + (37,), 1776),
        (_CDL24_PRIMES + (73,), 3504),
        (_CDL24_PRIMES + (11, 19), 10032),
        ((3, 5, 7, 11, 13, 17), 0),
    ],
    ids=lambda v: ",".join(map(str, v)) if isinstance(v, tuple) else str(v),
)
def test_fully_blocked_residues_match_surviving_progressions(primes, count):
    # nu = 0 residues mod M are exactly the reductions of the odd classes
    # that survive the even-modulus sieve at 2M; none survive when some
    # class choice covers Z
    r = run_estimate(primes)
    verdict = check_even_modulus(2 * r.M)
    assert r.histogram.counts.get(0, 0) == len(verdict.leftover) == count
    assert verdict.covered == (count == 0)
    shifts = [pow(2, k, r.M) for k in range(ord2(r.M))]
    # every survivor meets every shift in a prime of M; 48 of them, evenly
    # spaced, keep the gcd loop short on the large sets
    for a in verdict.leftover[:: max(1, count // 48)]:
        assert all(math.gcd(a - s, r.M) > 1 for s in shifts)


def test_cdl_progressions_are_the_surviving_classes(enumeration_24, big_modulus_verdict):
    # the 48 distinct progressions of the D = 24 CDL systems are the odd
    # classes mod 2 * 3 * 5 * 7 * 13 * 17 * 241 that the sieve leaves
    assert {m for _, m in enumeration_24.progressions} == {big_modulus_verdict.b}
    assert sorted({a for a, _ in enumeration_24.progressions}) == list(big_modulus_verdict.leftover)


def _odd_squarefree_products(limit, max_primes):
    primes = [p for p in primes_up_to(limit) if p > 2]
    out = []

    def extend(start, product, count):
        for i in range(start, len(primes)):
            value = product * primes[i]
            if value > limit:
                break
            out.append(value)
            if count + 1 < max_primes:
                extend(i + 1, value, count + 1)

    extend(0, 1, 0)
    return sorted(out)


def _oracle_sweep():
    # complete sweep at small scale plus seeded larger samples; the full
    # 10^5 sweep is identical work at an hour-scale runtime
    small = _odd_squarefree_products(600, 4)
    rng = random.Random(23205)
    large_pool = [m for m in _odd_squarefree_products(30000, 4) if m > 600]
    return small + rng.sample(large_pool, 12)


def test_oracle_equivalence_sweep():
    for M in _oracle_sweep():
        cluster = TRIVIAL_CLUSTER
        for p, _ in factorize(M):
            cluster = merge(cluster, prime_cluster(p))
        assert histogram_of(cluster).counts == brute_force_delta(M).counts, M


def test_evaluate_bound_equals_per_nu_loop_on_the_oracle_sweep():
    for M in _oracle_sweep():
        hist = brute_force_delta(M)
        r = evaluate_bound(hist)
        expected = _per_nu_bound(hist, ord2(M), euler_phi(M))
        assert (r.bound_upper, r.bound_lower) == expected, M


def test_sieved_coprime_table_equals_gcd_table_on_the_oracle_sweep():
    for M in _oracle_sweep():
        sieved = _coprime_table(M, [p for p, _ in factorize(M)])
        assert sieved.dtype == np.uint8
        assert np.array_equal(sieved, np.gcd(np.arange(M), M) == 1), M
