"""The four benchmark workloads and the checks on their outputs.

Each workload builds its inputs from the seed in __init__, and `run`
makes one closed-loop pass over them, after the `probe` of every layer:
one public call at a time, each result checked against a pinned value or
an independent computation.  Every call plus its check is one operation
in `Ops`; a call that raises or a result that differs counts as failed and
the pass goes on.  `run` returns the counts read off the objects the
workload's own calls returned (the probe's are not counted).

Only the public modules density, chenscan, covering, progressions and cli
are called, always through the module attribute (``density.run_estimate``),
so a traced run sees every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import random
import traceback
from fractions import Fraction

from p2k import chenscan, cli, covering, density, progressions

TOP_B = 11184810  # the first even modulus with uncovered odd classes

# the 48 surviving odd residues mod TOP_B (published table, ascending)
RESIDUES_48 = (
    509203, 762701, 992077, 1247173, 1254341, 1330207, 1330319, 1730653,
    1730681, 1976473, 2313487, 2344211, 2554843, 3177553, 3292241, 3419789,
    3423373, 3661529, 3661543, 3784439, 4384979, 4442323, 4506097, 4507889,
    4626967, 5049251, 5050147, 6610811, 7117807, 7576559, 7629217, 8086751,
    8101087, 8252819, 8253043, 8643209, 9053711, 9053767, 9545351, 9560713,
    9666029, 10219379, 10280827, 10581097, 10609769, 10702091, 10913233,
    10913681,
)

P11 = (3, 5, 7, 11, 13, 17, 19, 31, 41, 73, 241)

# published density bounds; a value must match to the printed digits
DENSITY_FIXTURES = (
    ((3,), "0.5"),
    ((3, 5), "0.5"),
    ((3, 5, 7), "0.5"),
    ((3, 5, 7, 11), "0.49807089"),
    ((3, 5, 7, 11, 13), "0.49621815"),
    ((3, 5, 7, 11, 13, 17), "0.49252410"),
    ((3, 5, 7, 13, 17, 241), "0.49243452466582"),
    ((3, 5, 7, 11, 17, 19), "0.494609133024577"),
    ((3, 5, 7, 11, 17, 19, 29), "0.494213278918742"),
)

# D -> (minimal CDL systems, distinct progressions).  D = 60, pinned at
# (34560, 5760), is left out: its one enumerate call takes about 45 s, so a
# run would time a single pass and its wall time would be as noisy as the
# machine.  D = 72 (about 150 s) is left out for the same reason.
COVER_COUNTS = {
    24: (96, 48),
    36: (288, 144),
    48: (672, 192),
    80: (1920, 1920),
}
CENSUS_24 = (1128, 384)  # (pairs, pairs with gcd 2) over the 48 at D = 24

# a published D = 24 system (residue, modulus) and its progression 7629217
SYSTEM_7629217 = ((0, 2), (0, 3), (1, 4), (3, 8), (7, 12), (23, 24))
CLASSES_7629217 = ",".join(f"{a}:{d}" for a, d in SYSTEM_7629217)


class Ops:
    """Operations attempted and failed, with a note on each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, label: str, call, check):
        """Make one call and check its result; returns the result, or None
        when the call raised or the check failed."""
        self.attempted += 1
        try:
            result = call()
            ok = check(result)
        except Exception as exc:  # a failed operation, not a crashed run
            tb = traceback.extract_tb(exc.__traceback__)[-1]
            self.failures.append(
                f"{label}: {type(exc).__name__}: {exc} ({tb.filename}:{tb.lineno})"
            )
            return None
        if not ok:
            self.failures.append(f"{label}: output differs from the expected value")
            return None
        return result


# -- independent checks ------------------------------------------------------


def is_prime(n: int) -> bool:
    """Trial division; the benchmark's own primality test (n <= 10^7 here)."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def ord2(p: int) -> int:
    """Multiplicative order of 2 mod an odd prime p, by stepping."""
    k, x = 1, 2 % p
    while x != 1:
        x = x * 2 % p
        k += 1
    return k


def masses_ok(primes, counts: dict[int, int]) -> bool:
    """The two mass identities of delta_M, from the primes alone: the counts
    sum to M and their nu-weighted sum is ord_2(M) * phi(M)."""
    M = math.prod(primes)
    phi = math.prod(p - 1 for p in primes)
    order = math.lcm(*(ord2(p) for p in primes))
    return (
        sum(counts.values()) == M
        and sum(nu * c for nu, c in counts.items()) == order * phi
    )


def matches_printed(value: float, printed: str, slack: int = 1) -> bool:
    """value equals the printed decimal to its last digit (within `slack`
    units of that digit)."""
    digits = len(printed.split(".")[1])
    return abs(value - float(printed)) <= slack * 10.0**-digits


def cli_run(argv: list[str]) -> tuple[int, str]:
    """cli.dispatch with stdout captured and stderr discarded."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.dispatch(argv)
    return code, out.getvalue()


def witness_ok(b: int, j: int, w) -> bool:
    """(p, k) is a witness for the class j (mod b): p prime, k >= 1 and
    p + 2^k = j (mod b)."""
    return w is not None and w[1] >= 1 and is_prime(w[0]) and (w[0] + 2 ** w[1]) % b == j % b


def probe(ops: Ops) -> None:
    """One small checked call straight into each traced layer, a few ms in
    all.  Every pass starts with it, so each layer's per-call cost shows on
    every workload and no per-layer time is empty.  Run once before
    "ready", it also fills the package's first-call caches."""
    c3 = ops.run("prime_cluster(3)", lambda: density.prime_cluster(3),
                 lambda c: sum(c.rows.values()) == 3)
    c5 = ops.run("prime_cluster(5)", lambda: density.prime_cluster(5),
                 lambda c: sum(c.rows.values()) == 5)
    hist = None
    if c3 is not None and c5 is not None:
        ops.run("merge(3, 5)", lambda: density.merge(c3, c5),
                lambda c: c.modulus_part == 15 and sum(c.rows.values()) == 15)
        hist = ops.run("cross_histogram(3, 5)", lambda: density.cross_histogram(c3, c5),
                       lambda h: masses_ok((3, 5), h.counts))
    oracle = ops.run("brute_force_delta(15)", lambda: density.brute_force_delta(15),
                     lambda h: hist is not None and h.counts == hist.counts)
    if oracle is not None:
        ops.run("evaluate_bound(oracle 15)", lambda: density.evaluate_bound(oracle),
                lambda r: matches_printed(float(r.bound_upper), "0.5"))
    ops.run("scan_range(2, 64)", lambda: chenscan.scan_range(2, 64),
            lambda r: r.uncovered_moduli == [])
    ops.run("check_even_modulus(30)", lambda: chenscan.check_even_modulus(30),
            lambda v: v.covered)
    ops.run("find_witness(30, 1)", lambda: chenscan.find_witness(30, 1),
            lambda w: witness_ok(30, 1, w))
    ops.run("enumerate_cdl_systems(12)", lambda: covering.enumerate_cdl_systems(12),
            lambda r: r.systems == ())
    system = covering.CoveringSystem.from_pairs(SYSTEM_7629217)
    ops.run("is_minimal(published D = 24 system)", lambda: covering.is_minimal(system),
            lambda ok: ok is True)
    prog = ops.run(
        "derive_progression(published D = 24 system)",
        lambda: progressions.derive_progression(
            system, covering.canonical_assignment(system.moduli)),
        lambda p: (p.residue, p.modulus) == (7629217, TOP_B))
    if prog is not None:
        ops.run("membership_in_U_is_certified(7629217)",
                lambda: progressions.membership_in_U_is_certified(prog),
                lambda ok: ok is True)
    a, b = RESIDUES_48[:2]
    ops.run("pair_gcd_census(2 progressions)",
            lambda: progressions.pair_gcd_census([(a, TOP_B), (b, TOP_B)]),
            lambda r: r == (1, int(math.gcd(TOP_B, a - b) == 2)))
    ops.run("cli chen check --b 30", lambda: cli_run(["chen", "check", "--b", "30"]),
            lambda res: res[0] == 0 and json.loads(res[1])["covered"] is True)


# -- workloads ---------------------------------------------------------------


class Workload:
    """Base of the four workloads: subclasses set `name` and `inputs` and
    define `run_pass`."""

    def run(self, ops: Ops) -> dict[str, int]:
        """One pass: the probe, then this workload's calls."""
        probe(ops)
        return self.run_pass(ops)


class Density11(Workload):
    """run_estimate on the 11-prime set with the balanced partition: the
    numpy cross-histogram path at the largest size that fits the runs."""

    name = "density-11"
    expected_bound = "0.49098556503467"
    # pinned sizes of the cross stage, checked in traced passes
    expected_counts = {
        "density.rows_left": 37016,
        "density.rows_right": 106093,
        "density.g": 60,
    }

    def __init__(self, seed: int, primes=P11):
        self.primes = list(primes)
        random.Random(seed).shuffle(self.primes)  # input order must not matter
        self.inputs = {"primes": list(self.primes)}

    def run_pass(self, ops: Ops) -> dict[str, int]:
        ops.run(
            f"run_estimate {sorted(self.primes)}",
            lambda: density.run_estimate(self.primes),
            lambda r: matches_printed(float(r.bound_upper), self.expected_bound, 2)
            and masses_ok(self.primes, r.histogram.counts),
        )
        return {}


class ChenTop(Workload):
    """scan_range over a window of even b just below TOP_B, then the full
    verdict at TOP_B.  The seed moves the window down by up to
    `max_shift` even b, so runs scan different moduli at comparable cost
    (the cost of one b varies several-fold between neighbours)."""

    name = "chen-top"
    width = 100  # even b per window
    max_shift = 20
    expected_shifts = 24

    def __init__(self, seed: int, width: int | None = None):
        if width is not None:
            self.width = width
        shift = random.Random(seed).randrange(self.max_shift)
        hi = TOP_B - 2 - 2 * shift
        self.window = (hi - 2 * (self.width - 1), hi)
        self.inputs = {"window": list(self.window)}

    def run_pass(self, ops: Ops) -> dict[str, int]:
        lo, hi = self.window
        counts = {"chenscan.moduli": 0, "chenscan.uncovered": 0, "chenscan.shifts_used": 0}
        report = ops.run(
            f"scan_range({lo}, {hi})",
            lambda: chenscan.scan_range(lo, hi),
            lambda r: (r.b_lo, r.b_hi) == (lo, hi) and r.uncovered_moduli == [],
        )
        if report is not None:
            counts["chenscan.moduli"] += (hi - lo) // 2 + 1
        verdict = ops.run(
            f"check_even_modulus({TOP_B})",
            lambda: chenscan.check_even_modulus(TOP_B),
            lambda v: not v.covered
            and v.shifts_used == self.expected_shifts
            and v.leftover == RESIDUES_48,
        )
        if verdict is not None:
            counts["chenscan.moduli"] += 1
            counts["chenscan.uncovered"] += 1
            counts["chenscan.shifts_used"] += verdict.shifts_used
        return counts


class CoverEnum(Workload):
    """enumerate_cdl_systems for each D, then every system through
    is_minimal, every distinct progression through derive_progression and
    membership_in_U_is_certified, and the pair census at D = 24."""

    name = "cover-enum"

    def __init__(self, seed: int, expected=None):
        self.expected = dict(COVER_COUNTS if expected is None else expected)
        self.order = sorted(self.expected)
        random.Random(seed).shuffle(self.order)
        self.inputs = {"D": list(self.order)}

    def run_pass(self, ops: Ops) -> dict[str, int]:
        counts = {"covering.systems": 0, "covering.distinct_progressions": 0,
                  "progressions.certified": 0}
        for D in self.order:
            report = ops.run(
                f"enumerate_cdl_systems({D})",
                lambda: covering.enumerate_cdl_systems(D),
                lambda r: (len(r.systems), r.distinct_progression_count)
                == self.expected[D],
            )
            if report is None:
                continue
            counts["covering.systems"] += len(report.systems)
            counts["covering.distinct_progressions"] += report.distinct_progression_count
            for system, _ in report.systems:
                ops.run(
                    f"is_minimal D={D}",
                    lambda: covering.is_minimal(system),
                    lambda ok: ok is True,
                )
            first: dict[tuple[int, int], tuple] = {}
            for pair, prog in zip(report.systems, report.progressions):
                first.setdefault(prog, pair)
            for (a, m), (system, asg) in first.items():
                prog = ops.run(
                    f"derive_progression D={D}",
                    lambda: progressions.derive_progression(system, asg),
                    lambda p: (p.residue, p.modulus) == (a, m)
                    and defining_congruences_hold(p),
                )
                if prog is not None and ops.run(
                    f"membership_in_U_is_certified D={D}",
                    lambda: progressions.membership_in_U_is_certified(prog),
                    lambda ok: ok is True,
                ):
                    counts["progressions.certified"] += 1
            if D == 24:
                ops.run(
                    "pair_gcd_census D=24",
                    lambda: progressions.pair_gcd_census(sorted(first)),
                    lambda r: r == CENSUS_24
                    and tuple(sorted(a for a, _ in first)) == RESIDUES_48,
                )
        return counts


def defining_congruences_hold(prog) -> bool:
    """a is odd, a = 2^(r_i) mod p_i for each class r_i (mod d_i) with its
    assigned prime, and M = 2 * prod p_i."""
    a, M = prog.residue, prog.modulus
    primes = prog.assignment.primes
    return (
        a % 2 == 1
        and M == 2 * math.prod(primes)
        and all(
            a % p == pow(2, cond.residue, p)
            for cond, p in zip(prog.system.classes, primes)
        )
    )


class SmallMix(Workload):
    """Desk-scale calls: the 10^5 Chen scan, seeded witness searches, the
    small published density fixtures, partition independence, oracle
    comparisons, and the README's CLI commands with parsed output."""

    name = "small-mix"
    scan_hi = 100000
    witness_pairs = 2000
    partition_primes = (3, 5, 7, 11, 13)
    oracle_primes = ((3, 5), (3, 5, 7), (3, 5, 7, 11), (3, 5, 7, 13, 17))

    def __init__(self, seed: int, scan_hi: int | None = None,
                 witness_pairs: int | None = None, fixtures=DENSITY_FIXTURES):
        if scan_hi is not None:
            self.scan_hi = scan_hi
        if witness_pairs is not None:
            self.witness_pairs = witness_pairs
        rng = random.Random(seed)
        self.pairs = []
        for _ in range(self.witness_pairs):
            b = 2 * rng.randint(1, self.scan_hi // 2)
            self.pairs.append((b, rng.randrange(1, b, 2) if b > 2 else 1))
        self.fixtures = list(fixtures)
        rng.shuffle(self.fixtures)
        self.inputs = {
            "witness_pairs": len(self.pairs),
            "fixture_order": [list(p) for p, _ in self.fixtures],
        }

    def run_pass(self, ops: Ops) -> dict[str, int]:
        counts = {"chenscan.moduli": 0, "chenscan.uncovered": 0,
                  "chenscan.shifts_used": 0, "covering.systems": 0,
                  "covering.distinct_progressions": 0, "progressions.certified": 0}
        report = ops.run(
            f"scan_range(2, {self.scan_hi})",
            lambda: chenscan.scan_range(2, self.scan_hi),
            lambda r: r.uncovered_moduli == [],
        )
        if report is not None:
            counts["chenscan.moduli"] += (report.b_hi - report.b_lo) // 2 + 1

        for b, j in self.pairs:
            ops.run(
                f"find_witness({b}, {j})",
                lambda: chenscan.find_witness(b, j),
                lambda w: witness_ok(b, j, w),
            )

        for primes, printed in self.fixtures:
            ops.run(
                f"run_estimate {primes}",
                lambda: density.run_estimate(primes),
                lambda r: matches_printed(float(r.bound_upper), printed)
                and masses_ok(primes, r.histogram.counts),
            )

        self._partitions(ops)
        self._oracles(ops)
        self._cli(ops, counts)
        return counts

    def _partitions(self, ops: Ops) -> None:
        primes = self.partition_primes
        first: list = []
        for r in range(len(primes) + 1):
            for left in itertools.combinations(primes, r):
                right = tuple(p for p in primes if p not in left)
                result = ops.run(
                    f"run_estimate {primes} partition {left}|{right}",
                    lambda: density.run_estimate(primes, partition=(left, right)),
                    lambda res: res.bound_upper == first[0]
                    if first
                    else matches_printed(float(res.bound_upper), "0.49621815"),
                )
                if result is not None and not first:
                    first.append(result.bound_upper)

    def _oracles(self, ops: Ops) -> None:
        for primes in self.oracle_primes:
            M = math.prod(primes)
            estimate = ops.run(
                f"run_estimate {primes} for the oracle",
                lambda: density.run_estimate(primes),
                lambda r: masses_ok(primes, r.histogram.counts),
            )
            oracle = ops.run(
                f"brute_force_delta({M})",
                lambda: density.brute_force_delta(M),
                lambda h: estimate is not None
                and h.counts == estimate.histogram.counts,
            )
            if oracle is not None:
                ops.run(
                    f"evaluate_bound(oracle {M})",
                    lambda: density.evaluate_bound(oracle),
                    lambda r: r.bound_upper == estimate.bound_upper,
                )

    def _cli(self, ops: Ops, counts: dict[str, int]) -> None:
        def enumerate_ok(res):
            code, out = res
            rows = [row for row in csv.reader(io.StringIO(out)) if row]
            data = [row for row in rows if not row[0].startswith("mod_")]
            return code == 0 and len(data) == 96 and tuple(
                sorted({int(row[-1]) for row in data})
            ) == RESIDUES_48

        if ops.run("cli cover enumerate --D 24",
                   lambda: cli_run(["cover", "enumerate", "--D", "24", "--format", "csv"]),
                   enumerate_ok):
            counts["covering.systems"] += 96
            counts["covering.distinct_progressions"] += 48

        def check_ok(res):
            code, out = res
            v = json.loads(out)
            return (code == 0 and v["b"] == TOP_B and v["covered"] is False
                    and v["m"] == 24 and tuple(v["leftover"]) == RESIDUES_48)

        if ops.run("cli chen check --b 11184810",
                   lambda: cli_run(["chen", "check", "--b", str(TOP_B)]), check_ok):
            counts["chenscan.moduli"] += 1
            counts["chenscan.uncovered"] += 1
            counts["chenscan.shifts_used"] += 24

        dens_primes = (3, 5, 7, 11, 13, 17)

        def density_ok(res):
            code, out = res
            d = json.loads(out)
            hist = {nu: c for nu, c in d["histogram"]}
            return (code == 0 and d["M"] == math.prod(dens_primes)
                    and matches_printed(float(Fraction(d["bound_exact"])), "0.49252410")
                    and masses_ok(dens_primes, hist))

        ops.run("cli density --oracle",
                lambda: cli_run(["density", "--primes", ",".join(map(str, dens_primes)),
                                 "--oracle", "--emit", "json"]),
                density_ok)

        def verify_ok(res):
            code, out = res
            d = json.loads(out)
            return (code == 0 and d["a"] == 7629217 and d["M"] == TOP_B
                    and d["verdict"] is True and d["membership_certified"] is True)

        if ops.run("cli progression verify",
                   lambda: cli_run(["progression", "verify", "--classes", CLASSES_7629217,
                                    "--a", "7629217", "--format", "json"]),
                   verify_ok):
            counts["progressions.certified"] += 1

        def census_ok(res):
            code, out = res
            d = json.loads(out)
            return code == 0 and (d["progressions"], d["pairs"], d["gcd_2"]) == (48,) + CENSUS_24

        ops.run("cli progression census --D 24",
                lambda: cli_run(["progression", "census", "--D", "24", "--format", "json"]),
                census_ok)


WORKLOADS = {w.name: w for w in (Density11, ChenTop, CoverEnum, SmallMix)}
