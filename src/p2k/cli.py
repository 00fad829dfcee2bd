"""Command-line entry point: p2k <group> <command> [flags].

Groups mirror the library: cover (enumerate/verify), progression
(derive/verify/census), chen (check/scan), density.  Each command returns
its result, and dispatch alone writes it.  A command with a result type
returns the object (EnumerationReport, CdlProgression, ModulusVerdict,
ScanReport, BoundResult), which writes its own formats (to_json,
to_table, ...); cover verify, progression verify and census combine
several results and return their text.  dispatch picks to_<format>(),
adds the newline and makes the one write to stdout.  Notes and errors go
to stderr only.  Exit codes: 0 success, 1 domain error or out of memory,
2 usage error.  A reader that closes stdout early, as `| head -1` does,
ends the output there: exit code 0, no error.  The density module, and
numpy with it, loads only for `p2k density`; the cover, progression and
chen commands start without numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from . import chenscan, covering, progressions


def _parse_classes(text: str) -> covering.CoveringSystem:
    """Classes as 'a:d,a:d,...', e.g. '0:2,0:3,1:4,3:8,7:12,23:24'."""
    pairs = []
    for part in text.split(","):
        a, _, d = part.partition(":")
        try:
            pairs.append((int(a), int(d)))
        except ValueError:
            raise ValueError(f"class {part!r} in {text!r} is not a:d") from None
    return covering.CoveringSystem.from_pairs(pairs)


def _parse_ints(text: str) -> list[int]:
    """A comma list of ints; an empty item, as in ',3' or '3,,5', is an error."""
    items = text.split(",")
    if not all(x.strip() for x in items):
        raise ValueError(f"empty item in the comma list {text!r}")
    return [int(x) for x in items]


def _enumerate(args) -> covering.EnumerationReport:
    """enumerate_cdl_systems(args.D), with a skipped D's reason noted on stderr."""
    report = covering.enumerate_cdl_systems(args.D)
    if report.skip_reason:
        print(f"note: D={args.D} skipped ({report.skip_reason})", file=sys.stderr)
    return report


def _cover_verify(args) -> str:
    system = _parse_classes(args.classes)
    assignments = covering.find_prime_assignments(system.moduli)
    result = {
        "classes": [[c.residue, c.modulus] for c in system.classes],
        "lcm": system.lcm_D,
        "covering": covering.is_covering(system),
        "minimal": covering.is_minimal(system),
        "cdl": bool(assignments),
        "assignments": [[[d, p] for d, p in a.pairs] for a in assignments],
    }
    if args.format == "json":
        return json.dumps(result, indent=2)
    return (
        f"covering={result['covering']} minimal={result['minimal']} "
        f"cdl={result['cdl']} assignments={len(assignments)}"
    )


def _derive(args) -> progressions.CdlProgression:
    """The progression of --classes under --primes, --match-modulus or the
    canonical assignment."""
    system = _parse_classes(args.classes)
    if args.primes is not None:
        if args.match_modulus is not None:
            raise ValueError("give either --primes or --match-modulus, not both")
        primes = _parse_ints(args.primes)
        if len(primes) != len(system.moduli):
            raise ValueError(
                f"--primes gives {len(primes)} primes for {len(system.moduli)} moduli"
            )
        asg = covering.PrimeAssignment.from_pairs(zip(system.moduli, primes))
    elif args.match_modulus is not None:
        asg = progressions.assignment_matching_modulus(system.moduli, args.match_modulus)
    else:
        asg = covering.canonical_assignment(system.moduli)
        if asg is None:
            raise ValueError(f"no prime assignment exists for moduli {system.moduli}")
    return progressions.derive_progression(system, asg)


def _progression_verify(args) -> str:
    prog = _derive(args)
    if args.a is not None and prog.residue != args.a:
        raise ValueError(f"derived residue {prog.residue}, expected {args.a}")
    cert = progressions.verify_excludes_primes(prog)
    certified = progressions.membership_in_U_is_certified(prog)
    if args.format == "json":
        return json.dumps({**cert.to_dict(), "membership_certified": certified}, indent=2)
    return (
        f"a={prog.residue} M={prog.modulus} exclusion={cert.verdict} "
        f"membership_certified={certified}"
    )


def _census(args) -> str:
    if args.D is not None:
        if args.residues is not None or args.modulus is not None:
            raise ValueError("census takes either --D or --residues with --modulus, not both")
        pairs = sorted(set(_enumerate(args).progressions))
    else:
        if not args.residues or args.modulus is None:
            raise ValueError("census needs either --D or --residues with --modulus")
        pairs = [(a, args.modulus) for a in _parse_ints(args.residues)]
    total, hits = progressions.pair_gcd_census(pairs)
    if args.format == "json":
        return json.dumps({"progressions": len(pairs), "pairs": total, "gcd_2": hits})
    return f"{len(pairs)} progressions, {total} pairs, {hits} with gcd 2"


def _density(args):
    """The BoundResult of run_estimate on --primes, split by --partition."""
    from . import density  # here, not at the top: only this command needs numpy

    primes = _parse_ints(args.primes)
    partition = None
    if args.partition:
        if args.partition.count("|") > 1:
            raise ValueError(f"--partition {args.partition!r} has more than one '|'")
        left_text, _, right_text = args.partition.partition("|")
        # an empty half is the trivial part of a split
        partition = tuple(_parse_ints(t) if t else [] for t in (left_text, right_text))
    result = density.run_estimate(primes, partition=partition)
    if args.oracle:
        M = result.M
        oracle = density.brute_force_delta(M)
        if oracle.counts != result.histogram.counts:
            raise AssertionError("cluster pipeline disagrees with brute-force oracle")
        print(f"oracle cross-check passed for M={M}", file=sys.stderr)
    return result


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="p2k",
        description="Covering systems, progressions avoiding p + 2^k, and density bounds.",
    )
    sub = parser.add_subparsers(dest="group", required=True)

    cover = sub.add_parser("cover", help="covering-system operations")
    cover_sub = cover.add_subparsers(dest="command", required=True)
    enum_p = cover_sub.add_parser("enumerate", help="all minimal CDL systems with lcm D")
    enum_p.add_argument("--D", type=int, required=True)
    enum_p.add_argument("--format", choices=("json", "csv", "table"), default="table")
    enum_p.set_defaults(func=_enumerate)
    verify_p = cover_sub.add_parser("verify", help="check covering/minimal/CDL")
    verify_p.add_argument("--classes", required=True, help="a:d,a:d,...")
    verify_p.add_argument("--format", choices=("json", "table"), default="table")
    verify_p.set_defaults(func=_cover_verify)

    prog = sub.add_parser("progression", help="CDL progression operations")
    prog_sub = prog.add_subparsers(dest="command", required=True)
    derive_p = prog_sub.add_parser("derive", help="derive (a, M) from a system")
    derive_p.add_argument("--classes", required=True)
    derive_p.add_argument("--primes", help="comma list matching the moduli order")
    derive_p.add_argument("--match-modulus", type=int, dest="match_modulus")
    derive_p.add_argument("--format", choices=("json", "table"), default="table")
    derive_p.set_defaults(func=_derive)
    pverify_p = prog_sub.add_parser("verify", help="exclusion + membership certificate")
    pverify_p.add_argument("--classes", required=True)
    pverify_p.add_argument("--primes")
    pverify_p.add_argument("--match-modulus", type=int, dest="match_modulus")
    pverify_p.add_argument("--a", type=int, help="expected residue (checked)")
    pverify_p.add_argument("--format", choices=("json", "table"), default="table")
    pverify_p.set_defaults(func=_progression_verify)
    census_p = prog_sub.add_parser("census", help="pairwise gcd census")
    census_p.add_argument("--D", type=int, help="census the progressions for this D")
    census_p.add_argument("--residues", help="comma list of distinct odd residues in (0, modulus)")
    census_p.add_argument("--modulus", type=int)
    census_p.add_argument("--format", choices=("json", "table"), default="table")
    census_p.set_defaults(func=_census)

    chen = sub.add_parser("chen", help="odd-class sieve for even moduli")
    chen_sub = chen.add_subparsers(dest="command", required=True)
    check_p = chen_sub.add_parser("check", help="single modulus verdict")
    check_p.add_argument("--b", type=int, required=True)
    check_p.add_argument("--format", choices=("json", "table"), default="json")
    check_p.set_defaults(func=lambda args: chenscan.check_even_modulus(args.b))
    scan_p = chen_sub.add_parser("scan", help="scan a range of even moduli")
    scan_p.add_argument("--from", type=int, required=True, dest="from_b")
    scan_p.add_argument("--to", type=int, required=True, dest="to_b")
    scan_p.add_argument("--format", choices=("json", "table"), default="table")
    scan_p.set_defaults(func=lambda args: chenscan.scan_range(args.from_b, args.to_b))

    dens = sub.add_parser("density", help="certified upper bound on the density")
    dens.add_argument("--primes", required=True, help="comma list of odd primes")
    dens.add_argument("--partition", help="left|right comma lists, e.g. 3,5|7")
    dens.add_argument("--oracle", action="store_true", help="brute-force cross-check")
    dens.add_argument(
        "--emit", choices=("json", "csv", "table"), default="table", dest="format"
    )
    dens.set_defaults(func=_density)

    return parser


@cache
def _shared_parser() -> argparse.ArgumentParser:
    # parse_args keeps no state between calls, so one tree serves them all
    return build_parser()


def dispatch(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        result = args.func(args)
        text = result if isinstance(result, str) else getattr(result, f"to_{args.format}")()
        # one write: with unbuffered stdout a reader that closes the pipe at
        # its first match could otherwise land between text and its newline
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
        sys.stdout.flush()  # so a reader that left shows here, not at exit
        return 0
    except BrokenPipeError:
        # the reader left early, as `| head -1` does: the output ends there,
        # which is no error.  stdout goes to devnull so the flush at exit
        # does not meet the closed pipe again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except MemoryError:
        print("error: out of memory; try a smaller input", file=sys.stderr)
        return 1
    except (ValueError, AssertionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
