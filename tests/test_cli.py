import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import p2k
from conftest import RESIDUES_48
from p2k import density
from p2k.cli import build_parser, dispatch
from p2k.covering import enumerate_cdl_systems
from p2k.density import DeltaHistogram, run_estimate


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parser_keeps_no_state_between_calls(capsys):
    # a usage error, a domain error and a good call made in one process
    # print what each prints in a fresh interpreter
    argvs = [
        ["density", "--emit", "json"],
        ["density", "--primes", "3,9"],
        ["density", "--primes", "3,5,7", "--emit", "json"],
    ]
    env = dict(os.environ)
    src = str(Path(p2k.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    in_process = [run_cli(capsys, *argv) for argv in argvs]
    assert [code for code, _, _ in in_process] == [2, 1, 0]
    for argv, result in zip(argvs, in_process):
        fresh = subprocess.run(
            [sys.executable, "-m", "p2k", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == result, argv


def test_chen_and_cover_commands_load_no_numpy():
    # pytest has numpy loaded already, so a fresh interpreter runs the check
    script = """
import contextlib, io, json, sys
import p2k
loaded = sorted(m for m in sys.modules if m.startswith("p2k."))
from p2k import chenscan, cli, covering, progressions
argvs = [
    ["chen", "check", "--b", "11184810"],
    ["cover", "enumerate", "--D", "24", "--format", "csv"],
    ["progression", "census", "--D", "24"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.dispatch(argv) for argv in argvs]
numpy_before = "numpy" in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(cli.dispatch(["density", "--primes", "3,5,7"]))
print(json.dumps([loaded, codes, numpy_before, "numpy" in sys.modules]))
"""
    env = dict(os.environ)
    src = str(Path(p2k.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    fresh = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert (fresh.returncode, fresh.stderr) == (0, "")
    assert json.loads(fresh.stdout) == [[], [0, 0, 0, 0], False, True]


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2


def test_domain_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "chen", "check", "--b", "3")
    assert code == 1
    assert "error" in err


def test_cover_enumerate_json(capsys):
    code, out, _ = run_cli(capsys, "cover", "enumerate", "--D", "24", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["systems"]) == 96
    assert payload["distinct_progression_count"] == 48
    report = enumerate_cdl_systems(24)
    assert payload["D"] == report.D
    assert payload["distinct_progression_count"] == report.distinct_progression_count
    for entry, (system, asg), progression in zip(
        payload["systems"], report.systems, report.progressions
    ):
        assert entry["classes"] == [[c.residue, c.modulus] for c in system.classes]
        assert entry["assignment"] == [list(pair) for pair in asg.pairs]
        assert entry["progression"] == list(progression)


def test_cover_enumerate_csv_header(capsys):
    code, out, _ = run_cli(capsys, "cover", "enumerate", "--D", "24", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "mod_2,mod_3,mod_4,mod_8,mod_12,mod_24,a"


def test_cover_enumerate_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "cover", "enumerate", "--D", "24", "--format", "json")
    _, out2, _ = run_cli(capsys, "cover", "enumerate", "--D", "24", "--format", "json")
    assert out1 == out2


def test_cover_verify(capsys):
    code, out, _ = run_cli(
        capsys, "cover", "verify",
        "--classes", "0:2,0:3,1:4,3:8,7:12,23:24", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["covering"] and payload["minimal"] and payload["cdl"]
    assert payload["lcm"] == 24


def test_cover_verify_modulus_1(capsys):
    # 0:1 alone covers Z, but 2^1 - 1 has no prime divisor
    code, out, err = run_cli(capsys, "cover", "verify", "--classes", "0:1,1:2")
    assert (code, err) == (0, "")
    assert out == "covering=True minimal=False cdl=False assignments=0\n"
    code, out, _ = run_cli(
        capsys, "cover", "verify", "--classes", "0:1,1:2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert (payload["lcm"], payload["cdl"], payload["assignments"]) == (2, False, [])


def test_progression_derive_modulus_1_is_domain_error(capsys):
    code, out, err = run_cli(capsys, "progression", "derive", "--classes", "0:1")
    assert (code, out) == (1, "")
    assert err == "error: no prime assignment exists for moduli (1,)\n"


@pytest.mark.parametrize("argv, expected_out", [
    (["cover", "enumerate", "--D", "6", "--format", "csv"], "\n"),
    (["progression", "census", "--D", "6"], "0 progressions, 0 pairs, 0 with gcd 2\n"),
    (["cover", "enumerate", "--D", "6"],
     "D=6: skipped (sum of 1/d over divisors of 6 does not exceed 2)\n"),
])
def test_skipped_D_notes_its_reason_on_stderr(capsys, argv, expected_out):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (0, expected_out)
    assert err == (
        "note: D=6 skipped (sum of 1/d over divisors of 6 does not exceed 2)\n"
    )


def test_progression_derive_table(capsys):
    code, out, _ = run_cli(
        capsys, "progression", "derive", "--classes", "0:2,0:3,1:4,3:8,7:12,23:24"
    )
    assert code == 0
    assert out.strip() == "7629217 (mod 11184810)"


def test_progression_derive_with_match_modulus(capsys):
    code, out, _ = run_cli(
        capsys, "progression", "derive",
        "--classes", "1:2,2:3,3:4,8:9,11:12,17:18,35:36",
        "--match-modulus", "412729590", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["a"] == 309547193


def test_progression_verify(capsys):
    code, out, _ = run_cli(
        capsys, "progression", "verify",
        "--classes", "0:2,0:3,1:4,3:8,7:12,23:24",
        "--a", "7629217", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] is True
    assert payload["membership_certified"] is True
    assert payload["k_period"] == 24


def _leaf_parsers(parser, path=()):
    """(command path, parser) for every command the parser tree ends in."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _leaf_parsers(child, (*path, name))
            return
    yield path, parser


# arguments that make each command cheap to run
_CHEAP_ARGS = {
    ("cover", "enumerate"): ["--D", "24"],
    ("cover", "verify"): ["--classes", "0:2,0:3,1:4,3:8,7:12,23:24"],
    ("progression", "derive"): ["--classes", "0:2,0:3,1:4,3:8,7:12,23:24"],
    ("progression", "verify"): ["--classes", "0:2,0:3,1:4,3:8,7:12,23:24"],
    ("progression", "census"): ["--residues", "1,5", "--modulus", "6"],
    ("chen", "check"): ["--b", "30"],
    ("chen", "scan"): ["--from", "2", "--to", "100"],
    ("density",): ["--primes", "3,5,7"],
}


def _format_cases():
    for path, leaf in _leaf_parsers(build_parser()):
        (option,) = [a for a in leaf._actions if a.dest == "format"]
        for choice in option.choices:
            yield [*path, *_CHEAP_ARGS.get(path, []), option.option_strings[0], choice]


def test_every_command_has_cheap_arguments():
    assert {path for path, _ in _leaf_parsers(build_parser())} == set(_CHEAP_ARGS)


class _Writes:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("argv", list(_format_cases()), ids=" ".join)
def test_every_format_is_one_write_with_one_newline(argv, monkeypatch):
    # a format choice with no writer behind it would end in AttributeError
    stdout = _Writes()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert dispatch(argv) == 0
    (text,) = stdout.writes
    assert text.endswith("\n") and not text.endswith("\n\n")


def test_reader_closing_at_its_match_gets_no_broken_pipe():
    # README's `... --format json | grep -q '"membership_certified": true'`
    # with unbuffered stdout: grep closes the pipe at its match, so the
    # result and its newline must go out in one write or the second one
    # fails with EPIPE ("error: [Errno 32] Broken pipe", exit 1)
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    src = str(Path(p2k.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [
        sys.executable, "-m", "p2k", "progression", "verify",
        "--classes", "0:2,0:3,1:4,3:8,7:12,23:24", "--a", "7629217", "--format", "json",
    ]
    for _ in range(20):
        with subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env
        ) as child:
            matched = any('"membership_certified": true' in line for line in child.stdout)
            child.stdout.close()
            err = child.stderr.read()
            assert (matched, child.wait(timeout=60), err) == (True, 0, "")


def test_reader_leaving_after_one_line_gets_exit_0():
    # `p2k cover enumerate --D 80 --format json | head -1` with the default
    # buffering: the 2 MB result overflows the pipe, the reader leaves, and
    # the rest of the write meets a closed pipe
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    src = str(Path(p2k.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "p2k", "cover", "enumerate", "--D", "80", "--format", "json"]
    with subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env
    ) as child:
        first = child.stdout.readline()
        child.stdout.close()
        err = child.stderr.read()
        assert (first, child.wait(timeout=60), err) == ("{\n", 0, "")


def test_progression_census_from_enumeration(capsys):
    code, out, _ = run_cli(capsys, "progression", "census", "--D", "24", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["progressions"] == 48
    assert payload["pairs"] == 1128


def test_progression_census_explicit_residues(capsys):
    code, out, _ = run_cli(
        capsys, "progression", "census",
        "--residues", "992077,3292241", "--modulus", "11184810", "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == {"progressions": 2, "pairs": 1, "gcd_2": 1}


@pytest.mark.parametrize("modulus", ["0", "-6"])
def test_progression_census_rejects_bad_modulus(capsys, modulus):
    code, out, err = run_cli(
        capsys, "progression", "census", "--residues", "1,3", "--modulus", modulus,
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "residues, modulus, message",
    [("2,4", "6", "odd"), ("1,7", "6", "(0, 6)"), ("1,1", "4", "repeated")],
)
def test_progression_census_rejects_bad_residues(capsys, residues, modulus, message):
    code, out, err = run_cli(
        capsys, "progression", "census", "--residues", residues, "--modulus", modulus,
    )
    assert (code, out) == (1, "")
    assert err.startswith("error:") and message in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("extra", [("--residues", "1,3", "--modulus", "8"), ("--residues", "1,3")])
def test_progression_census_rejects_D_with_residues(capsys, extra):
    code, out, err = run_cli(capsys, "progression", "census", "--D", "24", *extra)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "--D" in err and "--residues" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("density", "--primes", ",3"),
        ("density", "--primes", "3,,5"),
        ("density", "--primes", "3,5,7", "--partition", "3,|5,7"),
        ("progression", "census", "--residues", "1,3,", "--modulus", "8"),
        ("progression", "derive", "--classes", "0:2,0:3,1:4,3:8,7:12,23:24", "--primes", ""),
    ],
)
def test_empty_list_item_is_domain_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "empty item" in err


@pytest.mark.parametrize(
    "argv,named",
    [
        (("cover", "verify", "--classes", "1"), "'1'"),
        (("cover", "verify", "--classes", "0:2,1:x"), "'1:x'"),
        (("progression", "derive", "--classes", "0:2,1:3:4"), "'1:3:4'"),
        (("density", "--primes", "3,5,7", "--partition", "3|5|7"), "'3|5|7'"),
    ],
)
def test_malformed_classes_and_partition_are_domain_errors(capsys, argv, named):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and named in err
    assert len(err.splitlines()) == 1


def test_density_variant_flag_is_a_usage_error(capsys):
    code, out, _ = run_cli(capsys, "density", "--primes", "3", "--variant", "printed")
    assert code == 2
    assert out == ""


def test_primes_and_match_modulus_are_exclusive(capsys):
    code, out, err = run_cli(
        capsys, "progression", "derive", "--classes", "0:2,0:3,1:4,3:8,7:12,23:24",
        "--primes", "3,7,5,17,13,241", "--match-modulus", "11184810",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "--primes" in err and "--match-modulus" in err


@pytest.mark.parametrize("primes", ["3,7,5,17,13", "3,7,5,17,13,241,31"])
def test_prime_list_must_match_the_moduli(capsys, primes):
    code, out, err = run_cli(
        capsys, "progression", "derive",
        "--classes", "0:2,0:3,1:4,3:8,7:12,23:24", "--primes", primes,
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "for 6 moduli" in err


@pytest.mark.parametrize("group,command", [("cover", "enumerate"), ("progression", "census")])
@pytest.mark.parametrize("D", ["0", "-24"])
def test_nonpositive_D_is_domain_error(capsys, group, command, D):
    code, out, err = run_cli(capsys, group, command, "--D", D)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and f"D must be >= 1, got D={D}" in err


def test_unfactorable_D_is_domain_error(capsys):
    # 2^1068 - 1 has the factor 2^89 - 1, a prime above psi_12
    code, out, err = run_cli(capsys, "cover", "enumerate", "--D", "1068")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "2^1068 - 1" in err
    assert len(err.splitlines()) == 1
    assert not re.search(r"\d{20}", err)  # no cofactor spelled out


def test_unfactorable_b_is_domain_error(capsys):
    # 2^521 - 1 is a prime above psi_12; its refusal budget shrinks with
    # its size, so this returns in about a second, not after 2^22 steps
    code, out, err = run_cli(capsys, "chen", "check", "--b", str(2 * (2**521 - 1)))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "521-bit cofactor" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("cover", "verify", "--classes", "0:0"),
        ("progression", "derive", "--classes", "1:2,0:0"),
    ],
)
def test_zero_modulus_is_domain_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "modulus must be >= 1" in err


@pytest.mark.parametrize(
    "command,bad",
    [("derive", "0"), ("derive", "1"), ("derive", "-5"), ("derive", "15"),
     ("verify", "15")],
)
def test_assigned_prime_must_be_an_odd_prime(capsys, command, bad):
    # the prime for modulus 4 must be an odd prime dividing 2^4 - 1 = 15
    argv = ["progression", command, "--classes", "0:2,0:3,1:4,3:8,7:12,23:24",
            "--primes", f"3,7,{bad},17,13,241"]
    if command == "verify":
        argv += ["--a", "7629217"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "not an odd prime" in err


def test_density_even_prime_is_domain_error(capsys):
    # the odd-prime check, not ord2's "modulus must be odd"
    code, out, err = run_cli(capsys, "density", "--primes", "4")
    assert (code, out, err) == (1, "", "error: 4 is not an odd prime\n")


def test_chen_check_json(capsys):
    code, out, _ = run_cli(capsys, "chen", "check", "--b", "11184810")
    assert code == 0
    payload = json.loads(out)
    assert payload["covered"] is False
    assert payload["m"] == 24
    assert payload["leftover"] == sorted(RESIDUES_48)


def test_chen_check_with_too_many_leftovers_is_domain_error(capsys):
    code, out, err = run_cli(capsys, "chen", "check", "--b", str(11184810 << 22))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "201326592 odd residues" in err
    assert len(err.splitlines()) == 1


def test_chen_scan_json(capsys):
    code, out, _ = run_cli(
        capsys, "chen", "scan", "--from", "2", "--to", "2000", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["uncovered"] == []
    assert (payload["from"], payload["to"]) == (2, 2000)


def test_chen_scan_json_top_window(capsys):
    code, out, _ = run_cli(
        capsys, "chen", "scan", "--from", "11184610", "--to", "11184810",
        "--format", "json",
    )
    assert code == 0
    (verdict,) = json.loads(out)["uncovered"]
    assert verdict["b"] == 11184810 and verdict["m"] == 24
    assert verdict["leftover"] == sorted(RESIDUES_48)


def test_chen_scan_empty_range_is_domain_error(capsys):
    code, out, err = run_cli(capsys, "chen", "scan", "--from", "3", "--to", "3")
    assert code == 1
    assert out == ""
    assert "no even b" in err


def test_chen_scan_above_its_limit_is_domain_error(capsys):
    code, out, err = run_cli(
        capsys, "chen", "scan", "--from", str(10**18), "--to", str(10**18 + 10)
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: scan_range takes b up to") and "chen check" in err
    assert len(err.splitlines()) == 1


def test_out_of_memory_is_domain_error(capsys, monkeypatch):
    # a stand-in for an allocation too large to make, such as the 62.5 GB
    # row of --primes 1000000000039
    def exhausted(primes, partition=None):
        raise MemoryError

    monkeypatch.setattr(density, "run_estimate", exhausted)
    code, out, err = run_cli(capsys, "density", "--primes", "3,5,7")
    assert (code, out) == (1, "")
    assert err.startswith("error: out of memory") and len(err.splitlines()) == 1


def test_density_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "density", "--primes", "3,5,7,11", "--oracle", "--emit", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["M"] == 1155
    assert payload["ord2"] == 60
    assert payload["phi"] == 480
    assert payload["rounding"] == "upward"
    assert payload["bound"].startswith("0.4980708913741")
    r = run_estimate([3, 5, 7, 11])
    assert payload == {
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


def test_density_partition_flag(capsys):
    code, out, _ = run_cli(
        capsys, "density", "--primes", "3,5,7", "--partition", "3,7|5", "--emit", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["partition"] == [[3, 7], [5]]
    assert payload["bound"].startswith("0.5000")


def test_density_csv(capsys):
    code, out, _ = run_cli(capsys, "density", "--primes", "3", "--emit", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "nu,delta"
    assert lines[1:3] == ["1,2", "2,1"]
    assert lines[-1].startswith("bound,0.5")


def test_density_oracle_beyond_its_range_is_domain_error(capsys):
    # M = 173364555 > 10^7: brute_force_delta refuses it, the CLI exits 1
    code, out, err = run_cli(
        capsys, "density", "--primes", "3,5,7,13,17,31,241", "--oracle"
    )
    assert code == 1
    assert out == ""
    assert "error:" in err


def test_density_oracle_disagreement_exits_1(capsys, monkeypatch):
    # an oracle histogram with one count moved off the pipeline's
    real = density.brute_force_delta

    def skewed(M):
        hist = real(M)
        nu, c = hist.sorted_items()[0]
        counts = {**hist.counts, nu: c - 1}
        counts[nu + 1] = counts.get(nu + 1, 0) + 1
        return DeltaHistogram(M=M, counts=counts)

    monkeypatch.setattr(density, "brute_force_delta", skewed)
    code, out, err = run_cli(capsys, "density", "--primes", "3,5,7", "--oracle")
    assert (code, out) == (1, "")
    assert err == "error: cluster pipeline disagrees with brute-force oracle\n"


_SURVIVORS = ",".join(map(str, sorted(RESIDUES_48)))


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("chen", "check", "--b", "30", "--format", "table"),
         "b=30: covered after 4 shifts\n"),
        (("chen", "check", "--b", "11184810", "--format", "table"),
         f"b=11184810: NOT covered after 24 shifts; 48 odd residues left: {_SURVIVORS}\n"),
        (("density", "--primes", "3,5,7"),
         "primes=3,5,7 M=105 ord2=12 phi=48\n"
         "bound <= 0.500000000000000 (corrected, rounded upward)\n"),
        (("progression", "verify", "--classes", "0:2,0:3,1:4,3:8,7:12,23:24"),
         "a=7629217 M=11184810 exclusion=True membership_certified=True\n"),
        (("progression", "verify", "--classes", "0:2,1:3", "--primes", "3,7"),
         "a=37 M=42 exclusion=True membership_certified=False\n"),
    ],
    ids=["chen-covered", "chen-uncovered", "density", "verify", "verify-noncovering"],
)
def test_table_output(capsys, argv, expected):
    assert run_cli(capsys, *argv) == (0, expected, "")


def test_cover_enumerate_table(capsys):
    code, out, err = run_cli(capsys, "cover", "enumerate", "--D", "24")
    lines = out.splitlines()
    assert (code, err, len(lines)) == (0, "", 97)
    assert lines[0] == "D=24: 96 minimal CDL covering systems, 48 distinct progressions"
    assert lines[1] == (
        "  0(mod 2) 0(mod 3) 1(mod 4) 3(mod 8) 7(mod 12) 23(mod 24)"
        "  ->  7629217 (mod 11184810)"
    )


def test_chen_scan_table(capsys):
    # the elapsed time is the one figure that varies from run to run
    code, out, err = run_cli(
        capsys, "chen", "scan", "--from", "11184810", "--to", "11184810"
    )
    assert (code, err) == (0, "")
    assert re.fullmatch(
        r"scanned even b in \[11184810, 11184810\]: 1 uncovered \(\d+\.\ds\)\n"
        r"  b=11184810: 48 residues left\n",
        out,
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (("progression", "census"),
         "census needs either --D or --residues with --modulus"),
        (("progression", "verify", "--classes", "0:2,0:3,1:4,3:8,7:12,23:24",
          "--a", "7629219"), "derived residue 7629217, expected 7629219"),
    ],
    ids=["census", "verify"],
)
def test_missing_or_wrong_input_is_domain_error(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"
