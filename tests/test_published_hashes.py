"""sha256 pins of the published outputs: the CDL enumerations (JSON, CSV
and the CLI table), the density bounds and the Chen verdicts at multiples
of 11184810 and at every even b <= 20000.  A change meant to keep them
byte-identical is checked here; one that alters them on purpose updates
the hash and says why."""

import hashlib
import re

import pytest

from conftest import M48
from p2k.chenscan import check_even_modulus
from p2k.cli import dispatch
from p2k.covering import enumerate_cdl_systems
from p2k.density import run_estimate


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


ENUMERATION_HASHES = {
    24: "98eec4b34ac7e83e821c932a1cd003591757179e77db93823c57e01d4f051702",
    36: "c57f494a75c5d5e95d11443ba76b504e1e031c58057644afb470b92a33df70a0",
    48: "d86c6c464ba948b21994368b9b413938ec3f9edb359e0d767c0871b14be0bae1",
    60: "997009555677584e375fde13019fe1c16e18e573fa8cf58568b1913e769b7f88",
    72: "3f4ead2ee3091d4422664e06805e9deb423ca51999a38534aeb1d03814a66a0f",
    80: "fd069a3b3fed1b635772b6513443df64413e112d842223ea94d206e16df62dca",
    96: "5f606e019bf27ff37259c65d6a89b63fc0c8c5e3097bf4c5f6c65ae6b652cab6",
    108: "e62c0797f5e1789379e26de937ca48f9b8bef03da96e18c278dca080a53c718e",
}

# to_csv() of the same enumerations, taken before the report kept one
# record per modulus tuple
ENUMERATION_CSV_HASHES = {
    24: "6142665d56358097bdcc3f6e5388fc53c3d76fb31da0163463613aca9f3fd78f",
    36: "2100cb901a6f01f222f5f41b76b708cf6302b9961bbdedf54f4544672e3e0aa5",
    48: "01bde725309c99186d5484d0a0955ae9699b50ed9ff541191d6f78220d1b3489",
    60: "19594d7e669b16170f2ecb16d36c1ce3049f43aaca84b8d2d4e0644d6eb636aa",
    72: "6110577c978380e0d72e0b060cef21b6f72f8d86e78c39df23fc0c9f3d78bea1",
    80: "f7a2fd3a02971dc1f11d2e6701cf3dfe803eea4050979e3773e2447e7bdf8e33",
    96: "87fd80deef4e711840a29c67328062caabe800365ac8d1073e6e182c4299456f",
    108: "ce818c028f43265f972912789f22f6a259574a6b57c74bf02f666a7276b4b4f6",
}

# stdout of `p2k cover enumerate --D <D> --format table` for the same D,
# taken while the CLI still built the table from the records itself
ENUMERATION_TABLE_HASHES = {
    24: "bdb58347b15d56c8575557422243929664cdc528b65e2352ba3e23fb24e237f8",
    36: "26810737f4a6c898a8c1bb188c56966b0819e837dd0963ae1a5e043f3085456c",
    48: "bcaf97c7c6feff569bfe23da0421747a59e31f90e290a984a861615b1c5172ab",
    60: "4379bdca42999d55a77589864c8155eb55641488ee5542f01fe6b716d944e4b7",
    72: "5445dc9f66d58e47f0d0bff85b7a088dca4cfe89517e916c399045848911920d",
    80: "555f3cc8a915a63b111745efadfbbbe3e4d814f453e3aa4f671d03da1436884b",
    96: "98e50480c1fcc4c44e25d879aedba981dbf0639ef87afe7ce1759b3d38372b75",
    108: "23d12641350a6cf0d1a487f9560dbabccc127e510996690ef6ba7689bac6cb0f",
}

# the nine published density fixtures and the 11-prime set
ESTIMATE_HASHES = {
    (3,): "f4407c5204350bc55f7903d9607a215ec4a6175d1d6f893054e082563e2f7b2e",
    (3, 5): "6c3cd32d6d2cc3955fa0832fb7dc42f3184e60ae34cd886d0ad7fc5de1eb26a1",
    (3, 5, 7): "2ce59b645b678df5cb9a793061f6dbbe6767e69762d47787703c7298fc3dc76e",
    (3, 5, 7, 11): "0e2b9725a7021d3d7cc8eff4e56061e971f684497a207259a2de8f73339b8f1f",
    (3, 5, 7, 11, 13): "2083dffdbbb0a0b690480813ba9d303954916cb84748d1a01cd102df59047949",
    (3, 5, 7, 11, 13, 17):
        "b5c765c0a38c19cd0d108d5b8e6075b79affd608e4211a6391b1fa1e80541c2f",
    (3, 5, 7, 13, 17, 241):
        "945c9700dd0d966dd20a93d835ec7d459f5df92e4825268a07cefbff3e73da76",
    (3, 5, 7, 11, 17, 19):
        "9533b1305fad20a8acd674a9246da196dcd206eaee0824c530df27c9a8db4390",
    (3, 5, 7, 11, 17, 19, 29):
        "92921f162dedc79a83a2bb41119e7d364eba48fd1e004a697594fa58d1bb56ce",
    (3, 5, 7, 11, 13, 17, 19, 31, 41, 73, 241):
        "6621ad319acbd2bb3a7a1d080aeeb308e7be4871b0c97a892fff3dddb9e0d906",
    # the one published set whose numpy cross runs at g = 120
    (3, 5, 7, 11, 13, 17, 19, 31, 41, 73, 241, 257):
        "b7faa78bbe2b9ed1b7735b3d768382d80bed55febf6eb4bd3d4b344056af2039",
}

VERDICT_HASHES = {
    1: "e1f041c9629c8cee6cff083a1207787a1b7a6a6fd6da6d10866db87c7503e78b",
    2: "50568d319900f0375ec56aa81f1ce16aa7050371707df4db15cf0d1ea546231e",
    3: "4f11c1feb024f94036a5e90b7dfa6fe3ca7c10e00d3e62214fb0126abb4c68a6",
    4: "bb058af4ea3205a9296d691c0f46520052d490e611588716a76c2a4c7cb5f653",
    # 11184810 = 2 * 3 * 5 * 7 * 13 * 17 * 241: k = 9 lifts to 3^3, 35 to
    # 5^2 * 7^2, 216 to 2^4 and 3^4, and 11 and 209 = 11 * 19 add primes
    # whose classes the covering families leave open
    9: "90ee3b435a30036009831678a1937920d12900e71344f3c449dc83f38088c019",
    11: "f7ec64e9885e7303c4eefc4b11a5f4858c94b9d775e04cb2377e9806469b605d",
    35: "e7be7a768f3220a30ba0e9aaf93d3c8b056924c987e2eae3abf31245ac846c53",
    209: "8bb9d760563b97d756ed134ccbc99f3f2352b681a57e1338ac758cd141aae59d",
    216: "df05d0368e7ca0b235f337e24b85e9c3f9c750da23a1132bc65cdb20c406d9bb",
}

# every even b <= 20000, one to_json() line each: covered b (their shift
# counts are the longest covered prefix plus one) and the uncovered ones
SMALL_VERDICTS_HASH = "c2697e5988831c6bede49dbf42d83ba5ba130337995c0ce8c4074664ca622e84"

ERDOS_CLASSES = "0:2,0:3,1:4,3:8,7:12,23:24"

# stdout of the commands whose writers each result type now owns (chen
# check and scan, density, progression derive and verify), taken while
# the CLI still wrote them itself; chen scan's elapsed time reads 0
CLI_HASHES = {
    ("chen", "check", "--b", "30", "--format", "table"):
        "00a80b55315f1b5f6d163052aaa78aa6724a7f41aea499072080f2797025a057",
    ("chen", "check", "--b", "30", "--format", "json"):
        "db9ec00c50833a0eb91b8d779ef93fdf4ed894224a44e7131d7d5c2c0dccfd65",
    ("chen", "check", "--b", "11184810", "--format", "table"):
        "dcc024e37c2828d7576d65b517ae3c4af744ec9af862ff4b8cf7ef435948c0c2",
    ("chen", "check", "--b", "11184810", "--format", "json"):
        "9d47aa39e11b431ed625c584f6d02e43695b9624d0a1ccac0f9f2eafbaa017d7",
    ("chen", "scan", "--from", "11184000", "--to", "11184810", "--format", "json"):
        "8a2e9c6197fa503129849d7ffbb7779ba55a342408d4e43d14da4ffe7af74413",
    ("chen", "scan", "--from", "11184000", "--to", "11184810", "--format", "table"):
        "5884596d8c775bd533aa9b0071bd2d9062b404fccd1090f4075d8192d7563b36",
    ("density", "--primes", "3,5,7,11,13,17", "--emit", "table"):
        "cc590e6de8f46347334a75c9c7f519e47b6ea71e59d55b45c47034e85b5e6f14",
    ("density", "--primes", "3,5,7,11,13,17", "--emit", "csv"):
        "5a2798a188636686ff49d981a650b7479862c17e1d24b2a6e8366482a4122627",
    ("density", "--primes", "3,5,7,11,13,17", "--emit", "json"):
        "7cae5fda6fbe97bbd8cb941ef124b99585ca6b6c1ab41bc7ca36c24ae9d66e23",
    ("progression", "derive", "--classes", ERDOS_CLASSES, "--format", "json"):
        "1588c3c186dce99e1326c54e0fbf8fefbcfc695954ddb415a34c6db348bc0b63",
    ("progression", "derive", "--classes", ERDOS_CLASSES, "--format", "table"):
        "e9d62a43576abc5ef74802552a886092b00f222c2502b521ebf5c9c6d9331ea0",
    ("progression", "verify", "--classes", ERDOS_CLASSES, "--format", "json"):
        "bd556d346a879791f01523affeab20b961fa66bdeff2b235cd688a84a3efa18a",
    ("progression", "verify", "--classes", ERDOS_CLASSES, "--format", "table"):
        "db4855f436e466bb54f25949c65b78cb66abc99959cfc5e97d528cba373f930d",
    ("cover", "verify", "--classes", ERDOS_CLASSES, "--format", "json"):
        "7b13ff5ddb54b0df8736ea067cca3c36b5d1c9e102311364392ea5a645ea979d",
    ("cover", "verify", "--classes", ERDOS_CLASSES, "--format", "table"):
        "68653bbd79efab8affb75c679b0a66b0fdb0dac6c7e983eae86269f2e4a59b56",
    ("progression", "census", "--D", "24", "--format", "json"):
        "268971c6a14e2039ab8bea16137dbef7aaa8dd39dd777e60106de2a6758f82fd",
    ("progression", "census", "--D", "24", "--format", "table"):
        "67470198a65c8308405d3012343861f4889d42aea6f63d11fe9f252f835b95cc",
}


def _mask_elapsed(text: str) -> str:
    text = re.sub(r'"elapsed": [0-9.e+-]+', '"elapsed": 0', text)
    return re.sub(r"\([0-9.]+s\)", "(0s)", text)


@pytest.mark.parametrize("D", sorted(ENUMERATION_HASHES))
def test_enumeration_json_is_pinned(D, enumeration_24):
    report = enumeration_24 if D == 24 else enumerate_cdl_systems(D)
    assert _sha256(report.to_json()) == ENUMERATION_HASHES[D]


@pytest.mark.parametrize("D", sorted(ENUMERATION_CSV_HASHES))
def test_enumeration_csv_is_pinned(D, enumeration_24):
    report = enumeration_24 if D == 24 else enumerate_cdl_systems(D)
    assert _sha256(report.to_csv()) == ENUMERATION_CSV_HASHES[D]


@pytest.mark.parametrize("D", sorted(ENUMERATION_TABLE_HASHES))
def test_enumeration_table_is_pinned(D, capsys):
    assert dispatch(["cover", "enumerate", "--D", str(D), "--format", "table"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert _sha256(out) == ENUMERATION_TABLE_HASHES[D]


@pytest.mark.parametrize(
    "primes", sorted(ESTIMATE_HASHES), ids=lambda primes: ",".join(map(str, primes))
)
def test_estimate_json_is_pinned(primes):
    assert _sha256(run_estimate(primes).to_json()) == ESTIMATE_HASHES[primes]


@pytest.mark.parametrize("k", sorted(VERDICT_HASHES))
def test_verdict_json_is_pinned(k, big_modulus_verdict):
    verdict = big_modulus_verdict if k == 1 else check_even_modulus(k * M48)
    assert _sha256(verdict.to_json()) == VERDICT_HASHES[k]


def test_small_verdicts_are_pinned():
    lines = "".join(check_even_modulus(b).to_json() + "\n" for b in range(2, 20001, 2))
    assert _sha256(lines) == SMALL_VERDICTS_HASH


@pytest.mark.parametrize("argv", list(CLI_HASHES), ids=" ".join)
def test_cli_output_is_pinned(argv, capsys):
    assert dispatch(list(argv)) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert _sha256(_mask_elapsed(out)) == CLI_HASHES[argv]
