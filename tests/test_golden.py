"""Golden bytes: a fixed grid of CLI runs must print exactly these outputs.

Each case runs ``cli.main`` in process and compares the exit code and
the sha256 of stdout and stderr (joined by a NUL byte) with digests
recorded from a known-good build.  Output bytes are the contract every
change to the arithmetic core must keep; when a digest differs, diff
the command's output against that build rather than updating the
digest.  Cases that read an input file run in a temporary directory
holding ``_FILES``, and every JSON output is also parsed with floats
refused.
"""

import hashlib
import json
import sys

import pytest

from qeuler import cli
from qeuler.algebra import QPoly

_TYPE_B = ("--family", "TypeB")
_TYPE_A_QT = ("--family", "TypeA_qt", "--t", "4/3")
_TYPE_B_QT = ("--family", "TypeB_qt", "--t", "5/3")
_GENERAL = ("--family", "General", "--a", "2/3", "--d", "5/3")
# a > d breaks the criterion's hypothesis, and the moments are not q-log-convex
_GENERAL_BAD = ("--family", "General", "--a", "3", "--d", "1")

GOLDEN = [
    (("table", *_TYPE_B, "--nmax", "10", "--route", "egf"), 0,
     "9ec4f05df83278a5e94a5306355dc4948ede687b5acc8a54b303317b05486157"),
    (("table", *_TYPE_B_QT, "--nmax", "8", "--route", "cfrac"), 0,
     "eeb58bd50bd7b9d55c787f298e7bf96e4275ad60a47296f12b6ec53c4c8b7b1d"),
    (("table", *_GENERAL, "--nmax", "8", "--route", "recurrence", "--format", "text"), 0,
     "fb6bf625c48a8475356755a59ad8298fe7c2fcb876d91c9c10cbebb4495f4355"),
    (("table", *_TYPE_A_QT, "--nmax", "6", "--route", "enum"), 0,
     "b1ce499b37b0d1eaf70c03379ea4293d21322a14a798561306dbf871ec5d528b"),
    (("check", *_TYPE_B, "--mode", "strong", "--nmax", "12"), 0,
     "5c86d805fcea511f06a2300a6cb9b1f2d80e4bd5fb335218b47c61ce031e7697"),
    (("check", *_TYPE_A_QT, "--mode", "qlcx", "--nmax", "14", "--format", "text"), 0,
     "bbe028755c1e0c59aec8c238e86a17401ef774ca024da03670ee3e49006d0578"),
    (("check", *_TYPE_B_QT, "--mode", "zhu", "--imax", "30"), 0,
     "8e867fee7902c091894a73e2c590d85a147a7f900740bdc90f1bff0b2e77b13c"),
    (("check", *_GENERAL_BAD, "--mode", "strong", "--nmax", "10"), 1,
     "e974c8e8fb9d16922f71b9c8d84af0cc5503a451660507777e3f72e2962eed4d"),
    (("check", *_GENERAL_BAD, "--mode", "zhu", "--imax", "8", "--format", "text"), 1,
     "69fe251767b02eb92d3e7328e489f012949f15b6fc2619d76f64d1488c117d0c"),
    (("conjecture", "--triangle", "A", "--seq", "catalan", "--nmax", "30"), 0,
     "5f15d5ca069e31ad09e4ce55e1f685761dacae78f489a9aa6cbc6500a3ef704e"),
    (("conjecture", "--triangle", "B", "--seq", "motzkin", "--nmax", "20", "--format", "text"), 0,
     "32ce343aed66c9429702f6eaf4f9e87a88623224103c498aed351b40fd9d882a"),
    (("prodmat", *_TYPE_B_QT, "--order", "6"), 0,
     "0eb7bc27e2b645e122cfcf6a54f40425531bfe8fdf6d46cc36b4b6f67944c36e"),
    # the EGF route through pow (b = 4/3) and through a second exponential (a != d)
    (("table", *_TYPE_A_QT, "--nmax", "12", "--route", "egf"), 0,
     "7514f065800f3f7242f07542c1f3a702e9fbf255bbb7ce1a0bbb755b94f7901d"),
    (("table", *_GENERAL, "--nmax", "12", "--route", "egf"), 0,
     "0c6be96ad070ccf88fb82ca8fccb075ac365b03872e4132e4c64f585fecab7e4"),
    (("prodmat", *_TYPE_B, "--order", "12"), 0,
     "f45d4580b05d04e9d1b5f61d9a4c5cc5ae88dd02a826d8c332472db13e24f0ab"),
    (("prodmat", *_GENERAL, "--order", "8", "--format", "text"), 0,
     "863fc6d00e986a86c12995beed734c837a41654d7b1c17f33c618d1fe4349be7"),
    # b = 4/3 != 1, so the array's g goes through pow
    (("prodmat", *_TYPE_A_QT, "--order", "10"), 0,
     "1245e2ab46f2e2e6550ed2ae68978e4551e2fbf92c8cbcdfeb92c361a73bab8f"),
    (("cfrac", *_GENERAL, "--depth", "6", "--format", "text"), 0,
     "b2c1a23aeaad1906a57073268229f3176497f1aa1d3628e81a185e00fe9975ab"),
    (("invert-moments", *_TYPE_A_QT, "--nmax", "12"), 0,
     "caa041ab4c980f9463ca0f93501f390fabb174b4b548f5bd772a438542205e2b"),
    (("selftest", "--nmax", "3"), 0,
     "e3f750445f50feb18396503f169b396a0df7577b8c4899075a2d1522a47e9284"),
    (("selftest", "--nmax", "3", "--format", "text"), 0,
     "af2e6f1ff882cfd2bd3df99b50e39430330a82848c2449f2a2a53d0ed84f102c"),
    # equal to the --route egf output but for the route name
    (("table", "--family", "TypeA", "--nmax", "4", "--route", "recurrence"), 0,
     "2dcc7e292d91fb5839fafe6f7edc00898f2899bdda9ef653a6c52edc0dc8631b"),
    (("invert-moments", "--family", "TypeA_qt", "--t", "0", "--nmax", "8"), 2,
     "9f973b722667839fa131e6d90d01bd4cff81c6bceb480848c062e537ac64b4b6"),
    (("cfrac", *_TYPE_B, "--depth", "6"), 0,
     "0cb181156c2145029bfb1b99552964621dabbc05898d35c912f54f78b7e56b46"),
    (("check", *_TYPE_A_QT, "--mode", "qlcx", "--nmax", "14"), 0,
     "68e8ecd5ec82f35f068b92b1bf6adade67a5f195787cb33cd30f5332aea54ad9"),
    (("invert-moments", *_GENERAL, "--nmax", "12", "--format", "text"), 0,
     "a6d0fa5e136bdbdc84db60fcccf7e9e8e967690eb1dde037e3d8f8c4bf942884"),
    # the config of a family with no parameters, and its text label
    (("check", "--family", "TypeA_shifted", "--mode", "zhu", "--imax", "5"), 0,
     "73c2b7bbd337727a7a32f1f2e7d52053d2ef9f2b0b70d24d00e3e9d3c55eec38"),
    (("prodmat", "--family", "TypeA", "--order", "5", "--format", "text"), 0,
     "f55eccfed37e949f4488ab96facd3f7423d88880cf5845f5eeff4063402e9a54"),
]

#: Input files for the cases below, written into the working directory so
#: the path echoed in ``config`` is the same on every run.
_FILES = {
    # the moments of the (a, b, d) = (1, 1/2, 3/2) weights, in both entry forms
    "mu.json": {"mu": [1, ["1/2", "1/4"], ["1/4", "11/8", "1/16"],
                       ["1/8", "57/16", "21/8", "1/64"],
                       ["1/16", "247/32", "1329/64", "299/64", "1/256"],
                       ["1/32", "1013/64", "3499/32", "23257/256", "4199/512", "1/1024"]]},
    "x.json": [1, "3/2", 3, "15/2", "45/2"],
}

FILE_GOLDEN = [
    (("invert-moments", "--file", "mu.json"), 0,
     "f9906363e4349f6c1d2e2c0e34e512f71320d4a0e688cc5e068fafed75124f9f"),
    (("conjecture", "--triangle", "A", "--seq", "x.json", "--nmax", "4"), 0,
     "b1533c0f3e883d6e1a8e27d30c10ad29a1ff492583f690c67e6bccf4da938e9f"),
]


_TABLE = ("table", *_TYPE_B, "--nmax", "3", "--route", "egf")

#: Usage and help bytes at ``COLUMNS=80``: argparse's own text, so these pin
#: the parser the CLI builds.  Recorded on Python 3.10.13, 3.11.7 and 3.12.1,
#: which print the same bytes; 3.13 words and wraps them differently.
USAGE_GOLDEN = [
    ((), 2, "80df944cfcb5eb9b6ae56054361637c5e7f019b8fd26ddee4cc37e86d8144bf8"),
    (("bogus",), 2, "ca0c6d5df7994d25f5e17d8b588ee0a84f1f6ba24170210284d3e71fe711db11"),
    (("--help",), 0, "46877b56b21eb5e4a8b5209e169735410e38d3fec81ce2635559c248a3b349e3"),
    (("table", "--help"), 0,
     "059364d3005dbfe1c2d46d084d2be6def057b1d82f8691479a2381fa25611239"),
    (("cfrac", "--help"), 0,
     "2690bf38147478f248b2bec4c3749e751521ebb820127958e1b605c072ceefdc"),
    (("prodmat", "--help"), 0,
     "0d44c8cab701f1aae74099144936520fd083b42ff83d539cecf70a654c870f96"),
    (("check", "--help"), 0,
     "448f398bc76b7a7c1a13f45b053663896f8c092fc193993f5177ed0fcacba654"),
    (("conjecture", "--help"), 0,
     "b1d513d0244e8611e44b04c50e854414dc7c0895a2004c0db176cdf29c896941"),
    (("invert-moments", "--help"), 0,
     "29e1c59777108bca72e30f35ae07ed23cf0d8012794f44d6bdb649bc865185e9"),
    (("selftest", "--help"), 0,
     "4a68f910a81439ecda05ea11ce8a4049e9d796208cec0fdcfbb289be30ff0e33"),
    # an option before the command: the main parser takes "text" for the command
    (("--format", "text", *_TABLE), 2,
     "afcc82d677674cd31678814a415e3d49e8b2a0d4ee03542a3b3b7d5810f00c44"),
    # a valid command, then an argument that only the main parser can refuse
    ((*_TABLE, "extra"), 2, "a0ef7cd955fbf1a6ad58f6b9743262eedc206237053c73b000f3b553f7d5843d"),
    (("table", "--family", "Nope", "--nmax", "3", "--route", "egf"), 2,
     "b2cca33dbfe0d5fd1524a6d0fb9c09ecd72c498bc277110a16adf9e6759594cf"),
]


@pytest.mark.skipif(
    not (3, 10) <= sys.version_info[:2] <= (3, 12), reason="argparse wording of 3.10-3.12 only"
)
@pytest.mark.parametrize(
    "argv,code,digest",
    USAGE_GOLDEN,
    ids=[" ".join(argv) or "(none)" for argv, _, _ in USAGE_GOLDEN],
)
def test_usage_and_help_bytes_are_golden(argv, code, digest, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert cli.main(list(argv)) == code
    assert _digest(capsys) == digest


@pytest.mark.parametrize(
    "argv,code,digest", GOLDEN, ids=[" ".join(argv) for argv, _, _ in GOLDEN]
)
def test_cli_output_bytes_are_golden(argv, code, digest, capsys):
    assert cli.main(list(argv)) == code
    assert _digest(capsys) == digest


@pytest.mark.parametrize(
    "argv,code,digest", FILE_GOLDEN, ids=[" ".join(argv) for argv, _, _ in FILE_GOLDEN]
)
def test_file_input_output_bytes_are_golden(argv, code, digest, tmp_path, monkeypatch, capsys):
    _write_files(tmp_path, monkeypatch)
    assert cli.main(list(argv)) == code
    assert _digest(capsys) == digest


_JSON_GOLDEN = [case for case in GOLDEN + FILE_GOLDEN if "text" not in case[0]]
_JSON_CASES = [argv for argv, _, _ in _JSON_GOLDEN]


@pytest.mark.parametrize("argv", _JSON_CASES, ids=" ".join)
def test_golden_json_holds_no_float(argv, tmp_path, monkeypatch, capsys):
    # json.dumps writes a float without asking cli._json_value, so a float
    # field in a report would reach the output unless this refuses it
    def refuse(text):
        raise AssertionError(f"float {text} in the output of {' '.join(argv)}")

    _write_files(tmp_path, monkeypatch)
    cli.main(list(argv))
    for stream in capsys.readouterr():
        if stream:
            json.loads(stream, parse_float=refuse)


@pytest.mark.parametrize(
    "argv,code,digest", _JSON_GOLDEN, ids=[" ".join(argv) for argv in _JSON_CASES]
)
def test_json_output_formats_no_polynomial_as_text(
    argv, code, digest, tmp_path, monkeypatch, capsys
):
    # the text lines are built only for --format text
    def refuse(self):
        raise AssertionError(f"{' '.join(argv)} formatted a QPoly as text")

    monkeypatch.setattr(QPoly, "__str__", refuse)
    _write_files(tmp_path, monkeypatch)
    assert cli.main(list(argv)) == code
    assert _digest(capsys) == digest


def _write_files(tmp_path, monkeypatch) -> None:
    for name, data in _FILES.items():
        (tmp_path / name).write_text(json.dumps(data))
    monkeypatch.chdir(tmp_path)


def _digest(capsys) -> str:
    out, err = capsys.readouterr()
    return hashlib.sha256(out.encode() + b"\0" + err.encode()).hexdigest()

