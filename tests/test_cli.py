"""Command-line behavior: exit codes, JSON shape, determinism, selftest."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qeuler.convexity as convexity
import qeuler.families as families
import qeuler.jacobi as jacobi
import qeuler.walks as walks
from qeuler.algebra import QPoly
from qeuler.cli import _json_value, main
from qeuler.families import eulerian_rows
from qeuler.jacobi import JFraction
from qeuler.series import egf_polynomials


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


# -- table -----------------------------------------------------------------------


def test_table_enum_rows(capsys):
    code, payload = run_json(
        capsys, "table", "--family", "TypeB", "--nmax", "4", "--route", "enum"
    )
    assert code == 0
    assert payload["command"] == "table"
    assert payload["result"]["rows"] == [
        ["1"],
        ["1", "1"],
        ["1", "6", "1"],
        ["1", "23", "23", "1"],
    ]


def test_table_routes_agree(capsys):
    rows = {}
    for route in ("egf", "cfrac", "enum"):
        code, payload = run_json(
            capsys, "table", "--family", "TypeA", "--nmax", "6", "--route", route
        )
        assert code == 0
        rows[route] = payload["result"]["rows"]
    assert rows["egf"] == rows["cfrac"] == rows["enum"]


def test_table_recurrence_route(capsys):
    code, payload = run_json(
        capsys,
        "table", "--family", "General", "--a", "2", "--d", "5",
        "--nmax", "5", "--route", "recurrence",
    )
    assert code == 0
    code2, payload2 = run_json(
        capsys,
        "table", "--family", "General", "--a", "2", "--d", "5",
        "--nmax", "5", "--route", "egf",
    )
    assert payload["result"]["rows"] == payload2["result"]["rows"]


@pytest.mark.parametrize("route", ["recurrence", "enum"])
def test_general_table_builds_one_triangle(capsys, monkeypatch, route):
    starts = []

    def counting_rows(*args):
        starts.append(args)
        return eulerian_rows(*args)

    monkeypatch.setattr(families, "eulerian_rows", counting_rows)
    code, payload = run_json(
        capsys,
        "table", "--family", "General", "--a", "1", "--d", "3",
        "--nmax", "50", "--route", route,
    )
    assert code == 0
    assert len(payload["result"]["rows"]) == 50
    assert len(starts) == 1


@pytest.mark.parametrize(
    "family,nmax,error",
    [
        (("--family", "TypeB"), "9",
         "signed_descent_polynomial enumerates groups only for 1 <= n <= 7, got 8"),
        (("--family", "TypeB_qt", "--t", "2"), "12",
         "signed_descent_polynomial enumerates groups only for 1 <= n <= 7, got 8"),
        (("--family", "TypeA"), "10",
         "descent_polynomial enumerates groups only for 1 <= n <= 8, got 9"),
        (("--family", "TypeA_qt", "--t", "2"), "11",
         "excedance_cycle_polynomial enumerates groups only for 1 <= n <= 8, got 9"),
    ],
    ids=["TypeB", "TypeB_qt", "TypeA", "TypeA_qt"],
)
def test_over_cap_enum_table_is_refused_before_any_walk(capsys, monkeypatch, family, nmax, error):
    def no_walk(n):
        raise AssertionError(f"walked a group of size {n}")

    for walk in ("_descent_counts", "_exc_cycle_counts", "_signed_descent_counts"):
        monkeypatch.setattr(walks, walk, no_walk)
    code, out, err = run_cli(capsys, "table", *family, "--nmax", nmax, "--route", "enum")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": error}


@pytest.mark.parametrize("nmax", ["151", "1" + "0" * 32])
@pytest.mark.parametrize("route", ["egf", "cfrac"])
def test_series_table_past_150_rows_is_refused_before_any_row(capsys, monkeypatch, route, nmax):
    def no_rows(spec, count):
        raise AssertionError(f"built {count} rows")

    monkeypatch.setitem(families._ROUTES, route, no_rows)
    code, out, err = run_cli(capsys, "table", "--family", "TypeB", "--nmax", nmax, "--route", route)
    assert (code, out) == (2, "")
    error = f"table --route {route} builds at most 150 rows, got --nmax {nmax}"
    assert json.loads(err) == {"error": error}


@pytest.mark.parametrize("route,nmax", [("egf", 150), ("cfrac", 150), ("recurrence", 151)])
def test_150_series_rows_and_151_recurrence_rows_pass_the_guard(capsys, monkeypatch, route, nmax):
    # the route is a stub, so only the guard runs
    monkeypatch.setitem(families._ROUTES, route, lambda spec, count: [1] * count)
    code, payload = run_json(
        capsys, "table", "--family", "TypeB", "--nmax", str(nmax), "--route", route
    )
    assert code == 0
    assert payload["result"]["rows"] == [1] * nmax


_CEILINGS = [
    # (argv before the size, size flag, ceiling, error before ", got")
    (("check", "--family", "TypeB", "--mode", "strong"), "--nmax", 100,
     "check --mode strong checks at most 100 rows"),
    (("check", "--family", "TypeB", "--mode", "qlcx"), "--nmax", 240,
     "check --mode qlcx checks at most 240 rows"),
    (("check", "--family", "TypeB", "--mode", "zhu"), "--imax", 10_000_000,
     "check --mode zhu checks at most 10000000 indices"),
    (("conjecture", "--triangle", "B", "--seq", "motzkin"), "--nmax", 1000,
     "conjecture transforms at most 1000 terms"),
]


def _no_compute(monkeypatch):
    """Make every row, sequence and check of ``check`` and ``conjecture`` fail the test."""
    def computed(*args):
        raise AssertionError("computed past the ceiling")

    monkeypatch.setattr(families, "recurrence_polynomial", computed)
    for name in ("builtin_sequence", "check_q_log_convex", "check_strong_q_log_convex",
                 "_weight_criterion", "transform_log_convexity_experiment"):
        monkeypatch.setattr(convexity, name, computed)


_CEILING_IDS = ["strong", "qlcx", "zhu", "conjecture"]


@pytest.mark.parametrize("digits33", [False, True], ids=["ceiling+1", "33-digit"])
@pytest.mark.parametrize("argv,flag,ceiling,error", _CEILINGS, ids=_CEILING_IDS)
def test_sizes_past_the_ceiling_are_refused_before_any_work(
    capsys, monkeypatch, argv, flag, ceiling, error, digits33
):
    _no_compute(monkeypatch)
    value = "1" + "0" * 32 if digits33 else str(ceiling + 1)
    code, out, err = run_cli(capsys, *argv, flag, value)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": f"{error}, got {flag} {value}"}


@pytest.mark.parametrize("argv,flag,ceiling,error", _CEILINGS, ids=_CEILING_IDS)
def test_the_ceiling_itself_passes_the_guard(capsys, monkeypatch, argv, flag, ceiling, error):
    # the computations are stubs, so only the guard runs at the full size
    report = convexity.check_q_log_convex([QPoly(1)] * 3)
    criterion = convexity._weight_criterion(1, 1, 2, 2)
    transform = convexity.transform_log_convexity_experiment(
        convexity.Triangle.EULERIAN_B, convexity.builtin_sequence("motzkin", 4), 3
    )
    monkeypatch.setattr(families, "recurrence_polynomial", lambda a, b, d, n: [n])
    monkeypatch.setattr(convexity, "builtin_sequence", lambda name, count: [count])
    for name, value in (("check_q_log_convex", report), ("check_strong_q_log_convex", report),
                        ("_weight_criterion", criterion),
                        ("transform_log_convexity_experiment", transform)):
        monkeypatch.setattr(convexity, name, lambda *args, value=value: value)
    code, payload = run_json(capsys, *argv, flag, str(ceiling))
    assert code == 0
    assert payload["config"][flag[2:]] == ceiling


@pytest.mark.parametrize(
    "flags,triple",
    [
        (("--family", "TypeB_qt", "--t=-3/2"), (1, 1, Fraction(-1, 2))),
        (("--family", "General", "--a=-1/2", "--d", "3"), (Fraction(-1, 2), 1, 3)),
    ],
)
def test_negative_rational_parameters_take_the_equals_form(capsys, flags, triple):
    # argparse reads a separate "-3/2" as an option, so the README gives --t=-3/2
    code, payload = run_json(capsys, "table", *flags, "--nmax", "6", "--route", "recurrence")
    assert code == 0
    assert payload["result"]["rows"] == [p.to_json() for p in egf_polynomials(*triple, 6)]


def test_table_text_format(capsys):
    code, out, err = run_cli(
        capsys, "table", "--family", "TypeB", "--nmax", "3", "--route", "cfrac",
        "--format", "text",
    )
    assert code == 0
    assert "n=2: 1 + 6*q + q^2" in out


# -- cfrac and prodmat -------------------------------------------------------------


def test_cfrac_reports_weights(capsys):
    code, payload = run_json(capsys, "cfrac", "--family", "TypeB", "--depth", "3")
    assert code == 0
    jf = payload["result"]["jfraction"]
    assert jf["s"] == [["1", "1"], ["3", "3"], ["5", "5"]]
    assert jf["t"] == [["0", "4"], ["0", "16"]]


def test_prodmat_general_weights(capsys):
    code, payload = run_json(
        capsys, "prodmat", "--family", "General", "--a", "1", "--d", "3",
        "--order", "6",
    )
    assert code == 0
    result = payload["result"]
    assert result["tridiagonal"] is True
    for i, coeffs in enumerate(result["s"]):
        assert coeffs == [str(3 * i + 1), str(3 * i + 2)]
    for i, coeffs in enumerate(result["t"], start=1):
        assert coeffs == ["0", str(9 * i * i)]


def test_prodmat_matches_cfrac_weights(capsys):
    _, prod = run_json(capsys, "prodmat", "--family", "TypeB", "--order", "7")
    _, cf = run_json(capsys, "cfrac", "--family", "TypeB", "--depth", "5")
    assert prod["result"]["s"][:5] == cf["result"]["jfraction"]["s"]



def test_prodmat_order_one_names_the_order(capsys):
    code, out, err = run_cli(capsys, "prodmat", "--family", "TypeB", "--order", "1")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "order 1 holds no linear term of f; order must be >= 2"}
    code, payload = run_json(capsys, "prodmat", "--family", "TypeB", "--order", "2")
    assert code == 0
    assert payload["result"]["tridiagonal"] is True


# -- check ---------------------------------------------------------------------------


def test_check_strong_passes(capsys):
    code, payload = run_json(
        capsys, "check", "--family", "TypeA", "--nmax", "9", "--mode", "strong"
    )
    assert code == 0
    assert payload["result"]["report"]["verdict"] is True
    assert payload["result"]["report"]["witnesses"] == []


def test_check_qlcx_and_zhu(capsys):
    code, _ = run_json(
        capsys, "check", "--family", "TypeB_qt", "--t", "1/2", "--nmax", "8",
        "--mode", "qlcx",
    )
    assert code == 0
    code, payload = run_json(
        capsys, "check", "--family", "TypeB", "--mode", "zhu", "--imax", "6"
    )
    assert code == 0
    report = payload["result"]["report"]
    assert report["verdict"] is True
    assert report["hypothesis_nonneg"] is True
    assert report["checked_range"] == [1, 6]


def test_check_requires_nmax_for_polynomial_modes(capsys):
    code, out, err = run_cli(capsys, "check", "--family", "TypeA", "--mode", "strong")
    assert code == 2
    assert "nmax" in err


@pytest.mark.parametrize(
    "mode,flags,named",
    [
        ("zhu", ("--nmax", "9"), "--nmax"),
        ("zhu", ("--nmax", "9", "--imax", "6"), "--nmax"),
        ("strong", ("--nmax", "9", "--imax", "3"), "--imax"),
        ("qlcx", ("--nmax", "9", "--imax", "50"), "--imax"),
        ("strong", ("--imax", "3"), "--imax"),
    ],
)
def test_check_refuses_the_other_modes_size_flag(capsys, mode, flags, named):
    code, out, err = run_cli(capsys, "check", "--family", "TypeB", "--mode", mode, *flags)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": f"{named} has no effect with --mode {mode}"}


def test_check_zhu_defaults_imax_to_50(capsys):
    code, payload = run_json(capsys, "check", "--family", "TypeB", "--mode", "zhu")
    assert code == 0
    assert payload["config"]["imax"] == 50
    assert payload["result"]["report"]["checked_range"] == [1, 50]


# -- conjecture ------------------------------------------------------------------------


def test_conjecture_builtin(capsys):
    code, payload = run_json(
        capsys, "conjecture", "--triangle", "B", "--seq", "ones", "--nmax", "5"
    )
    assert code == 0
    assert payload["result"]["report"]["z"] == ["1", "2", "8", "48", "384", "3840"]
    assert payload["result"]["report"]["verdict"] is True


def test_conjecture_file_input(tmp_path, capsys):
    path = tmp_path / "xs.json"
    path.write_text(json.dumps(["1", "1", "3/2", "3", "15/2", "45/2"]))
    code, payload = run_json(
        capsys, "conjecture", "--triangle", "A", "--seq", str(path), "--nmax", "4"
    )
    assert code == 0
    assert payload["config"]["seq"] == str(path)


def test_conjecture_unknown_sequence(capsys):
    code, out, err = run_cli(
        capsys, "conjecture", "--triangle", "A", "--seq", "fibonacci"
    )
    assert code == 2
    assert "builtin" in err


def test_conjecture_rejects_non_log_convex_file(tmp_path, capsys):
    path = tmp_path / "xs.json"
    path.write_text(json.dumps([1, 5, 1, 5, 1, 5]))
    code, out, err = run_cli(
        capsys, "conjecture", "--triangle", "A", "--seq", str(path), "--nmax", "4"
    )
    assert code == 2
    assert err


@pytest.mark.parametrize("bad", [0.5, True, None])
def test_conjecture_refuses_inexact_file_entries(tmp_path, capsys, bad):
    path = tmp_path / "xs.json"
    path.write_text(json.dumps([1, bad, "3/2", 3, 7, 20]))
    code, out, err = run_cli(
        capsys, "conjecture", "--triangle", "A", "--seq", str(path), "--nmax", "4"
    )
    assert code == 2
    assert out == ""
    assert "exact rational" in json.loads(err)["error"]


# -- invert-moments ----------------------------------------------------------------------


def test_invert_moments_from_family(capsys):
    code, payload = run_json(
        capsys, "invert-moments", "--family", "TypeB", "--nmax", "8", "--depth", "3"
    )
    assert code == 0
    jf = payload["result"]["jfraction"]
    assert jf["s"] == [["1", "1"], ["3", "3"], ["5", "5"]]


def test_invert_moments_from_file(tmp_path, capsys):
    jf = jacobi.jfraction_from_params(1, 1, 1, 4)
    mu = jacobi.moments_by_motzkin_paths(jf, 8)
    path = tmp_path / "mu.json"
    path.write_text(json.dumps({"mu": [p.to_json() for p in mu]}))
    code, payload = run_json(capsys, "invert-moments", "--file", str(path))
    assert code == 0
    assert payload["result"]["jfraction"] == _weights_json(jf)


def test_invert_moments_accepts_integer_coefficient_lists(tmp_path, capsys):
    jf = jacobi.jfraction_from_params(1, 1, 2, 4)
    mu = jacobi.moments_by_motzkin_paths(jf, 8)
    path = tmp_path / "mu.json"
    path.write_text(json.dumps([[int(c) for c in p.to_json()] for p in mu]))
    code, payload = run_json(capsys, "invert-moments", "--file", str(path))
    assert code == 0
    assert payload["result"]["jfraction"] == _weights_json(jf)


def _weights_json(jf):
    return {"s": [p.to_json() for p in jf.s], "t": [p.to_json() for p in jf.t]}


def test_invert_moments_scalar_file(tmp_path, capsys):
    # plain rational entries are accepted as constant moments
    path = tmp_path / "mu.json"
    path.write_text(json.dumps(["1", "1", "2", "4", "9", "21"]))
    code, payload = run_json(capsys, "invert-moments", "--file", str(path))
    assert code == 0
    assert payload["result"]["jfraction"]["s"] == [["1"], ["1"], ["1"]]


def test_invert_moments_rejects_degenerate_file(tmp_path, capsys):
    path = tmp_path / "mu.json"
    path.write_text(json.dumps(["1", "0", "0", "0", "0", "0"]))
    code, out, err = run_cli(capsys, "invert-moments", "--file", str(path))
    assert code == 2
    assert "depth" in err or "vanishes" in err


def test_invert_moments_refuses_nonpolynomial_weights(tmp_path, capsys):
    # mu = (1, q, q, 0) forces s_1 = (q^2 - 2q)/(1 - q)
    path = tmp_path / "mu.json"
    path.write_text(json.dumps([["1"], ["0", "1"], ["0", "1"], ["0"]]))
    code, out, err = run_cli(capsys, "invert-moments", "--file", str(path))
    assert code == 2
    assert out == ""
    assert "nonpolynomial s_1" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "entries",
    [
        [1, 0.1, True, 3],
        ["1", 0.5, "2", "4"],
        ["1", True, "2", "4"],
        ["1", None, "2", "4"],
        ["1", ["1", 0.25], "2", "4"],
        ["1", [None], "2", "4"],
        ["1", "2", "３/4", "4"],
        ["1", "2", "1/1０", "4"],
        ["1", "2", ["3/４"], "4"],
    ],
)
def test_invert_moments_refuses_inexact_file_entries(tmp_path, capsys, entries):
    path = tmp_path / "mu.json"
    path.write_text(json.dumps(entries))
    code, out, err = run_cli(capsys, "invert-moments", "--file", str(path))
    assert code == 2
    assert out == ""
    assert "exact rational" in json.loads(err)["error"]


def test_invert_moments_source_flags(capsys, tmp_path):
    code, _, err = run_cli(capsys, "invert-moments")
    assert code == 2
    path = tmp_path / "mu.json"
    path.write_text(json.dumps(["1", "1"]))
    code, _, err = run_cli(
        capsys, "invert-moments", "--file", str(path), "--family", "TypeB"
    )
    assert code == 2


@pytest.mark.parametrize(
    "flags, named",
    [
        (("--t", "5"), "--t"),
        (("--a", "1"), "--a"),
        (("--d", "2"), "--d"),
        (("--nmax", "9"), "--nmax"),
        (("--t", "5", "--a", "1", "--nmax", "9"), "--t"),
        (("--d", "2", "--nmax", "9"), "--d"),
    ],
)
def test_invert_moments_file_refuses_family_flags(capsys, tmp_path, flags, named):
    path = tmp_path / "mu.json"
    path.write_text(json.dumps([1, 1, 2, 4]))
    code, out, err = run_cli(capsys, "invert-moments", "--file", str(path), *flags)
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": f"{named} has no effect with --file"}


@pytest.mark.parametrize("data", [[], {"mu": []}])
def test_invert_moments_refuses_empty_file(capsys, tmp_path, data):
    path = tmp_path / "mu.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "invert-moments", "--file", str(path))
    assert (code, out, err) == (2, "", '{"error": "empty moment sequence"}\n')


def test_invert_moments_refuses_one_moment_by_count(capsys, tmp_path):
    path = tmp_path / "mu.json"
    path.write_text(json.dumps(["1"]))
    refusal = (2, "", '{"error": "moment inversion needs at least 2 moments, have 1"}\n')
    assert run_cli(capsys, "invert-moments", "--file", str(path)) == refusal
    assert run_cli(capsys, "invert-moments", "--family", "TypeB", "--nmax", "1") == refusal



@pytest.mark.parametrize(
    "argv,what",
    [
        (("invert-moments", "--file"), "moment"),
        (("conjecture", "--triangle", "A", "--seq"), "sequence"),
    ],
)
def test_deeply_nested_json_file_exits_two(capsys, tmp_path, argv, what):
    # json.load recurses once per level; exit 1 would claim witnesses were found
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run_cli(capsys, *argv, str(path))
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": f"{what} file nests JSON arrays or objects too deeply"}


# -- usage errors ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "--family", "TypeB", "--t", "1", "--nmax", "3", "--route", "egf"),
        ("table", "--family", "TypeA_qt", "--nmax", "3", "--route", "egf"),
        ("cfrac", "--family", "TypeA_qt", "--t", "0.5", "--depth", "3"),
        ("cfrac", "--family", "Dihedral", "--depth", "3"),
        ("table", "--family", "TypeA", "--nmax", "0", "--route", "egf"),
        ("bogus",),
        (),
        ("table", "--family", "TypeB", "--nmax", "9", "--route", "enum"),
        ("cfrac", "--family", "TypeA_qt", "--t=３/4", "--depth", "3"),
        ("cfrac", "--family", "TypeA_qt", "--t=1/1０", "--depth", "3"),
        ("cfrac", "--family", "TypeA_qt", "--t=3/４", "--depth", "3"),
    ],
)
def test_usage_errors_exit_two(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize(
    "value, error",
    [
        ("0", "must be a positive integer"),
        ("-3", "must be a positive integer"),
        ("abc", "invalid _positive_int value: 'abc'"),
        ("1_000", "invalid _positive_int value: '1_000'"),
        ("８", "invalid _positive_int value: '８'"),
    ],
)
def test_size_flags_take_ascii_digits_only(capsys, value, error):
    code, out, err = run_cli(capsys, "selftest", f"--nmax={value}")
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == f"qeuler selftest: error: argument --nmax: {error}"


# -- output handling -------------------------------------------------------------------


def test_output_is_deterministic(capsys):
    args = ("selftest", "--nmax", "3")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "time" not in out1 and "date" not in out1


def test_out_file_and_directory_override(tmp_path, capsys, monkeypatch):
    # a relative --out resolves against the working directory
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(
        capsys, "table", "--family", "TypeA", "--nmax", "3", "--route", "egf",
        "--out", "rows.json",
    )
    assert code == 0 and out == ""
    written = (tmp_path / "rows.json").read_text()
    code, stdout, _ = run_cli(
        capsys, "table", "--family", "TypeA", "--nmax", "3", "--route", "egf"
    )
    assert written == stdout
    target = tmp_path / "abs.json"
    code, _, _ = run_cli(
        capsys, "table", "--family", "TypeA", "--nmax", "3", "--route", "egf",
        "--out", str(target),
    )
    assert target.read_text() == written


def test_family_flag_help_names_the_families_that_take_it(capsys):
    assert main(["table", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "t parameter (TypeA_qt, TypeB_qt);" in text
    assert "a parameter (General);" in text and "d parameter (General);" in text


def test_unwritable_out_exits_two(tmp_path, capsys):
    # exit 1 means "witnesses found", so a failed write must not end in it
    missing = tmp_path / "no-such-dir" / "x.json"
    code, out, err = run_cli(
        capsys, "table", "--family", "TypeA", "--nmax", "3", "--route", "egf",
        "--out", str(missing),
    )
    assert code == 2 and out == ""
    assert "No such file or directory" in json.loads(err)["error"]
    assert not missing.parent.exists()


@pytest.mark.parametrize(
    "value", [{1}, object(), 1j, b"1"], ids=["set", "object", "complex", "bytes"]
)
def test_json_value_refuses_unknown_types(value):
    with pytest.raises(TypeError, match=type(value).__name__):
        _json_value(value)
    with pytest.raises(TypeError):
        json.dumps({"result": value}, default=_json_value)


def test_envelope_has_version_but_no_timestamps(capsys):
    _, payload = run_json(capsys, "cfrac", "--family", "TypeB", "--depth", "2")
    assert payload["meta"]["tool"] == "qeuler"
    assert set(payload) == {"meta", "command", "config", "result"}



def _int_digit_limit() -> int:
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def test_results_past_the_int_string_digit_limit_are_printed(capsys):
    # coefficients near (10^120)^40 have about 4,800 digits, past CPython's
    # default limit of 4,300 for int <-> str conversion
    big = 10**120
    argv = ("table", "--family", "General", "--a", str(big), "--d", str(big),
            "--nmax", "40", "--route", "recurrence")
    limit = _int_digit_limit()
    code, payload = run_json(capsys, *argv)
    assert code == 0
    assert _int_digit_limit() == limit  # restored for this in-process caller
    code, out, err = run_cli(capsys, *argv, "--format", "text")
    assert (code, err) == (0, "")
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        rows = [p.to_json() for p in families.recurrence_polynomial(big, 1, big, 40)]
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    assert max(len(c) for row in rows for c in row) > 4300
    assert payload["result"]["rows"] == rows


def run_module(*argv):
    """``python -m qeuler ARGV`` in a child process."""
    # the child imports the qeuler under test, whether or not it is installed
    src = str(Path(jacobi.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "qeuler", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_module_entry_point():
    proc = run_module("table", "--family", "TypeB", "--nmax", "3", "--route", "enum")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["rows"][2] == ["1", "6", "1"]


def test_module_entry_point_exits_1_on_witnesses():
    proc = run_module("check", "--family", "General", "--a", "3", "--d", "1", "--mode", "zhu",
                      "--imax", "5")
    assert proc.returncode == 1
    report = json.loads(proc.stdout)["result"]["report"]
    assert report["verdict"] is False
    assert [w[0] for w in report["witnesses"]] == [1, 2]


@pytest.mark.parametrize(
    "argv, stderr",
    [
        (("frobnicate",), "invalid choice: 'frobnicate'"),
        (("prodmat", "--family", "General", "--a", "1", "--d", "0", "--order", "3"),
         '{"error": "d must be nonzero"}'),
    ],
    ids=["usage", "refused"],
)
def test_module_entry_point_exits_2(argv, stderr):
    proc = run_module(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert stderr in proc.stderr


# -- selftest ---------------------------------------------------------------------------


def test_selftest_small_run_passes(capsys):
    code, payload = run_json(capsys, "selftest", "--nmax", "3")
    assert code == 0
    result = payload["result"]
    assert result["all_pass"] is True
    # 18 instances, rows n = 0..3, three route pairs each
    assert result["checks"] == 18 * 4 * 3
    assert all(row["pass"] for row in result["matrix"])
    pairs = {row["pair"] for row in result["matrix"]}
    assert pairs == {"egf=cfrac", "cfrac=motzkin", "enum=egf"}


def test_selftest_catches_a_planted_weight_error(capsys, monkeypatch):
    real = jacobi.jfraction_from_params

    def mutated(a, b, d, depth):
        jf = real(a, b, d, depth)
        if jf.depth < 2:
            return jf
        t = list(jf.t)
        t[0] = -t[0]
        return JFraction(jf.s, tuple(t))

    monkeypatch.setattr(jacobi, "jfraction_from_params", mutated)
    code, payload = run_json(capsys, "selftest", "--nmax", "3")
    assert code == 1
    failing = [row for row in payload["result"]["matrix"] if not row["pass"]]
    assert failing
    # both moment computations consume the same mutated weights, so they
    # agree with each other and disagree with the generating function
    assert {row["pair"] for row in failing} == {"egf=cfrac"}


def test_selftest_text_failure_lines(capsys, monkeypatch):
    real = jacobi.jfraction_from_params

    def mutated(a, b, d, depth):
        jf = real(a, b, d, depth)
        if jf.depth < 2:
            return jf
        t = list(jf.t)
        t[0] = -t[0]
        return JFraction(jf.s, tuple(t))

    monkeypatch.setattr(jacobi, "jfraction_from_params", mutated)
    code, out, err = run_cli(capsys, "selftest", "--nmax", "2", "--format", "text")
    assert code == 1
    assert "FAIL" in out
