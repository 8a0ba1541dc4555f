"""Start-up: ``import qeuler`` is lazy and each command loads only its routes.

Every CLI command is one fresh interpreter, so the modules it imports
are part of its cost.  Each command is its own module (``cmd_table``
etc.), which only that command loads.  The module checks run each
command in a child process, which starts with an empty ``sys.modules``,
and record the modules loaded by the time it returns.
"""

import functools
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qeuler
from qeuler import cli, convexity

_CHILD = """
import contextlib, io, json, sys
import qeuler
if sys.argv[1:]:
    from qeuler.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(sys.argv[1:]) == 0
print(json.dumps(list(sys.modules)))
"""


@functools.cache
def _modules(*argv: str) -> frozenset[str]:
    """The modules a fresh interpreter holds after running ARGV."""
    src = str(Path(qeuler.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return frozenset(json.loads(proc.stdout))


def _loaded(*argv: str) -> set[str]:
    """The ``qeuler`` submodules a fresh interpreter holds after running ARGV."""
    return {m.removeprefix("qeuler.") for m in _modules(*argv) if m.startswith("qeuler.")}


def test_import_qeuler_loads_no_submodule():
    assert _loaded() == set()


@pytest.mark.parametrize("route", ["recurrence", "enum"])
def test_integer_table_routes_load_no_route_module(route):
    # the group walks are their own module, which only the enum route loads
    loaded = _loaded("table", "--family", "TypeB", "--nmax", "4", "--route", route)
    walks = {"walks"} if route == "enum" else set()
    assert loaded == {"algebra", "families", "cli", "cmd_table"} | walks


def test_egf_table_adds_only_series():
    loaded = _loaded("table", "--family", "TypeB", "--nmax", "4", "--route", "egf")
    assert loaded == {"algebra", "families", "cli", "cmd_table", "series"}


def test_prodmat_loads_neither_jacobi_nor_convexity():
    loaded = _loaded("prodmat", "--family", "TypeB", "--order", "4")
    assert "riordan" in loaded
    assert not loaded & {"jacobi", "convexity"}


def test_conjecture_loads_convexity_but_not_jacobi():
    loaded = _loaded("conjecture", "--triangle", "A", "--seq", "catalan", "--nmax", "4")
    assert loaded == {"algebra", "families", "cli", "cmd_conjecture", "convexity"}


@pytest.mark.parametrize("mode", ["qlcx", "strong", "zhu"])
def test_check_loads_jacobi_and_convexity(mode):
    size = ("--imax", "2") if mode == "zhu" else ("--nmax", "4")
    loaded = _loaded("check", "--family", "TypeB", "--mode", mode, *size)
    assert loaded == {"algebra", "families", "cli", "cmd_check", "jacobi", "convexity"}


@pytest.fixture(scope="module")
def bare_modules() -> frozenset[str]:
    return _modules()


_FAMILY = ("--family", "TypeB")
_TABLE_ROUTES = ("egf", "cfrac", "enum", "recurrence")
_COMMANDS = [
    *[("table", *_FAMILY, "--nmax", "4", "--route", r) for r in _TABLE_ROUTES],
    ("table", "--family", "General", "--a", "1", "--d", "3", "--nmax", "4", "--route", "enum"),
    ("cfrac", *_FAMILY, "--depth", "3"),
    ("prodmat", *_FAMILY, "--order", "4"),
    ("check", *_FAMILY, "--mode", "qlcx", "--nmax", "4"),
    ("check", *_FAMILY, "--mode", "strong", "--nmax", "4"),
    ("check", *_FAMILY, "--mode", "zhu", "--imax", "2"),
    ("conjecture", "--triangle", "A", "--seq", "catalan", "--nmax", "4"),
    ("invert-moments", *_FAMILY, "--nmax", "6"),
    ("selftest", "--nmax", "2"),
]


@pytest.mark.parametrize("argv", _COMMANDS, ids=" ".join)
def test_no_command_loads_the_dataclass_machinery(bare_modules, argv):
    # library records are named tuples; dataclasses would also pull in inspect.
    # Only what the command adds counts: a site hook may load either at start.
    assert (_modules(*argv) - bare_modules) & {"dataclasses", "inspect"} == set()


@pytest.mark.parametrize("argv", _COMMANDS, ids=" ".join)
def test_only_group_walks_load_walks_and_no_command_loads_ratfun(argv):
    # General has no group walk: its enum rows are the recurrence's
    loaded = _loaded(*argv)
    walks = argv[0] == "selftest" or (argv[-1] == "enum" and "General" not in argv)
    assert ("walks" in loaded) == walks
    assert "ratfun" not in loaded


@pytest.mark.parametrize("argv", _COMMANDS, ids=" ".join)
def test_no_command_loads_another_commands_module(argv):
    # selftest compares the table routes, so it also runs the table command's module
    own = {cli._COMMANDS[argv[0]][0]} | ({"cmd_table"} if argv[0] == "selftest" else set())
    assert {m for m in _loaded(*argv) if m.startswith("cmd_")} == own


def test_algebra_forwards_the_names_that_moved_to_ratfun():
    # the benchmark's tracer looks QRatFun up as algebra.QRatFun
    from qeuler import algebra, ratfun

    for name in ("QRatFun", "_poly_exact_div", "RF_ZERO", "RF_ONE", "RF_Q"):
        assert getattr(algebra, name) is getattr(ratfun, name)
    assert "poly_gcd" in vars(algebra)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        algebra.no_such_name  # noqa: B018


def test_every_public_name_is_its_home_module_object():
    homes = [importlib.import_module(f"qeuler.{m}") for m in qeuler._EXPORTS]
    for name in qeuler.__all__:
        if name == "__version__":
            continue
        owners = [m for m in homes if name in m.__all__]
        assert len(owners) == 1, name
        assert getattr(qeuler, name) is getattr(owners[0], name), name


def test_star_import_and_dir_hold_every_public_name():
    namespace: dict = {}
    exec("from qeuler import *", namespace)
    assert set(qeuler.__all__) <= namespace.keys()
    assert set(qeuler.__all__) <= set(dir(qeuler))
    assert len(set(qeuler.__all__)) == len(qeuler.__all__)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        qeuler.no_such_name  # noqa: B018
    assert not hasattr(qeuler, "cfrac")


def test_conjecture_seq_help_names_the_builtin_sequences(capsys):
    # the parser writes these names out so that it need not import convexity
    assert cli.main(["conjecture", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    names = re.search(r"builtin name \(([^)]*)\) or a JSON file of rationals", text)
    assert names is not None
    assert names.group(1).split(", ") == sorted(convexity.BUILTIN_SEQUENCES)
