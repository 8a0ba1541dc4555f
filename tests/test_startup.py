"""Start-up: ``import qeuler`` is lazy and each command loads only its routes.

Every CLI command is one fresh interpreter, so the modules it imports
are part of its cost.  Each command is its own module (``cmd_table``
etc.), which only that command loads.  The module checks run each
command in a child process, which starts with an empty ``sys.modules``,
and record the modules loaded by the time it returns.
"""

import functools
import gc
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


def _child(source: str, *argv: str, flags: tuple[str, ...] = ()):
    """The JSON that a fresh interpreter, started with FLAGS, running SOURCE with ARGV prints."""
    src = str(Path(qeuler.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", source, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@functools.cache
def _modules(*argv: str) -> frozenset[str]:
    """The modules a fresh interpreter holds after running ARGV."""
    return frozenset(_child(_CHILD, *argv))


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
def test_check_loads_no_jacobi_in_any_mode(mode):
    # qlcx and strong read the rows from the triangle, zhu the closed-form weights as integers
    size = ("--imax", "2") if mode == "zhu" else ("--nmax", "4")
    loaded = _loaded("check", "--family", "TypeB", "--mode", mode, *size)
    assert loaded == {"algebra", "families", "cli", "cmd_check", "convexity"}


_ENTRY_CHILD = """
import contextlib, gc, io, json, runpy, sys
sys.argv[0] = "qeuler"
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("qeuler", run_name="__main__")
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, gc.get_freeze_count()]))
"""

_RECURRENCE = ("table", "--family", "TypeB", "--nmax", "3", "--route", "recurrence")


def test_module_entry_point_freezes_the_heap_before_exit():
    # the collections at exit then walk nothing; the exit code still passes through
    code, frozen = _child(_ENTRY_CHILD, *_RECURRENCE)
    assert code == 0
    assert frozen > 0


def test_installed_script_runs_the_module_entry_point():
    # so the script freezes the heap before exit, as python -m does
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"qeuler": "qeuler.__main__:run"}
    assert callable(importlib.import_module("qeuler.__main__").run)


def test_the_package_version_is_declared_once():
    # the distribution's version is read from qeuler.__version__, which the JSON envelope reports
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())
    assert "version" not in pyproject["project"]
    assert "version" in pyproject["project"]["dynamic"]
    assert pyproject["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "qeuler.__version__"}


def test_cli_main_leaves_the_collector_as_it_was(capsys):
    # only the process entry point freezes: library callers keep their GC state
    before = gc.get_freeze_count()
    assert cli.main(list(_RECURRENCE)) == 0
    assert gc.get_freeze_count() == before


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
def test_no_command_imports_typing(argv):
    # -S skips the site hooks, which may load typing at start and would hide an import here
    assert "typing" not in _child(_CHILD, *argv, flags=("-S",))


@pytest.mark.parametrize("argv", _COMMANDS, ids=" ".join)
def test_only_group_walks_load_walks_and_no_command_loads_ratfun(argv):
    # General has no group walk: its enum rows are the recurrence's
    loaded = _loaded(*argv)
    walks = argv[0] == "selftest" or (argv[-1] == "enum" and "General" not in argv)
    assert ("walks" in loaded) == walks
    assert "ratfun" not in loaded


@pytest.mark.parametrize("argv", _COMMANDS, ids=" ".join)
def test_no_command_loads_another_commands_module(argv):
    # selftest reads the table routes from families, not from the table command
    own = {cli._COMMANDS[argv[0]][0]}
    assert {m for m in _loaded(*argv) if m.startswith("cmd_")} == own


_PARSE_CHILD = """
import contextlib, io, json, sys
from qeuler.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[2:])
assert code == int(sys.argv[1]), code
print(json.dumps(sorted(m for m in sys.modules if m.startswith("qeuler.cmd_"))))
"""


@pytest.mark.parametrize(
    "argv,code", [((), 2), (("--help",), 0), (("bogus",), 2)], ids=["(none)", "--help", "bogus"]
)
def test_help_and_usage_errors_load_no_command_module(argv, code):
    # the parser lists every command by name and help line alone
    assert _child(_PARSE_CHILD, str(code), *argv) == []


def test_an_option_before_the_command_loads_only_that_command():
    # argparse dispatches to the first argument that names a command, not to argv[0]
    assert _child(_PARSE_CHILD, "2", "--bogus", *_RECURRENCE) == ["qeuler.cmd_table"]


def test_algebra_forwards_the_names_that_moved_to_ratfun():
    # the benchmark's tracer looks QRatFun up as algebra.QRatFun; nothing reads the rest there
    from qeuler import algebra, ratfun

    assert algebra.QRatFun is ratfun.QRatFun
    for name in ("_poly_exact_div", "RF_ZERO", "RF_ONE", "RF_Q"):
        assert hasattr(ratfun, name)
        with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
            getattr(algebra, name)
    assert "poly_gcd" in vars(algebra)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        algebra.no_such_name  # noqa: B018


def test_every_public_name_is_its_home_module_object():
    # reads the table, not the submodules' __all__, which are built from it
    for module, row in qeuler._EXPORTS.items():
        home = importlib.import_module(f"qeuler.{module}")
        for name in row:
            assert name in vars(home), (module, name)
            obj = vars(home)[name]
            assert getattr(qeuler, name) is obj, name
            if callable(obj):  # a class or function is defined there, not re-exported
                assert obj.__module__ == home.__name__, (module, name)
        namespace: dict = {}
        exec(f"from qeuler.{module} import *", namespace)
        assert namespace.keys() - {"__builtins__"} == set(row), module


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
    # the parser reads these names from convexity
    assert cli.main(["conjecture", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    names = re.search(r"builtin name \(([^)]*)\) or a JSON file of rationals", text)
    assert names is not None
    assert names.group(1).split(", ") == sorted(convexity.BUILTIN_SEQUENCES)
