"""Smoke test: the benchmark's traced child runs against this package.

``benchmarks/trace_child.py`` looks up every function named in
``benchmarks/layers.py`` by module and qualified name, so renaming or
deleting one of them makes ``--trace 1`` crash.  Both trace modes run
here on a tiny command, in a child process that imports the ``qeuler``
under test.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qeuler

_BENCH = Path(__file__).resolve().parents[1] / "benchmarks"
_COMMAND = ("cli", "table", "--family", "TypeB", "--nmax", "3", "--route", "egf")


def _layers():
    spec = importlib.util.spec_from_file_location("layers", _BENCH / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _trace(mode: str, command=_COMMAND) -> dict:
    src = str(Path(qeuler.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, str(_BENCH / "trace_child.py"), mode, *command],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    assert record["exit"] == 0
    assert json.loads(record["out"])["result"]["rows"] == [["1"], ["1", "1"], ["1", "6", "1"]]
    return record


def test_spans_mode_reports_every_span():
    layers = _layers()
    record = _trace("spans")
    names = {layers.span_name(module, qualname) for module, qualname in layers.SPANS}
    assert names <= record["spans"].keys()


def test_profile_mode_counts_the_calls():
    record = _trace("profile")
    assert record["counts"]["algebra.QPoly.mul"] > 0
    assert record["counts"]["series.egf_polynomials"] == 1


@pytest.mark.parametrize(
    "route,span",
    [
        ("recurrence", "families.recurrence_polynomial"),
        ("enum", "families.enumeration_polynomial"),
        ("egf", "series.egf_polynomials"),
    ],
)
def test_spans_see_the_cli_and_the_table_route(route, span):
    # the spans rebind library functions in their modules, so a command must
    # reach each route through its module's attribute for the span to count it
    record = _trace("spans", (*_COMMAND[:-1], route))
    assert record["spans"]["cli.main"][0] == 1
    assert record["spans"][span][0] == 1
