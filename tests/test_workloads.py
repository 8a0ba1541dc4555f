"""Smoke test: every command of the benchmark's workloads passes its gate.

``benchmarks/workloads.py`` builds each workload's commands for a seed,
and ``benchmarks/gate.py`` judges their outputs against independent
routes and the closed-form weights.  Both are loaded read-only, as
``tests/test_trace.py`` loads ``layers.py``.  For two seeds, every
command of every workload runs here in process: ``cli.main``, or
``window.main`` for a ``lib`` command.  Nothing is timed.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from qeuler.cli import main

_BENCH = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture(scope="module")
def bench():
    """The ``workloads``, ``gate`` and ``window`` modules; ``gate`` imports ``workloads`` by name."""
    saved = {name: sys.modules.get(name) for name in ("workloads", "gate", "window")}
    modules = {}
    try:
        for name in saved:
            spec = importlib.util.spec_from_file_location(name, _BENCH / f"{name}.py")
            modules[name] = sys.modules[name] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(modules[name])
        yield modules
    finally:
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


@pytest.mark.parametrize("seed", [1, 4001])
@pytest.mark.parametrize("workload", ["routes", "convexity", "inverse"])
def test_every_workload_command_passes_the_gate(bench, capsys, workload, seed):
    cmds = bench["workloads"].build(workload, seed)
    outcomes = []
    for cmd in cmds:
        run = bench["window"].main if cmd.program == "lib" else main
        code = run(list(cmd.argv))
        outcomes.append(bench["gate"].Outcome(code, capsys.readouterr().out))
    reasons = bench["gate"].judge(cmds, outcomes)
    assert [(" ".join(c.argv), r) for c, r in zip(cmds, reasons) if r] == []
