"""Smoke test: the benchmark's library window runs against this package.

``benchmarks/window.py`` is the ``inverse`` workload's one library
command: it builds a production matrix by the series route and reads
``tridiagonal``, ``nrows``, ``s_values`` and ``t_values`` from it.  A
change to that part of the ``ProductionData`` API fails here, in a child
process that imports the ``qeuler`` under test.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qeuler
from qeuler import QPoly

_WINDOW = Path(__file__).resolve().parents[1] / "benchmarks" / "window.py"


def _window(*argv: str) -> dict:
    src = str(Path(qeuler.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, str(_WINDOW), *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("a,b,d,order", [("1", "1", "2", 6), ("1", "1/2", "3/2", 7)])
def test_window_prints_the_closed_form_weights(a, b, d, order):
    result = _window(a, b, d, str(order))
    fa, fb, fd = Fraction(a), Fraction(b), Fraction(d)
    rows = order - 2
    s = [QPoly(fd * i + fa * fb, fd * i + fb * fd - fa * fb) for i in range(rows)]
    t = [QPoly(0, fd * fd * i * (i - 1 + fb)) for i in range(1, rows)]
    assert result == {
        "tridiagonal": True,
        "s": [p.to_json() for p in s],
        "t": [p.to_json() for p in t],
    }
