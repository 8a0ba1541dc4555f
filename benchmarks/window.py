"""Production-matrix window by the series route, as a library user computes it.

    python3 benchmarks/window.py A B D ORDER

No CLI command reaches ``production_series`` (and through it
``TruncSeries.reversion``), so the inverse workload runs this script in
a fresh interpreter.  It prints one JSON object: ``tridiagonal`` and,
when set, the diagonal ``s`` and subdiagonal ``t`` of the window.
"""

from __future__ import annotations

import json
import sys

from qeuler import parse_rational, riordan


def main(argv: list[str]) -> int:
    a, b, d = (parse_rational(v) for v in argv[:3])
    order = int(argv[3])
    c, r = riordan.production_series(riordan.exp_riordan_from_params(a, b, d, order))
    prod = riordan.production_matrix_from_series(c, r)
    result: dict = {"tridiagonal": prod.tridiagonal}
    if prod.tridiagonal:
        result["s"] = [p.to_json() for p in prod.s_values(prod.nrows)]
        result["t"] = [p.to_json() for p in prod.t_values(prod.nrows - 1)]
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
