"""``qeuler selftest``: the three routes' agreement matrix at default caps.

Each family of ``families._FAMILIES`` runs at every point of its grid,
up to its walk's cap, by the routes of ``families._ROUTES``.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction

from . import cli, families
from .families import FamilySpec

#: The points a family is tested at, by the parameters it takes.
_GRIDS = {
    (): [()],
    ("t",): [(0,), (1,), (2,), (Fraction(1, 2),), (3,)],
    ("a", "d"): [(1, 1), (1, 2), (1, 3), (2, 5), (0, 1)],
}


def add_arguments(parser) -> None:
    parser.add_argument("--nmax", type=cli._positive_int, help="clamp the per-family caps")


def _instances(clamp: int | None) -> Iterator[tuple[FamilySpec, int]]:
    for family, (names, _, walk) in families._FAMILIES.items():
        cap = 10 if walk is None else walk[0]  # General has no walk
        for values in _GRIDS[names]:
            yield FamilySpec(family, **dict(zip(names, values))), min(cap, clamp or cap)


def run(args):
    from . import jacobi

    matrix: list[dict] = []
    all_pass = True
    for spec, ncap in _instances(args.nmax):
        count = ncap + 1
        egf, cfrac, enum = (families._ROUTES[r](spec, count) for r in ("egf", "cfrac", "enum"))
        jf = jacobi.jfraction_from_params(*families.family_egf_params(spec), (count + 1) // 2)
        motzkin = jacobi.moments_by_motzkin_paths(jf, count)
        label = spec.label()
        for n in range(count):
            for pair, okay in (
                ("egf=cfrac", egf[n] == cfrac[n]),
                ("cfrac=motzkin", cfrac[n] == motzkin[n]),
                ("enum=egf", enum[n] == egf[n]),
            ):
                matrix.append({"family": label, "n": n, "pair": pair, "pass": okay})
                all_pass = all_pass and okay
    config = {"nmax": args.nmax} if args.nmax else {}
    result = {"all_pass": all_pass, "checks": len(matrix), "matrix": matrix}
    failures = [row for row in matrix if not row["pass"]]
    return config, result, all_pass, lambda: [
        f"selftest: {len(matrix) - len(failures)}/{len(matrix)} checks passed",
        *(f"  FAIL {row['family']} n={row['n']} {row['pair']}" for row in failures),
    ]
