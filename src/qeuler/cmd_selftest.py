"""``qeuler selftest``: the three routes' agreement matrix at default caps.

The rows come from the ``table`` command's routes (``cmd_table``), so this
is the one command that loads another command's module.
"""

from __future__ import annotations

from fractions import Fraction

from . import cli, cmd_table, families
from .families import Family, FamilySpec

_T_GRID = (Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3))
_GENERAL_GRID = ((1, 1), (1, 2), (1, 3), (2, 5), (0, 1))


def add_arguments(parser) -> None:
    parser.add_argument("--nmax", type=cli._positive_int, help="clamp the per-family caps")


def _selftest_instances(clamp: int | None) -> list[tuple[FamilySpec, int]]:
    from . import walks

    def cap(value: int) -> int:
        return min(value, clamp) if clamp else value

    out: list[tuple[FamilySpec, int]] = [
        (FamilySpec(Family.TYPE_A_SHIFTED), cap(walks.DESCENT_CAP)),
        (FamilySpec(Family.TYPE_A), cap(walks.DESCENT_CAP)),
    ]
    out += [(FamilySpec(Family.TYPE_A_QT, t=t), cap(walks.DESCENT_CAP)) for t in _T_GRID]
    out.append((FamilySpec(Family.TYPE_B), cap(walks.SIGNED_CAP)))
    out += [(FamilySpec(Family.TYPE_B_QT, t=t), cap(walks.SIGNED_CAP)) for t in _T_GRID]
    out += [
        (FamilySpec(Family.GENERAL, a=Fraction(a), d=Fraction(d)), cap(10))
        for a, d in _GENERAL_GRID
    ]
    return out


def run(args):
    from . import jacobi

    matrix: list[dict] = []
    all_pass = True
    for spec, ncap in _selftest_instances(args.nmax):
        count = ncap + 1
        abd = families.family_egf_params(spec)
        egf, cfrac, enum = (
            cmd_table._table_rows(spec, abd, r, count) for r in ("egf", "cfrac", "enum")
        )
        jf = jacobi.jfraction_from_params(*abd, count)
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
