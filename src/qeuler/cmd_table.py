"""``qeuler table``: a family's polynomial rows by one route."""

from __future__ import annotations

from typing import Sequence

from . import cli, families
from .algebra import QPoly
from .families import FamilySpec


def add_arguments(parser) -> None:
    cli._add_family_flags(parser)
    parser.add_argument(
        "--nmax", type=cli._positive_int, required=True, help="number of rows (n = 0..nmax-1)"
    )
    parser.add_argument(
        "--route",
        required=True,
        choices=("egf", "cfrac", "enum", "recurrence"),
        help="which computation produces the rows",
    )


def _table_rows(spec: FamilySpec, abd: tuple, route: str, count: int) -> Sequence[QPoly]:
    a, b, d = abd
    if route == "egf":
        from . import series

        return series.egf_polynomials(a, b, d, count)
    if route == "cfrac":
        from . import jacobi

        jf = jacobi.jfraction_from_params(a, b, d, count)
        return jacobi.moments_by_cfrac_expansion(jf, count)
    if route == "enum":
        return families.enumeration_polynomial(spec, count)
    return families.recurrence_polynomial(a, b, d, count)


def run(args):
    spec, abd, config = cli._family(args)
    rows = _table_rows(spec, abd, args.route, args.nmax)
    config |= {"nmax": args.nmax, "route": args.route}
    return config, {"rows": rows}, True, lambda: [
        f"{spec.label()} via {args.route}", *(f"  n={n}: {p}" for n, p in enumerate(rows))
    ]
