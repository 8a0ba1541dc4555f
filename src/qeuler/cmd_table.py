"""``qeuler table``: a family's polynomial rows by one route."""

from __future__ import annotations

from . import cli, families

#: The most rows ``egf`` and ``cfrac`` build.  Their coefficient work grows about
#: as n^4: TypeB egf takes about 6 s at 140 rows and 25 s at 200.
_SERIES_MAX_ROWS = 150


def add_arguments(parser) -> None:
    cli._add_family_flags(parser)
    parser.add_argument(
        "--nmax", type=cli._positive_int, required=True, help="number of rows (n = 0..nmax-1)"
    )
    parser.add_argument(
        "--route",
        required=True,
        choices=tuple(families._ROUTES),
        help="which computation produces the rows",
    )


def run(args):
    if args.route in ("egf", "cfrac"):
        what = f"table --route {args.route} builds"
        cli._at_most(what, _SERIES_MAX_ROWS, "rows", "--nmax", args.nmax)
    spec, _, config = cli._family(args)
    rows = families._ROUTES[args.route](spec, args.nmax)
    config |= {"nmax": args.nmax, "route": args.route}
    return config, {"rows": rows}, True, lambda: [
        f"{spec.label()} via {args.route}", *(f"  n={n}: {p}" for n, p in enumerate(rows))
    ]
