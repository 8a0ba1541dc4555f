"""``qeuler table``: a family's polynomial rows by one route."""

from __future__ import annotations

from . import cli, families

#: The most rows each route builds.
_MAX_ROWS = {
    # the coefficient work grows about as n^4: TypeB egf takes about 6 s at 140 rows
    # and 25 s at 200
    "egf": 150,
    "cfrac": 150,
    # General's enum is the recurrence; a walk refuses far below, at its cap.  The
    # output grows about as n^3, and more with longer parameter literals: in one fresh
    # process General(22/7, 355/113) took 10-11 s and 560 MB at 400 rows and 22 s and
    # 1.08 GB at 500, TypeB_qt(355/113) 8.0 s and 449 MB at 400, and TypeB 1.4 s and
    # 157 MB at 400.
    "enum": 400,
    "recurrence": 400,
}


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
    limit = _MAX_ROWS[args.route]
    cli._at_most(f"table --route {args.route} builds", limit, "rows", "--nmax", args.nmax)
    spec, _, config = cli._family(args)
    rows = families._ROUTES[args.route](spec, args.nmax)
    config |= {"nmax": args.nmax, "route": args.route}
    return config, {"rows": rows}, True, lambda: [
        f"{spec.label()} via {args.route}", *(f"  n={n}: {p}" for n, p in enumerate(rows))
    ]
