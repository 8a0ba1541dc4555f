"""``qeuler prodmat``: the production matrix of a family's Riordan array."""

from __future__ import annotations

from . import cli

#: The largest ``--order``, the side of the Riordan matrix: TypeB took 0.78 s at
#: 40, 2.4 s at 60 and 9.0 s at 80 in one fresh process (14.5 s at 90).
_MAX_ORDER = 80


def add_arguments(parser) -> None:
    cli._add_family_flags(parser)
    parser.add_argument(
        "--order", type=cli._positive_int, required=True, help="series truncation order"
    )


def run(args):
    from . import riordan

    cli._at_most("prodmat builds a matrix of", _MAX_ORDER, "rows", "--order", args.order)
    spec, abd, config = cli._family(args)
    arr = riordan.exp_riordan_from_params(*abd, args.order)
    prod = riordan.production_matrix_direct(riordan.riordan_matrix(arr))
    if not prod.tridiagonal:
        # every d != 0 gives a tridiagonal P, so this is a broken route, not an input
        raise ArithmeticError(f"{spec.label()}: production matrix is not tridiagonal")
    config["order"] = args.order
    s = prod.s_values(prod.nrows)
    t = prod.t_values(prod.nrows - 1)
    return config, {"tridiagonal": True, "s": s, "t": t}, True, lambda: [
        f"{spec.label()} production matrix, order {args.order}",
        "  tridiagonal: True",
        *cli._weight_lines(s, t),
    ]
