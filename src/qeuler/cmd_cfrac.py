"""``qeuler cfrac``: a family's J-fraction weights."""

from __future__ import annotations

from . import cli


def add_arguments(parser) -> None:
    cli._add_family_flags(parser)
    parser.add_argument("--depth", type=cli._positive_int, default=8, help="number of s weights")


def run(args):
    from . import jacobi

    spec, abd, config = cli._family(args)
    jf = jacobi.jfraction_from_params(*abd, args.depth)
    config["depth"] = args.depth
    return config, {"jfraction": jf._asdict()}, True, lambda: [
        f"{spec.label()} continued-fraction weights", *cli._weight_lines(jf.s, jf.t)
    ]
