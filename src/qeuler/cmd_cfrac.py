"""``qeuler cfrac``: a family's J-fraction weights."""

from __future__ import annotations

from . import cli

#: The most s weights ``--depth`` asks for: TypeB took 1.8 s and 109 MB at
#: 100,000, and 7.3 s and 390 MB at 400,000, in one fresh process (13 s at 500,000).
_MAX_DEPTH = 400_000


def add_arguments(parser) -> None:
    cli._add_family_flags(parser)
    parser.add_argument("--depth", type=cli._positive_int, default=8, help="number of s weights")


def run(args):
    from . import jacobi

    cli._at_most("cfrac writes", _MAX_DEPTH, "s weights", "--depth", args.depth)
    spec, abd, config = cli._family(args)
    jf = jacobi.jfraction_from_params(*abd, args.depth)
    config["depth"] = args.depth
    return config, {"jfraction": jf._asdict()}, True, lambda: [
        f"{spec.label()} continued-fraction weights", *cli._weight_lines(jf.s, jf.t)
    ]
