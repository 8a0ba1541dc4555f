"""``qeuler invert-moments``: J-fraction weights back from a moment sequence.

With ``--family`` the moments are the family's rows T_0 .. T_{nmax-1},
read from the integer triangle (``families.recurrence_polynomial``), not
from the path sum of its closed-form weights.  So the weights recovered
from them check those closed forms against an independent route.
"""

from __future__ import annotations

from . import cli, families
from .algebra import QPoly

#: The most family moments (``--nmax``) and the deepest inversion (``--depth``,
#: which needs 2 depth moments): TypeB took 0.35 s at --nmax 120 --depth 60,
#: 3.3 s at 300/150 and 9.4 s (102 MB) at 400/200 in one fresh process.
_MAX_MOMENTS = 400
_MAX_DEPTH = 200


def add_arguments(parser) -> None:
    cli._add_family_flags(parser, required=False, what="take moments from a family")
    parser.add_argument(
        "--nmax", type=cli._positive_int, help="number of family moments to generate"
    )
    parser.add_argument("--file", help="JSON moment sequence instead of a family")
    parser.add_argument(
        "--depth", type=cli._positive_int, help="inversion depth (default: moments//2)"
    )


def _moments_from_file(path: str) -> list[QPoly]:
    entries = (e if isinstance(e, list) else [e] for e in cli._json_array(path, "mu", "moment"))
    return [QPoly(*map(cli._exact, coeffs)) for coeffs in entries]


def run(args):
    from . import jacobi

    if args.file and args.family:
        raise ValueError("give either --file or --family, not both")
    if args.depth is not None:
        cli._at_most("invert-moments recovers", _MAX_DEPTH, "s weights", "--depth", args.depth)
    if args.file:
        for name in ("t", "a", "d", "nmax"):
            if getattr(args, name) is not None:
                raise ValueError(f"--{name} has no effect with --file")
        moments = _moments_from_file(args.file)
        config: dict = {"file": args.file}
    elif args.family:
        if args.nmax is None:
            raise ValueError("--nmax is required with --family")
        cli._at_most("invert-moments generates", _MAX_MOMENTS, "moments", "--nmax", args.nmax)
        _, abd, config = cli._family(args)
        # inversion at depth D reads only the first 2D moments
        count = args.nmax if args.depth is None else min(args.nmax, 2 * args.depth)
        moments = families.recurrence_polynomial(*abd, count)
        config["nmax"] = args.nmax
    else:
        raise ValueError("one of --file or --family is required")
    recovered = jacobi.jfraction_from_moments(moments, args.depth)
    config["depth"] = recovered.depth
    return config, {"jfraction": recovered._asdict()}, True, lambda: [
        f"recovered J-fraction of depth {recovered.depth}",
        *cli._weight_lines(recovered.s, recovered.t),
    ]
