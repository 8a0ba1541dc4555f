"""``qeuler conjecture``: does a triangle transform keep a sequence log-convex?"""

from __future__ import annotations

import os
from fractions import Fraction

from . import cli, convexity

_BUILTIN_NAMES = ", ".join(sorted(convexity.BUILTIN_SEQUENCES))

#: The most terms ``--nmax`` transforms: triangle B on motzkin took 2.9 s at
#: 1000 and 42 s at 2000 in one fresh process.
_MAX_TERMS = 1000


def add_arguments(parser) -> None:
    parser.add_argument(
        "--triangle", required=True, choices=tuple(t.value for t in convexity.Triangle)
    )
    parser.add_argument(
        "--seq", required=True, help=f"builtin name ({_BUILTIN_NAMES}) or a JSON file of rationals"
    )
    parser.add_argument(
        "--nmax", type=cli._positive_int, default=12, help="test z_1..z_{nmax-1}"
    )


def _load_sequence(seq: str, count: int) -> list[Fraction]:
    if seq in convexity.BUILTIN_SEQUENCES:
        return convexity.builtin_sequence(seq, count)
    if not os.path.exists(seq):
        raise ValueError(f"{seq!r} is neither a builtin sequence ({_BUILTIN_NAMES}) nor a file")
    return [cli._exact(v) for v in cli._json_array(seq, "x", "sequence")]


def run(args):
    cli._at_most("conjecture transforms", _MAX_TERMS, "terms", "--nmax", args.nmax)
    triangle = convexity.Triangle(args.triangle)
    xs = _load_sequence(args.seq, args.nmax + 1)
    report = convexity.transform_log_convexity_experiment(triangle, xs, args.nmax)
    config = {"triangle": args.triangle, "seq": args.seq, "nmax": args.nmax}
    result = {"input": xs[: args.nmax + 1], "report": report._asdict()}
    return config, result, report.verdict, lambda: [
        f"triangle {args.triangle} applied to {args.seq}: "
        f"{'log-convexity preserved' if report.verdict else 'WITNESSES FOUND'}",
        "  z = " + ", ".join(str(v) for v in report.z),
        *(f"  witness n={n}" for n in report.witnesses),
    ]
