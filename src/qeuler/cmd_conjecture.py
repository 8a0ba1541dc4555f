"""``qeuler conjecture``: does a triangle transform keep a sequence log-convex?"""

from __future__ import annotations

import os
from fractions import Fraction

from . import cli

#: ``sorted(convexity.BUILTIN_SEQUENCES)``, written out so that building the
#: parser does not import ``convexity``.
_BUILTIN_SEQUENCE_NAMES = ("catalan", "factorial", "motzkin", "ones", "powers2")


def add_arguments(parser) -> None:
    parser.add_argument("--triangle", required=True, choices=("A", "B"))
    parser.add_argument(
        "--seq",
        required=True,
        help="builtin name (%s) or a JSON file of rationals" % ", ".join(_BUILTIN_SEQUENCE_NAMES),
    )
    parser.add_argument(
        "--nmax", type=cli._positive_int, default=12, help="test z_1..z_{nmax-1}"
    )


def _load_sequence(seq: str, count: int) -> list[Fraction]:
    from . import convexity

    if seq in convexity.BUILTIN_SEQUENCES:
        return convexity.builtin_sequence(seq, count)
    if not os.path.exists(seq):
        raise ValueError(
            f"{seq!r} is neither a builtin sequence "
            f"({', '.join(sorted(convexity.BUILTIN_SEQUENCES))}) nor a file"
        )
    return [cli._exact(v) for v in cli._json_array(seq, "x", "sequence")]


def run(args):
    from . import convexity

    triangle = (
        convexity.Triangle.EULERIAN_A if args.triangle == "A" else convexity.Triangle.EULERIAN_B
    )
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
