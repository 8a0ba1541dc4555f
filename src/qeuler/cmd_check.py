"""``qeuler check``: a convexity verdict on a family's moments, with witnesses.

The moments mu_0 .. mu_{nmax-1} of a family's J-fraction are its rows
T_0 .. T_{nmax-1}, so ``qlcx`` and ``strong`` read them from the integer
triangle (``families.recurrence_polynomial``, O(nmax^2) integer work),
not from the Motzkin path sum of the weights (O(nmax^3)).  ``QPoly``'s
form is canonical, so the output is the same byte for byte; no route
changes, and the tests still pin the triangle to the EGF and cfrac rows.
``zhu`` reads the closed-form weights as integers over den for s and
den^2 for t (``convexity._weight_criterion``, O(imax) work), builds no
``JFraction`` and imports no ``jacobi``; its report is the one
``moment_convexity_criterion`` gives on the same weights.
"""

from __future__ import annotations

from . import cli, families


def add_arguments(parser) -> None:
    cli._add_family_flags(parser)
    parser.add_argument(
        "--nmax", type=cli._positive_int, help="how many polynomials (qlcx/strong)"
    )
    parser.add_argument(
        "--mode", required=True, choices=("qlcx", "strong", "zhu"), help="which check to run"
    )
    parser.add_argument(
        "--imax", type=cli._positive_int, help="index range for --mode zhu (default 50)"
    )


def run(args):
    from . import convexity

    spec, abd, config = cli._family(args)
    config["mode"] = args.mode
    if args.mode == "zhu":
        if args.nmax is not None:
            raise ValueError("--nmax has no effect with --mode zhu")
        imax = 50 if args.imax is None else args.imax
        report = convexity._weight_criterion(*abd, imax)
        config["imax"] = imax
    else:
        if args.imax is not None:
            raise ValueError(f"--imax has no effect with --mode {args.mode}")
        if args.nmax is None:
            raise ValueError("--nmax is required for --mode qlcx/strong")
        mu = families.recurrence_polynomial(*abd, args.nmax)
        config["nmax"] = args.nmax
        if args.mode == "qlcx":
            report = convexity.check_q_log_convex(mu)
        else:
            report = convexity.check_strong_q_log_convex(mu)
    return config, {"report": report._asdict()}, report.verdict, lambda: [
        f"{spec.label()} {args.mode}: {'pass' if report.verdict else 'FAIL'}",
        *(f"  witness {w}" for w in report.witnesses),
    ]
