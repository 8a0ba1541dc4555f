"""``qeuler check``: a convexity verdict on a family's moments, with witnesses."""

from __future__ import annotations

from . import cli


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
    from . import convexity, jacobi

    spec, abd, config = cli._family(args)
    config["mode"] = args.mode
    if args.mode == "zhu":
        if args.nmax is not None:
            raise ValueError("--nmax has no effect with --mode zhu")
        imax = 50 if args.imax is None else args.imax
        jf = jacobi.jfraction_from_params(*abd, imax + 2)
        report = convexity.moment_convexity_criterion(jf, imax)
        config["imax"] = imax
    else:
        if args.imax is not None:
            raise ValueError(f"--imax has no effect with --mode {args.mode}")
        if args.nmax is None:
            raise ValueError("--nmax is required for --mode qlcx/strong")
        depth = max(1, (args.nmax - 1) // 2 + 1)
        jf = jacobi.jfraction_from_params(*abd, depth)
        mu = jacobi.moments_by_motzkin_paths(jf, args.nmax)
        config["nmax"] = args.nmax
        if args.mode == "qlcx":
            report = convexity.check_q_log_convex(mu)
        else:
            report = convexity.check_strong_q_log_convex(mu)
    return config, {"report": report._asdict()}, report.verdict, lambda: [
        f"{spec.label()} {args.mode}: {'pass' if report.verdict else 'FAIL'}",
        *(f"  witness {w}" for w in report.witnesses),
    ]
