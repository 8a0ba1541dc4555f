"""Command-line surface: exact JSON reports over the library routes.

Every number in the output is an exact rational string ("p/q" or "p");
no floating point is emitted anywhere.  Output is deterministic byte
for byte for a fixed invocation: the envelope carries only the tool
name and version, never timestamps.

Only this module writes JSON: handlers return library values, each
record as its ``_asdict()``, and ``_json_value`` encodes them.  A
handler returns its ``--format text`` lines as a callable, which
``_run`` calls only for text output, so a JSON run formats no
polynomial as text.

At module level only ``algebra`` and ``families`` are imported, which
the parser needs; each handler imports the routes it runs, so a
command loads only those.

Exit codes: 0 all checks passed, 1 a verification produced witnesses,
2 usage or configuration error (including inputs whose preconditions
fail mid-computation, like non-quasi-definite moments).
"""

from __future__ import annotations

import argparse
import enum
import json
import os
import sys
from fractions import Fraction
from typing import Sequence

from . import __version__, families
from .algebra import QPoly, as_fraction, parse_rational
from .families import Family, FamilySpec

__all__ = ["main"]

#: ``sorted(convexity.BUILTIN_SEQUENCES)``, written out so that building the
#: parser does not import ``convexity``.
_BUILTIN_SEQUENCE_NAMES = ("catalan", "factorial", "motzkin", "ones", "powers2")


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _add_family_params(parser: argparse.ArgumentParser) -> None:
    # argparse takes "-3/2" for an option, so a negative value needs "--t=-3/2"
    for name in ("t", "a", "d"):
        used_by = ", ".join(f.value for f in Family if name in families._FAMILIES[f][0])
        text = f"{name} parameter ({used_by}); write a negative one as --{name}=-3/2"
        parser.add_argument(f"--{name}", type=_rational, help=text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qeuler",
        description="Exact q-Eulerian polynomials: generating functions, "
        "continued fractions, enumeration, convexity.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "text"), default="json", help="output format"
    )
    common.add_argument("--out", metavar="FILE", help="write output to FILE instead of stdout")
    fam = argparse.ArgumentParser(add_help=False)
    fam.add_argument(
        "--family",
        required=True,
        choices=[f.value for f in Family],
        help="polynomial family",
    )
    _add_family_params(fam)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", parents=[common, fam], help="polynomial rows by one route")
    p.add_argument("--nmax", type=_positive_int, required=True, help="number of rows (n = 0..nmax-1)")
    p.add_argument(
        "--route",
        required=True,
        choices=("egf", "cfrac", "enum", "recurrence"),
        help="which computation produces the rows",
    )

    p = sub.add_parser("cfrac", parents=[common, fam], help="continued-fraction weights")
    p.add_argument("--depth", type=_positive_int, default=8, help="number of s weights")

    p = sub.add_parser("prodmat", parents=[common, fam], help="production matrix of the Riordan array")
    p.add_argument("--order", type=_positive_int, required=True, help="series truncation order")

    p = sub.add_parser("check", parents=[common, fam], help="convexity verdicts with witnesses")
    p.add_argument("--nmax", type=_positive_int, help="how many polynomials (qlcx/strong)")
    p.add_argument(
        "--mode", required=True, choices=("qlcx", "strong", "zhu"), help="which check to run"
    )
    p.add_argument("--imax", type=_positive_int, help="index range for --mode zhu (default 50)")

    p = sub.add_parser("conjecture", parents=[common], help="triangle transform log-convexity evidence")
    p.add_argument("--triangle", required=True, choices=("A", "B"))
    p.add_argument(
        "--seq",
        required=True,
        help="builtin name (%s) or a JSON file of rationals"
        % ", ".join(_BUILTIN_SEQUENCE_NAMES),
    )
    p.add_argument("--nmax", type=_positive_int, default=12, help="test z_1..z_{nmax-1}")

    p = sub.add_parser("invert-moments", parents=[common], help="moments back to J-fraction weights")
    p.add_argument("--family", choices=[f.value for f in Family], help="take moments from a family")
    _add_family_params(p)
    p.add_argument("--nmax", type=_positive_int, help="number of family moments to generate")
    p.add_argument("--file", help="JSON moment sequence instead of a family")
    p.add_argument("--depth", type=_positive_int, help="inversion depth (default: moments//2)")

    p = sub.add_parser("selftest", parents=[common], help="three-way agreement matrix at default caps")
    p.add_argument("--nmax", type=_positive_int, help="clamp the per-family caps")

    return parser


def _family(args) -> tuple[FamilySpec, tuple[Fraction, Fraction, Fraction], dict]:
    """The family the flags name, its (a, b, d) triple and its ``config`` entries."""
    spec = FamilySpec(Family(args.family), t=args.t, a=args.a, d=args.d)
    config = {"family": spec.family.value, **spec.params}
    return spec, families.family_egf_params(spec), config


def _table_rows(spec: FamilySpec, abd: tuple, route: str, count: int) -> Sequence[QPoly]:
    a, b, d = abd
    if route == "egf":
        from . import series

        return series.egf_polynomials(a, b, d, count)
    if route == "cfrac":
        from . import jacobi

        jf = jacobi.jfraction_from_params(a, b, d, count)
        return jacobi.moments_by_cfrac_expansion(jf, count)
    if route == "enum":
        return families.enumeration_polynomial(spec, count)
    return families.recurrence_polynomial(a, b, d, count)


def _cmd_table(args):
    spec, abd, config = _family(args)
    rows = _table_rows(spec, abd, args.route, args.nmax)
    config |= {"nmax": args.nmax, "route": args.route}
    return config, {"rows": rows}, True, lambda: [
        f"{spec.label()} via {args.route}", *(f"  n={n}: {p}" for n, p in enumerate(rows))
    ]


def _weight_lines(s: Sequence[QPoly], t: Sequence[QPoly]) -> list[str]:
    return [f"  s_{i} = {p}" for i, p in enumerate(s)] + [
        f"  t_{i} = {p}" for i, p in enumerate(t, start=1)
    ]


def _cmd_cfrac(args):
    from . import jacobi

    spec, abd, config = _family(args)
    jf = jacobi.jfraction_from_params(*abd, args.depth)
    config["depth"] = args.depth
    return config, {"jfraction": jf._asdict()}, True, lambda: [
        f"{spec.label()} continued-fraction weights", *_weight_lines(jf.s, jf.t)
    ]


def _cmd_prodmat(args):
    from . import riordan

    spec, abd, config = _family(args)
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
        *_weight_lines(s, t),
    ]


def _cmd_check(args):
    from . import convexity, jacobi

    spec, abd, config = _family(args)
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


def _exact(value) -> Fraction:
    """A JSON entry as an exact rational: an int or a "p/q" string.

    Floats, booleans and null are refused with ``ValueError`` (exit 2)
    instead of being converted.
    """
    try:
        return as_fraction(value)
    except TypeError as exc:
        raise ValueError(f"not an exact rational: {json.dumps(value)} ({exc})") from None


def _json_array(path: str, key: str, what: str) -> list:
    """The JSON array in the file at PATH, bare or as the KEY of an object."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError(f"{what} file nests JSON arrays or objects too deeply") from None
    if isinstance(data, dict):
        data = data.get(key)
    if not isinstance(data, list):
        raise ValueError(f"{what} file must hold a JSON array (or {{'{key}': [...]}})")
    return data


def _load_sequence(seq: str, count: int) -> list[Fraction]:
    from . import convexity

    if seq in convexity.BUILTIN_SEQUENCES:
        return convexity.builtin_sequence(seq, count)
    if not os.path.exists(seq):
        raise ValueError(
            f"{seq!r} is neither a builtin sequence "
            f"({', '.join(sorted(convexity.BUILTIN_SEQUENCES))}) nor a file"
        )
    return [_exact(v) for v in _json_array(seq, "x", "sequence")]


def _cmd_conjecture(args):
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


def _moments_from_file(path: str) -> list[QPoly]:
    entries = (e if isinstance(e, list) else [e] for e in _json_array(path, "mu", "moment"))
    return [QPoly(*map(_exact, coeffs)) for coeffs in entries]


def _cmd_invert_moments(args):
    from . import jacobi

    if args.file and args.family:
        raise ValueError("give either --file or --family, not both")
    if args.file:
        for name in ("t", "a", "d", "nmax"):
            if getattr(args, name) is not None:
                raise ValueError(f"--{name} has no effect with --file")
        moments = _moments_from_file(args.file)
        config: dict = {"file": args.file}
    elif args.family:
        if args.nmax is None:
            raise ValueError("--nmax is required with --family")
        _, abd, config = _family(args)
        jf = jacobi.jfraction_from_params(*abd, args.nmax)
        moments = jacobi.moments_by_motzkin_paths(jf, args.nmax)
        config["nmax"] = args.nmax
    else:
        raise ValueError("one of --file or --family is required")
    recovered = jacobi.jfraction_from_moments(moments, args.depth)
    config["depth"] = recovered.depth
    return config, {"jfraction": recovered._asdict()}, True, lambda: [
        f"recovered J-fraction of depth {recovered.depth}",
        *_weight_lines(recovered.s, recovered.t),
    ]


_T_GRID = (Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3))
_GENERAL_GRID = ((1, 1), (1, 2), (1, 3), (2, 5), (0, 1))


def _selftest_instances(clamp: int | None) -> list[tuple[FamilySpec, int]]:
    from . import walks

    def cap(value: int) -> int:
        return min(value, clamp) if clamp else value

    out: list[tuple[FamilySpec, int]] = [
        (FamilySpec(Family.TYPE_A_SHIFTED), cap(walks.DESCENT_CAP)),
        (FamilySpec(Family.TYPE_A), cap(walks.DESCENT_CAP)),
    ]
    out += [(FamilySpec(Family.TYPE_A_QT, t=t), cap(walks.DESCENT_CAP)) for t in _T_GRID]
    out.append((FamilySpec(Family.TYPE_B), cap(walks.SIGNED_CAP)))
    out += [(FamilySpec(Family.TYPE_B_QT, t=t), cap(walks.SIGNED_CAP)) for t in _T_GRID]
    out += [
        (FamilySpec(Family.GENERAL, a=Fraction(a), d=Fraction(d)), cap(10))
        for a, d in _GENERAL_GRID
    ]
    return out


def _cmd_selftest(args):
    from . import jacobi

    matrix: list[dict] = []
    all_pass = True
    for spec, ncap in _selftest_instances(args.nmax):
        count = ncap + 1
        abd = families.family_egf_params(spec)
        egf, cfrac, enum = (_table_rows(spec, abd, r, count) for r in ("egf", "cfrac", "enum"))
        jf = jacobi.jfraction_from_params(*abd, count)
        motzkin = jacobi.moments_by_motzkin_paths(jf, count)
        label = spec.label()
        for n in range(count):
            for pair, okay in (
                ("egf=cfrac", egf[n] == cfrac[n]),
                ("cfrac=motzkin", cfrac[n] == motzkin[n]),
                ("enum=egf", enum[n] == egf[n]),
            ):
                matrix.append({"family": label, "n": n, "pair": pair, "pass": okay})
                all_pass = all_pass and okay
    config = {"nmax": args.nmax} if args.nmax else {}
    result = {"all_pass": all_pass, "checks": len(matrix), "matrix": matrix}
    failures = [row for row in matrix if not row["pass"]]
    return config, result, all_pass, lambda: [
        f"selftest: {len(matrix) - len(failures)}/{len(matrix)} checks passed",
        *(f"  FAIL {row['family']} n={row['n']} {row['pair']}" for row in failures),
    ]


_HANDLERS = {
    "table": _cmd_table,
    "cfrac": _cmd_cfrac,
    "prodmat": _cmd_prodmat,
    "check": _cmd_check,
    "conjecture": _cmd_conjecture,
    "invert-moments": _cmd_invert_moments,
    "selftest": _cmd_selftest,
}


def _json_value(obj):
    """The JSON form of a library value: the ``default`` of ``json.dumps``.

    A type not handled here raises ``TypeError``.  Floats never reach
    this hook, and neither do library records: they are tuples, which
    ``json`` writes as arrays, so handlers pass their ``_asdict()``.
    """
    if isinstance(obj, QPoly):
        return obj.to_json()
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, enum.Enum):
        return obj.value
    raise TypeError(f"{type(obj).__name__} has no JSON form")


def main(argv: list[str] | None = None) -> int:
    # exact results can pass CPython's 4300-digit int <-> str limit (none where sys
    # cannot report one): lift it while the command runs, restore it for the caller
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _run(argv: list[str] | None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 2 if code is None else int(code)
    try:
        config, result, okay, lines = _HANDLERS[args.command](args)
        if args.format == "text":
            text = "\n".join(lines())
        else:
            envelope = {
                "meta": {"tool": "qeuler", "version": __version__},
                "command": args.command,
                "config": config,
                "result": result,
            }
            text = json.dumps(envelope, indent=2, default=_json_value)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        else:
            sys.stdout.write(text + "\n")
    except (ValueError, ArithmeticError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return 2
    return 0 if okay else 1
