"""Command-line surface: exact JSON reports over the library routes.

Every number in the output is an exact rational string ("p/q" or "p");
no floating point is emitted anywhere.  Output is deterministic byte
for byte for a fixed invocation: the envelope carries only the tool
name and version, never timestamps.

Each command lives in its own module (``_COMMANDS``), which declares the
command's arguments and runs it.  The parser lists every command, but
only the one argparse dispatches to, the first argument that names a
command, declares its arguments; so a command line imports at most one
command module, and one that names no command (help, no arguments, an
unknown command) imports none.
This module keeps what the commands share: the main parser, the output
and family flags, the family lookup and the JSON encoder.  Every
``choices=`` but ``--format`` reads the keys of the table that acts on
it: ``--family`` ``families._FAMILIES``, ``--route`` ``families._ROUTES``,
``--triangle`` ``families._TRIANGLES`` and ``--mode`` ``cmd_check._MAX_SIZE``.

Only this module writes JSON: a command returns library values, each
record as its ``_asdict()``, and ``_json_value`` encodes the two that are
no JSON type, ``QPoly`` and ``Fraction``.  A
command returns its ``--format text`` lines as a callable, which
``_run`` calls only for text output, so a JSON run formats no
polynomial as text.

At module level only ``algebra`` and ``families`` are imported, which
the parser needs; each command imports the routes it runs, so a
command loads only those.

Exit codes: 0 all checks passed, 1 a verification produced witnesses,
2 usage or configuration error (including inputs whose preconditions
fail mid-computation, like non-quasi-definite moments).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from fractions import Fraction

from . import __version__, families
from .algebra import QPoly, as_fraction, parse_rational
from .families import FamilySpec

__all__ = ["main"]

#: Every command, in help order: the ``qeuler`` module that declares its
#: arguments after ``--format`` and ``--out`` (``add_arguments``) and runs it
#: (``run``), and its help line.
_COMMANDS = {
    "table": ("cmd_table", "polynomial rows by one route"),
    "cfrac": ("cmd_cfrac", "continued-fraction weights"),
    "prodmat": ("cmd_prodmat", "production matrix of the Riordan array"),
    "check": ("cmd_check", "convexity verdicts with witnesses"),
    "conjecture": ("cmd_conjecture", "triangle transform log-convexity evidence"),
    "invert-moments": ("cmd_invert_moments", "moments back to J-fraction weights"),
    "selftest": ("cmd_selftest", "three-way agreement matrix at default caps"),
}


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_int(text: str) -> int:
    # int() alone would also take "1_000" and non-ASCII digits such as "８"
    if "_" in text or not text.isascii():
        raise ValueError(text)
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _at_most(what: str, limit: int, unit: str, flag: str, value: int) -> None:
    """Refuse (exit 2) a size flag above its fixed ceiling, before any work."""
    if value > limit:
        raise ValueError(f"{what} at most {limit} {unit}, got {flag} {value}")


def _add_family_flags(
    parser: argparse.ArgumentParser, required: bool = True, what: str = "polynomial family"
) -> None:
    """``--family`` and the parameters ``_family`` reads."""
    parser.add_argument("--family", required=required, choices=list(families._FAMILIES), help=what)
    # argparse takes "-3/2" for an option, so a negative value needs "--t=-3/2"
    for name in FamilySpec._fields[1:]:
        used_by = ", ".join(f for f, (names, *_) in families._FAMILIES.items() if name in names)
        text = f"{name} parameter ({used_by}); write a negative one as --{name}=-3/2"
        parser.add_argument(f"--{name}", type=_rational, help=text)


def _command(name: str):
    """The module of command NAME, imported on first use."""
    return __import__(f"{__package__}.{_COMMANDS[name][0]}", fromlist=["run"])


def _build_parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qeuler",
        description="Exact q-Eulerian polynomials: generating functions, "
        "continued fractions, enumeration, convexity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name, help=text) for name, (_, text) in _COMMANDS.items()}
    # argparse dispatches to the first argument that names a command (no name starts
    # with "-"), so only that command declares its arguments and imports its module
    invoked = next((a for a in argv if a in _COMMANDS), None)
    if invoked:
        p = commands[invoked]
        p.add_argument("--format", choices=("json", "text"), default="json", help="output format")
        p.add_argument("--out", metavar="FILE", help="write output to FILE instead of stdout")
        _command(invoked).add_arguments(p)
    return parser


def _family(args) -> tuple[FamilySpec, tuple[Fraction, Fraction, Fraction], dict]:
    """The family the flags name, its (a, b, d) triple and its ``config`` entries."""
    spec = FamilySpec(args.family, t=args.t, a=args.a, d=args.d)
    config = {"family": spec.family, **spec.params}
    return spec, families.family_egf_params(spec), config


def _weight_lines(s: Sequence[QPoly], t: Sequence[QPoly]) -> list[str]:
    return [f"  s_{i} = {p}" for i, p in enumerate(s)] + [
        f"  t_{i} = {p}" for i, p in enumerate(t, start=1)
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


def _json_value(obj):
    """The JSON form of a library value: the ``default`` of ``json.dumps``.

    A type not handled here raises ``TypeError``.  Floats never reach
    this hook, and neither do library records: they are tuples, which
    ``json`` writes as arrays, so commands pass their ``_asdict()``.
    """
    if isinstance(obj, QPoly):
        return obj.to_json()
    if isinstance(obj, Fraction):
        return str(obj)
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


def _run(argv: Sequence[str] | None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 2 if code is None else int(code)
    try:
        config, result, okay, lines = _command(args.command).run(args)
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
        # print writes the newline apart, so no second output-sized string is made
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                print(text, file=fh)
        else:
            print(text)
    except (ValueError, ArithmeticError, OSError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return 2
    return 0 if okay else 1
