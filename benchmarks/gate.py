"""Correctness gate: each command's mathematics against an independent route.

A command passes only when its exit code is right and its content checks
out; whole-output bytes are never compared, so metadata such as a
report's ``checked_range`` or the selftest cell list may change freely.

* ``table``: exit 0, ``nmax`` rows, and rows equal to those of every
  other route run for the same family in the pass, wherever both reach.
  With only two routes at some row a disagreement fails both: the gate
  cannot tell which one is wrong.
* ``selftest``: exit 0 and ``all_pass`` with every cell passing.
* ``invert``: exit 0 and exactly the closed-form J-fraction weights.
* ``prodmat``: exit 0, tridiagonal, the closed-form weights, and equal to
  the library window of the same family and order where one ran.
* ``window``: tridiagonal with the closed-form weights.
* ``check``: exit 0 and verdict true; every family parameter drawn lies
  inside b >= 0, d >= a >= 0, where the verdicts are theorems.
* ``conjecture``: exit code 0 exactly when the verdict is true.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from workloads import Command


@dataclass(frozen=True)
class Outcome:
    """What the gate sees of a finished command."""

    exit: int
    out: str


Poly = tuple[Fraction, ...]


def _poly(strings) -> Poly:
    coeffs = [Fraction(s) for s in strings]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def closed_form(abd: tuple[Fraction, Fraction, Fraction], depth: int) -> tuple[list[Poly], list[Poly]]:
    """s_0 .. s_{depth-1} and t_1 .. t_{depth-1} for EGF parameters (a, b, d):

    s_i = (d i + a b) + (d i + b d - a b) q,   t_{i+1} = d^2 (i + 1)(i + b) q.
    """
    a, b, d = abd
    s = [_poly([d * i + a * b, d * i + b * d - a * b]) for i in range(depth)]
    t = [_poly([0, d * d * (i + 1) * (i + b)]) for i in range(depth - 1)]
    return s, t


def _weights(result: dict) -> tuple[list[Poly], list[Poly]]:
    return [_poly(p) for p in result["s"]], [_poly(p) for p in result["t"]]


def _tridiagonal_closed_form(cmd: Command, result: dict, rows: int) -> str | None:
    if result.get("tridiagonal") is not True:
        return "production matrix is not tridiagonal"
    s, t = _weights(result)
    if (s, t) != closed_form(cmd.family.abd(), rows):
        return "production matrix weights differ from the closed form"
    return None


def judge(cmds: list[Command], outcomes: list[Outcome | None]) -> list[str | None]:
    """The failure reason for each command, or None when it passed.

    An outcome of None is a command that never finished.
    """
    run = _Pass(cmds, outcomes)
    reasons: list[str | None] = []
    for i, outcome in enumerate(outcomes):
        if outcome is None:
            reasons.append("did not finish")
        elif run.results[i] is None:
            reasons.append(f"exit {outcome.exit} without a JSON result")
        else:
            try:
                reasons.append(_RULES[cmds[i].rule](run, i))
            except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
                reasons.append(f"malformed result: {exc!r}")
    return reasons


class _Pass:
    """The parsed results of one pass, indexed for the cross-checks."""

    def __init__(self, cmds: list[Command], outcomes: list[Outcome | None]) -> None:
        self.cmds = cmds
        self.outcomes = outcomes
        self.results: list = []
        for cmd, outcome in zip(cmds, outcomes):
            result = None
            if outcome is not None and outcome.exit in (0, 1):
                try:
                    doc = json.loads(outcome.out)
                    result = doc if cmd.program == "lib" else doc["result"]
                except (ValueError, KeyError, TypeError):
                    result = None
            self.results.append(result)
        self.tables: dict = {}
        self.windows: dict = {}
        for i, cmd in enumerate(cmds):
            if self.results[i] is None:
                continue
            if cmd.rule == "table":
                self.tables.setdefault(cmd.family, []).append(i)
            elif cmd.rule == "window":
                self.windows[(cmd.family, cmd.size)] = self.results[i]

    def bad_exit(self, i: int) -> str | None:
        code = self.outcomes[i].exit
        return f"exit {code}" if code != 0 else None


def _table(run: _Pass, i: int) -> str | None:
    cmd = run.cmds[i]
    rows = [_poly(p) for p in run.results[i]["rows"]]
    if len(rows) != cmd.size:
        return f"{len(rows)} rows, want {cmd.size}"
    peers = [j for j in run.tables.get(cmd.family, []) if j != i]
    if not peers:
        return "no other route ran for this family"
    for j in peers:
        other = [_poly(p) for p in run.results[j]["rows"]]
        for n, (mine, theirs) in enumerate(zip(rows, other)):
            if mine != theirs:
                return f"row {n} differs from {' '.join(run.cmds[j].argv)}"
    return None


def _selftest(run: _Pass, i: int) -> str | None:
    result = run.results[i]
    matrix = result["matrix"]
    if result["all_pass"] is not True or not matrix or not all(row["pass"] is True for row in matrix):
        return "selftest agreement matrix has failing cells"
    if result["checks"] != len(matrix):
        return "selftest check count disagrees with its matrix"
    return None


def _invert(run: _Pass, i: int) -> str | None:
    cmd = run.cmds[i]
    if _weights(run.results[i]["jfraction"]) != closed_form(cmd.family.abd(), cmd.size):
        return "recovered weights differ from the closed form"
    return None


def _prodmat(run: _Pass, i: int) -> str | None:
    cmd, result = run.cmds[i], run.results[i]
    reason = _tridiagonal_closed_form(cmd, result, cmd.size - 1)
    if reason:
        return reason
    lib = run.windows.get((cmd.family, cmd.size))
    if lib is not None and lib.get("tridiagonal") is True:
        s, t = _weights(result)
        lib_s, lib_t = _weights(lib)
        if s[: len(lib_s)] != lib_s or t[: len(lib_t)] != lib_t:
            return "production matrix differs from the library series window"
    return None


def _window(run: _Pass, i: int) -> str | None:
    return _tridiagonal_closed_form(run.cmds[i], run.results[i], run.cmds[i].size - 2)


def _check(run: _Pass, i: int) -> str | None:
    report = run.results[i]["report"]
    if report["verdict"] is not True or report["witnesses"]:
        return f"verdict {report['verdict']}, want true"
    return None


def _conjecture(run: _Pass, i: int) -> str | None:
    verdict = run.results[i]["report"]["verdict"]
    if not isinstance(verdict, bool) or run.outcomes[i].exit != (0 if verdict else 1):
        return f"exit {run.outcomes[i].exit} disagrees with verdict {verdict}"
    return None


def _exit_zero(rule):
    def checked(run: _Pass, i: int) -> str | None:
        return run.bad_exit(i) or rule(run, i)

    return checked


_RULES = {
    "table": _exit_zero(_table),
    "selftest": _exit_zero(_selftest),
    "invert": _exit_zero(_invert),
    "prodmat": _exit_zero(_prodmat),
    "window": _exit_zero(_window),
    "check": _exit_zero(_check),
    "conjecture": _conjecture,
}
