"""Show that the correctness gate passes real outputs and fails corrupted ones.

    python3 benchmarks/check_gate.py

Runs one small command of every gate rule through the CLI (a few
seconds), checks that the gate passes them all, then corrupts one output
at a time (a coefficient, a row count, a verdict, an exit code, the
bytes) and checks that the gate fails exactly the corrupted command, or
that command and the routes it was compared with.  Exits 1 if any
corruption goes unnoticed.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction

import run
from gate import Outcome, judge
from workloads import Command, Family, check, invert, prodmat, table, window

TYPE_B = Family("TypeB")
GENERAL = Family("General", a=Fraction(1, 3), d=Fraction(4, 3))
TYPE_B_QT = Family("TypeB_qt", t=Fraction(2, 3))

COMMANDS = [
    table(TYPE_B, "egf", 6),
    table(TYPE_B, "cfrac", 6),
    table(TYPE_B, "recurrence", 6),
    table(TYPE_B, "enum", 5),
    table(GENERAL, "egf", 6),
    table(GENERAL, "cfrac", 6),
    Command("selftest", ("selftest", "--nmax", "2")),
    invert(GENERAL, 3),
    prodmat(TYPE_B_QT, 6),
    window(TYPE_B_QT, 6),
    check(TYPE_B_QT, "strong", "--nmax", 8),
    check(GENERAL, "zhu", "--imax", 5),
    Command("conjecture", ("conjecture", "--triangle", "A", "--seq", "catalan", "--nmax", "10")),
]


def _edit(index: int, change):
    """A corruption that rewrites one command's parsed JSON output."""

    def corrupt(outcomes: list[Outcome]) -> list[Outcome]:
        out = list(outcomes)
        doc = json.loads(out[index].out)
        change(doc if COMMANDS[index].program == "lib" else doc["result"])
        out[index] = Outcome(out[index].exit, json.dumps(doc))
        return out

    return corrupt


def _exit(index: int, code: int):
    def corrupt(outcomes: list[Outcome]) -> list[Outcome]:
        out = list(outcomes)
        out[index] = Outcome(code, out[index].out)
        return out

    return corrupt


def _bump(poly: list, k: int) -> None:
    poly[k] = str(Fraction(poly[k]) + 1)


def _set(key: str, value):
    def change(result: dict) -> None:
        result[key] = value

    return change


def _report(key: str, value):
    def change(result: dict) -> None:
        result["report"][key] = value

    return change


# (what is corrupted, the corruption, the commands that must fail)
CORRUPTIONS = [
    ("egf row 4, one coefficient", _edit(0, lambda r: _bump(r["rows"][4], 1)), {0, 1, 2, 3}),
    ("enum row 3, one coefficient", _edit(3, lambda r: _bump(r["rows"][3], 0)), {0, 1, 2, 3}),
    ("cfrac table, last row dropped", _edit(5, lambda r: r["rows"].pop()), {5}),
    ("General cfrac row 5 against egf only", _edit(5, lambda r: _bump(r["rows"][5], 2)), {4, 5}),
    ("selftest all_pass", _edit(6, _set("all_pass", False)), {6}),
    ("selftest one cell", _edit(6, lambda r: r["matrix"][7].update({"pass": False})), {6}),
    ("recovered s_1", _edit(7, lambda r: _bump(r["jfraction"]["s"][1], 1)), {7}),
    ("recovered t_2", _edit(7, lambda r: _bump(r["jfraction"]["t"][1], 1)), {7}),
    ("prodmat tridiagonal flag", _edit(8, _set("tridiagonal", False)), {8}),
    ("prodmat t_3", _edit(8, lambda r: _bump(r["t"][2], 1)), {8}),
    ("library window s_2", _edit(9, lambda r: _bump(r["s"][2], 0)), {8, 9}),
    ("strong check verdict", _edit(10, _report("verdict", False)), {10}),
    ("zhu check witness", _edit(11, _report("witnesses", [[1, 2, 0]])), {11}),
    ("conjecture verdict", _edit(12, _report("verdict", False)), {12}),
    ("conjecture exit code", _exit(12, 1), {12}),
    ("table exit code", _exit(2, 2), {2}),
    ("selftest output bytes", lambda o: o[:6] + [Outcome(0, o[6].out[:-40])] + o[7:], {6}),
    ("a command that never finished", lambda o: o[:9] + [None] + o[10:], {9}),
]


def main() -> int:
    env = run.child_env()
    done = run.run_pass(COMMANDS, run.untraced_argv, env, time.monotonic() + run.RUN_DEADLINE_S)
    clean = [Outcome(c.exit, c.out) for c in done.children]
    problems = [f"clean {' '.join(c.argv)}: {r}" for c, r in zip(COMMANDS, done.reasons) if r]
    for what, corrupt, expected in CORRUPTIONS:
        reasons = judge(COMMANDS, corrupt(clean))
        failed = {i for i, r in enumerate(reasons) if r}
        verdict = "caught" if failed == expected else "MISSED"
        print(f"{verdict:7} {what:40} failed {sorted(failed)}")
        if failed != expected:
            problems.append(f"{what}: failed {sorted(failed)}, want {sorted(expected)}")
    for problem in problems:
        print("PROBLEM", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
