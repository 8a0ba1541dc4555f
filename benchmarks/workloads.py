"""The three workloads: fixed sizes, seeded parameters and command order.

A seed draws the family parameters ``t``, ``a`` and ``d`` from the pools
below and shuffles the order of the commands; it never changes a size.
The program under test receives only argv.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as F

#: ``t`` for TypeA_qt, whose EGF parameters are (a, b, d) = (1, t, 1), and
#: for TypeB_qt, with (1, 1, 1 + t).  Small non-integers, so that the
#: algebra carries real denominators, all inside the hypothesis
#: b >= 0, d >= a >= 0 under which every check verdict must be true, and
#: chosen from eleven candidates as values whose commands cost the same
#: to within a few percent in every workload, so that the seed changes
#: the inputs but not the amount of work (measurements in README.md).
T_POOL = (F(5, 4), F(4, 3), F(5, 3))

#: (a, d) for General, EGF parameters (a, 1, d), with 0 <= a <= d; chosen
#: from eight candidates by the same equal-cost rule.
GENERAL_POOL = ((F(1, 4), F(5, 4)), (F(2, 3), F(5, 3)), (F(3, 4), F(7, 4)))

#: Sizes kept out of every workload, with their cost on the ROADMAP
#: baseline machine (Python 3.11.7, 2 CPUs), for the size guards to cite.
EXCLUDED = (
    ("table --family TypeB --nmax 80 --route cfrac", "about 370 s"),
    ("invert-moments --family TypeB --nmax 60 --depth 30", "about 59 s"),
)


@dataclass(frozen=True)
class Family:
    """A family as the CLI names it, plus the EGF triple the gate needs."""

    name: str
    t: F | None = None
    a: F | None = None
    d: F | None = None

    def args(self) -> tuple[str, ...]:
        out = ("--family", self.name)
        if self.t is not None:
            out += ("--t", str(self.t))
        if self.a is not None:
            out += ("--a", str(self.a), "--d", str(self.d))
        return out

    def abd(self) -> tuple[F, F, F]:
        if self.name == "TypeB":
            return F(1), F(1), F(2)
        if self.name == "TypeA_qt":
            return F(1), self.t, F(1)
        if self.name == "TypeB_qt":
            return F(1), F(1), 1 + self.t
        return self.a, F(1), self.d


@dataclass(frozen=True)
class Command:
    """One closed-loop request: the gate ``rule`` that judges it, its argv.

    ``program`` is ``cli`` (``python3 -m qeuler ARGV``) or ``lib``
    (``python3 benchmarks/window.py ARGV``).  ``size`` is the row count,
    depth or order the rule checks against.
    """

    rule: str
    argv: tuple[str, ...]
    family: Family | None = None
    size: int = 0
    program: str = "cli"


def table(fam: Family, route: str, nmax: int) -> Command:
    argv = ("table", *fam.args(), "--nmax", str(nmax), "--route", route)
    return Command("table", argv, fam, nmax)


def check(fam: Family, mode: str, flag: str, size: int) -> Command:
    return Command("check", ("check", *fam.args(), "--mode", mode, flag, str(size)), fam, size)


def invert(fam: Family, depth: int) -> Command:
    argv = ("invert-moments", *fam.args(), "--nmax", str(2 * depth), "--depth", str(depth))
    return Command("invert", argv, fam, depth)


def prodmat(fam: Family, order: int) -> Command:
    return Command("prodmat", ("prodmat", *fam.args(), "--order", str(order)), fam, order)


def window(fam: Family, order: int) -> Command:
    argv = (*(str(v) for v in fam.abd()), str(order))
    return Command("window", argv, fam, order, program="lib")


def _draw(rng: random.Random) -> tuple[Family, Family, Family]:
    a, d = rng.choice(GENERAL_POOL)
    return (
        Family("TypeA_qt", t=rng.choice(T_POOL)),
        Family("TypeB_qt", t=rng.choice(T_POOL)),
        Family("General", a=a, d=d),
    )


def routes(rng: random.Random) -> list[Command]:
    """Every table route on four families, plus the selftest matrix.

    TypeB at 24 rows keeps the O(n^4) cfrac expansion the largest single
    cost; enumeration walks groups of order up to 7! and 2^6 * 6!, and
    the selftest matrix is clamped to n <= 5.
    """
    type_a_qt, type_b_qt, general = _draw(rng)
    type_b = Family("TypeB")
    cmds = [table(type_b, route, 24) for route in ("egf", "cfrac", "recurrence")]
    cmds.append(table(type_b, "enum", 7))
    for fam, cap in ((type_a_qt, 8), (type_b_qt, 7), (general, 14)):
        cmds += [table(fam, "egf", 14), table(fam, "cfrac", 14), table(fam, "enum", cap)]
    cmds.append(table(general, "recurrence", 14))
    cmds.append(Command("selftest", ("selftest", "--nmax", "5")))
    return cmds


def convexity(rng: random.Random) -> list[Command]:
    """Products of large dense QPoly moments and the triangle transforms.

    Reaches Motzkin moments and QPoly only: no series, no QRatFun.
    """
    type_a_qt, type_b_qt, general = _draw(rng)
    return [
        check(Family("TypeB"), "strong", "--nmax", 34),
        check(type_b_qt, "strong", "--nmax", 28),
        check(type_a_qt, "qlcx", "--nmax", 50),
        check(general, "qlcx", "--nmax", 44),
        check(type_b_qt, "zhu", "--imax", 1500),
        Command("conjecture", ("conjecture", "--triangle", "A", "--seq", "catalan", "--nmax", "150")),
        Command("conjecture", ("conjecture", "--triangle", "B", "--seq", "motzkin", "--nmax", "150")),
    ]


def inverse(rng: random.Random) -> list[Command]:
    """Moment inversion, Riordan production matrices and series reversion."""
    type_a_qt, type_b_qt, general = _draw(rng)
    type_b = Family("TypeB")
    return [
        invert(type_b, 11),
        invert(type_a_qt, 11),
        invert(general, 11),
        prodmat(type_b, 12),
        prodmat(type_b_qt, 10),
        prodmat(general, 11),
        window(type_b_qt, 10),
    ]


WORKLOADS = {"routes": routes, "convexity": convexity, "inverse": inverse}


def build(name: str, seed: int) -> list[Command]:
    rng = random.Random(seed)
    cmds = WORKLOADS[name](rng)
    rng.shuffle(cmds)
    return cmds
