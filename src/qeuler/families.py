"""The six polynomial families, their recurrence route and their enumeration route.

Every family is a specialization of the EGF parameter triple (a, b, d).
The table ``_FAMILIES`` is the one place a family is declared: which of
t, a and d it takes, and its triple as a function of them.
``FamilySpec``, its label, ``family_egf_params`` and the command line
all read it.

Every family's recurrence route is one integer triangle, ``eulerian_rows``,
on the linear forms (ab, bd, d); type A is (1, 1, 1) and type B (1, 2, 2).
``type_b_polynomial`` is kept only as an independent check of type B.

The enumeration route, ``enumeration_polynomial``, reads the group walks
of ``walks``, and imports that module only when it walks a group.  Two
normalization quirks are encoded once, there: the excedance statistic
carries a conventional extra factor q (so the qt-family enumeration is q
times its EGF), and the classical type-A polynomial is q times the
descent polynomial for n >= 1.
"""

from __future__ import annotations

import enum
from collections import deque, namedtuple
from fractions import Fraction
from typing import Callable, Iterator

from .algebra import ONE, Q, QPoly, Rat, _common_denominator, as_fraction

__all__ = [
    "Family",
    "FamilySpec",
    "family_egf_params",
    "eulerian_rows",
    "eulerian_numbers_type_a",
    "eulerian_numbers_type_b",
    "type_b_polynomial",
    "enumeration_polynomial",
    "recurrence_polynomial",
]


class Family(enum.Enum):
    TYPE_A_SHIFTED = "TypeA_shifted"
    TYPE_A = "TypeA"
    TYPE_A_QT = "TypeA_qt"
    TYPE_B = "TypeB"
    TYPE_B_QT = "TypeB_qt"
    GENERAL = "General"


#: The one place a family is declared: the parameters it takes, in print
#: order, and its (a, b, d) triple as a function of them.
_FAMILIES: dict[Family, tuple[tuple[str, ...], Callable]] = {
    Family.TYPE_A_SHIFTED: ((), lambda: (1, 1, 1)),  # descent polynomials of S_n
    Family.TYPE_A: ((), lambda: (0, 1, 1)),  # q * descent polynomial (n >= 1)
    Family.TYPE_A_QT: (("t",), lambda t: (1, t, 1)),  # excedances marked by q, cycles by t
    Family.TYPE_B: ((), lambda: (1, 1, 2)),  # descent polynomials of signed permutations
    Family.TYPE_B_QT: (("t",), lambda t: (1, 1, 1 + t)),  # signed descents, negatives marked by t
    Family.GENERAL: (("a", "d"), lambda a, d: (a, 1, d)),  # the (a, d) Eulerian triangle
}


class FamilySpec(namedtuple("FamilySpec", "family t a d")):
    """A family plus whichever parameters it needs (and no others)."""

    __slots__ = ()

    def __new__(cls, family: Family, t=None, a=None, d=None) -> FamilySpec:
        names = _FAMILIES[family][0]
        values = {"t": t, "a": a, "d": d}
        for name, value in values.items():
            if (value is None) == (name in names):
                verb = "requires" if value is None else "takes no"
                raise ValueError(f"{family.value} {verb} {name}")
            if value is not None:
                values[name] = as_fraction(value)
        return super().__new__(cls, family, **values)

    @property
    def params(self) -> dict[str, Fraction]:
        """Name -> value of the family's parameters, in print order."""
        return {name: getattr(self, name) for name in _FAMILIES[self.family][0]}

    def label(self) -> str:
        values = ", ".join(f"{name}={value}" for name, value in self.params.items())
        return f"{self.family.value} ({values})" if values else self.family.value


def family_egf_params(spec: FamilySpec) -> tuple[Fraction, Fraction, Fraction]:
    """The (a, b, d) triple feeding the EGF / J-fraction / Riordan routes."""
    a, b, d = _FAMILIES[spec.family][1](*spec.params.values())
    return Fraction(a), Fraction(b), Fraction(d)


# -- recurrences -------------------------------------------------------------


def eulerian_rows(ab: int, bd: int, d: int, n_max: int) -> Iterator[list[int]]:
    """Rows 0 .. n_max of the (a, b, d) Eulerian triangle, in one pass.

    Row n holds the coefficients of T_n(q), constant term first:

        T(n, j) = (ab + j d) T(n-1, j) + ((n-j) d + bd - ab) T(n-1, j-1),  T(0, 0) = 1,

    which is T_n = (ab + (bd - ab + (n-1) d) q) T_{n-1} + d q (1-q) T'_{n-1}.
    Row n has length n+1.  (1, 1, 1) is the descent triangle of S_n,
    whose top entry is 0 for n >= 1 (its factor at j = n is bd - ab), and
    (1, 2, 2) is the signed-descent triangle of B_n.  Both factors are
    linear in (ab, bd, d), so row n is homogeneous of degree n: rational
    forms AB/D, BD/D, E/D give row n of (AB, BD, E) divided by D^n, and
    the rows need only integers.  The next row is built from the one
    yielded, so callers must not modify it.
    """
    shift = bd - ab
    row = [1]
    yield row
    for n in range(1, n_max + 1):
        prev = [0, *row, 0]  # prev[j + 1] = T(n-1, j), zero outside 0 <= j < n
        row = [(ab + j * d) * prev[j + 1] + ((n - j) * d + shift) * prev[j] for j in range(n + 1)]
        yield row


def _last_row(ab: int, bd: int, d: int, n: int) -> list[int]:
    if n < 0:
        raise ValueError("n must be >= 0")
    return deque(eulerian_rows(ab, bd, d, n), maxlen=1).pop()


def eulerian_numbers_type_a(n: int) -> list[int]:
    """Row n of the descent triangle of S_n (length n+1, trailing 0 for n>=1)."""
    return _last_row(1, 1, 1, n)


def eulerian_numbers_type_b(n: int) -> list[int]:
    """Row n of the signed-descent triangle (length n+1)."""
    return _last_row(1, 2, 2, n)


def type_b_polynomial(n: int) -> QPoly:
    """P(B_n, q) by the derivative recurrence

        P_n = [(2n-1)q + 1] P_{n-1} + 2q(1-q) P'_{n-1},  P_0 = 1.

    The 2q(1-q) factor is forced: expanding the (1, 2, 2) triangle recurrence
    B(n,k) = (2k+1)B(n-1,k) + (2n-2k+1)B(n-1,k-1) termwise gives
    P_n = (1 + (2n-1)q) P_{n-1} + 2q P'_{n-1} - 2q^2 P'_{n-1}.  No route
    uses it: it is an independent check of that triangle.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    poly = ONE
    for m in range(1, n + 1):
        poly = QPoly(1, 2 * m - 1) * poly + QPoly(0, 2, -2) * poly.derivative()
    return poly


# -- routes --------------------------------------------------------------------


def recurrence_polynomial(a: Rat | str, b: Rat | str, d: Rat | str, count: int) -> list[QPoly]:
    """The recurrence route: T_0 .. T_{count-1} of the (a, b, d) EGF, in one pass.

    ``eulerian_rows`` runs on the numerators of ab, bd and d over their
    common denominator D, and row n is divided once by D^n.
    """
    fa, fb, fd = (as_fraction(v) for v in (a, b, d))
    den, nums = _common_denominator((fa * fb, fb * fd, fd))
    rows = zip(range(count), eulerian_rows(*nums, count - 1))
    return [QPoly(*row) / den**n for n, row in rows]


def enumeration_polynomial(spec: FamilySpec, count: int) -> list[QPoly]:
    """The combinatorial route: T_0 .. T_{count-1}, aligned to the EGF normalization.

    T_0 = 1 for every family (the empty group).  For the excedance
    family the walk produces q * T_n, so the result is divided by q; for
    TypeA the descent walk produces T_n / q, so it is multiplied.  The
    signed families are the raw statistic.  General has no group walk:
    its rows are the recurrence's.  A table past the walk cap is refused
    before any group is walked.
    """
    fam = spec.family
    if fam is Family.GENERAL:
        return recurrence_polynomial(spec.a, 1, spec.d, count)
    from . import walks

    cap = walks.DESCENT_CAP
    if fam is Family.TYPE_A_SHIFTED:
        walk = walks.descent_polynomial
    elif fam is Family.TYPE_A:
        walk = lambda n: Q * walks.descent_polynomial(n)
    elif fam is Family.TYPE_A_QT:
        walk = lambda n: walks.excedance_cycle_polynomial(n, spec.t).divide_by_q()
    else:
        t = 1 if spec.t is None else spec.t
        walk, cap = (lambda n: walks.signed_descent_polynomial(n, t)), walks.SIGNED_CAP
    if count - 1 > cap:
        walk(cap + 1)  # raises the error an upward walk would meet, before walking any group
    return [ONE, *map(walk, range(1, count))][:count]
