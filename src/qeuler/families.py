"""The six polynomial families, their routes and the table of routes.

Every family is a specialization of the EGF parameter triple (a, b, d).
The table ``_FAMILIES`` is the one place a family is declared: which of
t, a and d it takes, its triple as a function of them, and its group
walk with that walk's fixed cap.  ``FamilySpec``, its label,
``family_egf_params``, the enumeration route, ``selftest`` and the
command line all read it; ``walks`` reads the caps.

Every family's recurrence route is one integer triangle, ``eulerian_rows``,
on the linear forms (ab, bd, d); type A is (1, 1, 1) and type B (1, 2, 2).
``type_b_polynomial`` is kept only as an independent check of type B.

The enumeration route, ``enumeration_polynomial``, runs a family's walk
from ``walks``, and imports that module only when it walks a group.
``_ROUTES`` names every route once, for ``table`` and ``selftest``.
"""

from __future__ import annotations

import enum
from collections import deque, namedtuple
from collections.abc import Callable, Iterator, Sequence
from fractions import Fraction

from . import _EXPORTS
from .algebra import ONE, Q, QPoly, Rat, _common_denominator, _from_parts, as_fraction

__all__ = list(_EXPORTS["families"])


class Family(enum.Enum):
    TYPE_A_SHIFTED = "TypeA_shifted"
    TYPE_A = "TypeA"
    TYPE_A_QT = "TypeA_qt"
    TYPE_B = "TypeB"
    TYPE_B_QT = "TypeB_qt"
    GENERAL = "General"


#: The fixed ceilings of the exhaustive walks: 8! and 2^7 * 7! group elements.
DESCENT_CAP = 8
SIGNED_CAP = 7

#: The one place a family is declared: its parameters in print order, its
#: (a, b, d) as a function of them, and its group walk or None.  A walk is
#: its cap and its row n aligned to the EGF, as a function of the ``walks``
#: module, n and the parameters.
_FAMILIES: dict[Family, tuple[tuple[str, ...], Callable, tuple[int, Callable] | None]] = {
    Family.TYPE_A_SHIFTED: (  # descent polynomials of S_n
        (), lambda: (1, 1, 1), (DESCENT_CAP, lambda w, n: w.descent_polynomial(n))
    ),
    Family.TYPE_A: (  # q * descent polynomial (n >= 1)
        (), lambda: (0, 1, 1), (DESCENT_CAP, lambda w, n: Q * w.descent_polynomial(n))
    ),
    Family.TYPE_A_QT: (  # excedances marked by q, cycles by t
        ("t",),
        lambda t: (1, t, 1),
        (DESCENT_CAP, lambda w, n, t: w.excedance_cycle_polynomial(n, t)),
    ),
    Family.TYPE_B: (  # descent polynomials of signed permutations
        (), lambda: (1, 1, 2), (SIGNED_CAP, lambda w, n: w.signed_descent_polynomial(n, 1))
    ),
    Family.TYPE_B_QT: (  # signed descents, negatives marked by t
        ("t",),
        lambda t: (1, 1, 1 + t),
        (SIGNED_CAP, lambda w, n, t: w.signed_descent_polynomial(n, t)),
    ),
    Family.GENERAL: (("a", "d"), lambda a, d: (a, 1, d), None),  # the (a, d) Eulerian triangle
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


def _weight_forms(a: Rat | str, b: Rat | str, d: Rat | str) -> tuple[int, int, int, int]:
    """The J-fraction weights of (a, b, d) on integers, (den, step, s0, s1) with den > 0:
    s_i = (di + ab) + (di + bd - ab) q = ((step i + s0) + (step i + s1) q) / den, and as
    step = d den and s0 + s1 = bd den, t_{i+1} = d^2 (i + 1)(i + b) q
    = (i + 1) step (step i + s0 + s1) q / den^2.
    """
    fa, fb, fd = (as_fraction(v) for v in (a, b, d))
    den, (step, s0, s1) = _common_denominator((fd, fa * fb, fb * fd - fa * fb))
    return den, step, s0, s1


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
    common denominator D, and row n is made once, as its numerators over D^n.
    It is a copy: the next row is built from the one yielded, and the
    canonical form drops trailing zeros (type A's top entry).
    """
    fa, fb, fd = (as_fraction(v) for v in (a, b, d))
    den, nums = _common_denominator((fa * fb, fb * fd, fd))
    rows = zip(range(count), eulerian_rows(*nums, count - 1))
    return [_from_parts(list(row), den**n) for n, row in rows]


def enumeration_polynomial(spec: FamilySpec, count: int) -> list[QPoly]:
    """The combinatorial route: T_0 .. T_{count-1}, aligned to the EGF normalization.

    T_0 = 1 (the empty group), and row n >= 1 is the family's walk in
    ``_FAMILIES``.  General has no walk: its rows are the recurrence's.
    The rows are walked from the largest n down, so the walk's own cap
    refuses a table past it, naming that n, before any group is walked.
    """
    walk = _FAMILIES[spec.family][2]
    if walk is None:
        return recurrence_polynomial(spec.a, 1, spec.d, count)
    from . import walks

    _, row = walk
    params = spec.params.values()
    rows = [row(walks, n, *params) for n in range(count - 1, 0, -1)]
    return [ONE, *reversed(rows)][:count]


def _egf_rows(spec: FamilySpec, count: int) -> list[QPoly]:
    from . import series

    return series.egf_polynomials(*family_egf_params(spec), count)


def _cfrac_rows(spec: FamilySpec, count: int) -> tuple[QPoly, ...]:
    from . import jacobi

    # count moments read the weights up to height (count - 1) // 2 only
    jf = jacobi.jfraction_from_params(*family_egf_params(spec), (count + 1) // 2)
    return jacobi.moments_by_cfrac_expansion(jf, count)


#: Every route, in ``--route`` order: rows 0 .. count-1 of a family.  The
#: egf and cfrac routes import their modules only when they run.
_ROUTES: dict[str, Callable[[FamilySpec, int], Sequence[QPoly]]] = {
    "egf": _egf_rows,
    "cfrac": _cfrac_rows,
    "enum": enumeration_polynomial,
    "recurrence": lambda spec, count: recurrence_polynomial(*family_egf_params(spec), count),
}
