"""Exponential Riordan arrays and their production matrices.

An exponential Riordan array is a pair of series ``(g, f)`` with
``g(0) != 0``, ``f(0) = 0``, ``f'(0) != 0``; its matrix has entries

    l[n][k] = (n!/k!) * [x^n] g(x) f(x)^k,

lower triangular with invertible diagonal.  The production matrix ``P``
is defined by the row-shift identity ``Lbar = L P`` (``Lbar`` is ``L``
without its top row).  ``production_matrix_direct`` solves that system
by one forward substitution, without forming ``L^{-1}``;
``lower_tri_inverse`` is the same solve against the identity.  P can
also be computed without ever forming ``L`` from the two series

    r(x) = f'(fbar(x)),    c(x) = g'(fbar(x)) / g(fbar(x)),

where ``fbar`` is the compositional inverse of ``f``, via

    p[i][j] = (i!/j!) * (c[i-j] + j * r[i-j+1]),   c[-1] = 0.

Having both routes match, entry by entry, is one of the package's core
cross-checks: a tridiagonal production matrix hands back exactly the
Jacobi continued-fraction weights of the array's first column.

A matrix here is a tuple of rows, each a tuple of ``QPoly``:
``riordan_matrix`` and ``lower_tri_inverse`` return one, and
``lower_tri_inverse`` and ``production_matrix_direct`` take any square
lower-triangular rows.  ``ProductionData`` holds the rows of P and reads
``tridiagonal`` and the bands from them.

Every entry and series coefficient is a ``QPoly`` in Q[q], and each
division is exact or refused.  For the (a, b, d) family the divisor of
f is d (1 - q e^{d(1-q)x}), a unit up to the factor (1 - q) that every
numerator carries, and the diagonal of L is g_0 f_1^k = 1, so g, f,
fbar, c, r and L all have polynomial coefficients.  ``cli`` writes
P as JSON; this module has no serialization.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import factorial

from . import _EXPORTS
from .algebra import ONE, Q, ZERO, QPoly, Rat, as_fraction, as_qpoly, poly_dot
from .series import TruncSeries, _egf_series_and_exp_d, compose_all

__all__ = list(_EXPORTS["riordan"])


class ExpRiordan(namedtuple("ExpRiordan", "g f")):
    """The pair (g, f) defining an exponential Riordan array."""

    __slots__ = ()

    def __new__(cls, g: TruncSeries, f: TruncSeries) -> ExpRiordan:
        if g.order != f.order:
            raise ValueError("g and f must share a truncation order")
        if g.coeffs[0].is_zero:
            raise ValueError("g(0) must be invertible")
        if not f.coeffs[0].is_zero:
            raise ValueError("f(0) must be 0")
        if f.order < 2:
            raise ValueError(f"order {f.order} holds no linear term of f; order must be >= 2")
        if f.coeffs[1].is_zero:
            raise ValueError("f'(0) must be invertible")
        return super().__new__(cls, g, f)

    @property
    def order(self) -> int:
        return self.g.order


class ProductionData(namedtuple("ProductionData", "entries")):
    """A production matrix window: the rows ``entries[0..nrows-1]`` of P.

    ``tridiagonal`` holds when every entry the window can see off the
    three central diagonals is zero and the superdiagonal is 1; the
    diagonal then carries ``s_i`` and the subdiagonal ``t_i``.
    """

    __slots__ = ()

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def tridiagonal(self) -> bool:
        return all(
            (e == ONE) if j == i + 1 else (abs(i - j) <= 1 or e.is_zero)
            for i, row in enumerate(self.entries)
            for j, e in enumerate(row)
        )

    def s_values(self, count: int) -> list[QPoly]:
        """Diagonal entries s_0 .. s_{count-1}."""
        if count > self.nrows:
            raise ValueError(f"window holds only {self.nrows} diagonal entries")
        return [self.entries[i][i] for i in range(count)]

    def t_values(self, count: int) -> list[QPoly]:
        """Subdiagonal entries t_1 .. t_count."""
        if count > self.nrows - 1:
            raise ValueError(f"window holds only {self.nrows - 1} subdiagonal entries")
        return [self.entries[i][i - 1] for i in range(1, count + 1)]


def exp_riordan_from_params(a: Rat | str, b: Rat | str, d: Rat | str, order: int) -> ExpRiordan:
    """The array [g, f] whose first column EGF is the (a, b, d) family.

    f = (e^{d(1-q)x} - 1) / (d (1 - q e^{d(1-q)x})); d = 0 would collapse
    the kernel, so it is rejected.  The divisor's constant term is
    d (1 - q), and each numerator coefficient carries the factor (1 - q),
    so the division is exact in Q[q].
    """
    fd = as_fraction(d)
    if fd == 0:
        raise ValueError("d must be nonzero")
    g, exp_d = _egf_series_and_exp_d(a, b, d, order)
    f = (exp_d - 1) / ((1 - exp_d * Q) * fd)
    return ExpRiordan(g, f)


def riordan_matrix(arr: ExpRiordan) -> tuple[tuple[QPoly, ...], ...]:
    """The rows of l[n][k] = (n!/k!) [x^n] g f^k for n, k < order."""
    n = arr.order
    cols = []
    col = arr.g
    for k in range(n):
        cols.append(
            [ZERO] * k
            + [col.coeffs[i] * Fraction(factorial(i), factorial(k)) for i in range(k, n)]
        )
        if k + 1 < n:
            col = col * arr.f
    return tuple(zip(*cols))


def _solve_lower(mat, rhs) -> tuple[tuple[QPoly, ...], ...]:
    """The rows of X with mat X = rhs, by forward substitution over Q[q].

    ``mat`` must be a nonempty list of square lower-triangular rows; its
    entries, and those of ``rhs``, pass through ``as_qpoly``.  ``rhs``
    may hold fewer rows than ``mat``; row i of X needs only rows 0 .. i
    of ``mat``.  Every diagonal entry of ``mat`` is checked first, all of
    them, and must be a unit of Q[q], a nonzero rational, so that each
    step divides exactly by a scalar; any other matrix is refused with
    ``ValueError``.
    """
    rows: list[tuple[QPoly, ...]] = []
    for i, row in enumerate(mat):
        if len(row) != len(mat):
            raise ValueError("matrix must be square")
        rows.append(tuple(map(as_qpoly, row)))
        if any(not e.is_zero for e in rows[i][i + 1 :]):
            raise ValueError(f"row {i} has nonzero entries above the diagonal")
    if not rows:
        raise ValueError("empty matrix")
    diag: list[Fraction] = []
    for i, row in enumerate(rows):
        e = row[i]
        if e.is_zero:
            raise ValueError(f"diagonal entry {i} is zero; matrix not invertible")
        if e.degree != 0:
            raise ValueError(f"diagonal entry {i} is {e}, not a unit of Q[q]")
        diag.append(e.constant)
    out: list[tuple[QPoly, ...]] = []
    for i, row in enumerate(rhs):
        left = rows[i][:i]
        out.append(
            tuple(
                (as_qpoly(b) - poly_dot(left, [x[j] for x in out])) / diag[i]
                for j, b in enumerate(row)
            )
        )
    return tuple(out)


def lower_tri_inverse(mat) -> tuple[tuple[QPoly, ...], ...]:
    """The rows of mat^{-1} by forward substitution over Q[q]: mat X = I.

    ``mat`` is any square lower-triangular list of rows, and each
    diagonal entry must be a unit of Q[q], a nonzero rational; any other
    matrix is refused with ``ValueError``.
    """
    n = len(mat)
    return _solve_lower(mat, [[ONE if i == j else ZERO for j in range(n)] for i in range(n)])


def production_series(arr: ExpRiordan) -> tuple[TruncSeries, TruncSeries]:
    """The series c = g'(fbar)/g(fbar) and r = f'(fbar), one order short.

    The three substitutions into fbar share its powers.
    """
    n = arr.order
    if n < 3:
        raise ValueError("need order >= 3 to extract production series")
    fbar = arr.f.reversion().truncate(n - 1)
    r, dg, g = compose_all(
        [arr.f.derivative(), arr.g.derivative(), arr.g.truncate(n - 1)], fbar
    )
    return dg / g, r


def production_matrix_from_series(c: TruncSeries, r: TruncSeries) -> ProductionData:
    """Assemble p[i][j] = (i!/j!)(c[i-j] + j r[i-j+1]) on the valid window.

    With c and r known to index M-1, row i needs r[i+1], so rows
    0 .. M-2 and columns 0 .. M-1 are available.
    """
    if c.order != r.order:
        raise ValueError("c and r must share a truncation order")
    if c.order < 2:
        raise ValueError("need at least two known coefficients")

    def entry(i: int, j: int) -> QPoly:
        if j > i + 1:
            return ZERO
        term = c.coeffs[i - j] if j <= i else ZERO
        if j:
            term = term + j * r.coeffs[i - j + 1]
        return term * Fraction(factorial(i), factorial(j))

    m = c.order
    return ProductionData(tuple(tuple(entry(i, j) for j in range(m)) for i in range(m - 1)))


def production_matrix_direct(mat) -> ProductionData:
    """P from L P = Lbar, solved from the rows of L alone.

    Lbar drops the top row of L, so with L of size N one forward
    substitution gives P on rows 0 .. N-2 and all N columns, without
    forming L^{-1}.  P is lower Hessenberg, so with zero factors skipped
    the solve costs about N^2 entry products for a tridiagonal P.
    ``mat`` is refused as in ``lower_tri_inverse``, and so is a 1x1 one.
    """
    entries = _solve_lower(mat, mat[1:])
    if not entries:
        raise ValueError("need at least a 2x2 window")
    return ProductionData(entries)
