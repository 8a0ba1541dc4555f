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

Every entry and series coefficient is a ``QPoly`` in Q[q], and each
division is exact or refused.  For the (a, b, d) family the divisor of
f is d (1 - q e^{d(1-q)x}), a unit up to the factor (1 - q) that every
numerator carries, and the diagonal of L is g_0 f_1^k = 1, so g, f,
fbar, c, r and L all have polynomial coefficients.  JSON keeps the
``{"num": ..., "den": ["1"]}`` form of an entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import ONE, Q, ZERO, QPoly, Rat, as_fraction, as_qpoly, poly_dot
from .series import TruncSeries, _egf_series_and_exp_d, compose_all

__all__ = [
    "ExpRiordan",
    "LowerTri",
    "ProductionData",
    "exp_riordan_from_params",
    "riordan_matrix",
    "lower_tri_inverse",
    "production_series",
    "production_matrix_from_series",
    "production_matrix_direct",
]


@dataclass(frozen=True)
class ExpRiordan:
    """The pair (g, f) defining an exponential Riordan array."""

    g: TruncSeries
    f: TruncSeries

    def __post_init__(self) -> None:
        if self.g.order != self.f.order:
            raise ValueError("g and f must share a truncation order")
        if self.g.coeffs[0].is_zero:
            raise ValueError("g(0) must be invertible")
        if not self.f.coeffs[0].is_zero:
            raise ValueError("f(0) must be 0")
        if self.f.order < 2 or self.f.coeffs[1].is_zero:
            raise ValueError("f'(0) must be invertible")

    @property
    def order(self) -> int:
        return self.g.order


def _entry_json(entry: QPoly) -> dict[str, list[str]]:
    return {"num": entry.to_json(), "den": ["1"]}


class LowerTri:
    """Square lower-triangular matrix with entries in Q[q]."""

    __slots__ = ("rows",)

    rows: tuple[tuple[QPoly, ...], ...]

    def __init__(self, rows):
        norm: list[tuple[QPoly, ...]] = []
        size = len(rows)
        for i, row in enumerate(rows):
            if len(row) != size:
                raise ValueError("matrix must be square")
            entries = tuple(as_qpoly(e) for e in row)
            if any(not e.is_zero for e in entries[i + 1 :]):
                raise ValueError(f"row {i} has nonzero entries above the diagonal")
            norm.append(entries)
        if not norm:
            raise ValueError("empty matrix")
        object.__setattr__(self, "rows", tuple(norm))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("LowerTri is immutable")

    @property
    def size(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> QPoly:
        return self.rows[i][j]

    @classmethod
    def identity(cls, size: int) -> "LowerTri":
        return cls([[ONE if i == j else ZERO for j in range(size)] for i in range(size)])

    def __matmul__(self, other: "LowerTri") -> "LowerTri":
        if self.size != other.size:
            raise ValueError("size mismatch")
        columns = list(zip(*other.rows))
        return LowerTri([[poly_dot(row, col) for col in columns] for row in self.rows])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LowerTri):
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("LowerTri", self.rows))

    def to_json(self) -> list[list[dict]]:
        return [[_entry_json(e) for e in row] for row in self.rows]

    def __repr__(self) -> str:
        return f"LowerTri(size={self.size})"


@dataclass(frozen=True)
class ProductionData:
    """A production matrix window and whether it is tridiagonal.

    ``entries[i][j]`` covers rows ``0..nrows-1`` and columns
    ``0..ncols-1``; everything the window can see beyond column ``i+1``
    must be zero for ``tridiagonal`` to be set, and then the diagonal
    carries ``s_i`` and the subdiagonal ``t_i`` with a unit
    superdiagonal.
    """

    entries: tuple[tuple[QPoly, ...], ...]
    tridiagonal: bool

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0])

    def entry(self, i: int, j: int) -> QPoly:
        return self.entries[i][j]

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

    def to_json(self) -> dict:
        return {
            "entries": [[_entry_json(e) for e in row] for row in self.entries],
            "tridiagonal": self.tridiagonal,
        }


def _tridiagonal(entries: list[list[QPoly]]) -> bool:
    for i, row in enumerate(entries):
        for j, e in enumerate(row):
            if j == i + 1:
                if e != ONE:
                    return False
            elif (j > i + 1 or j < i - 1) and not e.is_zero:
                return False
    return True


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


def riordan_matrix(arr: ExpRiordan) -> LowerTri:
    """Materialize l[n][k] = (n!/k!) [x^n] g f^k for n, k < order."""
    n = arr.order
    fact = [1] * n
    for i in range(1, n):
        fact[i] = fact[i - 1] * i
    rows = [[ZERO] * n for _ in range(n)]
    col = arr.g
    for k in range(n):
        for i in range(k, n):
            scale = Fraction(fact[i], fact[k])
            rows[i][k] = col.coeffs[i] * scale
        if k + 1 < n:
            col = col * arr.f
    return LowerTri(rows)


def _solve_lower(mat: LowerTri, rhs) -> list[list[QPoly]]:
    """The rows of X with mat X = rhs, by forward substitution over Q[q].

    ``rhs`` may hold fewer rows than ``mat``; row i of X needs only rows
    0 .. i of ``mat``.  Every diagonal entry of ``mat`` is checked first,
    all of them, and must be a unit of Q[q], a nonzero rational, so that
    each step divides exactly by a scalar; any other diagonal is refused
    with ``ValueError``.
    """
    diag: list[Fraction] = []
    for i, row in enumerate(mat.rows):
        e = row[i]
        if e.is_zero:
            raise ValueError(f"diagonal entry {i} is zero; matrix not invertible")
        if e.degree != 0:
            raise ValueError(f"diagonal entry {i} is {e}, not a unit of Q[q]")
        diag.append(e.constant)
    out: list[list[QPoly]] = []
    for i, row in enumerate(rhs):
        left = mat.rows[i][:i]
        out.append(
            [(b - poly_dot(left, [x[j] for x in out])) / diag[i] for j, b in enumerate(row)]
        )
    return out


def lower_tri_inverse(mat: LowerTri) -> LowerTri:
    """Inverse by forward substitution over Q[q]: the X with mat X = I.

    Each diagonal entry must be a unit of Q[q], a nonzero rational; any
    other diagonal is refused with ``ValueError``.
    """
    return LowerTri(_solve_lower(mat, LowerTri.identity(mat.size).rows))


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
    0 .. M-2 are available.
    """
    if c.order != r.order:
        raise ValueError("c and r must share a truncation order")
    m = c.order
    if m < 2:
        raise ValueError("need at least two known coefficients")
    nrows = m - 1
    ncols = nrows + 1
    fact = [1] * (ncols + 1)
    for i in range(1, ncols + 1):
        fact[i] = fact[i - 1] * i
    entries: list[list[QPoly]] = []
    for i in range(nrows):
        row = []
        for j in range(ncols):
            if j > i + 1:
                row.append(ZERO)
                continue
            diff = i - j
            term = c.coeffs[diff] if diff >= 0 else ZERO
            if j:
                term = term + j * r.coeffs[diff + 1]
            row.append(term * Fraction(fact[i], fact[j]))
        entries.append(row)
    return ProductionData(
        entries=tuple(tuple(row) for row in entries),
        tridiagonal=_tridiagonal(entries),
    )


def production_matrix_direct(mat: LowerTri) -> ProductionData:
    """P from L P = Lbar, solved from the matrix alone.

    Lbar drops the top row of L, so with L of size N one forward
    substitution gives P on rows 0 .. N-2 and all N columns, without
    forming L^{-1}.  P is lower Hessenberg, so with zero factors skipped
    the solve costs about N^2 entry products for a tridiagonal P.
    """
    n = mat.size
    if n < 2:
        raise ValueError("need at least a 2x2 window")
    entries = _solve_lower(mat, mat.rows[1:])
    return ProductionData(
        entries=tuple(tuple(row) for row in entries),
        tridiagonal=_tridiagonal(entries),
    )
