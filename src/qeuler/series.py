"""Truncated formal power series in x with coefficients in Q[q].

A ``TruncSeries`` of order ``N`` stores the coefficients of
``x^0 .. x^{N-1}`` as ``QPoly`` values (polynomials in ``q`` with
rational coefficients) and claims nothing about higher terms.  All
operations are exact; results of binary operations require matching
orders so that truncation windows are never silently mixed.

There is one series division, ``num / den``.  It solves h * den = num
one x-coefficient at a time by an exact polynomial division by den's
constant term, so each division is exact or refused: a quotient
outside Q[q] raises ``ValueError`` naming the x-power and the
quotient.  No rational functions of q are ever formed.

The module also exposes the family of exponential generating functions

    g(x) = ( (1-q) * e^{a(1-q)x} / (1 - q e^{d(1-q)x}) )^b

whose Taylor coefficients, scaled by n!, are the q-Eulerian polynomials
that the rest of the package cross-checks by independent routes.  The
divisor 1 - q e^{d(1-q)x} has x-constant term 1 - q, and every other
x-coefficient of the numerator and divisor carries the factor (1 - q),
so each quotient the expansion needs lies in Q[q].
"""

from __future__ import annotations

from . import _EXPORTS
from .algebra import ONE, Q, ZERO, QPoly, Rat, as_fraction, as_qpoly, poly_divmod, poly_dot

__all__ = list(_EXPORTS["series"])


class TruncSeries:
    """Power series in ``x`` truncated to a fixed number of known terms."""

    __slots__ = ("order", "coeffs")

    order: int
    coeffs: tuple[QPoly, ...]

    def __init__(self, order: int, coeffs=()):
        if order < 1:
            raise ValueError("a truncated series needs at least the constant term")
        cs = [as_qpoly(c) for c in coeffs]
        if len(cs) > order:
            raise ValueError(f"{len(cs)} coefficients exceed order {order}")
        cs.extend([ZERO] * (order - len(cs)))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("TruncSeries is immutable")

    @classmethod
    def constant(cls, order: int, value) -> "TruncSeries":
        return cls(order, [value])

    @classmethod
    def x(cls, order: int) -> "TruncSeries":
        """The identity series ``x`` (truncated, so order 1 gives 0)."""
        return cls(order, [ZERO, ONE] if order >= 2 else [ZERO])

    # -- queries ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TruncSeries):
            return self.order == other.order and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("TruncSeries", self.order, self.coeffs))

    def _same_order(self, other: "TruncSeries") -> None:
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")

    # -- linear structure ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, TruncSeries):
            self._same_order(other)
            return TruncSeries(self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])
        return self + TruncSeries.constant(self.order, other)

    __radd__ = __add__

    def __neg__(self) -> "TruncSeries":
        return TruncSeries(self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, TruncSeries) else -as_qpoly(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TruncSeries):
            s = as_qpoly(other)
            return TruncSeries(self.order, [c * s for c in self.coeffs])
        self._same_order(other)
        a, b = self.coeffs, other.coeffs
        return TruncSeries(self.order, [poly_dot(a, b[m::-1]) for m in range(self.order)])

    __rmul__ = __mul__

    # -- multiplicative and compositional structure ---------------------------

    def __truediv__(self, other):
        """The series h with h * other = self, exact in Q[q] or refused.

        With other = den, h_m = (self_m - sum_{k=1..m} den_k h_{m-k}) / den_0,
        and each of these divisions by den's constant term must leave no
        remainder; the first that does raises ``ValueError`` naming its
        x-power and quotient.
        """
        if not isinstance(other, TruncSeries):
            other = TruncSeries.constant(self.order, other)
        self._same_order(other)
        lead, *rest = other.coeffs
        if lead.is_zero:
            raise ValueError("series division needs a divisor with nonzero constant term")
        out: list[QPoly] = []
        for m, c in enumerate(self.coeffs):
            acc = c - poly_dot(rest, reversed(out))
            quot, rem = poly_divmod(acc, lead)
            if not rem.is_zero:
                raise ValueError(
                    f"series division is not exact in Q[q] at x^{m}: ({acc}) / ({lead})"
                )
            out.append(quot)
        return TruncSeries(self.order, out)

    def __rtruediv__(self, other):
        return TruncSeries.constant(self.order, other) / self

    def inverse(self) -> "TruncSeries":
        """Multiplicative inverse ``1 / self``, exact in Q[q] or refused."""
        return 1 / self

    def exp(self) -> "TruncSeries":
        """Exponential; requires constant term 0.

        Uses the derivative identity F' = f'F, i.e.
        ``m F_m = sum_{k=1..m} k f_k F_{m-k}``.
        """
        a = self.coeffs
        if not a[0].is_zero:
            raise ValueError("exp of a series requires constant term 0")
        da = [k * a[k] for k in range(1, self.order)]
        out = [ONE]
        for m in range(1, self.order):
            out.append(poly_dot(da, reversed(out)) / m)
        return TruncSeries(self.order, out)

    def log(self) -> "TruncSeries":
        """Logarithm; requires constant term 1.

        Solved from f = exp(L):
        ``L_m = f_m - (1/m) sum_{k=1..m-1} k L_k f_{m-k}``.
        """
        a = self.coeffs
        if a[0] != ONE:
            raise ValueError("log of a series requires constant term 1")
        out = [ZERO]
        dout: list[QPoly] = []  # k L_k for k = 1 .. m-1
        for m in range(1, self.order):
            out.append(a[m] - poly_dot(dout, a[m - 1 : 0 : -1]) / m)
            dout.append(m * out[m])
        return TruncSeries(self.order, out)

    def pow(self, exponent: Rat | str) -> "TruncSeries":
        """Raise a series with constant term 1 to a rational power.

        Defined as exp(exponent * log(self)); for integer exponents this
        agrees with repeated multiplication.
        """
        e = as_fraction(exponent)
        if self.coeffs[0] != ONE:
            raise ValueError("pow requires constant term 1")
        if e == 0:
            return TruncSeries.constant(self.order, ONE)
        if e == 1:
            return self
        return (self.log() * e).exp()

    def compose(self, inner: "TruncSeries") -> "TruncSeries":
        """Substitute ``inner`` (constant term 0) for ``x``."""
        return compose_all([self], inner)[0]

    def derivative(self) -> "TruncSeries":
        """Formal d/dx; the result's order drops by one."""
        if self.order < 2:
            raise ValueError("cannot differentiate below order 2")
        return TruncSeries(self.order - 1, [k * self.coeffs[k] for k in range(1, self.order)])

    def truncate(self, order: int) -> "TruncSeries":
        if not 1 <= order <= self.order:
            raise ValueError(f"cannot truncate order {self.order} to {order}")
        return TruncSeries(order, self.coeffs[:order])

    def reversion(self) -> "TruncSeries":
        """Compositional inverse h with self(h(x)) = x.

        Requires constant term 0 and a linear term that is a unit of
        Q[q], i.e. a nonzero rational; a linear term such as ``q`` has no
        reversion with coefficients in Q[q].  By Lagrange inversion, with
        phi = x / self(x),

            [x^k] h = (1/k) [x^{k-1}] phi^k,

        so one series division and the powers of phi give every
        coefficient, with no composition.  The result is then checked
        exactly against self(h) = x.
        """
        n = self.order
        if n < 2:
            raise ValueError("reversion needs at least the linear term")
        if not self.coeffs[0].is_zero:
            raise ValueError("reversion requires constant term 0")
        if self.coeffs[1].degree != 0:
            raise ValueError("reversion requires a nonzero rational linear term")
        # x^{k-1} with k <= n-1 is the highest coefficient read, so phi
        # and its powers are needed one order short
        phi = 1 / TruncSeries(n - 1, self.coeffs[1:])
        out = [ZERO]
        power = phi
        for k in range(1, n):
            out.append(power.coeffs[k - 1] / k)
            if k + 1 < n:
                power = power * phi
        h = TruncSeries(n, out)
        if self.compose(h) != TruncSeries.x(n):
            raise ArithmeticError("series reversion failed its exact check")
        return h

    def __repr__(self) -> str:
        inner = ", ".join(str(c) for c in self.coeffs)
        return f"TruncSeries(order={self.order}, [{inner}])"


def compose_all(outers: list[TruncSeries], inner: TruncSeries) -> list[TruncSeries]:
    """Substitute ``inner`` (constant term 0) for ``x`` in each outer series.

    The powers of ``inner`` are built once and shared.  inner^k vanishes
    below x^k, so building them takes about a third of the coefficient
    products of one Horner pass, and each further outer series only adds
    scalar multiples of them.
    """
    n = inner.order
    for outer in outers:
        outer._same_order(inner)
    if not inner.coeffs[0].is_zero:
        raise ValueError("composition requires the inner series to vanish at 0")
    powers = [TruncSeries.constant(n, ONE)]
    for _ in range(1, n):
        powers.append(powers[-1] * inner)
    # column i holds [x^i] inner^k for k = 0 .. n-1
    columns = list(zip(*(power.coeffs for power in powers)))
    return [TruncSeries(n, [poly_dot(outer.coeffs, col) for col in columns]) for outer in outers]


def egf_series(a: Rat | str, b: Rat | str, d: Rat | str, order: int) -> TruncSeries:
    """The generating series ((1-q) e^{a(1-q)x} / (1 - q e^{d(1-q)x}))^b."""
    fa, fb, fd = as_fraction(a), as_fraction(b), as_fraction(d)
    one_minus_q = QPoly(1, -1)
    x = TruncSeries.x(order)
    exp_d = (x * (fd * one_minus_q)).exp()
    exp_a = exp_d if fa == fd else (x * (fa * one_minus_q)).exp()
    base = (exp_a * one_minus_q) / (1 - exp_d * Q)
    return base.pow(fb)


def egf_polynomials(a: Rat | str, b: Rat | str, d: Rat | str, count: int) -> list[QPoly]:
    """The polynomials T_n(q) = n! [x^n] g(x) for n = 0 .. count-1.

    The series division behind g is exact in Q[q] or refused, so the
    scaled coefficients are polynomials by construction.
    """
    out: list[QPoly] = []
    factorial = 1
    for n, coeff in enumerate(egf_series(a, b, d, count).coeffs):
        if n:
            factorial *= n
        out.append(coeff * factorial)
    return out
