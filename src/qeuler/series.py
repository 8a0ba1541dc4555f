"""Truncated formal power series with exact rational-function coefficients.

A ``TruncSeries`` of order ``N`` stores the coefficients of
``x^0 .. x^{N-1}`` as ``QRatFun`` values (rational functions in ``q``) and
claims nothing about higher terms.  All operations are exact; results of
binary operations require matching orders so that truncation windows are
never silently mixed.

The module also exposes the family of exponential generating functions

    g(x) = ( (1-q) * e^{a(1-q)x} / (1 - q e^{d(1-q)x}) )^b

whose Taylor coefficients, scaled by n!, are the q-Eulerian polynomials
that the rest of the package cross-checks by independent routes.
"""

from __future__ import annotations

from .algebra import (
    QPoly,
    QRatFun,
    Rat,
    RF_ONE,
    RF_ZERO,
    as_fraction,
)

__all__ = ["TruncSeries", "compose_all", "egf_series", "egf_polynomials"]


def _coerce_rf(value) -> QRatFun:
    if isinstance(value, QRatFun):
        return value
    if isinstance(value, QPoly):
        return QRatFun(value)
    return QRatFun(QPoly(as_fraction(value)))


class TruncSeries:
    """Power series in ``x`` truncated to a fixed number of known terms."""

    __slots__ = ("order", "coeffs")

    order: int
    coeffs: tuple[QRatFun, ...]

    def __init__(self, order: int, coeffs=()):
        if order < 1:
            raise ValueError("a truncated series needs at least the constant term")
        cs = [_coerce_rf(c) for c in coeffs]
        if len(cs) > order:
            raise ValueError(f"{len(cs)} coefficients exceed order {order}")
        cs.extend([RF_ZERO] * (order - len(cs)))
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
        return cls(order, [RF_ZERO, RF_ONE] if order >= 2 else [RF_ZERO])

    # -- queries ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coeffs)

    def coefficient(self, n: int) -> QRatFun:
        if not 0 <= n < self.order:
            raise IndexError(f"coefficient {n} outside truncation window {self.order}")
        return self.coeffs[n]

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
        return self + TruncSeries.constant(self.order, _coerce_rf(other))

    __radd__ = __add__

    def __neg__(self) -> "TruncSeries":
        return TruncSeries(self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, TruncSeries) else -_coerce_rf(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TruncSeries):
            s = _coerce_rf(other)
            return TruncSeries(self.order, [c * s for c in self.coeffs])
        self._same_order(other)
        n = self.order
        out = [RF_ZERO] * n
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            for j in range(n - i):
                b = other.coeffs[j]
                if not b.is_zero:
                    out[i + j] = out[i + j] + a * b
        return TruncSeries(n, out)

    __rmul__ = __mul__

    # -- multiplicative and compositional structure ---------------------------

    def inverse(self) -> "TruncSeries":
        """Multiplicative inverse; requires an invertible constant term."""
        a = self.coeffs
        if a[0].is_zero:
            raise ValueError("series with zero constant term has no multiplicative inverse")
        inv0 = a[0].reciprocal()
        out = [inv0]
        for m in range(1, self.order):
            acc = RF_ZERO
            for k in range(1, m + 1):
                if not a[k].is_zero and not out[m - k].is_zero:
                    acc = acc + a[k] * out[m - k]
            out.append(-(acc * inv0) if not acc.is_zero else RF_ZERO)
        return TruncSeries(self.order, out)

    def exp(self) -> "TruncSeries":
        """Exponential; requires constant term 0.

        Uses the derivative identity F' = f'F, i.e.
        ``m F_m = sum_{k=1..m} k f_k F_{m-k}``.
        """
        a = self.coeffs
        if not a[0].is_zero:
            raise ValueError("exp of a series requires constant term 0")
        out = [RF_ONE]
        for m in range(1, self.order):
            acc = RF_ZERO
            for k in range(1, m + 1):
                if not a[k].is_zero and not out[m - k].is_zero:
                    acc = acc + (k * a[k]) * out[m - k]
            out.append(acc / m)
        return TruncSeries(self.order, out)

    def log(self) -> "TruncSeries":
        """Logarithm; requires constant term 1.

        Solved from f = exp(L):
        ``L_m = f_m - (1/m) sum_{k=1..m-1} k L_k f_{m-k}``.
        """
        a = self.coeffs
        if a[0] != RF_ONE:
            raise ValueError("log of a series requires constant term 1")
        out = [RF_ZERO]
        for m in range(1, self.order):
            acc = RF_ZERO
            for k in range(1, m):
                if not out[k].is_zero and not a[m - k].is_zero:
                    acc = acc + (k * out[k]) * a[m - k]
            out.append(a[m] - acc / m)
        return TruncSeries(self.order, out)

    def pow(self, exponent: Rat | str) -> "TruncSeries":
        """Raise a series with constant term 1 to a rational power.

        Defined as exp(exponent * log(self)); for integer exponents this
        agrees with repeated multiplication.
        """
        e = as_fraction(exponent)
        if self.coeffs[0] != RF_ONE:
            raise ValueError("pow requires constant term 1")
        if e == 0:
            return TruncSeries.constant(self.order, RF_ONE)
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

        Requires constant term 0 and an invertible linear term.  By
        Lagrange inversion, with phi = x / self(x),

            [x^k] h = (1/k) [x^{k-1}] phi^k,

        so one series inverse and the powers of phi give every
        coefficient, with no composition.  The result is then checked
        exactly against self(h) = x.
        """
        n = self.order
        if n < 2:
            raise ValueError("reversion needs at least the linear term")
        if not self.coeffs[0].is_zero:
            raise ValueError("reversion requires constant term 0")
        if self.coeffs[1].is_zero:
            raise ValueError("reversion requires an invertible linear term")
        # x^{k-1} with k <= n-1 is the highest coefficient read, so phi
        # and its powers are needed one order short
        phi = TruncSeries(n - 1, self.coeffs[1:]).inverse()
        out = [RF_ZERO]
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
    powers = [TruncSeries.constant(n, RF_ONE)]
    for _ in range(1, n):
        powers.append(powers[-1] * inner)
    results = []
    for outer in outers:
        out = [RF_ZERO] * n
        for k, (a, power) in enumerate(zip(outer.coeffs, powers)):
            if a.is_zero:
                continue
            for i in range(k, n):
                b = power.coeffs[i]
                if not b.is_zero:
                    out[i] = out[i] + a * b
        results.append(TruncSeries(n, out))
    return results


def egf_series(a: Rat | str, b: Rat | str, d: Rat | str, order: int) -> TruncSeries:
    """The generating series ((1-q) e^{a(1-q)x} / (1 - q e^{d(1-q)x}))^b."""
    return _egf_series_and_exp_d(a, b, d, order)[0]


def _egf_series_and_exp_d(
    a: Rat | str, b: Rat | str, d: Rat | str, order: int
) -> tuple[TruncSeries, TruncSeries]:
    """``egf_series(a, b, d, order)`` and the e^{d(1-q)x} it is built from.

    The Riordan array's f is built from the same exponential, so it
    takes it from here rather than expanding it a second time.
    """
    fa, fb, fd = as_fraction(a), as_fraction(b), as_fraction(d)
    one_minus_q = QRatFun(QPoly(1, -1))
    q = QRatFun(QPoly(0, 1))
    x = TruncSeries.x(order)
    exp_d = (x * (fd * one_minus_q)).exp()
    denom = -(exp_d * q) + 1
    exp_a = exp_d if fa == fd else (x * (fa * one_minus_q)).exp()
    base = (exp_a * one_minus_q) * denom.inverse()
    return base.pow(fb), exp_d


def egf_polynomials(a: Rat | str, b: Rat | str, d: Rat | str, count: int) -> list[QPoly]:
    """The polynomials T_n(q) = n! [x^n] g(x) for n = 0 .. count-1.

    Each scaled coefficient must reduce to denominator 1; a residue of
    (1-q) powers surviving the reduction would mean the expansion is
    wrong, so that case raises instead of returning a rational function.
    """
    ser = egf_series(a, b, d, count)
    out: list[QPoly] = []
    factorial = 1
    for n in range(count):
        if n:
            factorial *= n
        value = ser.coeffs[n] * factorial
        try:
            out.append(value.as_poly())
        except ValueError as exc:
            raise ValueError(
                f"coefficient n={n} of the EGF did not clear its denominator: {value!r}"
            ) from exc
    return out
