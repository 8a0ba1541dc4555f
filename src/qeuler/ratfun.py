"""Rational functions of q: ``QRatFun``, a quotient of two ``QPoly``.

No route makes a ``QRatFun``, and no command imports this module.  It
is kept for library users, and because the benchmark's tracer looks
``QRatFun`` up as ``algebra.QRatFun``: ``algebra`` forwards ``QRatFun``,
and only that name, here on first access (PEP 562), so that lookup
still resolves without every command compiling this module.

A ``QRatFun`` is in canonical form: the denominator is monic, the
fraction is fully reduced by ``algebra.poly_gcd``, and a zero numerator
forces denominator 1.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from . import _EXPORTS
from .algebra import ONE, ZERO, Q, QPoly, as_qpoly, parse_rational, poly_divmod, poly_gcd

__all__ = list(_EXPORTS["ratfun"])


def _poly_exact_div(f: QPoly, g: QPoly) -> QPoly:
    q, r = poly_divmod(f, g)
    if not r.is_zero:
        raise ArithmeticError("inexact polynomial division where exactness was promised")
    return q


class QRatFun:
    """Rational function ``num/den`` in ``q``, always in canonical form.

    Canonical means: ``den`` monic, ``gcd(num, den) = 1``, and the zero
    element is ``0/1``.  Equality is therefore structural.
    """

    __slots__ = ("num", "den")

    num: QPoly
    den: QPoly

    def __init__(self, num, den=None):
        n = as_qpoly(num)
        d = ONE if den is None else as_qpoly(den)
        if d.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if n.is_zero:
            n, d = ZERO, ONE
        elif d == ONE:
            pass
        else:
            g = poly_gcd(n, d)
            if g != ONE:
                n = _poly_exact_div(n, g)
                d = _poly_exact_div(d, g)
            c = d.coeffs[-1]
            if c != 1:
                n = n / c
                d = d / c
        object.__setattr__(self, "num", n)
        object.__setattr__(self, "den", d)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QRatFun is immutable")

    @classmethod
    def _trusted(cls, num: QPoly, den: QPoly) -> "QRatFun":
        # internal: caller guarantees canonical form already holds
        obj = object.__new__(cls)
        object.__setattr__(obj, "num", num)
        object.__setattr__(obj, "den", den)
        return obj

    # -- queries --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_polynomial(self) -> bool:
        return self.den == ONE

    def as_poly(self) -> QPoly:
        if self.den != ONE:
            raise ValueError(f"not a polynomial: denominator is {self.den}")
        return self.num

    def __bool__(self) -> bool:
        return not self.num.is_zero

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QRatFun):
            coerced = self._coerce(other)
            if coerced is None:
                return NotImplemented
            other = coerced
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        # polynomials (and through them constants) hash like what they equal
        if self.den == ONE:
            return hash(self.num)
        return hash(("QRatFun", self.num, self.den))

    # -- field operations -------------------------------------------------

    @staticmethod
    def _coerce(value: object) -> "QRatFun | None":
        if isinstance(value, QRatFun):
            return value
        if isinstance(value, QPoly):
            return QRatFun._trusted(value, ONE)
        if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
            return QRatFun._trusted(QPoly(value), ONE)
        return None

    def __add__(self, other: object) -> "QRatFun":
        o = QRatFun._coerce(other)
        if o is None:
            return NotImplemented
        if self.den == ONE and o.den == ONE:
            return QRatFun(self.num + o.num)
        return QRatFun(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self) -> "QRatFun":
        return QRatFun._trusted(-self.num, self.den)

    def __sub__(self, other: object) -> "QRatFun":
        o = QRatFun._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: object) -> "QRatFun":
        o = QRatFun._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other: object) -> "QRatFun":
        o = QRatFun._coerce(other)
        if o is None:
            return NotImplemented
        if self.num.is_zero or o.num.is_zero:
            return RF_ZERO
        if self.den == ONE and o.den == ONE:
            return QRatFun._trusted(self.num * o.num, ONE)
        # cross-reduce first: with gcd(n1,d1)=gcd(n2,d2)=1 the result of
        # (n1/g1)(n2/g2) over (d1/g2)(d2/g1) is already fully reduced
        n1, d1, n2, d2 = self.num, self.den, o.num, o.den
        g1 = poly_gcd(n1, d2) if d2 != ONE else ONE
        g2 = poly_gcd(n2, d1) if d1 != ONE else ONE
        if g1 != ONE:
            n1 = _poly_exact_div(n1, g1)
            d2 = _poly_exact_div(d2, g1)
        if g2 != ONE:
            n2 = _poly_exact_div(n2, g2)
            d1 = _poly_exact_div(d1, g2)
        return QRatFun._trusted(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def reciprocal(self) -> "QRatFun":
        if self.num.is_zero:
            raise ZeroDivisionError("reciprocal of zero")
        c = self.num.coeffs[-1]
        return QRatFun._trusted(self.den / c, self.num / c)

    def __truediv__(self, other: object) -> "QRatFun":
        o = QRatFun._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.reciprocal()

    def __rtruediv__(self, other: object) -> "QRatFun":
        o = QRatFun._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.reciprocal()

    def __pow__(self, n: int) -> "QRatFun":
        if not isinstance(n, int):
            raise ValueError("rational-function powers must be integers")
        if n < 0:
            return self.reciprocal() ** (-n)
        return QRatFun._trusted(prod((self.num,) * n, start=ONE), prod((self.den,) * n, start=ONE))

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict[str, list[str]]:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @classmethod
    def from_json(cls, data) -> "QRatFun":
        return cls(*(QPoly(*map(parse_rational, data[key])) for key in ("num", "den")))

    def __str__(self) -> str:
        if self.den == ONE:
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self) -> str:
        return f"QRatFun({str(self)})"


RF_ZERO = QRatFun._trusted(ZERO, ONE)
RF_ONE = QRatFun._trusted(ONE, ONE)
RF_Q = QRatFun._trusted(Q, ONE)
