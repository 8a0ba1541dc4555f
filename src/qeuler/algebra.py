"""Exact polynomial and rational-function arithmetic over the rationals.

Everything downstream (series expansion, Riordan arrays, continued
fractions, convexity checks) runs on the two classes defined here:

* ``QPoly``    -- a dense polynomial in the formal variable ``q`` with
  ``fractions.Fraction`` coefficients, immutable, trailing zeros stripped.
* ``QRatFun``  -- a quotient of two ``QPoly`` in canonical form: the
  denominator is monic, the fraction is fully reduced, and a zero
  numerator forces denominator 1.

No floating point enters at any stage.  Rationals serialize as ``"p/q"``
(or ``"p"`` when the denominator is 1), which is exactly ``str()`` of a
``Fraction``; polynomials serialize as JSON arrays of such strings with
the list index giving the power of ``q``.
"""

from __future__ import annotations

import re
from fractions import Fraction

__all__ = [
    "Rat",
    "NEG_INF",
    "parse_rational",
    "as_fraction",
    "QPoly",
    "QRatFun",
    "poly_divmod",
    "poly_gcd",
    "ZERO",
    "ONE",
    "Q",
    "RF_ZERO",
    "RF_ONE",
    "RF_Q",
]

Rat = int | Fraction

#: Degree of the zero polynomial.  A sentinel below every integer keeps
#: ``max(f.degree, g.degree)`` and degree comparisons total.
NEG_INF = float("-inf")

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/[1-9]\d*)?$")


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational literal ``"p"`` or ``"p/q"``.

    Decimal points, exponents, whitespace inside the literal, and
    non-positive denominators are all rejected: inputs are either exact
    or refused.
    """
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not an exact rational literal: {text!r}")
    return Fraction(s)


def as_fraction(value: Rat | str) -> Fraction:
    """Coerce ``int``, ``Fraction`` or an exact literal string to ``Fraction``.

    Floats are refused outright rather than converted; a binary float
    that happens to equal its decimal printing is still a trap in an
    exact pipeline.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):  # bool is an int subclass; keep it out
        raise TypeError("bool is not a rational scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot treat {type(value).__name__} as an exact rational")


class QPoly:
    """Polynomial in ``q`` with exact rational coefficients.

    ``QPoly(1, 4, 1)`` is ``1 + 4q + q^2``.  Coefficients may be ints,
    ``Fraction``s, or literal strings like ``"3/2"``.  Instances are
    value objects: equal iff their (normalized) coefficient tuples are.
    """

    __slots__ = ("coeffs",)

    coeffs: tuple[Fraction, ...]

    def __init__(self, *coeffs: Rat | str):
        cs = [as_fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QPoly is immutable")

    @classmethod
    def from_coeffs(cls, coeffs) -> "QPoly":
        return cls(*coeffs)

    # -- basic queries ------------------------------------------------

    @property
    def degree(self) -> int | float:
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def constant(self) -> Fraction:
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def coefficient(self, k: int) -> Fraction:
        """Coefficient of ``q^k``; zero beyond the stored degree."""
        if k < 0:
            raise ValueError("negative power")
        return self.coeffs[k] if k < len(self.coeffs) else Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QPoly):
            coerced = self._coerce(other)
            if coerced is None:
                return NotImplemented
            other = coerced
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        # constants hash like the scalar they equal
        if self.degree <= 0:
            return hash(self.constant)
        return hash(("QPoly", self.coeffs))

    # -- ring operations ----------------------------------------------

    @staticmethod
    def _coerce(value: object) -> "QPoly | None":
        if isinstance(value, QPoly):
            return value
        if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
            return QPoly(value)
        return None

    def __add__(self, other: object) -> "QPoly":
        o = QPoly._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(*out)

    __radd__ = __add__

    def __neg__(self) -> "QPoly":
        return QPoly(*(-c for c in self.coeffs))

    def __sub__(self, other: object) -> "QPoly":
        o = QPoly._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: object) -> "QPoly":
        o = QPoly._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other: object) -> "QPoly":
        o = QPoly._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if not a or not b:
            return ZERO
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
        return QPoly(*out)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "QPoly":
        # scalar division only; polynomial quotients live in QRatFun
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            c = as_fraction(other)
            if not c:
                raise ZeroDivisionError("division of polynomial by zero scalar")
            return QPoly(*(x / c for x in self.coeffs))
        return NotImplemented

    def __pow__(self, n: int) -> "QPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __call__(self, point):
        """Evaluate by Horner's rule; ``point`` may be any ring element."""
        result: object = Fraction(0)
        for c in reversed(self.coeffs):
            result = result * point + c
        return result

    # -- calculus and order structure -----------------------------------

    def derivative(self) -> "QPoly":
        """Formal d/dq."""
        return QPoly(*(k * c for k, c in enumerate(self.coeffs) if k))

    def is_nonneg(self) -> bool:
        """True iff every coefficient is >= 0 (written ``f >=_q 0``)."""
        return all(c >= 0 for c in self.coeffs)

    def monic(self) -> "QPoly":
        return self / self.lead

    def divide_by_q(self, power: int = 1) -> "QPoly":
        """Exact division by ``q**power``; raises unless divisible."""
        if power < 0:
            raise ValueError("negative power")
        if any(self.coeffs[:power]):
            raise ValueError(f"{self!r} is not divisible by q^{power}")
        return QPoly(*self.coeffs[power:]) if power else self

    # -- serialization --------------------------------------------------

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data) -> "QPoly":
        return cls(*(parse_rational(c) for c in data))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            mag = -c if c < 0 else c
            if k == 0:
                term = str(mag)
            else:
                var = "q" if k == 1 else f"q^{k}"
                term = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"QPoly({str(self)})"


ZERO = QPoly()
ONE = QPoly(1)
Q = QPoly(0, 1)


def poly_divmod(f: QPoly, g: QPoly) -> tuple[QPoly, QPoly]:
    """Quotient and remainder of ``f`` by ``g`` over Q, deg(rem) < deg(g).

    ``g`` divides ``f`` in Q[q] exactly when the remainder is zero.
    """
    if g.is_zero:
        raise ZeroDivisionError("polynomial division by zero polynomial")
    rem = list(f.coeffs)
    dg = len(g.coeffs) - 1
    glead = g.coeffs[-1]
    if len(rem) - 1 < dg:
        return ZERO, f
    quot = [Fraction(0)] * (len(rem) - dg)
    for top in range(len(rem) - 1, dg - 1, -1):
        c = rem[top]
        if not c:
            continue
        factor = c / glead
        quot[top - dg] = factor
        for i, gc in enumerate(g.coeffs):
            rem[top - dg + i] -= factor * gc
    return QPoly(*quot), QPoly(*rem[:dg])


def _poly_exact_div(f: QPoly, g: QPoly) -> QPoly:
    q, r = poly_divmod(f, g)
    if not r.is_zero:
        raise ArithmeticError("inexact polynomial division where exactness was promised")
    return q


def poly_gcd(f: QPoly, g: QPoly) -> QPoly:
    """Monic greatest common divisor over Q.

    ``poly_gcd(f, 0)`` is the monic multiple of ``f``; both arguments
    zero is an error since no monic gcd exists.
    """
    if f.is_zero and g.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    # nonzero constants are units, so the gcd collapses to 1 immediately
    if (f.coeffs and f.degree == 0) or (g.coeffs and g.degree == 0):
        return ONE
    while not g.is_zero:
        f, g = g, poly_divmod(f, g)[1]
        if not g.is_zero and g.degree == 0:
            return ONE
        if not g.is_zero:
            g = g.monic()  # keeps coefficient growth in check
    return f.monic()


class QRatFun:
    """Rational function ``num/den`` in ``q``, always in canonical form.

    Canonical means: ``den`` monic, ``gcd(num, den) = 1``, and the zero
    element is ``0/1``.  Equality is therefore structural.
    """

    __slots__ = ("num", "den")

    num: QPoly
    den: QPoly

    def __init__(self, num, den=None):
        n = num if isinstance(num, QPoly) else QPoly(num)
        d = ONE if den is None else (den if isinstance(den, QPoly) else QPoly(den))
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
            c = d.lead
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
        c = self.num.lead
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
        return QRatFun._trusted(self.num**n, self.den**n) if self.den != ONE else QRatFun._trusted(self.num**n, ONE)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict[str, list[str]]:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @classmethod
    def from_json(cls, data) -> "QRatFun":
        return cls(QPoly.from_json(data["num"]), QPoly.from_json(data["den"]))

    def __str__(self) -> str:
        if self.den == ONE:
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self) -> str:
        return f"QRatFun({str(self)})"


RF_ZERO = QRatFun._trusted(ZERO, ONE)
RF_ONE = QRatFun._trusted(ONE, ONE)
RF_Q = QRatFun._trusted(Q, ONE)
