"""Exact polynomial arithmetic in Q[q].

Everything downstream (series expansion, Riordan arrays, continued
fractions, convexity checks) runs on ``QPoly`` and its exact division:

* ``QPoly``    -- a dense, immutable polynomial in the formal variable
  ``q`` with rational coefficients, stored as integer numerators over one
  positive common denominator.  The form is canonical (gcd of the
  denominator and all numerators is 1, trailing zeros are stripped), so
  sums, products, scalar division, sign tests, equality and hashing all
  run on Python ints.  ``QPoly.coeffs`` is a view that builds the
  ``fractions.Fraction`` coefficients when asked.
* ``poly_divmod`` -- quotient and remainder in Q[q] by integer
  pseudo-division of the numerators, scaled once at the start and
  reduced once at the end.  Every route divides only where the quotient
  must be a polynomial, and a nonzero remainder refuses the input: each
  division is exact or refused.
* ``poly_dot`` -- the sum of products over paired entries, skipping zero
  factors: every convolution, matrix entry and inner product in the
  package is one call.  It multiplies through ``x * y``.
* ``QPoly.__add__`` and ``QPoly.__mul__`` -- the sum and the product of
  two polynomials, each one loop over the integer numerators.  They are
  the package's only polynomial sum and only product that returns a
  polynomial: every other module adds and multiplies ``QPoly`` values
  through them.
* ``_common_denominator`` -- rationals as integer numerators over the lcm
  of their denominators: the one conversion into that form, for ``QPoly``
  and the integer routes of ``families`` and ``convexity``.
* ``_first_drop`` -- the ``f >=_q g`` test, one pass over the paired
  numerators, each cross-multiplied by the other denominator.
* ``_chain_drops`` -- ``_first_drop`` between neighbouring products in
  each chain f_i f_j, f_k f_l, ... of one check, with no product built as
  a ``QPoly``: each row's bit length is read once, up front, each row is
  packed once per width W, as its value at 2^W (Kronecker
  substitution), each product is one int multiply, and the signs of a
  difference are read from the high bit of every W-bit slot.  The
  q-log-convexity checks of ``convexity`` compare their products
  through it.
* ``poly_gcd`` -- the monic greatest common divisor over Q.  Only
  ``ratfun.QRatFun`` calls it.

Only this module reads a ``QPoly``'s numerators and denominator.

``QRatFun``, a quotient of two ``QPoly``, lives in ``ratfun``, which no
command imports.  The module ``__getattr__`` below still answers
``algebra.QRatFun``, and only that name, by importing ``ratfun`` on
first access, for code that looks it up here.

No floating point enters at any stage.  Rationals serialize as ``"p/q"``
(or ``"p"`` when the denominator is 1), which is exactly ``str()`` of a
``Fraction``; ``QPoly.to_json`` gives a list of such strings with the
list index giving the power of ``q``.  These are the only JSON forms in
the library: ``cli._json_value`` writes these two, and every other value
a command returns is already a JSON type.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from operator import add

from . import _EXPORTS

__all__ = list(_EXPORTS["algebra"])

Rat = int | Fraction

# ASCII digits only: ``\d`` would also take any Unicode digit, such as "３"
_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(?:/[1-9][0-9]*)?$")


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational literal ``"p"`` or ``"p/q"`` in ASCII digits.

    Decimal points, exponents, underscores, non-ASCII digits, whitespace
    inside the literal, and non-positive denominators are all rejected:
    inputs are either exact or refused.
    """
    if not isinstance(text, str):
        raise TypeError(f"cannot parse {type(text).__name__} as a rational literal")
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
    immutable value objects.

    The coefficients are stored as a tuple of integer numerators
    ``_num`` over one integer denominator ``_den > 0``, in canonical
    form: gcd(``_den``, every numerator) = 1, no trailing zero
    numerators, and zero is ``((), 1)``.  Equal polynomials therefore
    have equal storage, and every ring operation, sign test and
    comparison runs on Python ints.  ``coeffs`` is a view: the tuple of
    reduced ``Fraction`` coefficients, built on each access.
    """

    __slots__ = ("_num", "_den")

    _num: tuple[int, ...]
    _den: int

    def __init__(self, *coeffs: Rat | str):
        cs = [c if type(c) is int else as_fraction(c) for c in coeffs]
        den, num = _common_denominator(cs)
        _set_parts(self, num, den)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QPoly is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as reduced ``Fraction``s, constant term first."""
        den = self._den
        if den == 1:
            return tuple(map(Fraction, self._num))
        return tuple(Fraction(n, den) for n in self._num)

    # -- basic queries ------------------------------------------------

    @property
    def degree(self) -> int:
        """The largest power of ``q`` present; -1 for the zero polynomial."""
        return len(self._num) - 1

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def lead(self) -> Fraction:
        if not self._num:
            raise ValueError("the zero polynomial has no leading coefficient")
        return Fraction(self._num[-1], self._den)

    @property
    def constant(self) -> Fraction:
        return Fraction(self._num[0], self._den) if self._num else Fraction(0)

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QPoly):
            coerced = self._coerce(other)
            if coerced is None:
                return NotImplemented
            other = coerced
        return self._num == other._num and self._den == other._den

    def __hash__(self) -> int:
        # constants hash like the scalar they equal
        if len(self._num) <= 1:
            return hash(self.constant)
        return hash(("QPoly", self._num, self._den))

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
        a, b = self._num, o._num
        den, odn = self._den, o._den
        if den != odn:
            # bring both over lcm(den, odn)
            g = gcd(den, odn)
            a = [c * (odn // g) for c in a]
            b = [c * (den // g) for c in b]
            den = den // g * odn
        if len(a) < len(b):
            a, b = b, a
        out = list(map(add, a, b))
        out += a[len(b):]
        return _from_parts(out, den)

    __radd__ = __add__

    def __neg__(self) -> "QPoly":
        return _from_parts([-c for c in self._num], self._den)

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
        a, b = self._num, o._num
        if not a or not b:
            return ZERO
        if len(a) < len(b):
            a, b = b, a
        out = [0] * (len(a) + len(b) - 1)
        for i, cb in enumerate(b):
            if cb:
                for j, ca in enumerate(a, i):
                    out[j] += ca * cb
        return _from_parts(out, self._den * o._den)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "QPoly":
        # scalar division only; polynomial quotients go through poly_divmod
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            c = as_fraction(other)
            if not c:
                raise ZeroDivisionError("division of polynomial by zero scalar")
            # (n_i / den) / (p / r) = n_i r / (den p), with the sign moved up
            p, r = c.numerator, c.denominator
            if p < 0:
                p, r = -p, -r
            return _from_parts([n * r for n in self._num], self._den * p)
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

    # -- calculus and order structure -----------------------------------

    def derivative(self) -> "QPoly":
        """Formal d/dq."""
        return _from_parts([k * c for k, c in enumerate(self._num) if k], self._den)

    def monic(self) -> "QPoly":
        return self / self.lead

    # -- serialization --------------------------------------------------

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data) -> "QPoly":
        return cls(*(parse_rational(c) for c in data))

    def __str__(self) -> str:
        if not self._num:
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


def _set_parts(poly: QPoly, num: list[int], den: int) -> None:
    """Store ``num / den`` (``den > 0``) in ``poly`` in canonical form."""
    while num and not num[-1]:
        num.pop()
    if not num:
        den = 1
    elif den != 1:
        g = gcd(den, *num)
        if g != 1:
            den //= g
            num = [c // g for c in num]
    object.__setattr__(poly, "_num", tuple(num))
    object.__setattr__(poly, "_den", den)


def _from_parts(num: list[int], den: int) -> QPoly:
    """The polynomial with numerators ``num`` over ``den > 0``; takes ``num``."""
    poly = object.__new__(QPoly)
    _set_parts(poly, num, den)
    return poly


def _common_denominator(values) -> tuple[int, list[int]]:
    """The lcm ``den`` of the denominators of ``values`` and each value times ``den``.

    ``values`` holds ints and ``Fraction``s, so ``Fraction(nums[i], den)``
    is ``values[i]``, and gcd(den, *nums) is 1.
    """
    den = lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


def _first_drop(f: QPoly, g: QPoly) -> int | None:
    """The first power of q whose coefficient in f - g is negative, or None.

    f - g is never built: with both denominators positive, the
    coefficient of q^k is negative exactly when f_k den(g) < g_k den(f)
    for the numerators f_k and g_k, the shorter row read as zeros past
    its end.  So ``f >=_q g`` is ``_first_drop(f, g) is None``.
    """
    fd, gd = f._den, g._den
    pairs = zip_longest(f._num, g._num, fillvalue=0)
    return next((k for k, (a, b) in enumerate(pairs) if a * gd < b * fd), None)


def _pack(num: tuple[int, ...], width: int) -> int:
    """The value of the numerators ``num`` at 2^width, for ``width`` a multiple of 8.

    Every |numerator| is below 2^width, so each fills one slot of
    ``width // 8`` bytes; the negative ones are packed apart and subtracted.
    """
    size = width // 8
    if min(num, default=0) >= 0:
        return int.from_bytes(b"".join([c.to_bytes(size, "little") for c in num]), "little")
    pos = _pack(tuple(c if c > 0 else 0 for c in num), width)
    return pos - _pack(tuple(-c if c < 0 else 0 for c in num), width)


def _chain_drops(polys: list[QPoly], chains: list[list[tuple[int, int]]]) -> list[list]:
    """For each chain, ``_first_drop(P_r, P_{r+1})`` for each r, where
    P_r = polys[i] * polys[j], (i, j) = chain[r].

    No product is built as a ``QPoly``.  Over the lcm L of the products'
    denominators den_i den_j, P_r is the convolution N_r of the two
    numerator rows times s_r = L / (den_i den_j).  Each row is packed once
    per slot width W as its value at 2^W, so N_r(2^W) is one int multiply,
    and D = s_r N_r(2^W) - s_{r+1} N_{r+1}(2^W) holds coefficient k of
    P_r - P_{r+1}, times L, as a signed digit c_k in slot k.  Each chain
    has its own W, the largest, over the chain, of

        bits(max |num_i|) + bits(max |num_j|) + bits(s_r) + bits(min(len_i, len_j)) + 2,

    rounded up to a multiple of 32, so |c_k| < 2^(W-1).  Adding H, which
    holds 2^(W-1) in every slot, puts c_k + 2^(W-1) in [0, 2^W) in slot k
    with no carry between slots, and that slot's high bit is clear exactly
    when c_k < 0: the broadword comparison of ``walks._descent_tally``.
    The first witness is the lowest set bit of H & ~(D + H), kW + W - 1.

    Each row's bit length is read once, up front, and its pack at each
    width is cached across the chains of one call.
    """
    bits = [max(map(abs, p._num), default=0).bit_length() for p in polys]
    packs: dict[tuple[int, int], int] = {}
    out = []
    for chain in chains:
        rows = [(polys[i]._num, polys[j]._num) for i, j in chain]
        dens = [polys[i]._den * polys[j]._den for i, j in chain]
        common = lcm(*dens)
        width, slots = 1, 0
        for (i, j), (a, b), den in zip(chain, rows, dens):
            if a and b:
                size = bits[i] + bits[j] + (common // den).bit_length()
                width = max(width, size + min(len(a), len(b)).bit_length() + 2)
                slots = max(slots, len(a) + len(b) - 1)
        width = -(-width // 32) * 32
        high = int.from_bytes((bytes(width // 8 - 1) + b"\x80") * slots, "little")
        drops, last = [], None
        for (i, j), (a, b), den in zip(chain, rows, dens):
            product = 0
            if a and b:
                for row, num in ((i, a), (j, b)):
                    if (row, width) not in packs:
                        packs[row, width] = _pack(num, width)
                product = packs[i, width] * packs[j, width] * (common // den)
            if last is not None:
                negative = high & ~(last - product + high)
                drops.append((negative & -negative).bit_length() // width - 1 if negative else None)
            last = product
        out.append(drops)
    return out


ZERO = QPoly()
ONE = QPoly(1)
Q = QPoly(0, 1)


def as_qpoly(value) -> QPoly:
    """``value`` if it is a ``QPoly``, else ``QPoly(value)``: the one way into Q[q].

    Floats, bools and every type but int, ``Fraction`` and str raise ``TypeError``.
    """
    return value if isinstance(value, QPoly) else QPoly(value)


def poly_dot(xs, ys) -> QPoly:
    """The sum of ``x * y`` over paired entries, skipping a pair with a zero factor.

    Entries are ``QPoly``, ``int`` or ``Fraction``, and every product goes
    through ``x * y``.  Like ``zip``, it stops at the end of the shorter
    operand, so a truncated convolution is ``poly_dot(a, reversed(b))``.
    """
    acc = ZERO
    for x, y in zip(xs, ys):
        if x and y:
            acc = acc + x * y
    return acc


def poly_divmod(f: QPoly, g: QPoly) -> tuple[QPoly, QPoly]:
    """Quotient and remainder of ``f`` by ``g`` over Q, deg(rem) < deg(g).

    ``g`` divides ``f`` in Q[q] exactly when the remainder is zero.
    """
    if g.is_zero:
        raise ZeroDivisionError("polynomial division by zero polynomial")
    div = g._num
    dg = len(div) - 1
    steps = len(f._num) - dg
    if steps < 1:
        return ZERO, f
    # Pseudo-division on the numerators (Knuth, TAOCP 2, 4.6.1): scaled once by
    # scale = |lead|^steps, scale * num(f) = quot * num(g) + rem, and each
    # quotient digit num[top] // lead is exact.  scale > 0 keeps den > 0.
    lead = div[-1]
    scale = abs(lead) ** steps
    num = [scale * x for x in f._num]
    quot = [0] * steps
    for top in range(len(num) - 1, dg - 1, -1):
        c = num[top] // lead
        if c:
            quot[top - dg] = c
            for i, gc in enumerate(div, top - dg):
                num[i] -= c * gc
    # f = num(f)/f.den and g = num(g)/g.den, so
    # f = (quot g.den / (scale f.den)) g + rem / (scale f.den)
    den = scale * f._den
    return _from_parts([x * g._den for x in quot], den), _from_parts(num[:dg], den)


def poly_gcd(f: QPoly, g: QPoly) -> QPoly:
    """Monic greatest common divisor over Q.

    ``poly_gcd(f, 0)`` is the monic multiple of ``f``; both arguments
    zero is an error since no monic gcd exists.
    """
    if f.is_zero and g.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    # nonzero constants are units, so the gcd collapses to 1 immediately
    if f.degree == 0 or g.degree == 0:
        return ONE
    while not g.is_zero:
        f, g = g, poly_divmod(f, g)[1]
        if g.degree == 0:
            return ONE
        if not g.is_zero:
            g = g.monic()  # keeps coefficient growth in check
    return f.monic()


def __getattr__(name: str):
    # QRatFun moved to ratfun; it is resolved here on first access (PEP 562)
    if name == "QRatFun":
        from .ratfun import QRatFun

        return QRatFun
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
