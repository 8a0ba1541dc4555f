"""q-log-convexity checks, a continued-fraction criterion, and transforms.

For polynomials, ``f >=_q g`` means every coefficient of ``f - g`` is
nonnegative.  A sequence (f_n) is q-log-convex when
``f_{n-1} f_{n+1} >=_q f_n^2`` for n >= 1, and strongly q-log-convex
when ``f_{m-1} f_{n+1} >=_q f_m f_n`` for all n >= m >= 1.

``moment_convexity_criterion`` implements the sufficient condition for
strong q-log-convexity of a J-fraction's moment sequence: with all
weights coefficientwise nonnegative,

    s_i s_{i+1} >=_q t_{i+1}   for every i >= 1

suffices.  The hypothesis starts at i = 1; the i = 0 gap is computed
and reported informationally, and the nonnegativity hypothesis itself
is reported separately instead of being silently assumed.

``weight_gap`` expands the same gap symbolically for the closed-form
family weights attached to EGF parameters (a, b, d), together with the
simpler quadratic that is claimed to bound it from below.

``transform_log_convexity_experiment`` gathers evidence for two open
conjectures: applying either Eulerian triangle to a log-convex input
sequence, does log-convexity survive?  Both triangles are rows of the
one integer recurrence ``families.eulerian_rows``: type A at
(ab, bd, d) = (1, 1, 1) and type B at (1, 2, 2).  It proves nothing; it computes
``z_n = sum_k triangle(n,k) x_k`` exactly and reports any witnesses.
The reports are named tuples; ``cli`` writes each one's ``_asdict()`` as JSON.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from fractions import Fraction
from operator import mul
from typing import TYPE_CHECKING, Callable, Sequence

from .algebra import ZERO, QPoly, Rat, _common_denominator, _first_drop, as_fraction, as_qpoly
from .families import eulerian_rows

if TYPE_CHECKING:
    from .jacobi import JFraction

__all__ = [
    "Witness",
    "ConvexityReport",
    "CriterionReport",
    "GapResult",
    "Triangle",
    "TransformReport",
    "check_q_log_convex",
    "check_strong_q_log_convex",
    "moment_convexity_criterion",
    "weight_gap",
    "transform_log_convexity_experiment",
    "BUILTIN_SEQUENCES",
    "builtin_sequence",
]

#: (m, n, k): comparing indices m <= n, coefficient k of the difference
#: f_{m-1} f_{n+1} - f_m f_n is the first negative one.
Witness = tuple[int, int, int]


class ConvexityReport(namedtuple("ConvexityReport", "verdict witnesses checked_range")):
    """Outcome of a (strong) q-log-convexity check with evidence."""

    __slots__ = ()


class CriterionReport(namedtuple("CriterionReport", ConvexityReport._fields + (
        "hypothesis_nonneg", "hypothesis_witnesses", "gap_at_zero_nonneg"))):
    """Adds the separately reported hypothesis and boundary information.

    ``hypothesis_witnesses`` holds (weight name, index, coefficient)
    triples, one for each weight with a negative coefficient.
    """

    __slots__ = ()


def _witnesses(pairs) -> tuple[tuple, ...]:
    """(m, n, k) for each (m, n, f, g) of ``pairs`` where f >=_q g first fails at q^k."""
    return tuple((m, n, k) for m, n, f, g in pairs if (k := _first_drop(f, g)) is not None)


def _sequence(seq: Sequence[QPoly]) -> tuple[list[QPoly], int]:
    """The entries of ``seq`` as ``QPoly``, and the last index n that has an f_{n+1}."""
    polys = [as_qpoly(f) for f in seq]
    if len(polys) < 3:
        raise ValueError("need at least three polynomials")
    return polys, len(polys) - 2


def _antidiagonal_pairs(f: list[QPoly], last: int):
    """(m, n, f_{m-1} f_{n+1}, f_m f_n) for all last >= n >= m >= 1, by anti-diagonals.

    Both products of a pair have index sum sigma = m + n, so along one
    sigma, P_i = f_i f_{sigma-i} is formed once and serves as f_m f_n for
    the pair (i, sigma - i) and as f_{m-1} f_{n+1} for the pair
    (i + 1, sigma - i - 1).
    """
    for sigma in range(2, 2 * last + 1):
        low = max(1, sigma - last)
        prev = f[low - 1] * f[sigma - low + 1]
        for m in range(low, sigma // 2 + 1):
            cur = f[m] * f[sigma - m]
            yield m, sigma - m, prev, cur
            prev = cur


def check_q_log_convex(seq: Sequence[QPoly]) -> ConvexityReport:
    """Check f_{n-1} f_{n+1} >=_q f_n^2 for every interior index."""
    f, last = _sequence(seq)
    witnesses = _witnesses((n, n, f[n - 1] * f[n + 1], f[n] * f[n]) for n in range(1, last + 1))
    return ConvexityReport(verdict=not witnesses, witnesses=witnesses, checked_range=(1, last))


def check_strong_q_log_convex(seq: Sequence[QPoly]) -> ConvexityReport:
    """Check f_{m-1} f_{n+1} >=_q f_m f_n for all n >= m >= 1.

    The pairs are walked by anti-diagonals, which form each product
    once; witnesses are reported in (m, n) order.
    """
    f, last = _sequence(seq)
    witnesses = tuple(sorted(_witnesses(_antidiagonal_pairs(f, last))))
    return ConvexityReport(verdict=not witnesses, witnesses=witnesses, checked_range=(1, last))


def moment_convexity_criterion(jf: JFraction, i_max: int) -> CriterionReport:
    """The sufficient criterion s_i s_{i+1} >=_q t_{i+1}, i = 1 .. i_max.

    The verdict covers only the stated range; nonnegativity of all
    weights seen (the criterion's standing hypothesis) and the i = 0
    gap are reported alongside without influencing the verdict.
    """
    if i_max < 1:
        raise ValueError("i_max must be >= 1")
    if len(jf.s) < i_max + 2 or len(jf.t) < i_max + 1:
        raise ValueError(
            f"criterion to i_max={i_max} needs depth >= {i_max + 2}, have {jf.depth}"
        )
    s, t = jf.s, jf.t
    witnesses = _witnesses((i, i + 1, s[i] * s[i + 1], t[i]) for i in range(1, i_max + 1))
    hypothesis_witnesses = _witnesses(
        (name, j, w, ZERO)
        for name, first, weights in (("s", 0, s[: i_max + 2]), ("t", 1, t[: i_max + 1]))
        for j, w in enumerate(weights, first)
    )
    return CriterionReport(
        verdict=not witnesses,
        witnesses=witnesses,
        checked_range=(1, i_max),
        hypothesis_nonneg=not hypothesis_witnesses,
        hypothesis_witnesses=hypothesis_witnesses,
        gap_at_zero_nonneg=_first_drop(s[0] * s[1], t[0]) is None,
    )


class GapResult(namedtuple("GapResult", "gap reference_bound bound_is_lower")):
    """The expanded gap s_i s_{i+1} - t_{i+1} and its simpler lower bound."""

    __slots__ = ()


def weight_gap(i: int, a: Rat | str, b: Rat | str, d: Rat | str) -> GapResult:
    """Expand s_i s_{i+1} - t_{i+1} for the closed-form family weights.

    The reference bound drops the cross terms down to

        (di+ab)(di+d+ab) + (ab^2 d - a^2 b^2) q
                         + (di+bd-ab)(di+d+bd-ab) q^2,

    and ``bound_is_lower`` records whether gap - bound >=_q 0.  As

        gap - bound = q (d^2 i (i + 1 + b) + a b^2 (d - a)),

    it is whenever b >= 0 and d >= a >= 0.
    """
    from .jacobi import jfraction_from_params

    if i < 0:
        raise ValueError("i must be >= 0")
    fa, fb, fd = as_fraction(a), as_fraction(b), as_fraction(d)
    jf = jfraction_from_params(fa, fb, fd, i + 2)
    gap = jf.s[i] * jf.s[i + 1] - jf.t[i]
    bound = QPoly(
        (fd * i + fa * fb) * (fd * i + fd + fa * fb),
        fa * fb * fb * fd - fa * fa * fb * fb,
        (fd * i + fb * fd - fa * fb) * (fd * i + fd + fb * fd - fa * fb),
    )
    lower = _first_drop(gap, bound) is None
    return GapResult(gap=gap, reference_bound=bound, bound_is_lower=lower)


# -- transform experiments ---------------------------------------------------


class Triangle(enum.Enum):
    EULERIAN_A = "A"
    EULERIAN_B = "B"


#: The (ab, bd, d) forms of each triangle in ``families.eulerian_rows``.
_TRIANGLE_ROWS = {
    Triangle.EULERIAN_A: (1, 1, 1),
    Triangle.EULERIAN_B: (1, 2, 2),
}


class TransformReport(namedtuple("TransformReport", "triangle z verdict witnesses")):
    """z = triangle * x and the log-convexity evidence for z."""

    __slots__ = ()


def transform_log_convexity_experiment(
    triangle: Triangle, xs: Sequence[Rat | str], n_max: int
) -> TransformReport:
    """Apply a triangle to a log-convex input and test the output.

    Evidence gathering only.  The input must itself be nonnegative and
    log-convex on the used window (x_k^2 <= x_{k-1} x_{k+1}); otherwise
    the experiment is undefined and refused.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2 to test anything")
    values = [as_fraction(x) for x in xs]
    if len(values) < n_max + 1:
        raise ValueError(f"need x_0 .. x_{n_max}, got {len(values)} values")
    values = values[: n_max + 1]
    # over one common denominator D > 0, x_k = X_k / D and z_n = Z_n / D,
    # so every sign test and comparison below runs on the integers X, Z
    den, xs_int = _common_denominator(values)
    for k, v in enumerate(xs_int):
        if v < 0:
            raise ValueError(f"input is not nonnegative at index {k}")
    for k in range(1, n_max):
        if xs_int[k] * xs_int[k] > xs_int[k - 1] * xs_int[k + 1]:
            raise ValueError(f"input is not log-convex at index {k}")
    rows = eulerian_rows(*_TRIANGLE_ROWS[triangle], n_max)
    zs_int = [sum(map(mul, row, xs_int)) for row in rows]
    witnesses = tuple(
        n for n in range(1, n_max) if zs_int[n] * zs_int[n] > zs_int[n - 1] * zs_int[n + 1]
    )
    return TransformReport(
        triangle=triangle,
        z=tuple(Fraction(v, den) for v in zs_int),
        verdict=not witnesses,
        witnesses=witnesses,
    )


# -- builtin log-convex inputs -------------------------------------------------


def _ones(count: int) -> list[Fraction]:
    return [Fraction(1)] * count

def _powers_of_two(count: int) -> list[Fraction]:
    return [Fraction(2) ** n for n in range(count)]

def _factorials(count: int) -> list[Fraction]:
    out, acc = [], 1
    for n in range(count):
        acc = acc * n if n else 1
        out.append(Fraction(acc))
    return out

def _catalan(count: int) -> list[Fraction]:
    out = [Fraction(1)]
    for n in range(1, count):
        out.append(out[-1] * 2 * (2 * n - 1) / (n + 1))
    return out

def _motzkin(count: int) -> list[Fraction]:
    out = [1, 1]
    for n in range(1, count):
        out.append(out[n] + sum(out[k] * out[n - 1 - k] for k in range(n)))
    return [Fraction(v) for v in out[:count]]


BUILTIN_SEQUENCES: dict[str, Callable[[int], list[Fraction]]] = {
    "ones": _ones,
    "powers2": _powers_of_two,
    "factorial": _factorials,
    "catalan": _catalan,
    "motzkin": _motzkin,
}


def builtin_sequence(name: str, count: int) -> list[Fraction]:
    try:
        gen = BUILTIN_SEQUENCES[name]
    except KeyError:
        raise ValueError(
            f"unknown sequence {name!r}; builtins: {', '.join(sorted(BUILTIN_SEQUENCES))}"
        ) from None
    return gen(count)
