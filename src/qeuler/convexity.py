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

``moment_convexity_criterion`` takes any ``JFraction``.  For the
closed-form family weights of EGF parameters (a, b, d),
``_weight_criterion`` gives the same report from integer sign tests
over den for s and den^2 for t (``families._weight_forms``), with no
``QPoly`` and no ``jacobi``: it is ``check --mode zhu``.  ``weight_gap``
expands that gap at one i, and the simpler quadratic claimed to bound
it from below, from the same integers.

``transform_log_convexity_experiment`` gathers evidence for two open
conjectures: applying either Eulerian triangle to a log-convex input
sequence, does log-convexity survive?  A triangle is named by its letter
in ``families._TRIANGLES``, and both are rows of the one integer
recurrence ``families.eulerian_rows``.  It proves nothing; it computes
``z_n = sum_k triangle(n,k) x_k`` exactly and reports any witnesses.
The reports are named tuples; ``cli`` writes each one's ``_asdict()`` as JSON.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator, Sequence
from fractions import Fraction
from operator import mul

from . import _EXPORTS
from .algebra import (
    ZERO,
    QPoly,
    Rat,
    _chain_drops,
    _common_denominator,
    _first_drop,
    _from_parts,
    as_fraction,
    as_qpoly,
)
from .families import _TRIANGLES, _weight_forms, eulerian_rows

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .jacobi import JFraction

__all__ = list(_EXPORTS["convexity"])


class ConvexityReport(namedtuple("ConvexityReport", "verdict witnesses checked_range")):
    """Outcome of a (strong) q-log-convexity check with evidence.

    Each witness (m, n, k), m <= n, says that coefficient k of
    f_{m-1} f_{n+1} - f_m f_n is its first negative one.
    """

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


def check_q_log_convex(seq: Sequence[QPoly]) -> ConvexityReport:
    """Check f_{n-1} f_{n+1} >=_q f_n^2 for every interior index."""
    f, last = _sequence(seq)
    chains = [[(n - 1, n + 1), (n, n)] for n in range(1, last + 1)]
    witnesses = tuple((n, n, k) for n, [k] in enumerate(_chain_drops(f, chains), 1) if k is not None)
    return ConvexityReport(verdict=not witnesses, witnesses=witnesses, checked_range=(1, last))


def check_strong_q_log_convex(seq: Sequence[QPoly]) -> ConvexityReport:
    """Check f_{m-1} f_{n+1} >=_q f_m f_n for all n >= m >= 1.

    The pairs are walked by anti-diagonals.  Both products of a pair have
    index sum sigma = m + n, so along one sigma, P_m = f_m f_{sigma-m} is
    formed once and serves as f_m f_n for the pair (m, sigma - m) and as
    f_{m-1} f_{n+1} for the pair (m + 1, sigma - m - 1): one chain of
    ``_chain_drops`` per sigma.  Witnesses are reported in (m, n) order.
    """
    f, last = _sequence(seq)
    chains = [
        [(m, sigma - m) for m in range(max(1, sigma - last) - 1, sigma // 2 + 1)]
        for sigma in range(2, 2 * last + 1)
    ]
    witnesses = sorted(
        (m, n, k)
        for chain, drops in zip(chains, _chain_drops(f, chains))
        for (m, n), k in zip(chain[1:], drops)
        if k is not None
    )
    return ConvexityReport(verdict=not witnesses, witnesses=tuple(witnesses), checked_range=(1, last))


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


def _gaps(forms: tuple[int, ...], indices: Iterable[int]) -> Iterator[tuple[int, int, int]]:
    """For each i of ``indices``, the numerators of s_i s_{i+1} - t_{i+1} over den^2 > 0.

    ``forms`` is ``families._weight_forms(a, b, d)``; this is the one place
    the closed-form gap is written.
    """
    _, step, s0, s1 = forms
    for i in indices:
        c0, c1 = step * i + s0, step * i + s1  # s_i
        n0, n1 = c0 + step, c1 + step  # s_{i+1}
        t = (i + 1) * step * (step * i + s0 + s1)  # t_{i+1}
        yield c0 * n0, c0 * n1 + c1 * n0 - t, c1 * n1


def _weight_criterion(a: Rat | str, b: Rat | str, d: Rat | str, i_max: int) -> CriterionReport:
    """``moment_convexity_criterion(jfraction_from_params(a, b, d, i_max + 2), i_max)``, on ints.

    Over den for s and den^2 for t and the gap (``families._weight_forms``),
    each test is a sign test on integers: s_j has two linear numerators,
    t_j one quadratic, and the gap at i three quadratics (``_gaps``).  No
    ``QPoly`` is built, and the report, equal to the ``JFraction`` one in
    every field, costs O(i_max) integer operations.
    """
    if i_max < 1:
        raise ValueError("i_max must be >= 1")
    forms = _weight_forms(a, b, d)
    _, step, s0, s1 = forms
    gaps = enumerate(_gaps(forms, range(1, i_max + 1)), 1)
    witnesses = tuple(
        (i, i + 1, next(k for k, c in enumerate(g) if c < 0)) for i, g in gaps if min(g) < 0
    )
    hypothesis_witnesses = (
        *(
            ("s", j, 0 if c0 < 0 else 1)
            for j in range(i_max + 2)
            if (c0 := step * j + s0) < 0 or step * j + s1 < 0
        ),
        *(("t", j, 1) for j in range(1, i_max + 2) if j * step * (step * (j - 1) + s0 + s1) < 0),
    )
    return CriterionReport(
        verdict=not witnesses,
        witnesses=witnesses,
        checked_range=(1, i_max),
        hypothesis_nonneg=not hypothesis_witnesses,
        hypothesis_witnesses=hypothesis_witnesses,
        gap_at_zero_nonneg=min(next(_gaps(forms, [0]))) >= 0,
    )


class GapResult(namedtuple("GapResult", "gap reference_bound bound_is_lower")):
    """The expanded gap s_i s_{i+1} - t_{i+1} and its simpler lower bound."""

    __slots__ = ()


def weight_gap(i: int, a: Rat | str, b: Rat | str, d: Rat | str) -> GapResult:
    """Expand s_i s_{i+1} - t_{i+1} for the closed-form family weights.

    The reference bound drops the cross terms down to

        (di+ab)(di+d+ab) + (ab^2 d - a^2 b^2) q
                         + (di+bd-ab)(di+d+bd-ab) q^2,

    the gap with s0 s1 / den^2 (``_weight_forms``) as its q coefficient;
    ``bound_is_lower`` records whether gap - bound >=_q 0.  Over the shared
    den^2 the two differ only at q, so that is g1 >= s0 s1.  As

        gap - bound = q (d^2 i (i + 1 + b) + a b^2 (d - a)),

    it is whenever b >= 0 and d >= a >= 0.  The index must be an ``int``.
    """
    if not isinstance(i, int) or isinstance(i, bool):
        raise TypeError(f"i must be an int, not {type(i).__name__}")
    if i < 0:
        raise ValueError("i must be >= 0")
    forms = _weight_forms(a, b, d)
    den, _, s0, s1 = forms
    g0, g1, g2 = next(_gaps(forms, [i]))
    gap, bound = _from_parts([g0, g1, g2], den * den), _from_parts([g0, s0 * s1, g2], den * den)
    return GapResult(gap=gap, reference_bound=bound, bound_is_lower=g1 >= s0 * s1)


# -- transform experiments ---------------------------------------------------


class TransformReport(namedtuple("TransformReport", "triangle z verdict witnesses")):
    """z = triangle * x, the triangle by its letter, and the log-convexity evidence for z."""

    __slots__ = ()


def transform_log_convexity_experiment(
    triangle: str, xs: Sequence[Rat | str], n_max: int
) -> TransformReport:
    """Apply the triangle of letter ``triangle`` to a log-convex input and test the output.

    Evidence gathering only.  The input must itself be nonnegative and
    log-convex on the used window (x_k^2 <= x_{k-1} x_{k+1}); otherwise
    the experiment is undefined and refused, as is an unknown letter.
    """
    if triangle not in _TRIANGLES:
        raise ValueError(f"unknown triangle {triangle!r}; triangles: {', '.join(_TRIANGLES)}")
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
    rows = eulerian_rows(*_TRIANGLES[triangle], n_max)
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


#: Each builtin input as n -> (p, r, s), the coefficients of its integer
#: recurrence x_{n+1} = (p x_n + r x_{n-1}) / s from x_0 = 1 and x_{-1} = 0;
#: every division is exact.
BUILTIN_SEQUENCES: dict[str, Callable[[int], tuple[int, int, int]]] = {
    "ones": lambda n: (1, 0, 1),
    "powers2": lambda n: (2, 0, 1),
    "factorial": lambda n: (n + 1, 0, 1),
    "catalan": lambda n: (4 * n + 2, 0, n + 2),
    # (n + 2) M_n = (2n + 1) M_{n-1} + 3(n - 1) M_{n-2}, at n + 1
    "motzkin": lambda n: (2 * n + 3, 3 * n, n + 3),
}


def builtin_sequence(name: str, count: int) -> list[Fraction]:
    """x_0 .. x_{count-1} of the builtin input ``name``, from its row of ``BUILTIN_SEQUENCES``."""
    try:
        step = BUILTIN_SEQUENCES[name]
    except KeyError:
        raise ValueError(
            f"unknown sequence {name!r}; builtins: {', '.join(sorted(BUILTIN_SEQUENCES))}"
        ) from None
    out, prev, cur = [], 0, 1
    for n in range(count):
        out.append(Fraction(cur))
        p, r, s = step(n)
        prev, cur = cur, (p * cur + r * prev) // s
    return out
