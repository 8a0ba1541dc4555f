"""Jacobi continued fractions, moments, and orthogonal polynomials.

A ``JFraction`` holds the weights of

    h(x) = 1 / (1 - s_0 x - t_1 x^2 / (1 - s_1 x - t_2 x^2 / (...)))

whose Taylor coefficients mu_n are the moments of a linear functional,
held as a plain tuple of ``QPoly``.  Three independent computations
meet here and must agree exactly:

* ``moments_by_motzkin_paths``   -- weighted lattice-path sums (level
  step at height i weighs s_i, down step from height i weighs t_i, up
  step 1), one ``poly_dot`` per height at each length (Flajolet 1980);
* ``moments_by_cfrac_expansion`` -- the truncated fraction itself,
  written as one quotient N/D of polynomials in x by the three-term
  recurrence of its convergents and expanded by a single exact
  division.  It never walks paths and never calls the series module,
  so it stays an independent witness for the other two;
* the first column of a Riordan array whose production matrix is
  tridiagonal with these weights (checked in the test suite).

One private step, ``_three_term(up, level, down, s, t)``, forms
``up - s*level - t*down`` entrywise, the three-term recurrence of the
fraction (Flajolet 1980).  It is the convergent update of
``moments_by_cfrac_expansion``; ``orthogonal_basis`` runs it as

    Q_{n+1}(x) = (x - s_n) Q_n(x) - t_n Q_{n-1}(x),   Q_{-1} = 0, t_0 = 0,

and returns the coefficient rows of Q_0, Q_1, ... as a tuple of tuples;
``jfraction_from_moments`` inverts moments back to weights by the
Chebyshev algorithm (Gautschi 2004, section 2.1): the same step run on
the mixed moments sigma_{k,l} = <Q_k, x^l>, which needs only
polynomial products and exact divisions in Q[q].  Its quotients are
identically s_0 + ... + s_k and t_k, so when the weights are
polynomials every division leaves no remainder; a remainder is refused
rather than carried as a rational function, and a vanishing norm
<Q_k, x^k> means the functional is not quasi-definite.  A ``JFraction``
is a named tuple, and ``cli`` writes its ``_asdict()`` as JSON; this
module has no serialization.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence

from . import _EXPORTS
from .algebra import (
    ONE,
    QPoly,
    ZERO,
    _from_parts,
    as_qpoly,
    poly_divmod,
    poly_dot,
)
from .families import _weight_forms

__all__ = list(_EXPORTS["jacobi"])


class NonQuasiDefiniteError(ValueError):
    """A norm <Q_k, x^k> vanished: the functional has no J-fraction."""


class JFraction(namedtuple("JFraction", "s t")):
    """Continued-fraction weights; ``t[i]`` stores ``t_{i+1}``."""

    __slots__ = ()

    def __new__(cls, s: Sequence, t: Sequence) -> JFraction:
        s = tuple(as_qpoly(v) for v in s)
        t = tuple(as_qpoly(v) for v in t)
        if not s:
            raise ValueError("at least s_0 is required")
        if len(t) != len(s) - 1:
            raise ValueError(f"want len(t) = len(s) - 1, got {len(t)} vs {len(s)}")
        return super().__new__(cls, s, t)

    @property
    def depth(self) -> int:
        return len(self.s)


def jfraction_from_params(a, b, d, depth: int) -> JFraction:
    """Closed-form weights attached to the EGF parameters (a, b, d):

        s_i     = (d i + a b) + (d i + b d - a b) q
        t_{i+1} = d^2 (i + 1)(i + b) q

    Each weight is built from the integer numerators of
    ``families._weight_forms``: s_i over den, t_{i+1} over den^2.
    """
    den, step, s0, s1 = _weight_forms(a, b, d)
    if depth < 1:
        raise ValueError("depth must be positive")
    s = tuple(_from_parts([step * i + s0, step * i + s1], den) for i in range(depth))
    t = tuple(
        _from_parts([0, (i + 1) * step * (step * i + s0 + s1)], den * den) for i in range(depth - 1)
    )
    return JFraction(s, t)


def _require_depth(jf: JFraction, count: int, what: str) -> int:
    """The height floor((count-1)/2) that ``count`` moments reach, once ``jf`` is deep enough."""
    if count < 1:
        raise ValueError("count must be positive")
    height = (count - 1) // 2
    if len(jf.s) < height + 1 or len(jf.t) < height:
        raise ValueError(
            f"{what} needs weights up to height {height} "
            f"(depth >= {height + 1}), have depth {jf.depth}"
        )
    return height


def _three_term(up, level, down, s: QPoly, t: QPoly) -> list[QPoly]:
    """``up - s*level - t*down`` entrywise: the one three-term step of the module.

    A shorter operand counts as zero past its end, and a zero weight or
    a zero entry adds no product.
    """
    out = list(up) + [ZERO] * (max(len(level), len(down)) - len(up))
    for w, terms in ((s, level), (t, down)):
        if not w.is_zero:
            for i, c in enumerate(terms):
                if not c.is_zero:
                    out[i] = out[i] - w * c
    return out


def moments_by_motzkin_paths(jf: JFraction, count: int) -> tuple[QPoly, ...]:
    """mu_n as the total weight of closed lattice paths of length n.

    After n steps a path must get back to 0 in the count - 1 - n steps
    left, so heights above min(n, count - 1 - n) are pruned; no path
    climbs above floor((count-1)/2).  A path ends its step at height h
    by an up step from h - 1 (weight 1), a level step at h (weight s_h)
    or a down step from h + 1 (weight t_{h+1}), so each height's next
    weight is one ``poly_dot``.
    """
    height = _require_depth(jf, count, "motzkin moment computation")
    s, t = jf.s[: height + 1], (*jf.t[:height], ZERO)
    cur: list[QPoly] = [ONE]  # cur[h]: the weight of paths ending at height h
    out: list[QPoly] = [ONE]
    for n in range(1, count):
        padded = [ZERO, *cur, ZERO]  # padded[h:h + 3] is cur[h - 1], cur[h], cur[h + 1]
        cur = [
            poly_dot(padded[h : h + 3], (ONE, s[h], t[h])) for h in range(min(n, count - 1 - n) + 1)
        ]
        out.append(cur[0])
    return tuple(out)


def moments_by_cfrac_expansion(jf: JFraction, count: int) -> tuple[QPoly, ...]:
    """mu_n by expanding the nested fraction through its convergents.

    With H = floor((count-1)/2), levels below H only influence x-powers
    beyond the window, so the fraction is cut there: above level H it is
    written as N/D = 0/1.  Wrapping one level up,

        1/(1 - s_k x - t_{k+1} x^2 N/D) = D / ((1 - s_k x) D - t_{k+1} x^2 N),

    so (N, D) <- (D, D - s_k xD - t_{k+1} x^2 N), one ``_three_term``
    step, is the recurrence of the convergents, kept below x^count.
    Every step keeps D(0) = 1, hence the single division N/D at the end
    is exact in Q[q] and needs no rational functions: the whole route
    costs O(count^2) polynomial products.  It reads the fraction as an
    algebraic object, sharing nothing with the path count except the
    weights themselves.
    """
    height = _require_depth(jf, count, "cfrac moment expansion")
    # above height H the fraction is N/D = 0/1, so t_{H+1} x^2 N adds nothing
    num: list[QPoly] = []
    den: list[QPoly] = [ONE]
    for k in range(height, -1, -1):
        t = jf.t[k] if k < height else ZERO
        x_den, x2_num = [ZERO, *den][:count], [ZERO, ZERO, *num][:count]
        num, den = den, _three_term(den, x_den, x2_num, jf.s[k], t)
    # mu = N / D with D(0) = 1: mu_n = N_n - sum_{k>=1} D_k mu_{n-k}
    num += [ZERO] * (count - len(num))
    rest = den[1:]
    mu: list[QPoly] = []
    for c in num:
        mu.append(c - poly_dot(rest, reversed(mu)))
    return tuple(mu)


def orthogonal_basis(jf: JFraction, size: int) -> tuple[tuple[QPoly, ...], ...]:
    """The first ``size`` monic orthogonal polynomials; ``rows[n][k] = [x^k] Q_n``."""
    if size < 1:
        raise ValueError("size must be positive")
    if len(jf.s) < size - 1 or len(jf.t) < max(0, size - 2):
        raise ValueError(f"need depth >= {size - 1} for {size} rows, have {jf.depth}")
    rows: list[tuple[QPoly, ...]] = [(), (ONE,)]  # Q_{-1} = 0, Q_0 = 1
    for s, t in zip(jf.s[: size - 1], (ZERO, *jf.t)):  # t_0 = 0
        rows.append(tuple(_three_term((ZERO, *rows[-1]), rows[-1], rows[-2], s, t)))
    return tuple(rows[1:])


def verify_orthogonality(basis: Sequence[Sequence[QPoly]], moments: Sequence[QPoly]) -> bool:
    """Check <Q_n, x^m> = 0 for m < n and <Q_n, x^n> != 0, exactly.

    Row n of ``basis`` must be a monic Q_n of degree n.  The norm check
    at the last row touches mu_{2(size-1)}, hence the moment sequence
    must reach that index.
    """
    for n, row in enumerate(basis):
        if len(row) != n + 1 or row[-1] != ONE:
            raise ValueError(f"row {n} is not a monic degree-{n} polynomial")
    size = len(basis)
    need = 2 * (size - 1)
    if len(moments) < need + 1:
        raise ValueError(f"need {need + 1} moments for {size} rows, have {len(moments)}")
    for n, row in enumerate(basis):
        # <Q_n, x^m> = sum_k [x^k] Q_n mu_{k+m}
        if any(poly_dot(row, moments[m:]) for m in range(n)) or not poly_dot(row, moments[n:]):
            return False
    return True


def jfraction_from_moments(moments: Sequence, depth: int | None = None) -> JFraction:
    """Recover (s, t) from moments by the Chebyshev algorithm.

    The mixed moments sigma_{k,l} = <Q_k, x^l> of the monic orthogonal
    polynomials follow from the three-term recurrence of the Q_k:

        sigma_{0,l} = mu_l,
        sigma_{k,l} = sigma_{k-1,l+1} - s_{k-1} sigma_{k-1,l}
                      - t_{k-1} sigma_{k-2,l}          (t_0 = 0),

    for k <= l <= 2*depth - 1 - k, so moments up to index 2*depth - 1
    are needed and only two rows are kept.  Orthogonality leaves
    <Q_k, Q_k> = sigma_{k,k}, the norm; when it vanishes the functional
    is not quasi-definite and ``NonQuasiDefiniteError`` is raised.  As
    Q_k = x^k - (s_0 + ... + s_{k-1}) x^{k-1} + ..., the quotient

        a_k = sigma_{k,k+1} / sigma_{k,k} = s_0 + ... + s_k,

    so s_k = a_k - a_{k-1}, and t_k = sigma_{k,k} / sigma_{k-1,k-1}.
    Both quotients are exact divisions in Q[q] precisely when the
    weights are polynomials; a remainder raises ``ValueError`` naming
    the first nonpolynomial weight.  The cost is O(depth^2) polynomial
    products and 2*depth - 1 divisions, with no rational functions and no
    gcd.  Entries pass through ``as_qpoly``; an empty sequence, or one
    moment with no depth given, is refused, and mu_0 = 1 is enforced
    because the leading "1/(1 - ...)" of the fraction cannot carry a
    scale factor.
    """
    mu = [as_qpoly(v) for v in moments]
    if not mu:
        raise ValueError("empty moment sequence")
    if mu[0] != ONE:
        raise ValueError("moment inversion requires mu_0 = 1")
    max_depth = len(mu) // 2
    if depth is None:
        if not max_depth:
            raise ValueError(f"moment inversion needs at least 2 moments, have {len(mu)}")
        depth = max_depth
    if depth < 1:
        raise ValueError("depth must be positive")
    if depth > max_depth:
        raise ValueError(f"depth {depth} needs {2 * depth} moments, have {len(mu)}")

    def nonpolynomial(what: str, num: QPoly, den: QPoly) -> ValueError:
        return ValueError(f"moment inversion produced a nonpolynomial {what}: ({num}) / ({den})")

    # row k holds sigma_{k,k}, sigma_{k,k+1}, ..., sigma_{k,2*depth-1-k}
    older: list[QPoly] = []
    row: list[QPoly] = mu[: 2 * depth]
    s_out: list[QPoly] = []
    t_out: list[QPoly] = [ZERO]  # t_0 = 0
    norm_prev = ONE
    partial = ZERO  # a_{k-1} = s_0 + ... + s_{k-1}
    for k in range(depth):
        if k:
            older, row = row, _three_term(row[2:], row[1:-1], older[2:-2], s_out[-1], t_out[-1])
        norm = row[0]
        if norm.is_zero:
            raise NonQuasiDefiniteError(
                f"norm of Q_{k} vanishes; no J-fraction of depth {depth} exists"
            )
        a, rem = poly_divmod(row[1], norm)
        if not rem.is_zero:
            raise nonpolynomial(f"s_{k}", row[1] - partial * norm, norm)
        s_out.append(a - partial)
        partial = a
        if k:
            ratio, rem = poly_divmod(norm, norm_prev)
            if not rem.is_zero:
                raise nonpolynomial(f"t_{k}", norm, norm_prev)
            t_out.append(ratio)
        norm_prev = norm
    return JFraction(tuple(s_out), tuple(t_out[1:]))
