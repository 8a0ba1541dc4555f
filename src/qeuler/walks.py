"""Exhaustive walks over S_n and B_n: the enumeration route's oracles.

The walks are deliberately naive.  Each one visits every group element
and reads each statistic from its definition, with no symmetry
reduction and no recurrence, because they serve as independent oracles
for the generating-function, continued-fraction and recurrence routes.
Distributions are cached per n, so evaluating at several t values costs
one walk.

The two descent walks count one column at a time.  The n! orderings of
n letters are the rows of ``permutations(range(n))``; its transpose
``zip(*permutations(range(n)))`` holds position i of every element in
column i, and one broadword subtraction marks, for every element at
once, whether positions i and i+1 form a descent (``_descent_tally``).
The signed walk does this once per sign set, 2^n·n! elements in all:
``bytes.translate`` puts each element's signed letters in place of its
indices.

Only ``table --route enum`` (for every family but General) and
``selftest`` import this module: ``families.enumeration_polynomial``
and the selftest command import it when they run.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import pairwise, permutations, product
from math import factorial
from typing import Sequence

from .algebra import Q, QPoly, Rat, as_fraction

__all__ = [
    "DESCENT_CAP",
    "SIGNED_CAP",
    "descent_polynomial",
    "excedance_cycle_polynomial",
    "signed_descent_polynomial",
    "t_zero_comparison_table",
]

#: Hard ceilings for the exhaustive walks: 8! and 2^7 * 7! group elements.
DESCENT_CAP = 8
SIGNED_CAP = 7


def _descent_tally(columns: Sequence[bytes]) -> bytes:
    """The number of descents of every word, one byte per word.

    Word k is ``(columns[0][k], columns[1][k], ...)``, and it has a
    descent at i when ``columns[i][k] > columns[i + 1][k]``.  Each column
    is read as a little-endian integer, and every pair is compared at
    once by broadword arithmetic (Knuth, TAOCP 4A, 7.1.3): for letters
    below 128, byte k of ``(L | H) - (R + ONES)`` has its high bit set
    exactly when L_k > R_k, where H holds 0x80 and ONES 0x01 in every
    byte, and no borrow crosses a byte.  The sum of those high bits adds
    the comparisons byte by byte, with no carry between bytes, since no
    word here has 256 descents.  A letter of 128 or more is refused.
    """
    if not all(map(bytes.isascii, columns)):
        raise ValueError("the descent tally compares letters below 128 only")
    size = len(columns[0])
    high = int.from_bytes(b"\x80" * size, "little")
    ones = high >> 7
    words = [int.from_bytes(c, "little") for c in columns]
    total = sum(((left | high) - (right + ones)) & high for left, right in pairwise(words))
    return (total >> 7).to_bytes(size, "little")


def _index_columns(n: int) -> list[bytes]:
    """Column i holds position i of every ordering of 0 .. n-1, in ``permutations`` order."""
    return [bytes(column) for column in zip(*permutations(range(n)))]


@lru_cache(maxsize=None)
def _descent_counts(n: int) -> tuple[int, ...]:
    des = _descent_tally(_index_columns(n))
    return tuple(map(des.count, range(n)))


@lru_cache(maxsize=None)
def _exc_cycle_counts(n: int) -> tuple[tuple[int, int, int], ...]:
    counts: dict[tuple[int, int], int] = {}
    for pi in permutations(range(1, n + 1)):
        exc = sum(v > i for i, v in enumerate(pi, start=1))
        seen = [False] * n
        cyc = 0
        for start in range(n):
            if seen[start]:
                continue
            cyc += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = pi[j] - 1
        key = (exc, cyc)
        counts[key] = counts.get(key, 0) + 1
    return tuple(sorted((e, c, m) for (e, c), m in counts.items()))


@lru_cache(maxsize=None)
def _signed_descent_counts(n: int) -> tuple[tuple[int, int, int], ...]:
    # descents of w(0) w(1) .. w(n) with the sentinel w(0) = 0.  The sign set
    # fixes the letters, and so neg; their n! orderings are its elements.  A
    # letter v is stored as the byte v + n, which keeps the order of letters.
    columns = _index_columns(n)
    sentinel = bytes([n]) * factorial(n)
    counts: dict[tuple[int, int], int] = {}
    for signs in product((1, -1), repeat=n):
        letters = bytes(n + s * b for s, b in zip(signs, range(1, n + 1))).ljust(256, b"\0")
        des = _descent_tally([sentinel, *(c.translate(letters) for c in columns)])
        neg = signs.count(-1)
        for d in range(n + 1):
            if m := des.count(d):
                counts[d, neg] = counts.get((d, neg), 0) + m
    return tuple(sorted((d, g, m) for (d, g), m in counts.items()))


def _check_cap(n: int, cap: int, what: str) -> None:
    if not 1 <= n <= cap:
        raise ValueError(f"{what} enumerates groups only for 1 <= n <= {cap}, got {n}")


def descent_polynomial(n: int, cap: int = DESCENT_CAP) -> QPoly:
    """sum over S_n of q^{des(pi)}, by exhaustive walk."""
    _check_cap(n, cap, "descent_polynomial")
    return QPoly(*_descent_counts(n))


def excedance_cycle_polynomial(n: int, t: Rat | str, cap: int = DESCENT_CAP) -> QPoly:
    """sum over S_n of q^{exc(pi)+1} t^{cyc(pi)}.

    Note the conventional extra factor q: at t = 1 this is q times the
    descent polynomial, not the descent polynomial itself.
    """
    _check_cap(n, cap, "excedance_cycle_polynomial")
    ft = as_fraction(t)
    coeffs = [Fraction(0)] * (n + 1)
    for exc, cyc, count in _exc_cycle_counts(n):
        coeffs[exc + 1] += count * ft**cyc
    return QPoly(*coeffs)


def signed_descent_polynomial(n: int, t: Rat | str, cap: int = SIGNED_CAP) -> QPoly:
    """sum over signed permutations of q^{des(w)} t^{neg(w)}, sentinel w(0)=0."""
    _check_cap(n, cap, "signed_descent_polynomial")
    ft = as_fraction(t)
    coeffs = [Fraction(0)] * (n + 1)
    for des, neg, count in _signed_descent_counts(n):
        coeffs[des] += count * ft**neg
    return QPoly(*coeffs)


def t_zero_comparison_table(nmax: int = 6) -> list[dict]:
    """Compare the signed enumeration at t = 0 with the TypeA polynomial.

    Folklore would suggest they coincide; in this normalization the
    signed walk at t = 0 lands on the descent polynomial (the shifted
    family), one factor of q below TypeA.  The table reports both plus
    the observed relation, for every n up to nmax.
    """
    rows = []
    for n in range(1, nmax + 1):
        signed_t0 = signed_descent_polynomial(n, 0)
        type_a = Q * descent_polynomial(n)
        rows.append(
            {
                "n": n,
                "signed_t0": signed_t0,
                "type_a": type_a,
                "equal": signed_t0 == type_a,
                "type_a_is_q_times_signed_t0": type_a == Q * signed_t0,
            }
        )
    return rows
