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

Each cached walk returns one shape, the sorted (power of q, power of t,
count) triples of its distribution.  One builder,
``_walk_polynomial``, checks the walk's fixed cap, weights each triple
by t and builds the ``QPoly``.

Only ``table --route enum`` (for every family but General) and
``selftest`` import this module: ``families`` imports it when it runs a
family's walk, and declares the caps in ``_FAMILIES``.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from functools import lru_cache
from itertools import pairwise, permutations, product
from math import factorial
from operator import gt

from . import _EXPORTS
from .algebra import QPoly, Rat, as_fraction
from .families import DESCENT_CAP, SIGNED_CAP

__all__ = list(_EXPORTS["walks"])


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
def _descent_counts(n: int) -> tuple[tuple[int, int, int], ...]:
    des = _descent_tally(_index_columns(n))
    return tuple((d, 0, des.count(d)) for d in range(n))


@lru_cache(maxsize=None)
def _exc_cycle_counts(n: int) -> tuple[tuple[int, int, int], ...]:
    counts: Counter[tuple[int, int]] = Counter()
    for pi in permutations(range(n)):
        seen = [False] * n
        cyc = 0
        for start in range(n):
            cyc += not seen[start]
            j = start
            while not seen[j]:
                seen[j] = True
                j = pi[j]
        counts[sum(map(gt, pi, range(n))), cyc] += 1
    return tuple(sorted((e, c, m) for (e, c), m in counts.items()))


@lru_cache(maxsize=None)
def _signed_descent_counts(n: int) -> tuple[tuple[int, int, int], ...]:
    # descents of w(0) w(1) .. w(n) with the sentinel w(0) = 0.  The sign set
    # fixes the letters, and so neg; their n! orderings are its elements.  A
    # letter v is stored as the byte v + n, which keeps the order of letters.
    columns = _index_columns(n)
    sentinel = bytes([n]) * factorial(n)
    counts: Counter[tuple[int, int]] = Counter()
    for signs in product((1, -1), repeat=n):
        letters = bytes(n + s * b for s, b in zip(signs, range(1, n + 1))).ljust(256, b"\0")
        des = _descent_tally([sentinel, *(c.translate(letters) for c in columns)])
        neg = signs.count(-1)
        for d in range(n + 1):
            if m := des.count(d):
                counts[d, neg] += m
    return tuple(sorted((d, g, m) for (d, g), m in counts.items()))


def _walk_polynomial(what: str, limit: int, walk, n: int, t: Rat | str = 1) -> QPoly:
    """sum of count q^i t^k over the (i, k, count) triples of WALK at n, for 1 <= n <= LIMIT."""
    if not 1 <= n <= limit:
        raise ValueError(f"{what} enumerates groups only for 1 <= n <= {limit}, got {n}")
    ft = as_fraction(t)
    coeffs = [0] * (n + 1)
    for i, k, count in walk(n):
        coeffs[i] += count * ft**k
    return QPoly(*coeffs)


def descent_polynomial(n: int) -> QPoly:
    """sum over S_n of q^{des(pi)}, by exhaustive walk."""
    return _walk_polynomial("descent_polynomial", DESCENT_CAP, _descent_counts, n)


def excedance_cycle_polynomial(n: int, t: Rat | str) -> QPoly:
    """A_n(q, t), the sum over S_n of q^{exc(pi)} t^{cyc(pi)}.

    Excedances and descents are equidistributed over S_n, so at t = 1
    this is the descent polynomial.
    """
    return _walk_polynomial("excedance_cycle_polynomial", DESCENT_CAP, _exc_cycle_counts, n, t)


def signed_descent_polynomial(n: int, t: Rat | str) -> QPoly:
    """sum over signed permutations of q^{des(w)} t^{neg(w)}, sentinel w(0)=0."""
    return _walk_polynomial("signed_descent_polynomial", SIGNED_CAP, _signed_descent_counts, n, t)

