"""The column-wise descent walks against per-element reference loops.

``walks`` counts descents one column at a time over the transposed
permutations.  The loops below visit one group element at a time and
read each statistic from its definition; they are the reference, and
the column walks must give exactly their distributions.
"""

from itertools import permutations, product
from math import factorial
from operator import gt

import pytest

from qeuler import walks


def _reference_descent_counts(n):
    counts = [0] * n
    for pi in permutations(range(1, n + 1)):
        des = sum(pi[i] > pi[i + 1] for i in range(n - 1))
        counts[des] += 1
    return tuple(counts)


def _reference_signed_descent_counts(n):
    # descents of w(0) w(1) .. w(n) with the sentinel w(0) = 0
    counts = {}
    for base in permutations(range(1, n + 1)):
        for signs in product((1, -1), repeat=n):
            prev = 0
            des = 0
            neg = 0
            for b, s in zip(base, signs):
                v = b if s > 0 else -b
                if s < 0:
                    neg += 1
                if prev > v:
                    des += 1
                prev = v
            key = (des, neg)
            counts[key] = counts.get(key, 0) + 1
    return tuple(sorted((d, g, m) for (d, g), m in counts.items()))


def _walk(counts, n):
    """Run an uncached walk, so that a patched kernel is not hidden by the cache."""
    return counts.__wrapped__(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_signed_column_walk_equals_the_element_loop(n):
    counts = _walk(walks._signed_descent_counts, n)
    assert counts == _reference_signed_descent_counts(n)
    assert sum(m for _, _, m in counts) == 2**n * factorial(n)


@pytest.mark.parametrize("n", range(1, 8))
def test_descent_column_walk_equals_the_element_loop(n):
    counts = _walk(walks._descent_counts, n)
    assert counts == _reference_descent_counts(n)
    assert sum(counts) == factorial(n)


def _position_zero_mutant(columns):
    # counts a descent at position 0 when w(1) > 0, not when w(1) < 0
    words = zip(*columns)
    return bytes((w[1] > w[0]) + sum(map(gt, w[1:], w[2:])) for w in words)


@pytest.mark.parametrize("n", range(1, 5))
def test_a_mutant_position_zero_rule_fails_the_reference(monkeypatch, n):
    # at n = 1 the descent counts alone are the same under both rules; the joint
    # (des, neg) counts differ at every n
    monkeypatch.setattr(walks, "_descent_tally", _position_zero_mutant)
    counts = _walk(walks._signed_descent_counts, n)
    assert counts != _reference_signed_descent_counts(n)
    assert sum(m for _, _, m in counts) == 2**n * factorial(n)
