"""The column-wise descent walks against per-element reference loops.

``walks`` counts descents one column at a time over the transposed
permutations, comparing whole columns by broadword arithmetic.  The
loops below visit one group element at a time and read each statistic
from its definition; they are the reference, and the column walks must
give exactly their distributions.  The kernel itself is checked against
``map(gt, ...)`` on every pair of letters it accepts.
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


# every pair (l, r) of letters in 0..127, one pair per byte position
_LEFT = bytes(l for l in range(128) for _ in range(128))
_RIGHT = bytes(range(128)) * 128


def _at_least_mutant(columns):
    # the kernel without its ONES term marks l >= r, not l > r
    size = len(columns[0])
    high = int.from_bytes(b"\x80" * size, "little")
    words = [int.from_bytes(c, "little") for c in columns]
    total = sum(((left | high) - right) & high for left, right in zip(words, words[1:]))
    return (total >> 7).to_bytes(size, "little")


def test_the_tally_marks_exactly_the_strict_descents():
    assert walks._descent_tally([_LEFT, _RIGHT]) == bytes(map(gt, _LEFT, _RIGHT))


def test_an_at_least_mutant_fails_the_pair_check():
    # the walks never compare equal letters, so only the pair grid tells > from >=
    assert _at_least_mutant([_LEFT, _RIGHT]) != bytes(map(gt, _LEFT, _RIGHT))


def test_the_tally_adds_the_marks_of_every_column_pair():
    columns = [_LEFT, _RIGHT, _LEFT[::-1], _RIGHT]
    marks = [bytes(map(gt, l, r)) for l, r in zip(columns, columns[1:])]
    assert walks._descent_tally(columns) == bytes(map(sum, zip(*marks)))


@pytest.mark.parametrize("letter", [128, 200, 255])
def test_letters_of_128_or_more_are_refused(letter):
    for columns in ([bytes([letter, 0])], [b"\0\0", bytes([0, letter])]):
        with pytest.raises(ValueError, match="below 128"):
            walks._descent_tally(columns)

