"""Acceptance gate: every guaranteed behavior, checked end to end.

Each test covers one numbered guarantee and prints a single pass line;
all arithmetic is exact, so every comparison below is == with zero
tolerance.  Instance grids are written out in full rather than
generated, so a failure names the exact parameters that broke.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from qeuler.algebra import QPoly
from qeuler.cli import main
from qeuler.convexity import (
    builtin_sequence,
    check_q_log_convex,
    check_strong_q_log_convex,
    moment_convexity_criterion,
    transform_log_convexity_experiment,
    weight_gap,
)
from qeuler.families import (
    FamilySpec,
    enumeration_polynomial,
    eulerian_numbers_type_b,
    family_egf_params,
    type_b_polynomial,
)
from qeuler.jacobi import (
    JFraction,
    NonQuasiDefiniteError,
    jfraction_from_moments,
    jfraction_from_params,
    moments_by_cfrac_expansion,
    moments_by_motzkin_paths,
    orthogonal_basis,
    verify_orthogonality,
)
from qeuler.riordan import (
    exp_riordan_from_params,
    lower_tri_inverse,
    production_matrix_direct,
    production_matrix_from_series,
    production_series,
    riordan_matrix,
)
from qeuler.series import egf_polynomials
from qeuler.walks import descent_polynomial, signed_descent_polynomial

ONE = QPoly(1)
Q = QPoly(0, 1)

T_GRID = (Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3))
GENERAL_GRID = ((1, 1), (1, 2), (1, 3), (2, 5), (0, 1))

INSTANCES = (
    [FamilySpec("TypeA_shifted"), FamilySpec("TypeA")]
    + [FamilySpec("TypeA_qt", t=t) for t in T_GRID]
    + [FamilySpec("TypeB")]
    + [FamilySpec("TypeB_qt", t=t) for t in T_GRID]
    + [FamilySpec("General", a=Fraction(a), d=Fraction(d)) for a, d in GENERAL_GRID]
)
assert len(INSTANCES) == 18


def _passed(line: str) -> None:
    print(f"criterion {line}: PASS")


def test_criterion_1_both_moment_routes_reproduce_the_generating_function():
    count = 12
    for spec in INSTANCES:
        a, b, d = family_egf_params(spec)
        want = egf_polynomials(a, b, d, count)
        jf = jfraction_from_params(a, b, d, count)
        by_paths = moments_by_motzkin_paths(jf, count)
        by_cfrac = moments_by_cfrac_expansion(jf, count)
        for n in range(count):
            assert by_paths[n] == want[n], (spec.label(), n, "paths")
            assert by_cfrac[n] == want[n], (spec.label(), n, "cfrac")
    _passed("1 (moments match the generating function, n <= 11, 18 instances)")


def test_criterion_2_production_matrix_two_constructions_agree():
    params = [
        (1, 1, 1),
        (0, 1, 1),
        (1, 2, 1),
        (1, Fraction(1, 2), 1),
        (1, 1, 2),
        (1, 1, Fraction(3, 2)),
        (2, 1, 5),
    ]
    order = 10
    for a, b, d in params:
        arr = exp_riordan_from_params(a, b, d, order)
        direct = production_matrix_direct(riordan_matrix(arr))
        c, r = production_series(arr)
        formula = production_matrix_from_series(c, r)
        assert direct.tridiagonal and formula.tridiagonal, (a, b, d)
        for i, row in enumerate(formula.entries):
            for j, entry in enumerate(row):
                assert direct.entries[i][j] == entry, (a, b, d, i, j)
        # extracted weights agree with the closed forms
        fa, fb, fd = Fraction(a), Fraction(b), Fraction(d)
        s = direct.s_values(8)
        t = direct.t_values(7)
        for i in range(8):
            assert s[i] == QPoly(fd * i + fa * fb, fd * i + fb * fd - fa * fb)
        for i in range(1, 8):
            assert t[i - 1] == QPoly(0, fd * fd * i * (i - 1 + fb))
    _passed("2 (direct and closed-form production matrices agree, order 10)")


def test_criterion_3_inverse_matrix_rows_are_orthogonal_polynomials():
    half = Fraction(1, 2)
    for a, b, d in [
        (1, 1, 1), (1, 1, 2), (2, 1, 5),
        # rational, and outside the region where the weights are nonnegative
        (1, half, 3 * half), (Fraction(2, 3), 1, Fraction(5, 3)), (3, 1, 1),
        (1, -2, 1), (-5 * half, Fraction(3, 7), 2), (1, 0, 1),
    ]:
        size = 8
        arr = exp_riordan_from_params(a, b, d, size)
        inv = lower_tri_inverse(riordan_matrix(arr))
        jf = jfraction_from_params(a, b, d, size)
        basis = orthogonal_basis(jf, size)
        for n in range(size):
            assert inv[n] == (*basis[n], *[QPoly(0)] * (size - n - 1)), (a, b, d, n)
        mu = moments_by_motzkin_paths(jf, 11)
        # the norm <Q_n, x^n> is t_1 ... t_n: it vanishes at (1, -2, 1) and (1, 0, 1)
        quasi_definite = all(jf.t[:5])
        assert verify_orthogonality(orthogonal_basis(jf, 6), mu) == quasi_definite, (a, b, d)
    _passed("3 (matrix inverse rows coincide with orthogonal polynomials)")


def test_criterion_4_enumeration_agrees_with_analytic_routes():
    # hand anchors first
    assert descent_polynomial(3) == QPoly(1, 4, 1)
    assert signed_descent_polynomial(2, 1) == QPoly(1, 6, 1)
    assert signed_descent_polynomial(3, 1) == QPoly(1, 23, 23, 1)

    def caps(spec):
        if spec.family in ("TypeB", "TypeB_qt"):
            return 7
        if spec.family == "General":
            return 10
        return 8

    for spec in INSTANCES:
        cap = caps(spec)
        count = cap + 1
        a, b, d = family_egf_params(spec)
        want = egf_polynomials(a, b, d, count)
        jf = jfraction_from_params(a, b, d, count)
        moments = moments_by_cfrac_expansion(jf, count)
        enum = enumeration_polynomial(spec, count)
        for n in range(count):
            assert enum[n] == want[n], (spec.label(), n, "egf")
            assert enum[n] == moments[n], (spec.label(), n, "cfrac")
    _passed("4 (permutation statistics match both analytic routes)")


def test_criterion_5_type_b_triangle_recurrence_and_derivative_recurrence():
    start = time.monotonic()
    want = egf_polynomials(1, 1, 2, 11)
    for n in range(11):
        triangle = QPoly(*eulerian_numbers_type_b(n))
        derived = type_b_polynomial(n)
        assert triangle == derived, n
        assert derived == want[n], n
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _passed("5 (both type B recurrences reproduce the polynomials, n <= 10)")


def test_criterion_6_convexity_theorems_hold_on_the_grid():
    # strong q-log-convexity of the polynomial sequences themselves
    for spec in INSTANCES:
        a, b, d = family_egf_params(spec)
        polys = egf_polynomials(a, b, d, 10)
        report = check_strong_q_log_convex(polys)
        assert report.verdict, (spec.label(), report.witnesses)

    # the sufficient weight criterion, far past the printed tables
    for spec in INSTANCES:
        a, b, d = family_egf_params(spec)
        jf = jfraction_from_params(a, b, d, 52)
        report = moment_convexity_criterion(jf, 50)
        assert report.verdict, (spec.label(), report.witnesses)
        assert report.hypothesis_nonneg, spec.label()

    # the expanded gap stays coefficientwise nonnegative whenever
    # b >= 0 and d >= a >= 0, and dominates its reference bound
    values = (Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3))
    for a in values:
        for d in values:
            if d < a:
                continue
            for b in (Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2), Fraction(5)):
                for i in range(51):
                    res = weight_gap(i, a, b, d)
                    assert min(res.gap.coeffs, default=0) >= 0, (a, b, d, i)
                    assert min(res.reference_bound.coeffs, default=0) >= 0, (a, b, d, i)
                    assert res.bound_is_lower, (a, b, d, i)
    _passed("6 (q-log-convexity, weight criterion to i = 50, gap bounds)")


def test_criterion_7_moment_inversion_round_trips():
    for spec in INSTANCES:
        a, b, d = family_egf_params(spec)
        jf = jfraction_from_params(a, b, d, 6)
        mu = moments_by_motzkin_paths(jfraction_from_params(a, b, d, 12), 12)
        if b == 0:
            # t_1 = 0 makes the functional degenerate: these moments
            # determine no J-fraction, and the inversion must say so
            with pytest.raises(NonQuasiDefiniteError):
                jfraction_from_moments(mu, 6)
            continue
        assert jfraction_from_moments(mu, 6) == jf, spec.label()

    rng = random.Random(170_000)
    done = 0
    while done < 20:
        depth = rng.randint(2, 5)
        s = tuple(
            QPoly(Fraction(rng.randint(-6, 6), rng.randint(1, 4))) for _ in range(depth)
        )
        t = tuple(
            QPoly(Fraction(rng.choice([-3, -2, -1, 1, 2, 3, 5]), rng.randint(1, 3)))
            for _ in range(depth - 1)
        )
        jf = JFraction(s, t)
        mu = moments_by_motzkin_paths(jf, 2 * depth)
        assert jfraction_from_moments(mu, depth) == jf, (s, t)
        done += 1
    _passed("7 (J-fraction recovery from moments, families and 20 random)")


def test_criterion_8_negative_controls_are_rejected():
    # a planted spike is caught with the exact witness
    report = check_q_log_convex([ONE, ONE + Q, ONE])
    assert not report.verdict
    assert report.witnesses == ((1, 1, 1),)

    # the weight criterion rejects a constructed counterexample
    bad = JFraction((ONE, ONE, ONE), (Q, QPoly(2, 2)))
    report = moment_convexity_criterion(bad, 1)
    assert not report.verdict
    assert report.witnesses == ((1, 2, 0),)

    # degenerate moments have no continued fraction
    with pytest.raises(NonQuasiDefiniteError):
        jfraction_from_moments((ONE, QPoly(), QPoly(), QPoly(), QPoly(), QPoly()), 3)
    _passed("8 (spiked sequence, bad weights, degenerate moments all refused)")


def test_criterion_9_transform_experiments_complete_deterministically(capsys):
    names = ("ones", "powers2", "factorial", "catalan", "motzkin")
    outputs = []
    for _ in range(2):
        chunks = []
        for name in names:
            for triangle in ("A", "B"):
                code = main(
                    ["conjecture", "--triangle", triangle, "--seq", name, "--nmax", "12"]
                )
                out = capsys.readouterr().out
                assert code == 0, (name, triangle)
                payload = json.loads(out)
                assert payload["result"]["report"]["verdict"] is True
                chunks.append(out)
        outputs.append("".join(chunks))
    assert outputs[0] == outputs[1]

    # the library-level experiment agrees with what the line above printed
    xs = builtin_sequence("catalan", 13)
    report = transform_log_convexity_experiment("B", xs, 12)
    assert report.verdict
    _passed("9 (ten transform runs to n = 12, byte-identical on repeat)")
