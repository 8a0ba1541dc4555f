"""Truncated power series with coefficients in Q[q]."""

import random
from fractions import Fraction

import pytest

from qeuler.algebra import QPoly
from qeuler.ratfun import QRatFun
from qeuler.series import TruncSeries, compose_all, egf_polynomials, egf_series


def _series(order, *scalars):
    return TruncSeries(order, [QPoly(c) for c in scalars])


def _rand_series(rng, order, constant=None):
    coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(order)]
    if constant is not None:
        coeffs[0] = Fraction(constant)
    return _series(order, *coeffs)


# -- construction ------------------------------------------------------------


def test_constructor_pads_and_rejects_overflow():
    s = _series(4, 1, 2)
    assert s.coeffs == (QPoly(1), QPoly(2), QPoly(0), QPoly(0))
    with pytest.raises(ValueError):
        TruncSeries(2, [QPoly(1)] * 3)
    with pytest.raises(ValueError):
        TruncSeries(0)


def test_series_is_immutable():
    s = TruncSeries.x(3)
    with pytest.raises(AttributeError):
        s.order = 5


def test_classmethod_builders():
    assert TruncSeries.constant(3, 7) == _series(3, 7)
    assert TruncSeries.x(3) == _series(3, 0, 1)
    assert TruncSeries.constant(2, 0).coeffs == (QPoly(), QPoly())


# -- ring operations ---------------------------------------------------------


def test_add_mul_truncate_consistently():
    one_plus_x = _series(3, 1, 1)
    assert one_plus_x * one_plus_x == _series(3, 1, 2, 1)
    # the x^3 term falls off the end at order 3
    assert one_plus_x * _series(3, 1, 1, 1) == _series(3, 1, 2, 2)
    assert one_plus_x + 1 == _series(3, 2, 1)
    assert 2 * one_plus_x == _series(3, 2, 2)
    assert one_plus_x - one_plus_x == TruncSeries.constant(3, 0)


def test_mixed_orders_refused():
    with pytest.raises(ValueError):
        TruncSeries.x(3) + TruncSeries.x(4)


def test_inverse_of_one_minus_x_is_geometric():
    geom = _series(6, 1, -1).inverse()
    assert geom == _series(6, *([1] * 6))
    assert (geom * _series(6, 1, -1)) == TruncSeries.constant(6, 1)
    with pytest.raises(ValueError):
        TruncSeries.x(3).inverse()


def test_division_solves_h_times_den_equals_num():
    num = _series(5, 1, 2, 3)
    den = _series(5, 1, -1)
    h = num / den
    assert h * den == num
    assert h == _series(5, 1, 3, 6, 6, 6)
    assert 1 / den == den.inverse() == _series(5, *([1] * 5))
    # a scalar divisor divides every coefficient
    assert num / 2 == _series(5, Fraction(1, 2), 1, Fraction(3, 2))


def test_division_by_a_polynomial_constant_term_is_exact():
    one_minus_q = QPoly(1, -1)
    den = TruncSeries(4, [one_minus_q, one_minus_q * QPoly(0, 1)])
    num = den * _series(4, 2, 0, 1)
    assert num / den == _series(4, 2, 0, 1)


def test_division_by_a_non_unit_constant_term_keeps_its_values():
    # one path for every divisor: a rational constant term and (3/2)(1 - q)
    three_halves = Fraction(3, 2)
    assert _series(5, 1, 2, 3) / _series(5, three_halves, 1) == _series(
        5, Fraction(2, 3), Fraction(8, 9), Fraction(38, 27), Fraction(-76, 81), Fraction(152, 243)
    )
    assert _series(5, 1, 2, 3) / three_halves == _series(5, Fraction(2, 3), Fraction(4, 3), 2)
    assert _series(5, 1) / TruncSeries.constant(5, three_halves) == _series(5, Fraction(2, 3))
    lead = QPoly(three_halves, -three_halves)
    den = TruncSeries(5, [lead, lead * QPoly(0, 1), lead])
    num = TruncSeries(5, [
        QPoly(three_halves, three_halves, -3),
        QPoly(Fraction(-1, 2), 2, three_halves, -3),
        QPoly(three_halves, 1, 5, Fraction(-15, 2)),
        QPoly(Fraction(-1, 2), Fraction(1, 2), 0, Fraction(15, 2), Fraction(-15, 2)),
        QPoly(0, 0, Fraction(15, 2), Fraction(-15, 2)),
    ])
    assert num / den == TruncSeries(5, [QPoly(1, 2), QPoly(Fraction(-1, 3)), QPoly(0, 0, 5)])
    with pytest.raises(ValueError) as refused:
        _series(3, 1) / TruncSeries(3, [lead])
    assert str(refused.value) == "series division is not exact in Q[q] at x^0: (1) / (3/2 - 3/2*q)"
    with pytest.raises(ValueError) as refused:
        TruncSeries(3, [lead, 1]) / TruncSeries(3, [lead])
    assert str(refused.value) == "series division is not exact in Q[q] at x^1: (1) / (3/2 - 3/2*q)"


def test_division_outside_q_polynomials_is_refused():
    q = QPoly(0, 1)
    # 1 / (q + x): the x^0 quotient 1/q is not a polynomial
    with pytest.raises(ValueError, match=r"x\^0: \(1\) / \(q\)"):
        1 / TruncSeries(3, [q, 1])
    # ((1-q) + x) / (1-q): exact at x^0, refused at x^1
    one_minus_q = QPoly(1, -1)
    with pytest.raises(ValueError, match=r"x\^1"):
        TruncSeries(3, [one_minus_q, 1]) / TruncSeries(3, [one_minus_q])
    with pytest.raises(ValueError):
        _series(3, 1, 1) / TruncSeries.x(3)


def test_coefficients_are_polynomials_only():
    with pytest.raises(TypeError):
        TruncSeries(2, [QRatFun(1, QPoly(1, -1))])
    with pytest.raises(TypeError):
        TruncSeries(2, [1.5])


def test_eulerian_quotient_has_a_n_over_n_factorial():
    # (1-q) e^{(1-q)x} / (1 - q e^{(1-q)x}) = sum_n A_n(q) x^n / n!
    order = 6
    one_minus_q = QPoly(1, -1)
    e = (TruncSeries.x(order) * one_minus_q).exp()
    quotient = (e * one_minus_q) / (1 - e * QPoly(0, 1))
    eulerian = [QPoly(1), QPoly(1), QPoly(1, 1), QPoly(1, 4, 1), QPoly(1, 11, 11, 1),
                QPoly(1, 26, 66, 26, 1)]
    factorial = 1
    for n, a_n in enumerate(eulerian):
        factorial *= max(n, 1)
        assert quotient.coeffs[n] == a_n / factorial


# -- transcendental operations ----------------------------------------------


def test_exp_gives_reciprocal_factorials():
    e = TruncSeries.x(6).exp()
    want = [Fraction(1, 1), 1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24), Fraction(1, 120)]
    assert e == _series(6, *want)
    with pytest.raises(ValueError):
        TruncSeries.constant(3, 1).exp()


def test_log_of_geometric_series():
    geom = _series(5, 1, -1).inverse()
    assert geom.log() == _series(5, 0, 1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4))
    with pytest.raises(ValueError):
        TruncSeries.x(3).log()


def test_log_inverts_exp_on_random_inputs():
    rng = random.Random(424242)
    for _ in range(15):
        f = _rand_series(rng, 6, constant=0)
        assert f.exp().log() == f


def test_pow_agrees_with_repeated_multiplication():
    rng = random.Random(99)
    for _ in range(10):
        f = _rand_series(rng, 5, constant=1)
        assert f.pow(3) == f * f * f
        assert f.pow(0) == TruncSeries.constant(5, 1)
        assert f.pow(1) == f
        assert f.pow(Fraction(1, 2)) * f.pow(Fraction(1, 2)) == f
    with pytest.raises(ValueError):
        _series(3, 2, 1).pow(Fraction(1, 2))  # constant term must be 1


def test_compose_hand_case():
    outer = _series(5, 1, 2, 1)  # (1+x)^2
    inner = _series(5, 0, 1, 1)  # x + x^2
    assert outer.compose(inner) == _series(5, 1, 2, 3, 2, 1)
    with pytest.raises(ValueError):
        outer.compose(_series(5, 1, 1))


def test_derivative_drops_order():
    f = _series(4, 7, 1, 3, 5)
    assert f.derivative() == _series(3, 1, 6, 15)
    assert f.truncate(2) == _series(2, 7, 1)


# -- reversion ---------------------------------------------------------------


def test_reversion_hand_case():
    f = _series(5, 0, 1, 1)  # x + x^2
    rev = f.reversion()
    # alternating Catalan numbers: x - x^2 + 2x^3 - 5x^4
    assert rev == _series(5, 0, 1, -1, 2, -5)
    assert f.compose(rev) == TruncSeries.x(5)


def test_reversion_requires_invertible_linear_part():
    with pytest.raises(ValueError):
        _series(4, 1, 1).reversion()
    with pytest.raises(ValueError):
        _series(4, 0, 0, 1).reversion()


def test_reversion_round_trips_on_random_inputs():
    rng = random.Random(31337)
    for _ in range(10):
        f = _rand_series(rng, 6, constant=0)
        if f.coeffs[1].is_zero:
            f = f + TruncSeries.x(6)
        rev = f.reversion()
        assert f.compose(rev) == TruncSeries.x(6)
        assert rev.compose(f) == TruncSeries.x(6)


def test_reversion_round_trips_property():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    scalar = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    coeff = st.lists(scalar, max_size=2).map(lambda cs: QPoly(*cs))
    linear = scalar.filter(lambda c: c != 0).map(QPoly)

    @hyp.settings(max_examples=40, deadline=None)
    @hyp.given(st.integers(min_value=2, max_value=8), linear, st.lists(coeff, max_size=6))
    def check(order, f1, rest):
        f = TruncSeries(order, [QPoly(0), f1, *rest[: order - 2]])
        rev = f.reversion()
        ident = TruncSeries.x(order)
        assert f.compose(rev) == ident
        assert rev.compose(f) == ident

    check()


def test_reversion_refuses_a_nonconstant_linear_term_property():
    # 1/f_1 is not in Q[q] unless f_1 is a nonzero rational
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    scalar = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    coeff = st.lists(scalar, max_size=2).map(lambda cs: QPoly(*cs))
    linear = st.lists(scalar, min_size=2, max_size=3).map(lambda cs: QPoly(*cs))

    @hyp.settings(max_examples=40, deadline=None)
    @hyp.given(
        st.integers(min_value=2, max_value=8),
        linear.filter(lambda c: c.degree >= 1),
        st.lists(coeff, max_size=6),
    )
    def check(order, f1, rest):
        f = TruncSeries(order, [QPoly(0), f1, *rest[: order - 2]])
        with pytest.raises(ValueError):
            f.reversion()

    check()


def test_series_ring_laws_exp_log_and_division_property():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    scalar = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    coeff = st.lists(scalar, max_size=3).map(lambda cs: QPoly(*cs))

    def series(order, constant=None):
        coeffs = st.lists(coeff, min_size=order, max_size=order)
        if constant is None:
            return coeffs.map(lambda cs: TruncSeries(order, cs))
        return coeffs.map(lambda cs: TruncSeries(order, [constant, *cs[1:]]))

    @st.composite
    def case(draw):
        order = draw(st.integers(min_value=1, max_value=6))
        unit = draw(scalar.filter(lambda c: c != 0))
        return (
            draw(series(order)),
            draw(series(order)),
            draw(series(order)),
            draw(series(order, QPoly(1))),
            draw(series(order, QPoly(0))),
            draw(series(order, QPoly(unit))),
        )

    @hyp.settings(max_examples=40, deadline=None)
    @hyp.given(case())
    def check(drawn):
        f, g, h, one_plus, zero_plus, unit_plus = drawn
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert f - f == TruncSeries.constant(f.order, 0)
        assert (f * g) * h == f * (g * h)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h
        assert f * TruncSeries.constant(f.order, 1) == f
        assert one_plus.log().exp() == one_plus
        assert zero_plus.exp().log() == zero_plus
        assert (f * unit_plus) / unit_plus == f

    check()


def _horner(outer, inner):
    result = TruncSeries.constant(outer.order, outer.coeffs[-1])
    for c in reversed(outer.coeffs[:-1]):
        result = result * inner + c
    return result


def test_compose_all_matches_horner():
    rng = random.Random(4242)
    inner = _rand_series(rng, 7, constant=0)
    outers = [_rand_series(rng, 7) for _ in range(3)]
    expected = [_horner(o, inner) for o in outers]
    assert compose_all(outers, inner) == expected
    assert [o.compose(inner) for o in outers] == expected
    with pytest.raises(ValueError):
        compose_all(outers, _rand_series(rng, 7, constant=1))


# -- the generating function -------------------------------------------------


def test_egf_polynomial_hand_values():
    polys = egf_polynomials(1, 1, 1, 5)
    assert polys[0] == 1
    assert polys[1] == 1
    assert polys[2] == QPoly(1, 1)
    assert polys[3] == QPoly(1, 4, 1)
    assert polys[4] == QPoly(1, 11, 11, 1)


def test_egf_type_b_hand_values():
    polys = egf_polynomials(1, 1, 2, 4)
    assert polys[2] == QPoly(1, 6, 1)
    assert polys[3] == QPoly(1, 23, 23, 1)


def test_egf_first_row_is_a_plus_d_minus_a_q():
    for a, d in [(0, 1), (1, 3), (2, 5), (Fraction(1, 2), Fraction(5, 2))]:
        polys = egf_polynomials(a, 1, d, 2)
        assert polys[1] == QPoly(a, d - a)


def test_egf_exponent_behaves_like_a_power():
    # b = 2 is the square of b = 1, as series
    base = egf_series(1, 1, 1, 7)
    assert egf_series(1, 2, 1, 7) == base * base
    # and b = 1/2 squares back to b = 1
    half = egf_series(1, Fraction(1, 2), 1, 7)
    assert half * half == base


def test_egf_b_zero_collapses_to_one():
    assert egf_polynomials(1, 0, 1, 4) == [QPoly(1), QPoly(), QPoly(), QPoly()]


def test_egf_rejects_bad_order():
    with pytest.raises(ValueError):
        egf_series(1, 1, 1, 0)
