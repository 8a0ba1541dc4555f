"""Exact polynomial and rational-function arithmetic."""

import ast
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from qeuler import algebra
from qeuler.algebra import (
    QPoly,
    ZERO,
    _common_denominator,
    _first_drop,
    as_fraction,
    as_qpoly,
    parse_rational,
    poly_divmod,
    poly_dot,
    poly_gcd,
)
from qeuler.ratfun import QRatFun


def _rand_poly(rng, max_deg, allow_zero=True):
    deg = rng.randint(0, max_deg)
    coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(deg + 1)]
    p = QPoly(*coeffs)
    if not allow_zero and p.is_zero:
        return p + 1
    return p


# -- scalars -----------------------------------------------------------------


@pytest.mark.parametrize(
    "text,value",
    [("3", Fraction(3)), ("-7/2", Fraction(-7, 2)), ("+1/3", Fraction(1, 3)), ("0", 0)],
)
def test_parse_rational_accepts_exact_literals(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize(
    "text", ["0.5", "1e3", "1/0", "1/-2", "", "q", "1 / 2", "nan", "３/4", "1/1０", "3/４", "1_000"]
)
def test_parse_rational_rejects_inexact_or_malformed(text):
    with pytest.raises(ValueError):
        parse_rational(text)


@pytest.mark.parametrize("value", [1, None, 1.0, True, b"1"])
def test_parse_rational_refuses_non_strings_by_type(value):
    # "cannot use a string pattern on a bytes-like object" does not name bytes as the input's type
    message = f"cannot parse {type(value).__name__} as"
    with pytest.raises(TypeError, match=message):
        parse_rational(value)


def test_as_fraction_refuses_floats_and_bools():
    assert as_fraction(5) == 5
    assert as_fraction(Fraction(2, 7)) == Fraction(2, 7)
    assert as_fraction("-3/4") == Fraction(-3, 4)
    with pytest.raises(TypeError):
        as_fraction(0.5)
    with pytest.raises(TypeError):
        as_fraction(True)


def test_as_qpoly_is_the_one_coercion_into_q_poly():
    p = QPoly(1, 2)
    assert as_qpoly(p) is p
    assert as_qpoly(3) == QPoly(3)
    assert as_qpoly(Fraction(-2, 5)) == QPoly(Fraction(-2, 5))
    assert as_qpoly("7/3") == QPoly(Fraction(7, 3))
    for bad in (0.5, True, None, QRatFun(1, QPoly(1, -1)), [1, 2]):
        with pytest.raises(TypeError):
            as_qpoly(bad)


# -- QPoly basics ------------------------------------------------------------


def test_qpoly_normalizes_trailing_zeros():
    assert QPoly(1, 2, 0, 0) == QPoly(1, 2)
    assert QPoly(0, 0).is_zero
    assert QPoly().degree == -1
    assert QPoly(0, 0, 3).degree == 2


def test_qpoly_is_immutable_and_hashable():
    p = QPoly(1, 1)
    with pytest.raises(AttributeError):
        p.coeffs = (2,)
    assert len({QPoly(1, 1), QPoly(1, 1), QPoly(1)}) == 2


def test_qpoly_accessors():
    p = QPoly(5, 0, Fraction(1, 2))
    assert p.constant == 5
    assert p.coeffs == (5, 0, Fraction(1, 2))


def test_qpoly_equals_scalars():
    assert QPoly(3) == 3
    assert QPoly() == 0
    assert QPoly(Fraction(1, 2)) == Fraction(1, 2)
    assert QPoly(1, 1) != 1


def test_qpoly_arithmetic_hand_cases():
    q = QPoly(0, 1)
    assert (1 + q) * (1 + q) == QPoly(1, 2, 1)
    assert QPoly(2, 4) / 2 == QPoly(1, 2)
    assert 1 - q == QPoly(1, -1)
    assert q * 0 == QPoly()


def test_qpoly_power_zero_and_division_errors():
    with pytest.raises(ZeroDivisionError):
        QPoly(1, 1) / 0


def test_qpoly_refuses_floats_everywhere():
    with pytest.raises(TypeError):
        QPoly(0.5)
    assert QPoly(1, 1).__add__(0.5) is NotImplemented


def test_qpoly_derivative_and_nonnegativity():
    assert QPoly(7, 3, 0, 5).derivative() == QPoly(3, 0, 15)
    assert _first_drop(QPoly(0, 1, 2), ZERO) is None
    assert _first_drop(QPoly(1, -1), ZERO) == 1
    assert _first_drop(QPoly(), ZERO) is None


def test_qpoly_ring_axioms_on_random_inputs():
    rng = random.Random(20240811)
    for _ in range(60):
        f, g, h = (_rand_poly(rng, 5) for _ in range(3))
        assert (f + g) * h == f * h + g * h
        assert (f * g) * h == f * (g * h)
        assert f - f == 0
        assert f * 1 == f


def test_qpoly_canonical_form_hand_cases():
    assert QPoly(Fraction(1, 2), 1) * 2 == QPoly(1, 2)
    assert QPoly(0, 0) == ZERO
    assert hash(QPoly(Fraction(3, 2))) == hash(Fraction(3, 2))
    assert QPoly(Fraction(2, 4), Fraction(-6, 4)) == QPoly(Fraction(1, 2), Fraction(-3, 2))
    assert QPoly(Fraction(1, 3), Fraction(1, 6)) + QPoly(Fraction(2, 3), Fraction(-1, 6)) == 1
    assert (QPoly(Fraction(1, 2), Fraction(1, 2)) - QPoly(0, Fraction(1, 2))).coeffs == (
        Fraction(1, 2),
    )
    assert QPoly(Fraction(3, 4), Fraction(9, 4)) / Fraction(-3, 4) == QPoly(-1, -3)
    assert QPoly(0, 0, Fraction(1, 2)).derivative() == QPoly(0, 1)


def test_common_denominator_is_the_lcm_form():
    assert _common_denominator([Fraction(1, 2), Fraction(-1, 3), 5]) == (6, [3, -2, 30])
    assert _common_denominator([-4]) == (1, [-4])
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    value = st.one_of(
        st.integers(min_value=-50, max_value=50),
        st.fractions(min_value=-20, max_value=20, max_denominator=12),
    )

    @hyp.settings(max_examples=150, deadline=None)
    @hyp.given(st.lists(value, min_size=1, max_size=6))
    def check(values):
        den, nums = _common_denominator(values)
        assert [Fraction(n, den) for n in nums] == values
        assert den == math.lcm(*(Fraction(v).denominator for v in values))
        assert math.gcd(den, *nums) == 1

    check()


def _integer_form_readers(tree: ast.AST, scope: str, found: set) -> set:
    """(scope, attribute) for each ``._num`` or ``._den`` read under ``tree``."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{node.name}"
        elif isinstance(node, ast.Attribute) and node.attr in ("_num", "_den"):
            found.add((scope, node.attr))
        _integer_form_readers(node, inner, found)
    return found


def test_only_algebra_reads_the_integer_form():
    package = Path(algebra.__file__).parent
    found: set = set()
    for path in sorted(package.glob("*.py")):
        if path.name != "algebra.py":
            _integer_form_readers(ast.parse(path.read_text()), path.stem, found)
    assert found == set()


# A plain list of Fractions, trailing zeros stripped, is the reference ring.


def _ref(cs):
    cs = [Fraction(c) for c in cs]
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _ref_add(a, b, sign=1):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += sign * c
    return _ref(out)


def _ref_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref(out)


def test_qpoly_ring_laws_against_a_fraction_list_reference():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    rational = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=60)
    coeffs = st.lists(st.one_of(rational, st.just(Fraction(0))), max_size=7)
    scalar = st.one_of(st.integers(min_value=-50, max_value=50), rational)
    negative = st.fractions(max_value=Fraction(-1, 60), max_denominator=60)

    @hyp.settings(max_examples=150, deadline=None)
    @hyp.given(coeffs, coeffs, coeffs, scalar, negative)
    def check(ca, cb, cc, s, neg):
        a, b = _ref(ca), _ref(cb)
        f, g, h = QPoly(*ca), QPoly(*cb), QPoly(*cc)
        rs = _ref([s])
        for got, want in (
            (f + g, _ref_add(a, b)),
            (f - g, _ref_add(a, b, -1)),
            (f * g, _ref_mul(a, b)),
            (f + s, _ref_add(a, rs)),
            (s + f, _ref_add(a, rs)),
            (f - s, _ref_add(a, rs, -1)),
            (s - f, _ref_add(rs, a, -1)),
            (f * s, _ref_mul(a, rs)),
            (s * f, _ref_mul(a, rs)),
            (-f, _ref_add([], a, -1)),
            (f / neg, [x / neg for x in a]),
        ):
            assert list(got.coeffs) == want
            assert got == QPoly(*want)
            assert hash(got) == hash(QPoly(*want))
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert QPoly(*f.coeffs) == f
        assert hash((f + g) - g) == hash(f)
        if g:
            quot, rem = poly_divmod(f, g)
            assert quot * g + rem == f
            assert rem.degree < g.degree
        if f.degree <= 0:
            assert f == f.constant
            assert hash(f) == hash(f.constant)

    check()


def _ref_entry(value):
    return _ref(value.coeffs if isinstance(value, QPoly) else [value])


def test_poly_dot_is_the_naive_sum_of_products():
    """poly_dot over QPoly, int and Fraction entries, zeros included.

    Like ``zip``, poly_dot stops at the end of the shorter operand, so
    the reference sums over the first min(len(xs), len(ys)) pairs.
    """
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    rational = st.fractions(min_value=-10**4, max_value=10**4, max_denominator=30)
    poly = st.lists(st.one_of(rational, st.just(Fraction(0))), max_size=5).map(
        lambda cs: QPoly(*cs)
    )
    entry = st.one_of(
        st.integers(min_value=-50, max_value=50), rational, poly, st.just(0), st.just(ZERO)
    )

    @hyp.settings(max_examples=150, deadline=None)
    @hyp.given(st.lists(entry, max_size=6), st.lists(entry, max_size=6))
    def check(xs, ys):
        want: list[Fraction] = []
        for i in range(min(len(xs), len(ys))):
            want = _ref_add(want, _ref_mul(_ref_entry(xs[i]), _ref_entry(ys[i])))
        got = poly_dot(xs, ys)
        assert isinstance(got, QPoly)
        assert list(got.coeffs) == want

    check()


def test_poly_dot_never_multiplies_a_zero_factor():
    class Unmultipliable:
        def __mul__(self, other):
            raise AssertionError("a pair with a zero factor was multiplied")

        __rmul__ = __mul__

    assert poly_dot([0, ZERO, QPoly(1, 1)], [Unmultipliable(), Unmultipliable(), 2]) == QPoly(2, 2)
    assert poly_dot([], [1, 2]) == ZERO


def test_qpoly_str_forms():
    assert str(QPoly(1, 4, 1)) == "1 + 4*q + q^2"
    assert str(QPoly()) == "0"
    assert str(QPoly(0, -1, Fraction(1, 2))) == "-q + 1/2*q^2"


def test_qpoly_json_round_trip():
    p = QPoly(1, Fraction(-3, 2), 0, 7)
    assert p.to_json() == ["1", "-3/2", "0", "7"]


# -- gcd ---------------------------------------------------------------------


def test_poly_gcd_common_factor_comes_back_monic():
    f = QPoly(1, 1) * QPoly(1, 1) * QPoly(2, 1)
    g = QPoly(1, 1) * QPoly(3, 1)
    assert poly_gcd(f, g) == QPoly(1, 1)
    assert poly_gcd(QPoly(2, 2), QPoly(4, 4)) == QPoly(1, 1)


def test_poly_gcd_coprime_and_degenerate_inputs():
    assert poly_gcd(QPoly(1, 1), QPoly(1, -1)) == 1
    assert poly_gcd(QPoly(5), QPoly(0, 0, 3)) == 1
    assert poly_gcd(QPoly(), QPoly(0, 2)) == QPoly(0, 1)
    with pytest.raises(ValueError):
        poly_gcd(QPoly(), QPoly())


@pytest.mark.parametrize("lead", [None, 1, -1, 3, -3, Fraction(3, 2), Fraction(-5, 4)])
def test_poly_divmod_reconstructs_the_dividend(lead):
    # lead None draws the whole divisor; otherwise it is lead q^deg plus lower terms,
    # deg 0 (a constant divisor) to 3, with negative, non-unit and rational leads
    rng = random.Random(4417)
    for k in range(40):
        f = _rand_poly(rng, 6)
        if lead is None:
            g = _rand_poly(rng, 3, allow_zero=False)
        else:
            deg = k % 4
            g = QPoly(*[0] * deg, lead) + (_rand_poly(rng, deg - 1) if deg else 0)
        quot, rem = poly_divmod(f, g)
        assert quot * g + rem == f
        assert rem.degree < g.degree
        assert poly_divmod(f * g, g) == (f, QPoly())
    with pytest.raises(ZeroDivisionError):
        poly_divmod(QPoly(1), QPoly())


def test_poly_gcd_divides_both_on_random_inputs():
    rng = random.Random(911)
    for _ in range(40):
        common = _rand_poly(rng, 3, allow_zero=False)
        f = common * _rand_poly(rng, 3, allow_zero=False)
        g = common * _rand_poly(rng, 3, allow_zero=False)
        d = poly_gcd(f, g)
        assert d.coeffs[-1] == 1
        # gcd must absorb the planted factor
        assert d.degree >= common.degree
        assert QRatFun(f, d).is_polynomial and QRatFun(g, d).is_polynomial


# -- QRatFun -----------------------------------------------------------------


def test_qratfun_canonical_form():
    r = QRatFun(QPoly(0, 2), QPoly(4, 4))
    assert r.num == QPoly(0, Fraction(1, 2)) and r.den == QPoly(1, 1)
    assert QRatFun(QPoly(2, 2), QPoly(1, 1)) == QRatFun(QPoly(2))
    assert QRatFun(QPoly(), QPoly(5, 3)) == QRatFun(0)
    assert QRatFun(QPoly(1, 2, 1), QPoly(1, 1)) == QRatFun(QPoly(1, 1))


def test_qratfun_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        QRatFun(QPoly(1), QPoly())
    with pytest.raises(ZeroDivisionError):
        QRatFun(1).__truediv__(QRatFun(0))
    with pytest.raises(ZeroDivisionError):
        QRatFun(0).reciprocal()


def test_qratfun_arithmetic_hand_cases():
    one_minus = QRatFun(1, QPoly(1, -1))  # 1/(1-q)
    one_plus = QRatFun(1, QPoly(1, 1))
    assert one_minus + one_plus == QRatFun(QPoly(2), QPoly(1, 0, -1))
    assert one_minus * QPoly(1, -1) == QRatFun(1)
    assert one_minus - one_minus == QRatFun(0)
    assert one_minus.reciprocal() == QRatFun(QPoly(1, -1))
    assert QRatFun(QPoly(0, 1)) ** -2 * QPoly(0, 1) == QRatFun(1, QPoly(0, 1))


def test_qratfun_as_poly_and_diagnostics():
    assert QRatFun(QPoly(1, 2)).as_poly() == QPoly(1, 2)
    r = QRatFun(1, QPoly(1, 1))
    assert not r.is_polynomial
    with pytest.raises(ValueError):
        r.as_poly()


def _value(r, x):
    """R(x) for a QRatFun R whose denominator does not vanish at x."""
    num, den = (sum(c * x**k for k, c in enumerate(p.coeffs)) for p in (r.num, r.den))
    return num / den if den else None


def test_qratfun_field_axioms_by_evaluation():
    # compare through evaluation at points that dodge every pole
    rng = random.Random(7)
    points = [Fraction(5), Fraction(7, 2), Fraction(-9, 4)]
    for _ in range(25):
        f = QRatFun(_rand_poly(rng, 4), _rand_poly(rng, 3, allow_zero=False))
        g = QRatFun(_rand_poly(rng, 4), _rand_poly(rng, 3, allow_zero=False))
        for p in points:
            fv, gv = _value(f, p), _value(g, p)
            prod, tot = _value(f * g, p), _value(f + g, p)
            if prod is not None and tot is not None:
                assert prod == fv * gv
                assert tot == fv + gv


def test_qratfun_json_round_trip():
    # canonical form keeps the denominator monic, so 1/(1-q) = -1/(q-1)
    r = QRatFun(QPoly(0, 1), QPoly(1, -1))
    data = r.to_json()
    assert data == {"num": ["0", "-1"], "den": ["-1", "1"]}
    assert QRatFun.from_json(data) == r


def test_qratfun_power_and_json_round_trip_on_random_inputs():
    # r ** n is n factors of r, or of its reciprocal for n < 0, and from_json
    # reads back what to_json wrote
    rng = random.Random(2719)
    for _ in range(20):
        r = QRatFun(_rand_poly(rng, 3, allow_zero=False), _rand_poly(rng, 2, allow_zero=False))
        for n in range(-3, 4):
            factor = r if n >= 0 else r.reciprocal()
            expected = QRatFun(1)
            for _ in range(abs(n)):
                expected = expected * factor
            assert r**n == expected
        assert QRatFun.from_json(r.to_json()) == r
