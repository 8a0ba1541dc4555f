"""Jacobi continued fractions, moments, orthogonal polynomials, inversion."""

import json
import random
from fractions import Fraction

import pytest

from qeuler.algebra import QPoly, parse_rational
from qeuler.cli import _json_value
from qeuler.families import FamilySpec, family_egf_params
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

ZERO = QPoly()
ONE = QPoly(1)
Q = QPoly(0, 1)


def _numeric_jfraction(rng, depth):
    # random weights with every t nonzero, so the moment functional is
    # quasi-definite and inversion must succeed
    s = tuple(QPoly(Fraction(rng.randint(-5, 5), rng.randint(1, 3))) for _ in range(depth))
    t = []
    for _ in range(depth - 1):
        num = rng.choice([1, 2, 3, -1, -2, 5])
        t.append(QPoly(Fraction(num, rng.randint(1, 3))))
    return JFraction(s, tuple(t))


# -- containers ----------------------------------------------------------------


def test_jfraction_validates_lengths():
    with pytest.raises(ValueError):
        JFraction((), ())
    with pytest.raises(ValueError):
        JFraction((ONE,), (Q,))
    jf = JFraction((ONE, Q), (Q,))
    assert jf.depth == 2


def test_jfraction_json_round_trip():
    # the command line prints {"s": [...], "t": [...]}; reading it back gives jf
    jf = jfraction_from_params(1, 1, 2, 4)
    data = json.loads(json.dumps(jf._asdict(), default=_json_value))
    assert list(data) == ["s", "t"]
    assert JFraction(*(tuple(QPoly(*map(parse_rational, w)) for w in data[k]) for k in "st")) == jf


def test_inversion_refuses_empty_moments():
    for empty in ((), []):
        with pytest.raises(ValueError, match="empty moment sequence"):
            jfraction_from_moments(empty)


def test_inversion_of_one_moment_names_the_count():
    # with no depth given, depth is moments // 2 = 0; the refusal names the count
    with pytest.raises(ValueError, match="needs at least 2 moments, have 1"):
        jfraction_from_moments([1])


# -- closed-form weights ---------------------------------------------------------


def test_weights_for_unit_parameters():
    jf = jfraction_from_params(1, 1, 1, 5)
    for i in range(5):
        assert jf.s[i] == QPoly(i + 1, i)
    for i in range(4):
        assert jf.t[i] == QPoly(0, (i + 1) ** 2)


def test_weights_for_doubled_steps():
    jf = jfraction_from_params(1, 1, 2, 5)
    for i in range(5):
        assert jf.s[i] == QPoly(2 * i + 1, 2 * i + 1)
    for i in range(4):
        assert jf.t[i] == QPoly(0, 4 * (i + 1) ** 2)


def test_weights_accept_fractional_parameters():
    jf = jfraction_from_params(1, Fraction(1, 2), 1, 3)
    assert jf.s[0] == QPoly(Fraction(1, 2))
    assert jf.t[0] == QPoly(0, Fraction(1, 2))


def _closed_form_oracle(a, b, d, depth):
    # the closed form in Fraction arithmetic, trailing zeros stripped
    def strip(cs):
        while cs and not cs[-1]:
            cs.pop()
        return tuple(cs)

    s = [strip([d * i + a * b, d * i + b * d - a * b]) for i in range(depth)]
    t = [strip([Fraction(0), d * d * (i + 1) * (i + b)]) for i in range(depth - 1)]
    return s, t


def test_integer_weights_equal_the_fraction_closed_form():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    rational = st.one_of(
        st.just(Fraction(0)), st.fractions(min_value=-40, max_value=40, max_denominator=30)
    )

    @hyp.settings(max_examples=120, deadline=None)
    @hyp.given(rational, rational, rational, st.integers(min_value=1, max_value=12))
    def check(a, b, d, depth):
        jf = jfraction_from_params(a, b, d, depth)
        s, t = _closed_form_oracle(a, b, d, depth)
        assert [w.coeffs for w in jf.s] == s
        assert [w.coeffs for w in jf.t] == t
        # canonical storage: equal to, and hashed like, the Fraction-built polynomial
        for got, want in zip(jf.s + jf.t, s + t):
            assert got == QPoly(*want)
            assert hash(got) == hash(QPoly(*want))

    check()


# -- moments ---------------------------------------------------------------------


def test_motzkin_path_moments_hand_case():
    jf = JFraction((QPoly(2), QPoly(3)), (QPoly(5),))
    mu = moments_by_motzkin_paths(jf, 4)
    assert list(mu) == [ONE, QPoly(2), QPoly(9), QPoly(43)]


def test_catalan_weights_give_catalan_moments():
    depth = 6
    jf = JFraction((ZERO,) * depth, (Q,) * (depth - 1))
    mu = moments_by_motzkin_paths(jf, 11)
    catalan = [1, 1, 2, 5, 14, 42]
    for n in range(11):
        if n % 2:
            assert mu[n] == ZERO
        else:
            assert mu[n] == QPoly(*([0] * (n // 2) + [catalan[n // 2]]))


def test_unit_weights_give_motzkin_numbers():
    depth = 6
    jf = JFraction((ONE,) * depth, (ONE,) * (depth - 1))
    mu = moments_by_motzkin_paths(jf, 11)
    motzkin = [1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188]
    assert [m.constant for m in mu] == motzkin


def test_both_moment_routes_agree_on_random_weights():
    rng = random.Random(2718)
    for _ in range(12):
        jf = _numeric_jfraction(rng, 5)
        count = 9
        assert (
            moments_by_motzkin_paths(jf, count)
            == moments_by_cfrac_expansion(jf, count)
        )


def test_both_moment_routes_agree_on_polynomial_weights():
    jf = jfraction_from_params(1, 2, 3, 5)
    a = moments_by_motzkin_paths(jf, 9)
    b = moments_by_cfrac_expansion(jf, 9)
    assert a == b


def test_cfrac_edge_counts_by_hand():
    s0, s1 = QPoly(2, 1), QPoly(-1, 3)
    for t1 in (ZERO, QPoly(0, 5)):
        jf = JFraction((s0, s1), (t1,))
        assert moments_by_cfrac_expansion(jf, 1) == (ONE,)
        assert moments_by_cfrac_expansion(jf, 2) == (ONE, s0)
        assert moments_by_cfrac_expansion(jf, 3) == (ONE, s0, s0 * s0 + t1)


def test_cfrac_matches_motzkin_on_type_b_at_40_rows():
    jf = jfraction_from_params(1, 1, 2, 40)
    assert moments_by_cfrac_expansion(jf, 40) == moments_by_motzkin_paths(jf, 40)


def test_cfrac_matches_motzkin_property():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    scalar = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    weight = st.lists(scalar, max_size=2).map(lambda cs: QPoly(*cs))
    # about a third of the t's are exactly zero, which cuts the fraction
    t_weight = st.one_of(st.just(ZERO), weight)

    @hyp.settings(max_examples=40, deadline=None)
    @hyp.given(
        st.integers(min_value=1, max_value=30),
        st.lists(weight, min_size=15, max_size=15),
        st.lists(t_weight, min_size=14, max_size=14),
    )
    def check(count, s, t):
        depth = (count - 1) // 2 + 1
        jf = JFraction(tuple(s[:depth]), tuple(t[: depth - 1]))
        assert moments_by_cfrac_expansion(jf, count) == moments_by_motzkin_paths(jf, count)

    check()


def test_motzkin_matches_cfrac_on_family_triples():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    rational = st.one_of(
        st.just(Fraction(0)), st.fractions(min_value=-6, max_value=6, max_denominator=7)
    )

    @hyp.settings(max_examples=60, deadline=None)
    @hyp.given(rational, rational, rational, st.integers(min_value=1, max_value=18))
    def check(a, b, d, count):
        jf = jfraction_from_params(a, b, d, (count - 1) // 2 + 1)
        assert moments_by_motzkin_paths(jf, count) == moments_by_cfrac_expansion(jf, count)

    check()


def test_motzkin_matches_cfrac_on_degree_two_weights_with_mixed_denominators():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    scalar = st.fractions(min_value=-4, max_value=4, max_denominator=12)
    lead = scalar.filter(bool)
    weight = st.tuples(scalar, scalar, lead).map(lambda cs: QPoly(*cs))
    t_weight = st.one_of(st.just(ZERO), weight)

    @hyp.settings(max_examples=40, deadline=None)
    @hyp.given(
        st.integers(min_value=1, max_value=16),
        st.lists(weight, min_size=8, max_size=8),
        st.lists(t_weight, min_size=7, max_size=7),
    )
    def check(count, s, t):
        assert all(w.degree == 2 for w in s)
        depth = (count - 1) // 2 + 1
        jf = JFraction(tuple(s[:depth]), tuple(t[: depth - 1]))
        assert moments_by_motzkin_paths(jf, count) == moments_by_cfrac_expansion(jf, count)

    check()


def test_moments_need_enough_depth():
    jf = JFraction((ONE, ONE), (Q,))
    with pytest.raises(ValueError):
        moments_by_motzkin_paths(jf, 7)
    with pytest.raises(ValueError):
        moments_by_cfrac_expansion(jf, 7)


# -- orthogonal polynomials --------------------------------------------------------


def test_chebyshev_like_basis_from_constant_weights():
    jf = JFraction((ZERO,) * 4, (ONE,) * 3)
    basis = orthogonal_basis(jf, 4)
    assert basis[0] == (ONE,)
    assert basis[1] == (ZERO, ONE)
    assert basis[2] == (QPoly(-1), ZERO, ONE)
    assert basis[3] == (ZERO, QPoly(-2), ZERO, ONE)


def test_orthogonality_verifies_exactly():
    jf = jfraction_from_params(1, 1, 1, 6)
    basis = orthogonal_basis(jf, 5)
    mu = moments_by_motzkin_paths(jf, 9)
    assert verify_orthogonality(basis, mu)


def test_orthogonality_detects_wrong_rows():
    jf = jfraction_from_params(1, 1, 1, 6)
    basis = orthogonal_basis(jf, 4)
    mu = moments_by_motzkin_paths(jf, 7)
    broken = basis[:3] + ((basis[3][0] + 1,) + basis[3][1:],)
    assert verify_orthogonality(basis, mu)
    assert not verify_orthogonality(broken, mu)


def test_orthogonality_refuses_rows_that_are_not_monic_of_degree_n():
    jf = jfraction_from_params(1, 1, 1, 6)
    basis = orthogonal_basis(jf, 4)
    mu = moments_by_motzkin_paths(jf, 7)
    not_monic = basis[:3] + (basis[3][:-1] + (QPoly(2),),)
    with pytest.raises(ValueError, match="row 3 is not a monic degree-3 polynomial"):
        verify_orthogonality(not_monic, mu)
    too_short = basis[:2] + (basis[2][1:],)
    with pytest.raises(ValueError, match="row 2 is not a monic degree-2 polynomial"):
        verify_orthogonality(too_short, mu)
    too_long = (basis[0] + (ZERO,),) + basis[1:]
    with pytest.raises(ValueError, match="row 0 is not a monic degree-0 polynomial"):
        verify_orthogonality(too_long, mu)


def test_orthogonality_needs_enough_moments():
    jf = jfraction_from_params(1, 1, 1, 6)
    basis = orthogonal_basis(jf, 5)
    with pytest.raises(ValueError):
        verify_orthogonality(basis, moments_by_motzkin_paths(jf, 8))


# -- inversion ----------------------------------------------------------------------


def test_inversion_round_trips_family_weights():
    jf = jfraction_from_params(1, 1, 2, 5)
    mu = moments_by_motzkin_paths(jf, 10)
    assert jfraction_from_moments(mu) == jf


def test_inversion_round_trips_random_weights():
    rng = random.Random(60902)
    for _ in range(10):
        jf = _numeric_jfraction(rng, 4)
        mu = moments_by_motzkin_paths(jf, 8)
        assert jfraction_from_moments(mu, 4) == jf


def test_inversion_enforces_unit_leading_moment():
    with pytest.raises(ValueError):
        jfraction_from_moments((QPoly(2), ZERO))


def test_inversion_depth_guard():
    jf = jfraction_from_params(1, 1, 1, 4)
    mu = moments_by_motzkin_paths(jf, 6)
    with pytest.raises(ValueError):
        jfraction_from_moments(mu, 4)  # needs 8 moments


def test_degenerate_moments_raise_non_quasi_definite():
    mu = (ONE, ZERO, ZERO, ZERO, ZERO, ZERO)
    with pytest.raises(NonQuasiDefiniteError):
        jfraction_from_moments(mu, 3)


def test_nonpolynomial_weights_are_reported():
    # mu = (1, q, q, 0) forces s_1 = (q^2 - 2q)/(1 - q)
    mu = (ONE, Q, Q, ZERO)
    with pytest.raises(ValueError, match="nonpolynomial"):
        jfraction_from_moments(mu, 2)


def test_inversion_property_round_trip_or_first_vanishing_norm():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    scalar = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    weight = st.lists(scalar, max_size=3).map(lambda cs: QPoly(*cs))
    nonzero = weight.filter(lambda w: not w.is_zero)

    @hyp.settings(max_examples=60, deadline=None)
    @hyp.given(
        st.integers(min_value=1, max_value=7),
        st.lists(weight, min_size=7, max_size=7),
        st.lists(nonzero, min_size=6, max_size=6),
        st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
    )
    def check(depth, s, t, first_zero):
        # t_{first_zero} = 0 makes the functional degenerate from Q_{first_zero} on
        t = t[: depth - 1]
        if first_zero is not None and first_zero < depth:
            t[first_zero - 1] = ZERO
        jf = JFraction(tuple(s[:depth]), tuple(t))
        mu = moments_by_motzkin_paths(jf, 2 * depth)
        if ZERO not in t:
            assert jfraction_from_moments(mu, depth) == jf
        else:
            with pytest.raises(NonQuasiDefiniteError, match=rf"norm of Q_{first_zero} vanishes"):
                jfraction_from_moments(mu, depth)

    check()


def test_inversion_of_type_b_at_depth_30():
    jf = jfraction_from_params(*family_egf_params(FamilySpec("TypeB")), 30)
    assert jfraction_from_moments(moments_by_motzkin_paths(jf, 60), 30) == jf


@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec("TypeA"),
        FamilySpec("TypeA_shifted"),
        FamilySpec("TypeA_qt", t=Fraction(4, 3)),
        FamilySpec("TypeB"),
        FamilySpec("TypeB_qt", t=Fraction(5, 4)),
        FamilySpec("General", a=Fraction(2, 3), d=Fraction(5, 3)),
    ],
    ids=lambda spec: spec.label(),
)
def test_recovered_weights_orthogonalize_the_family_moments(spec):
    # the Gram-Schmidt definition: the basis built from the recovered
    # weights must be orthogonal for the moments they came from
    mu = moments_by_motzkin_paths(jfraction_from_params(*family_egf_params(spec), 8), 16)
    recovered = jfraction_from_moments(mu, 8)
    assert verify_orthogonality(orthogonal_basis(recovered, 8), mu)


def test_recovered_weights_orthogonalize_random_moments():
    rng = random.Random(51017)
    for depth in range(1, 7):
        jf = _numeric_jfraction(rng, depth)
        jf = JFraction(tuple(w + QPoly(0, rng.randint(-2, 2)) for w in jf.s), jf.t)
        mu = moments_by_motzkin_paths(jf, 2 * depth)
        recovered = jfraction_from_moments(mu, depth)
        assert verify_orthogonality(orthogonal_basis(recovered, depth), mu)
