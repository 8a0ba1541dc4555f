"""q-log-convexity checks, the weight criterion, and transform experiments."""

import json
import math
import random
from fractions import Fraction

import pytest

from qeuler.algebra import QPoly, _chain_drops, _first_drop
from qeuler.cli import _json_value
from qeuler.convexity import (
    BUILTIN_SEQUENCES,
    _weight_criterion,
    builtin_sequence,
    check_q_log_convex,
    check_strong_q_log_convex,
    moment_convexity_criterion,
    transform_log_convexity_experiment,
    weight_gap,
)
from qeuler.families import recurrence_polynomial
from qeuler.jacobi import (
    JFraction,
    jfraction_from_params,
    moments_by_cfrac_expansion,
    moments_by_motzkin_paths,
)
from qeuler.series import egf_polynomials

ONE = QPoly(1)
Q = QPoly(0, 1)


def _as_json(value):
    # what the command line prints for a report
    return json.loads(json.dumps(value, default=_json_value))


# -- plain and strong checks -----------------------------------------------------


def test_factorials_are_log_convex():
    seq = [QPoly(math.factorial(n)) for n in range(8)]
    report = check_q_log_convex(seq)
    assert report.verdict and not report.witnesses
    assert report.checked_range == (1, 6)


def test_interleaved_spike_is_caught():
    report = check_q_log_convex([ONE, ONE + Q, ONE])
    assert not report.verdict
    assert report.witnesses == ((1, 1, 1),)


def test_strong_check_subsumes_plain_check():
    jf = jfraction_from_params(1, 1, 2, 5)
    mu = list(moments_by_motzkin_paths(jf, 9))
    strong = check_strong_q_log_convex(mu)
    plain = check_q_log_convex(mu)
    assert strong.verdict and plain.verdict
    assert strong.checked_range == plain.checked_range == (1, 7)


def test_strong_check_reports_distant_pairs():
    # the (m, n) = (1, 2) comparison lives outside the plain check's
    # diagonal witnesses
    seq = [ONE, ONE, ONE + Q, ONE, QPoly(5)]
    plain = check_q_log_convex(seq)
    strong = check_strong_q_log_convex(seq)
    assert not strong.verdict
    assert (1, 2, 1) in strong.witnesses
    assert set(plain.witnesses) <= set(strong.witnesses)


def test_checks_need_three_polynomials():
    with pytest.raises(ValueError):
        check_q_log_convex([ONE, ONE])


def test_reports_serialize():
    report = check_q_log_convex([ONE, ONE + Q, ONE])
    data = _as_json(report._asdict())
    assert list(data) == ["verdict", "witnesses", "checked_range"]
    assert data["verdict"] is False
    assert data["witnesses"] == [[1, 1, 1]]
    assert data["checked_range"] == [1, 1]


# -- the sufficient criterion on weights --------------------------------------------


def test_criterion_passes_for_unit_parameters():
    jf = jfraction_from_params(1, 1, 1, 12)
    report = moment_convexity_criterion(jf, 10)
    assert report.verdict
    assert report.hypothesis_nonneg
    assert report.gap_at_zero_nonneg
    assert report.checked_range == (1, 10)


def test_criterion_reports_constructed_failure():
    jf = JFraction((ONE, ONE, ONE), (Q, QPoly(2, 2)))
    report = moment_convexity_criterion(jf, 1)
    assert not report.verdict
    assert report.witnesses == ((1, 2, 0),)


def test_criterion_flags_negative_weights_separately():
    jf = JFraction((ONE, QPoly(1, -1), QPoly(9), QPoly(9)), (Q, Q, Q))
    report = moment_convexity_criterion(jf, 1)
    # the product s_1 s_2 - t_2 = 9(1-q) - q fails, and the hypothesis
    # flags the negative coefficient inside s_1 itself
    assert not report.hypothesis_nonneg
    assert ("s", 1, 1) in report.hypothesis_witnesses
    data = _as_json(report._asdict())
    assert list(data) == [
        "verdict", "witnesses", "checked_range",
        "hypothesis_nonneg", "hypothesis_witnesses", "gap_at_zero_nonneg",
    ]
    assert data["hypothesis_nonneg"] is False
    assert ["s", 1, 1] in data["hypothesis_witnesses"]


def test_criterion_needs_depth():
    jf = jfraction_from_params(1, 1, 1, 3)
    with pytest.raises(ValueError):
        moment_convexity_criterion(jf, 2)


def test_criterion_gap_hand_value():
    jf = jfraction_from_params(1, 1, 1, 4)
    gap = jf.s[1] * jf.s[2] - jf.t[1]
    assert gap == QPoly(6, 3, 2)


# -- witnesses without building the difference -----------------------------------------


def _first_negative_of_difference(f, g):
    # the definition: build f - g and scan its coefficients
    return next((k for k, c in enumerate((f - g).coeffs) if c < 0), None)


def test_first_drop_is_the_first_negative_coefficient_of_the_difference():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    rational = st.fractions(min_value=-20, max_value=20, max_denominator=9)
    coeffs = st.lists(st.one_of(rational, st.just(Fraction(0))), max_size=7)
    poly = st.one_of(st.just(QPoly()), coeffs.map(lambda cs: QPoly(*cs)))

    @hyp.settings(max_examples=150, deadline=None)
    @hyp.given(poly, poly)
    def check(f, g):
        assert _first_drop(f, g) == _first_negative_of_difference(f, g)
        assert _first_drop(f, QPoly()) == _first_negative_of_difference(f, QPoly())
        assert _first_drop(QPoly(), g) == _first_negative_of_difference(QPoly(), g)
        assert _first_drop(f, f) is None

    check()


def _subtraction_witnesses(mu):
    # the qlcx and strong witnesses as the full differences give them, pair by pair
    last = len(mu) - 2
    plain, strong = [], []
    for n in range(1, last + 1):
        for m in range(1, n + 1):
            k = _first_negative_of_difference(mu[m - 1] * mu[n + 1], mu[m] * mu[n])
            if k is not None:
                strong.append((m, n, k))
                if m == n:
                    plain.append((n, n, k))
    return tuple(plain), tuple(sorted(strong))


# General(3, 1), TypeA_qt(-2) and TypeB_qt(-3/2) as (a, b, d): all three fail
_FAILING_TRIPLES = [(3, 1, 1), (1, -2, 1), (1, 1, Fraction(-1, 2))]


@pytest.mark.parametrize("abd", _FAILING_TRIPLES, ids=str)
def test_check_witnesses_equal_the_subtraction_path(abd):
    nmax = 22  # beyond the golden grid's 14 rows
    mu = moments_by_cfrac_expansion(jfraction_from_params(*abd, (nmax - 1) // 2 + 1), nmax)
    plain, strong = _subtraction_witnesses(mu)
    assert plain and strong
    assert check_q_log_convex(mu).witnesses == plain
    assert check_strong_q_log_convex(mu).witnesses == strong


@pytest.mark.parametrize("abd", _FAILING_TRIPLES, ids=str)
def test_criterion_witnesses_equal_the_subtraction_path(abd):
    i_max = 60  # beyond the golden grid's 30
    jf = jfraction_from_params(*abd, i_max + 2)
    report = moment_convexity_criterion(jf, i_max)
    gaps = [_first_negative_of_difference(jf.s[i] * jf.s[i + 1], jf.t[i]) for i in range(i_max + 1)]
    want = tuple((i, i + 1, k) for i, k in enumerate(gaps) if i and k is not None)
    signs = [("s", i, _first_negative_of_difference(w, QPoly())) for i, w in enumerate(jf.s)]
    signs += [("t", j, _first_negative_of_difference(w, QPoly())) for j, w in enumerate(jf.t, 1)]
    assert report.hypothesis_witnesses
    assert report.witnesses == want
    assert report.hypothesis_witnesses == tuple(w for w in signs if w[2] is not None)
    assert report.gap_at_zero_nonneg == (gaps[0] is None)


# -- the closed-form criterion on integers ----------------------------------------------


def _criterion_by_weights(a, b, d, i_max):
    # the reference: the JFraction of the closed-form weights, and the QPoly criterion on it
    return moment_convexity_criterion(jfraction_from_params(a, b, d, i_max + 2), i_max)


def test_integer_criterion_equals_the_weight_criterion():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    rational = st.one_of(
        st.just(Fraction(0)), st.fractions(min_value=-6, max_value=6, max_denominator=7)
    )

    @hyp.settings(max_examples=150, deadline=None)
    @hyp.given(rational, rational, rational, st.integers(1, 60))
    def check(a, b, d, i_max):
        got = _weight_criterion(a, b, d, i_max)
        want = _criterion_by_weights(a, b, d, i_max)
        assert got == want
        assert _as_json(got._asdict()) == _as_json(want._asdict())

    check()


def test_integer_criterion_when_d_is_zero():
    # TypeB_qt at t = -1 is (1, 1, 0): every s_i = 1 - q and every t_i = 0
    report = _weight_criterion(1, 1, 0, 5)
    assert report == _criterion_by_weights(1, 1, 0, 5)
    assert report.witnesses == tuple((i, i + 1, 1) for i in range(1, 6))
    assert report.hypothesis_witnesses == tuple(("s", j, 1) for j in range(7))
    assert not report.gap_at_zero_nonneg


def test_integer_criterion_when_b_is_zero():
    # (2, 0, 3): s_i = 3i (1 + q), t_{i+1} = 9i(i + 1) q, so the gap is 9i(i + 1)(1 + q + q^2)
    report = _weight_criterion(2, 0, 3, 8)
    assert report == _criterion_by_weights(2, 0, 3, 8)
    assert report.verdict and report.hypothesis_nonneg and report.gap_at_zero_nonneg


def test_integer_criterion_when_a_equals_d():
    # the edge d = a of the region; General(a, d) at a = d = 7/3 carries denominators
    for abd in ((2, 1, 2), (Fraction(7, 3), 1, Fraction(7, 3))):
        report = _weight_criterion(*abd, 12)
        assert report == _criterion_by_weights(*abd, 12)
        assert report.verdict and report.hypothesis_nonneg and report.gap_at_zero_nonneg


def test_nonnegative_weights_make_the_gap_at_zero_nonnegative():
    # the i = 0 gap is (ab)(d + ab) + 2(ab)(bd - ab) q + (bd - ab)(d + bd - ab) q^2, products
    # of the coefficients of s_0 and s_1, so check --mode zhu's verdict needs no third term
    rng = random.Random(36)
    seen = 0
    while seen < 200:
        report = _weight_criterion(*_rationals(rng, 3), 3)
        if report.hypothesis_nonneg:
            seen += 1
            assert report.gap_at_zero_nonneg


def test_integer_criterion_refuses_an_empty_range():
    with pytest.raises(ValueError, match="i_max must be >= 1"):
        _weight_criterion(1, 1, 1, 0)


# -- packed products: _chain_drops against QPoly products and _first_drop ---------------


def _product_drops(f, chain):
    # the definition: build every product as a QPoly and compare neighbours
    products = [f[i] * f[j] for i, j in chain]
    return [_first_drop(p, q) for p, q in zip(products, products[1:])]


def test_chain_drops_and_checks_equal_qpoly_products():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    # coefficients near 2^k - 1 fill a slot's bit height exactly, or overshoot it by one
    near_power = st.builds(
        lambda k, off, sign: sign * (2**k - 1 + off),
        st.integers(1, 90), st.integers(-1, 1), st.sampled_from((1, -1)),
    )
    numerator = st.one_of(st.integers(-40, 40), st.just(0), near_power)
    coeff = st.builds(Fraction, numerator, st.sampled_from((1, 1, 2, 3, 5, 12)))
    poly = st.one_of(st.just(QPoly()), st.lists(coeff, max_size=9).map(lambda cs: QPoly(*cs)))

    @hyp.settings(max_examples=200, deadline=None)
    @hyp.given(st.lists(poly, min_size=3, max_size=8), st.data())
    def check(f, data):
        index = st.integers(0, len(f) - 1)
        chains = data.draw(st.lists(st.lists(st.tuples(index, index), max_size=6), max_size=3))
        # one call takes every chain, sharing its row caches across them
        assert _chain_drops(f, chains) == [_product_drops(f, c) for c in chains]
        plain, strong = _subtraction_witnesses(f)
        assert check_q_log_convex(f).witnesses == plain
        assert check_strong_q_log_convex(f).witnesses == strong

    check()


def test_chain_drops_at_a_slot_boundary():
    # Both pairs give bits 12 + 12 + bits(3) + bits(15) = 12 + 13 + bits(1) + bits(15) = 30,
    # so the slot is 32 bits with nothing added by rounding.  Over L = 3,
    # coefficient 14 of f0 f0 - f2 f3 is 3*15*4095^2 + 14*2782*8191 + 23*4897 = 2^30:
    # it fits with its one bit of headroom, and would carry out of a 31-bit slot.
    f0 = QPoly(*[4095] * 15)
    f2 = QPoly(*[Fraction(23, 3)] + [Fraction(2782, 3)] * 14)
    f3 = QPoly(*[-8191] * 14 + [-4897])
    difference = f0 * f0 - f2 * f3
    assert 3 * max(difference.coeffs) == 3 * difference.coeffs[14] == 2**30
    assert min(difference.coeffs) > 0
    assert _chain_drops([f0, f0, f2, f3], [[(0, 1), (2, 3)]]) == [[None]]
    # turned around, every coefficient is negative, down to -2^30
    assert _chain_drops([f0, f0, f2, f3], [[(2, 3), (0, 1)]]) == [[0]]
    # the digits -1, 0 and 1, where a slot's high bit flips
    g = [ONE, ONE, QPoly(2), ONE]
    assert _chain_drops(g, [[(0, 1), (2, 3)]]) == [[0]]
    assert _chain_drops(g, [[(2, 3), (0, 1)], [(0, 1), (1, 0)]]) == [[None], [None]]


# -- the expanded gap and its bound ---------------------------------------------------


def test_weight_gap_matches_raw_weights_on_a_grid():
    values = [0, 1, 2, Fraction(1, 2), 3]
    for a in values:
        for d in values:
            if d == 0:
                continue
            for b in (0, 1, Fraction(1, 2), 5):
                jf = jfraction_from_params(a, b, d, 6)
                for i in range(4):
                    got = weight_gap(i, a, b, d)
                    assert got.gap == jf.s[i] * jf.s[i + 1] - jf.t[i]
    # and against the closed form written here in Fraction arithmetic, on random
    # rational a, b, d with negative values and zeros, d = 0 among them
    rng = random.Random(27)
    for _ in range(300):
        a, b, d = (Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in "abd")
        i = rng.randint(0, 12)

        def s(j):
            return QPoly(d * j + a * b, d * j + b * d - a * b)

        t = QPoly(0, d * d * (i + 1) * (i + b))
        bound = QPoly(
            (d * i + a * b) * (d * i + d + a * b),
            a * b * b * d - a * a * b * b,
            (d * i + b * d - a * b) * (d * i + d + b * d - a * b),
        )
        got = weight_gap(i, a, b, d)
        assert got.gap == s(i) * s(i + 1) - t, (a, b, d, i)
        assert got.reference_bound == bound, (a, b, d, i)
        assert got.bound_is_lower == (_first_negative_of_difference(got.gap, bound) is None)


def test_weight_gap_unit_case_and_bound():
    res = weight_gap(1, 1, 1, 1)
    assert res.gap == QPoly(6, 3, 2)
    assert res.reference_bound == QPoly(6, 0, 2)
    assert res.bound_is_lower


def test_weight_gap_boundary_case_touches_zero():
    # a = d, b = 1/2 drives the middle bound coefficient ab^2 d - a^2 b^2
    # to zero exactly
    res = weight_gap(1, 1, Fraction(1, 2), 1)
    assert res.reference_bound.coeffs[1] == 0
    assert res.bound_is_lower
    res2 = weight_gap(0, 0, 1, 1)
    assert res2.gap.constant == 0


def test_weight_gap_minus_bound_is_the_stated_identity():
    # gap - bound = q (d^2 i (i + 1 + b) + a b^2 (d - a)), the reason the
    # bound is lower whenever b >= 0 and d >= a >= 0
    rng = random.Random(20130)

    def rat():
        return Fraction(rng.randint(-12, 12), rng.randint(1, 6))

    for _ in range(300):
        a, b, d, i = rat(), rat(), rat(), rng.randint(0, 30)
        res = weight_gap(i, a, b, d)
        want = QPoly(0, d * d * i * (i + 1 + b) + a * b * b * (d - a))
        assert res.gap - res.reference_bound == want, (a, b, d, i)
        if b >= 0 and d >= a >= 0:
            assert res.bound_is_lower, (a, b, d, i)


def test_weight_gap_rejects_negative_index():
    with pytest.raises(ValueError):
        weight_gap(-1, 1, 1, 1)


@pytest.mark.parametrize("i", [Fraction(3, 2), 1.5, Fraction(2), True])
def test_weight_gap_rejects_an_index_that_is_not_an_int(i):
    with pytest.raises(TypeError):
        weight_gap(i, 1, 1, 1)
    with pytest.raises(TypeError):
        weight_gap(i, 1, 1, Fraction(1, 2))


# -- the region is exact: two identities of the rows give the converse ---------------


def _rationals(rng, count):
    return [Fraction(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(count)]


def test_first_log_convexity_gaps_are_the_stated_identities():
    # for every (a, b, d): T_0T_2 - T_1^2 = b d^2 q and
    # T_1T_3 - T_2^2 = ab^2d^2(ab + d) q + 2ab^3d^2(d - a) q^2 + b^2d^2(a - d)(ab - bd - d) q^3
    rng = random.Random(1407)
    for _ in range(300):
        a, b, d = _rationals(rng, 3)
        t = recurrence_polynomial(a, b, d, 4)
        assert t[0] * t[2] - t[1] * t[1] == QPoly(0, b * d * d), (a, b, d)
        assert t[1] * t[3] - t[2] * t[2] == QPoly(
            0,
            a * b * b * d * d * (a * b + d),
            2 * a * b**3 * d * d * (d - a),
            b * b * d * d * (a - d) * (a * b - b * d - d),
        ), (a, b, d)


def test_rows_outside_the_region_are_not_q_log_convex():
    # d > 0: b < 0 makes the q coefficient of T_0T_2 - T_1^2 negative; b > 0 with a < 0
    # or a > d makes the q^2 coefficient of T_1T_3 - T_2^2 negative
    rng = random.Random(2013)
    seen = 0
    while seen < 200:
        a, b, d = _rationals(rng, 3)
        if d <= 0 or b == 0 or (b > 0 and 0 <= a <= d):
            continue
        seen += 1
        t = recurrence_polynomial(a, b, d, 8)
        plain, strong = check_q_log_convex(t), check_strong_q_log_convex(t)
        assert not plain.verdict and not strong.verdict, (a, b, d)
        if b < 0:
            assert (t[0] * t[2] - t[1] * t[1]).coeffs[1] == b * d * d < 0
            assert plain.witnesses[0] == (1, 1, 1)
        else:
            named = (t[1] * t[3] - t[2] * t[2]).coeffs[2]
            assert named == 2 * a * b**3 * d * d * (d - a) < 0
            assert next(k for n, _, k in plain.witnesses if n == 2) <= 2


@pytest.mark.parametrize("abd", [(5, 0, 3), (-2, 0, 3)])
def test_rows_at_b_zero_are_in_the_region_for_every_a(abd):
    # b = 0 kills both factors of T_1, so the rows are 1, 0, 0, ... and pass both
    # checks with a outside [0, d]: the region is "b = 0, or b > 0 and 0 <= a <= d"
    rows = recurrence_polynomial(*abd, 8)
    assert rows == [ONE] + [QPoly()] * 7
    assert check_q_log_convex(rows).verdict and check_strong_q_log_convex(rows).verdict


def test_rows_of_the_mirrored_triple_gain_the_sign_of_n():
    # (a, d) -> (-a, -d) negates both factors of the triangle recurrence, so
    # rows(-a, b, -d) = (-1)^n rows(a, b, d)
    rng = random.Random(1808)
    for _ in range(200):
        a, b, d = _rationals(rng, 3)
        rows = recurrence_polynomial(a, b, d, 9)
        mirrored = recurrence_polynomial(-a, b, -d, 9)
        assert mirrored == [-row if n % 2 else row for n, row in enumerate(rows)], (a, b, d)


def test_egf_rows_at_negative_d_are_the_mirrored_rows():
    a, b, d = Fraction(3, 2), Fraction(2, 3), Fraction(-5, 4)
    rows = egf_polynomials(a, b, d, 7)
    assert rows == recurrence_polynomial(a, b, d, 7)
    mirrored = recurrence_polynomial(-a, b, -d, 7)
    assert rows == [-row if n % 2 else row for n, row in enumerate(mirrored)]


# -- transforms ------------------------------------------------------------------------


def test_builtin_sequences():
    assert builtin_sequence("ones", 4) == [1, 1, 1, 1]
    assert builtin_sequence("powers2", 4) == [1, 2, 4, 8]
    assert builtin_sequence("factorial", 5) == [1, 1, 2, 6, 24]
    assert builtin_sequence("catalan", 6) == [1, 1, 2, 5, 14, 42]
    assert builtin_sequence("motzkin", 6) == [1, 1, 2, 4, 9, 21]
    with pytest.raises(ValueError, match="ones"):
        builtin_sequence("fibonacci", 4)
    assert set(BUILTIN_SEQUENCES) == {"ones", "powers2", "factorial", "catalan", "motzkin"}


@pytest.mark.parametrize("name", sorted(BUILTIN_SEQUENCES))
def test_builtin_sequences_give_exactly_count_entries(name):
    longer = builtin_sequence(name, 3)
    for count in range(4):
        assert builtin_sequence(name, count) == longer[:count]
    assert builtin_sequence(name, -1) == []


def test_motzkin_recurrence_equals_the_convolution():
    # M_{n+1} = M_n + sum_{k < n} M_k M_{n-1-k}, the definition by first return
    want = [1, 1]
    while len(want) < 200:
        n = len(want) - 1
        want.append(want[n] + sum(want[k] * want[n - 1 - k] for k in range(n)))
    assert builtin_sequence("motzkin", 200) == want


def test_transform_of_ones_gives_group_orders():
    xs = builtin_sequence("ones", 6)
    rep_a = transform_log_convexity_experiment("A", xs, 5)
    assert list(rep_a.z) == [1, 1, 2, 6, 24, 120]
    rep_b = transform_log_convexity_experiment("B", xs, 5)
    assert list(rep_b.z) == [1, 2, 8, 48, 384, 3840]
    assert rep_a.verdict and rep_b.verdict


def test_transform_verdicts_on_all_builtins():
    for name in BUILTIN_SEQUENCES:
        xs = builtin_sequence(name, 9)
        for tri in "AB":
            report = transform_log_convexity_experiment(tri, xs, 8)
            assert report.verdict, (name, tri)
            assert not report.witnesses


def test_transform_refuses_bad_input():
    with pytest.raises(ValueError):
        transform_log_convexity_experiment("A", [1, 5, 1, 5, 1], 3)
    with pytest.raises(ValueError):
        transform_log_convexity_experiment("A", [1, -1, 1, 1], 2)
    with pytest.raises(ValueError):
        transform_log_convexity_experiment("A", [1, 1], 3)
    for letter in ("C", "a"):
        with pytest.raises(ValueError, match=f"^unknown triangle '{letter}'; triangles: A, B$"):
            transform_log_convexity_experiment(letter, [1, 1, 1], 2)


def test_transform_report_serializes():
    xs = builtin_sequence("powers2", 4)
    report = transform_log_convexity_experiment("B", xs, 3)
    data = _as_json(report._asdict())
    assert list(data) == ["triangle", "z", "verdict", "witnesses"]
    assert data["triangle"] == "B"
    assert data["verdict"] is True
    assert data["z"] == [str(v) for v in report.z]
    assert data["witnesses"] == []
