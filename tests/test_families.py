"""Combinatorial routes: descents, excedances, signed permutations, triangles."""

import json
import math
from fractions import Fraction

import pytest

from qeuler.algebra import QPoly
from qeuler.cli import main
from qeuler.families import (
    Family,
    FamilySpec,
    enumeration_polynomial,
    eulerian_numbers_type_a,
    eulerian_numbers_type_b,
    family_egf_params,
    recurrence_polynomial,
    type_b_polynomial,
)
from qeuler.jacobi import jfraction_from_params, moments_by_cfrac_expansion
from qeuler.series import egf_polynomials
from qeuler.walks import (
    DESCENT_CAP,
    SIGNED_CAP,
    descent_polynomial,
    excedance_cycle_polynomial,
    signed_descent_polynomial,
)

Q = QPoly(0, 1)


# -- family specs ----------------------------------------------------------------


def test_spec_parameter_validation():
    FamilySpec(Family.TYPE_A)
    FamilySpec(Family.TYPE_A_QT, t=2)
    FamilySpec(Family.GENERAL, a=1, d=3)
    with pytest.raises(ValueError):
        FamilySpec(Family.TYPE_A_QT)  # t is required
    with pytest.raises(ValueError):
        FamilySpec(Family.TYPE_B, t=1)  # t not accepted
    with pytest.raises(ValueError):
        FamilySpec(Family.GENERAL, a=1)  # d missing
    with pytest.raises(ValueError):
        FamilySpec(Family.TYPE_A, a=1, d=1)


def test_spec_labels():
    assert FamilySpec(Family.TYPE_B).label() == "TypeB"
    assert FamilySpec(Family.TYPE_A_QT, t=Fraction(1, 2)).label() == "TypeA_qt (t=1/2)"
    assert FamilySpec(Family.GENERAL, a=2, d=5).label() == "General (a=2, d=5)"


def test_egf_parameter_triples():
    assert family_egf_params(FamilySpec(Family.TYPE_A_SHIFTED)) == (1, 1, 1)
    assert family_egf_params(FamilySpec(Family.TYPE_A)) == (0, 1, 1)
    assert family_egf_params(FamilySpec(Family.TYPE_A_QT, t=3)) == (1, 3, 1)
    assert family_egf_params(FamilySpec(Family.TYPE_B)) == (1, 1, 2)
    assert family_egf_params(FamilySpec(Family.TYPE_B_QT, t=Fraction(1, 2))) == (
        1,
        1,
        Fraction(3, 2),
    )
    assert family_egf_params(FamilySpec(Family.GENERAL, a=2, d=5)) == (2, 1, 5)


# family, the flags it takes in print order, its label and its (a, b, d);
# a != d and 1 + t != t, so a swapped or misread parameter shows
_TABLE = [
    (Family.TYPE_A_SHIFTED, {}, "TypeA_shifted", (1, 1, 1)),
    (Family.TYPE_A, {}, "TypeA", (0, 1, 1)),
    (Family.TYPE_A_QT, {"t": "2/3"}, "TypeA_qt (t=2/3)", (1, Fraction(2, 3), 1)),
    (Family.TYPE_B, {}, "TypeB", (1, 1, 2)),
    (Family.TYPE_B_QT, {"t": "2/3"}, "TypeB_qt (t=2/3)", (1, 1, Fraction(5, 3))),
    (Family.GENERAL, {"a": "2/3", "d": "5/7"}, "General (a=2/3, d=5/7)",
     (Fraction(2, 3), 1, Fraction(5, 7))),
]


def _wrong_params(family, params):
    """Each way to drop one of the family's parameters or add one it lacks."""
    for name in ("t", "a", "d"):
        if name in params:
            yield {k: v for k, v in params.items() if k != name}, f"{family.value} requires {name}"
        else:
            yield params | {name: "3"}, f"{family.value} takes no {name}"


@pytest.mark.parametrize("family,params,label,abd", _TABLE, ids=[f.value for f, *_ in _TABLE])
def test_family_table_through_the_library(family, params, label, abd):
    spec = FamilySpec(family, **params)
    assert list(spec.params.items()) == [(k, Fraction(v)) for k, v in params.items()]
    assert spec.label() == label
    assert family_egf_params(spec) == abd
    assert all(type(v) is Fraction for v in family_egf_params(spec))
    for wrong, message in _wrong_params(family, params):
        with pytest.raises(ValueError, match=f"^{message}$"):
            FamilySpec(family, **wrong)


@pytest.mark.parametrize("family,params,label,abd", _TABLE, ids=[f.value for f, *_ in _TABLE])
def test_family_table_through_the_cli(family, params, label, abd, capsys):
    def run(params, *extra):
        flags = [f"--{k}={v}" for k, v in params.items()]
        argv = ["table", "--family", family.value, *flags, "--nmax", "4", "--route", "egf"]
        code = main([*argv, *extra])
        return code, *capsys.readouterr()

    code, out, err = run(params)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert list(payload["config"].items()) == [
        ("family", family.value), *params.items(), ("nmax", 4), ("route", "egf")
    ]
    assert payload["result"]["rows"] == [p.to_json() for p in egf_polynomials(*abd, 4)]
    code, out, err = run(params, "--format", "text")
    assert code == 0 and out.splitlines()[0] == f"{label} via egf"
    for wrong, message in _wrong_params(family, params):
        code, out, err = run(wrong)
        assert (code, out, json.loads(err)) == (2, "", {"error": message})


# -- descent and excedance statistics ----------------------------------------------


def test_descent_polynomials_match_known_rows():
    assert descent_polynomial(1) == 1
    assert descent_polynomial(2) == QPoly(1, 1)
    assert descent_polynomial(3) == QPoly(1, 4, 1)
    assert descent_polynomial(4) == QPoly(1, 11, 11, 1)
    assert descent_polynomial(5) == QPoly(1, 26, 66, 26, 1)


def test_descent_polynomial_counts_all_permutations():
    for n in range(1, 7):
        assert sum(descent_polynomial(n).coeffs) == math.factorial(n)


def test_excedance_polynomial_hand_case():
    # S_3 by (excedances, cycles): id -> (0,3); three transpositions -> (1,2);
    # 231 -> (2,1); 312 -> (1,1); weights are q^(exc+1) t^cyc
    assert excedance_cycle_polynomial(3, 1) == QPoly(0, 1, 4, 1)
    assert excedance_cycle_polynomial(3, 2) == QPoly(0, 8, 14, 2)
    assert excedance_cycle_polynomial(3, 0) == QPoly()


@pytest.mark.parametrize("n", range(1, DESCENT_CAP + 1))
def test_excedances_and_descents_are_equidistributed(n):
    # the walk carries the conventional extra q
    assert excedance_cycle_polynomial(n, 1) == Q * descent_polynomial(n)


@pytest.mark.parametrize("n", range(1, DESCENT_CAP + 1))
def test_cycles_follow_the_stirling_numbers_of_the_first_kind(n):
    # sum over S_n of t^cyc is the rising factorial t (t + 1) .. (t + n - 1)
    for t in range(4):
        # the sum of the coefficients is the value at q = 1
        assert sum(excedance_cycle_polynomial(n, t).coeffs) == math.prod(range(t, t + n))


def test_signed_descents_small_groups():
    # one-element signed permutations: [1] no descent, [-1] one descent
    # with one negative letter
    assert signed_descent_polynomial(1, 1) == QPoly(1, 1)
    assert signed_descent_polynomial(2, 1) == QPoly(1, 6, 1)
    assert signed_descent_polynomial(3, 1) == QPoly(1, 23, 23, 1)


def test_signed_descents_track_negative_letters():
    # B_2 graded by the number of negatives: 1 + (t^2+4t+1) q + t^2 q^2
    for t in (0, 1, 2, Fraction(1, 2)):
        ft = Fraction(t)
        assert signed_descent_polynomial(2, t) == QPoly(1, ft * ft + 4 * ft + 1, ft * ft)
    # at t = 0 only the elements with no negative letter are left: the descents
    # of S_n (the shifted family), one factor of q below TypeA
    for n in range(1, 7):
        assert signed_descent_polynomial(n, 0) == descent_polynomial(n)


def test_enumeration_caps_are_enforced():
    with pytest.raises(ValueError):
        descent_polynomial(DESCENT_CAP + 1)
    with pytest.raises(ValueError):
        signed_descent_polynomial(SIGNED_CAP + 1, 1)


# -- integer triangles ---------------------------------------------------------------


def test_type_a_triangle_rows():
    # rows carry an explicit zero in the top slot so that row n always
    # has n + 1 entries, like the type B triangle
    assert eulerian_numbers_type_a(1) == [1, 0]
    assert eulerian_numbers_type_a(2) == [1, 1, 0]
    assert eulerian_numbers_type_a(4) == [1, 11, 11, 1, 0]
    for n in range(1, 7):
        assert descent_polynomial(n) == QPoly(*eulerian_numbers_type_a(n))


def test_type_b_triangle_rows():
    assert eulerian_numbers_type_b(0) == [1]
    assert eulerian_numbers_type_b(1) == [1, 1]
    assert eulerian_numbers_type_b(2) == [1, 6, 1]
    assert eulerian_numbers_type_b(3) == [1, 23, 23, 1]
    assert eulerian_numbers_type_b(4) == [1, 76, 230, 76, 1]
    # row sums count the full hyperoctahedral group
    for n in range(8):
        assert sum(eulerian_numbers_type_b(n)) == 2**n * math.factorial(n)


def test_type_b_recurrence_matches_triangle_and_enumeration():
    for n in range(8):
        assert type_b_polynomial(n) == QPoly(*eulerian_numbers_type_b(n))
    # the walk itself starts at n = 1
    for n in range(1, SIGNED_CAP + 1):
        assert type_b_polynomial(n) == signed_descent_polynomial(n, 1)


# -- the (a, b, d) triangle -------------------------------------------------------------


def test_general_polynomial_unit_parameters_recover_descents():
    rows = recurrence_polynomial(1, 1, 1, 7)
    for n in range(1, 7):
        assert rows[n] == descent_polynomial(n)


def test_general_polynomial_first_rows():
    assert recurrence_polynomial(2, 1, 5, 2) == [1, QPoly(2, 3)]
    # T_1 = ab + (bd - ab) q for any parameters
    for a, b, d in [(0, 1, 1), (1, 1, 3), (Fraction(1, 2), 3, Fraction(5, 2)), (2, -1, 0)]:
        fa, fb, fd = Fraction(a), Fraction(b), Fraction(d)
        assert recurrence_polynomial(a, b, d, 2)[1] == QPoly(fa * fb, fb * fd - fa * fb)


def test_general_polynomial_matches_generating_function():
    # the rational and negative pairs check that row n is divided by D^n
    rational = [(Fraction(2, 3), Fraction(5, 3)), (Fraction(1, 4), Fraction(5, 4))]
    negative = [(Fraction(-1, 2), Fraction(3, 7)), (Fraction(3, 5), Fraction(-2))]
    for a, d in [(1, 2), (1, 3), (2, 5), (0, 1), *rational, *negative]:
        assert recurrence_polynomial(a, 1, d, 8) == egf_polynomials(a, 1, d, 8), (a, d)
    # b != 1 puts a third form, bd, into the common denominator
    for a, b, d in [(1, Fraction(4, 3), 1), (Fraction(2, 3), Fraction(-3, 2), Fraction(5, 7))]:
        assert recurrence_polynomial(a, b, d, 8) == egf_polynomials(a, b, d, 8), (a, b, d)


def _triangle_copy(a, b, d, count, *, b_factor=True, derivative_sign=1):
    """The (a, b, d) recurrence in polynomial form, optionally with one defect:

        T_n = (ab + (bd - ab + (n-1) d) q) T_{n-1} + d q (1-q) T'_{n-1}.
    """
    ab, bd = a * b, (b if b_factor else 1) * d
    rows = [QPoly(1)]
    for n in range(1, count):
        prev = rows[-1]
        step = QPoly(ab, bd - ab + (n - 1) * d) * prev
        rows.append(step + derivative_sign * d * QPoly(0, 1, -1) * prev.derivative())
    return rows


def test_triangle_mutants_disagree_with_the_generating_function():
    a, b, d = Fraction(1), Fraction(2), Fraction(3, 2)
    want = egf_polynomials(a, b, d, 10)
    assert _triangle_copy(a, b, d, 10) == want == recurrence_polynomial(a, b, d, 10)
    assert _triangle_copy(a, b, d, 10, b_factor=False) != want
    assert _triangle_copy(a, b, d, 10, derivative_sign=-1) != want


def test_recurrence_equals_egf_and_cfrac_on_random_triples():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    rational = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))

    @hyp.settings(max_examples=100, deadline=None)
    @hyp.given(rational, rational, rational)
    def check(a, b, d):
        count = 10
        cfrac = list(moments_by_cfrac_expansion(jfraction_from_params(a, b, d, count), count))
        assert recurrence_polynomial(a, b, d, count) == egf_polynomials(a, b, d, count) == cfrac

    check()


# -- route dispatch -----------------------------------------------------------------


@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec(Family.TYPE_A_SHIFTED),
        FamilySpec(Family.TYPE_A),
        FamilySpec(Family.TYPE_A_QT, t=2),
        FamilySpec(Family.TYPE_B),
        FamilySpec(Family.TYPE_B_QT, t=Fraction(1, 2)),
        FamilySpec(Family.GENERAL, a=2, d=5),
    ],
)
def test_enumeration_matches_generating_function(spec):
    a, b, d = family_egf_params(spec)
    assert enumeration_polynomial(spec, 6) == egf_polynomials(a, b, d, 6), spec.label()


def test_enumeration_at_zero_is_one_everywhere():
    for fam in Family:
        if fam in (Family.TYPE_A_QT, Family.TYPE_B_QT):
            spec = FamilySpec(fam, t=1)
        elif fam is Family.GENERAL:
            spec = FamilySpec(fam, a=1, d=2)
        else:
            spec = FamilySpec(fam)
        assert enumeration_polynomial(spec, 1) == [1]


def test_recurrence_route_exists_for_every_family(capsys):
    specs = [
        ("--family", "TypeA"),
        ("--family", "TypeA_shifted"),
        ("--family", "TypeA_qt", "--t", "4/3"),
        ("--family", "TypeA_qt", "--t=-2"),
        ("--family", "TypeB"),
        ("--family", "TypeB_qt", "--t=-3/2"),
        ("--family", "General", "--a", "3", "--d", "1"),
        ("--family", "General", "--a=-1/2", "--d", "3/7"),
    ]
    for spec in specs:
        rows = {}
        for route in ("recurrence", "egf", "cfrac"):
            assert main(["table", *spec, "--nmax", "12", "--route", route]) == 0, (spec, route)
            rows[route] = json.loads(capsys.readouterr().out)["result"]["rows"]
        assert rows["recurrence"] == rows["egf"] == rows["cfrac"], spec

