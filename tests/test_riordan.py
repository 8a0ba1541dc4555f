"""Exponential Riordan arrays and their production matrices."""

import json
import random
from fractions import Fraction
from math import comb

import pytest

from qeuler import cli, riordan
from qeuler.algebra import ONE, Q, ZERO, QPoly, poly_dot
from qeuler.riordan import (
    ExpRiordan,
    exp_riordan_from_params,
    lower_tri_inverse,
    production_matrix_direct,
    production_matrix_from_series,
    production_series,
    riordan_matrix,
)
from qeuler.series import TruncSeries


def _rf(value):
    return QPoly(value)


def _pascal_pair(order):
    # g = e^x, f = x gives the Pascal matrix
    return ExpRiordan(TruncSeries.x(order).exp(), TruncSeries.x(order))


def _identity(size):
    return tuple(tuple(ONE if i == j else ZERO for j in range(size)) for i in range(size))


def _times(left, right):
    return tuple(tuple(poly_dot(row, col) for col in zip(*right)) for row in left)


def _non_tridiagonal_pair(order):
    # g = 1, f = x + x^2: r = f'(fbar) = sqrt(1 + 4x) fills every column of P
    x = TruncSeries.x(order)
    return ExpRiordan(TruncSeries.constant(order, 1), x + x * x)


def _assert_routes_agree(direct, formula):
    assert formula.nrows == direct.nrows - 1
    for i, row in enumerate(formula.entries):
        assert len(row) == len(direct.entries[i]) - 1
        for j, entry in enumerate(row):
            assert direct.entries[i][j] == entry, (i, j)


# -- validation ----------------------------------------------------------------


def test_exp_riordan_validates_shape():
    order = 5
    with pytest.raises(ValueError):
        ExpRiordan(TruncSeries.x(order), TruncSeries.x(order))  # g(0) = 0
    with pytest.raises(ValueError):
        ExpRiordan(TruncSeries.constant(order, 1), TruncSeries.constant(order, 1))  # f(0) != 0
    with pytest.raises(ValueError):
        ExpRiordan(
            TruncSeries.constant(order, 1),
            TruncSeries.x(order) * TruncSeries.x(order),
        )  # f'(0) = 0
    with pytest.raises(ValueError):
        ExpRiordan(TruncSeries.constant(4, 1), TruncSeries.x(5))


def test_lower_tri_rejects_upper_entries_and_ragged_rows():
    cases = [
        ([[_rf(1), _rf(2)], [_rf(0), _rf(1)]], "row 0 has nonzero entries above the diagonal"),
        ([[_rf(1)], [_rf(1), _rf(1)]], "matrix must be square"),
        ([[1, 0, 0], [2, 1, 0], [3, 4]], "matrix must be square"),
        ([], "empty matrix"),
    ]
    for solve in (lower_tri_inverse, production_matrix_direct):
        for rows, message in cases:
            with pytest.raises(ValueError) as error:
                solve(rows)
            assert str(error.value) == message, (solve.__name__, rows)


# -- matrices from (g, f) --------------------------------------------------------


def test_pascal_matrix_and_inverse():
    order = 7
    mat = riordan_matrix(_pascal_pair(order))
    assert mat == tuple(tuple(_rf(comb(n, k)) for k in range(order)) for n in range(order))
    inv = lower_tri_inverse(mat)
    for n in range(order):
        for k in range(n + 1):
            assert inv[n][k] == _rf((-1) ** (n - k) * comb(n, k))
    assert _times(inv, mat) == _identity(order)


def test_first_column_holds_the_polynomials():
    arr = exp_riordan_from_params(1, 1, 1, 6)
    mat = riordan_matrix(arr)
    want = [QPoly(1), QPoly(1), QPoly(1, 1), QPoly(1, 4, 1), QPoly(1, 11, 11, 1)]
    for n, poly in enumerate(want):
        # column 0 entry is n! [x^n] g, a polynomial in q
        assert mat[n][0] == poly


def test_singular_diagonal_has_no_inverse():
    m = [[_rf(1), _rf(0)], [_rf(2), _rf(0)]]
    with pytest.raises(ValueError, match="not invertible"):
        lower_tri_inverse(m)


def test_inverse_refuses_a_nonconstant_diagonal():
    # 1/q is not in Q[q], so no step of forward substitution may divide by it
    m = [[_rf(1), _rf(0)], [_rf(2), QPoly(0, 1)]]
    with pytest.raises(ValueError, match="not a unit"):
        lower_tri_inverse(m)
    # a nonzero rational diagonal divides exactly
    half = ((_rf(2), _rf(0)), (QPoly(0, 1), _rf(1)))
    inv = lower_tri_inverse(half)
    assert inv[0][0] == _rf(Fraction(1, 2))
    assert _times(inv, half) == _identity(2)


def test_exp_riordan_from_params_rejects_d_zero():
    with pytest.raises(ValueError):
        exp_riordan_from_params(1, 1, 0, 5)


# -- production matrices ---------------------------------------------------------


@pytest.mark.parametrize(
    "a,b,d",
    [
        (1, 1, 1),
        (0, 1, 1),
        (1, 2, 1),
        (1, 1, 2),
        (2, 1, 5),
        (1, Fraction(1, 2), 1),
        (1, 1, Fraction(3, 2)),
    ],
)
def test_production_matrix_two_routes_agree(a, b, d):
    arr = exp_riordan_from_params(a, b, d, 8)
    direct = production_matrix_direct(riordan_matrix(arr))
    c, r = production_series(arr)
    formula = production_matrix_from_series(c, r)
    _assert_routes_agree(direct, formula)
    assert direct.tridiagonal and formula.tridiagonal


def test_non_tridiagonal_production_matrix_on_both_routes():
    arr = _non_tridiagonal_pair(7)
    direct = production_matrix_direct(riordan_matrix(arr))
    formula = production_matrix_from_series(*production_series(arr))
    _assert_routes_agree(direct, formula)
    assert direct.tridiagonal is False and formula.tridiagonal is False
    # column 1 is n! [x^n] r(x) = n! [x^n] sqrt(1 + 4x), nonzero below the subdiagonal
    assert [row[1] for row in direct.entries] == [_rf(v) for v in (1, 2, -4, 24, -240, 3360)]


def _prodmat_result(capsys, *flags):
    assert cli.main(["prodmat", *flags]) == 0
    return json.loads(capsys.readouterr().out)["result"]


def test_json_keeps_the_num_den_form(capsys, monkeypatch):
    # every d != 0 gives a tridiagonal P, so `prodmat` refuses one that is not
    monkeypatch.setattr(
        riordan, "exp_riordan_from_params", lambda a, b, d, order: _non_tridiagonal_pair(order)
    )
    assert cli.main(["prodmat", "--family", "TypeB", "--order", "5"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": "TypeB: production matrix is not tridiagonal"}
    monkeypatch.undo()
    # TypeB is (a, b, d) = (1, 1, 2): entry (1, 0) of P is t_1 = 4q
    tri = _prodmat_result(capsys, "--family", "TypeB", "--order", "3")
    assert tri["tridiagonal"] is True
    assert tri["t"] == [["0", "4"]]


def test_production_weights_match_closed_forms():
    arr = exp_riordan_from_params(1, 1, 1, 9)
    prod = production_matrix_direct(riordan_matrix(arr))
    s = prod.s_values(5)
    t = prod.t_values(4)
    for i in range(5):
        assert s[i] == QPoly(i + 1, i)
    for i in range(4):
        assert t[i] == QPoly(0, (i + 1) ** 2)


def test_production_matrix_shape_and_json(capsys):
    arr = exp_riordan_from_params(1, 1, 2, 6)
    prod = production_matrix_direct(riordan_matrix(arr))
    assert prod.nrows == 5 and {len(row) for row in prod.entries} == {6}
    data = _prodmat_result(capsys, "--family", "TypeB", "--order", "6")
    assert data["tridiagonal"] is True
    assert data["s"] == [p.to_json() for p in prod.s_values(prod.nrows)]
    assert data["t"] == [p.to_json() for p in prod.t_values(prod.nrows - 1)]


def test_defining_identity_l_times_p_is_shifted_l():
    # P = L^{-1} Lbar means L P must reproduce L with its first row removed
    arr = exp_riordan_from_params(1, 1, 2, 7)
    mat = riordan_matrix(arr)
    prod = production_matrix_direct(mat)
    for n in range(prod.nrows):
        for j in range(n + 2):
            acc = QPoly(0)
            for k in range(n + 1):
                acc = acc + mat[n][k] * prod.entries[k][j]
            assert acc == mat[n + 1][j]


def test_non_family_array_still_consistent():
    # g = 1/(1-x), f = x/(1-x): not from the parametrized family, and the
    # two production routes must still agree entry by entry
    order = 6
    one_minus_x = TruncSeries.constant(order, 1) - TruncSeries.x(order)
    g = one_minus_x.inverse()
    f = TruncSeries.x(order) * g
    arr = ExpRiordan(g, f)
    direct = production_matrix_direct(riordan_matrix(arr))
    c, r = production_series(arr)
    formula = production_matrix_from_series(c, r)
    _assert_routes_agree(direct, formula)


def test_production_requires_enough_terms():
    with pytest.raises(ValueError):
        production_series(exp_riordan_from_params(1, 1, 1, 2))


# -- the direct route against L^{-1} Lbar ------------------------------------------


def _inverse_times_shifted(mat):
    """P = L^{-1} Lbar by inverting L and multiplying with a plain loop."""
    inv = lower_tri_inverse(mat)
    n = len(mat)
    out = []
    for i in range(n - 1):
        row = []
        for j in range(n):
            acc = QPoly(0)
            for k in range(i + 1):
                acc = acc + inv[i][k] * mat[k + 1][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def test_direct_solve_equals_inverse_times_shifted_matrix():
    rng = random.Random(8)

    def rational():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    mats = [riordan_matrix(_pascal_pair(order)) for order in (2, 7, 12)]
    for order in range(2, 13):
        d = rational() or Fraction(1)
        mats.append(riordan_matrix(exp_riordan_from_params(rational(), rational(), d, order)))
    for mat in mats:
        prod = production_matrix_direct(mat)
        assert prod.entries == _inverse_times_shifted(mat)


@pytest.mark.parametrize("bad,message", [(ZERO, "not invertible"), (Q, "not a unit")])
def test_direct_solve_checks_the_last_diagonal_entry(bad, message):
    # row N-1 is only read through Lbar, yet its diagonal is still checked
    mat = [list(row) for row in riordan_matrix(exp_riordan_from_params(1, 1, 2, 5))]
    mat[-1][-1] = bad
    with pytest.raises(ValueError, match=message) as inverse_error:
        lower_tri_inverse(mat)
    with pytest.raises(ValueError) as direct_error:
        production_matrix_direct(mat)
    assert str(direct_error.value) == str(inverse_error.value)
