"""Exact convexity evidence, positive and negative.

A sequence of polynomials is strongly q-log-convex when every
f_{m-1} f_{n+1} - f_m f_n (n >= m >= 1) has nonnegative coefficients.
The sufficient criterion works one level down, on the continued-fraction
weights themselves: s_i s_{i+1} >=_q t_{i+1}.
"""

from fractions import Fraction

from qeuler.algebra import QPoly
from qeuler.convexity import (
    check_q_log_convex,
    check_strong_q_log_convex,
    moment_convexity_criterion,
    weight_gap,
)
from qeuler.jacobi import jfraction_from_params, moments_by_motzkin_paths
from qeuler.series import egf_polynomials

print("type B polynomials, strong q-log-convexity:")
polys = egf_polynomials(1, 1, 2, 9)
report = check_strong_q_log_convex(polys)
print(f"  verdict={report.verdict} over pairs up to {report.checked_range[1]}")

print("\nweight criterion for several parameter choices, i <= 12:")
for a, b, d in [(1, 1, 1), (0, 1, 1), (1, 1, 2), (2, 1, 5), (1, Fraction(1, 2), 1)]:
    jf = jfraction_from_params(a, b, d, 14)
    rep = moment_convexity_criterion(jf, 12)
    print(f"  (a={a}, b={b}, d={d}): verdict={rep.verdict}, hypothesis={rep.hypothesis_nonneg}")

print("\nthe expanded gap and its lower bound at (1, 1, 1):")
for i in range(1, 5):
    res = weight_gap(i, 1, 1, 1)
    print(f"  i={i}: gap = {res.gap}   bound = {res.reference_bound}   bound<=gap: {res.bound_is_lower}")

print("\nnegative control: the spike 1, 1+q, 1 is not q-log-convex:")
bad = check_q_log_convex([QPoly(1), QPoly(1, 1), QPoly(1)])
print(f"  verdict={bad.verdict}, witnesses={bad.witnesses}")

print("\nmoments of the type B family are themselves the polynomials:")
mu = moments_by_motzkin_paths(jfraction_from_params(1, 1, 2, 6), 6)
for n, m in enumerate(mu):
    print(f"  mu_{n} = {m}")
