"""Recovering continued-fraction weights from raw moments.

The Chebyshev algorithm runs the three-term recurrence of the monic
orthogonal polynomials Q_k on the mixed moments <Q_k, x^l> and reads s
and t off quotients of them: s_0 + ... + s_k = <Q_k, x^(k+1)> / <Q_k, x^k>
and t_k = <Q_k, x^k> / <Q_(k-1), x^(k-1)>.  Those identities hold for
any weights, so when the weights are polynomials every division in
Q[q] is exact.  Feeding it the moments of a known family must return
exactly the closed-form weights; feeding it degenerate moments must
fail loudly instead of returning something plausible.
"""

from qeuler.jacobi import (
    NonQuasiDefiniteError,
    jfraction_from_moments,
    jfraction_from_params,
    moments_by_motzkin_paths,
)

print("round trip for (a, b, d) = (2, 1, 5):")
jf = jfraction_from_params(2, 1, 5, 10)
mu = moments_by_motzkin_paths(jf, 10)
recovered = jfraction_from_moments(mu)
print(f"  recovered depth {recovered.depth}; matches closed forms: "
      f"{recovered.s == jf.s[:recovered.depth] and recovered.t == jf.t[:recovered.depth - 1]}")
for i in range(3):
    print(f"  s_{i} = {recovered.s[i]}")

print("\nscalar moments work too (Motzkin numbers -> all-ones weights):")
motzkin = (1, 1, 2, 4, 9, 21, 51, 127)
flat = jfraction_from_moments(motzkin)
print(f"  s = {[str(p) for p in flat.s]}, t = {[str(p) for p in flat.t]}")

print("\ndegenerate moments are refused:")
try:
    jfraction_from_moments((1, 0, 0, 0, 0, 0), 3)
except NonQuasiDefiniteError as exc:
    print(f"  NonQuasiDefiniteError: {exc}")
