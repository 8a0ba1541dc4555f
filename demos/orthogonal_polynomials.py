"""Monic orthogonal polynomials from two directions.

The three-term recurrence Q_{n+1} = (x - s_n) Q_n - t_n Q_{n-1} builds
them from the continued-fraction weights; inverting the Riordan array
builds them from the matrix side.  The rows must match coefficient by
coefficient, and the inner products against the moment functional must
vanish below the diagonal.
"""

from qeuler.jacobi import (
    jfraction_from_params,
    moments_by_motzkin_paths,
    orthogonal_basis,
    verify_orthogonality,
)
from qeuler.riordan import exp_riordan_from_params, lower_tri_inverse, riordan_matrix

A, B, D = 1, 1, 2
SIZE = 6

jf = jfraction_from_params(A, B, D, SIZE)
basis = orthogonal_basis(jf, SIZE)

print(f"monic orthogonal polynomials for (a, b, d) = ({A}, {B}, {D}):")
for n, row in enumerate(basis):
    terms = " + ".join(f"({c})x^{k}" for k, c in enumerate(row) if not c.is_zero)
    print(f"  Q_{n}(x) = {terms}")

inv = lower_tri_inverse(riordan_matrix(exp_riordan_from_params(A, B, D, SIZE)))
match = all(inv[n][: n + 1] == basis[n] for n in range(SIZE))
print(f"\nrows of L^-1 equal the recurrence coefficients: {match}")

mu = moments_by_motzkin_paths(jfraction_from_params(A, B, D, 2 * SIZE), 2 * SIZE - 1)
print(f"orthogonality against the moments verifies: {verify_orthogonality(basis, mu)}")
