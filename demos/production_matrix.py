"""From a Riordan array to its production matrix, two ways.

The array L is built column by column from (g, f); its production
matrix P satisfies L P = L-with-first-row-removed.  P can be computed
directly (solve that system by forward substitution) or from the series
c = g'(fbar)/g(fbar) and r = f'(fbar).  Both give a tridiagonal matrix whose bands are the
continued-fraction weights.
"""

from qeuler.riordan import (
    exp_riordan_from_params,
    production_matrix_direct,
    production_matrix_from_series,
    production_series,
    riordan_matrix,
)

A, B, D = 1, 1, 3
ORDER = 7

arr = exp_riordan_from_params(A, B, D, ORDER)
mat = riordan_matrix(arr)

print(f"Riordan array for (a, b, d) = ({A}, {B}, {D}), first column:")
for n in range(ORDER):
    print(f"  l_{n},0 = {mat[n][0]}")

direct = production_matrix_direct(mat)
c, r = production_series(arr)
formula = production_matrix_from_series(c, r)

rows = min(direct.nrows, formula.nrows)
agree = all(
    direct.entries[i][j] == entry
    for i, row in enumerate(formula.entries)
    for j, entry in enumerate(row)
)
print(f"\ndirect == formula on the overlap: {agree}")
print(f"tridiagonal: {direct.tridiagonal}")

print("\nbands (these are the continued-fraction weights):")
for i, s in enumerate(direct.s_values(rows)):
    print(f"  s_{i} = {s}")
for i, t in enumerate(direct.t_values(rows - 1), start=1):
    print(f"  t_{i} = {t}")
print(f"\nexpected closed forms: s_i = ({D}i+{A}) + ({D}i+{D - A})q, t_i = {D * D}i^2 q")
