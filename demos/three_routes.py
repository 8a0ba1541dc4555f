"""Compute the same polynomial table three independent ways.

The point of having a generating-function route, a continued-fraction
route, and a brute-force enumeration is that they share no code paths:
when all three print the same row, that row is trustworthy.
"""

from qeuler.families import FamilySpec, enumeration_polynomial, family_egf_params
from qeuler.jacobi import jfraction_from_params, moments_by_motzkin_paths
from qeuler.series import egf_polynomials


def show(spec: FamilySpec, nmax: int) -> None:
    a, b, d = family_egf_params(spec)
    count = nmax + 1
    egf = egf_polynomials(a, b, d, count)
    moments = moments_by_motzkin_paths(jfraction_from_params(a, b, d, count), count)
    enum = enumeration_polynomial(spec, count)
    print(f"\n{spec.label()}  (a={a}, b={b}, d={d})")
    for n in range(count):
        marks = "ok " if egf[n] == moments[n] == enum[n] else "XXX"
        print(f"  n={n}  [{marks}]  {egf[n]}")


if __name__ == "__main__":
    show(FamilySpec("TypeA_shifted"), 6)
    show(FamilySpec("TypeB"), 6)
    show(FamilySpec("TypeA_qt", t=2), 5)
    show(FamilySpec("General", a=1, d=3), 6)
