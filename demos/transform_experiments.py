"""Evidence-gathering runs: triangles applied to log-convex sequences.

z_n = sum_k triangle(n, k) x_k.  For every builtin log-convex input the
output sequence comes back log-convex; the script also prints the t = 0
comparison table, where the signed-permutation walk lands one factor of
q below the type A family instead of on it.
"""

from qeuler.convexity import (
    BUILTIN_SEQUENCES,
    Triangle,
    builtin_sequence,
    transform_log_convexity_experiment,
)
from qeuler.walks import t_zero_comparison_table

NMAX = 8

for name in sorted(BUILTIN_SEQUENCES):
    xs = builtin_sequence(name, NMAX + 1)
    for triangle in Triangle:
        report = transform_log_convexity_experiment(triangle, xs, NMAX)
        z_head = ", ".join(str(v) for v in report.z[:6])
        print(f"{name:>9} * {triangle.value}: verdict={report.verdict}  z = {z_head}, ...")

print("\nnon-log-convex input is refused, not silently transformed:")
try:
    transform_log_convexity_experiment(Triangle.EULERIAN_A, [1, 5, 1, 5, 1], 3)
except ValueError as exc:
    print(f"  ValueError: {exc}")

print("\nsigned walk at t = 0 versus the type A polynomial:")
for row in t_zero_comparison_table(6):
    print(
        f"  n={row['n']}: signed_t0 = {row['signed_t0']}   "
        f"type_a = {row['type_a']}   equal={row['equal']}   "
        f"q*signed_t0 == type_a: {row['type_a_is_q_times_signed_t0']}"
    )
