"""Evidence-gathering runs: triangles applied to log-convex sequences.

z_n = sum_k triangle(n, k) x_k.  For every builtin log-convex input the
output sequence comes back log-convex, and an input that is not
log-convex is refused.
"""

from qeuler.convexity import (
    BUILTIN_SEQUENCES,
    Triangle,
    builtin_sequence,
    transform_log_convexity_experiment,
)

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
