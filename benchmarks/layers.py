"""Which qeuler functions the traced run times or counts, and what it reports.

Names are strings, resolved against the imported package only inside a
traced child (``trace_child.py``), so that the parent process never
imports qeuler.  A span is ``(module, qualified name)``; its metric
prefix is ``<module>.<qualified name>``, with ``QPoly.__mul__`` shown as
``QPoly.mul``.
"""

from __future__ import annotations

#: Timed spans.  Besides the functions the per-layer report names, this
#: covers every library entry point the CLI calls with real work behind
#: it (``exp_riordan_from_params``, ``production_matrix_from_series``), so
#: that ``cli.main``'s self time is only argument parsing, result
#: assembly, JSON encoding and the write.
SPANS: tuple[tuple[str, str], ...] = (
    ("cli", "main"),
    ("algebra", "QPoly.__mul__"),
    ("algebra", "poly_gcd"),
    ("series", "egf_polynomials"),
    ("series", "TruncSeries.inverse"),
    ("series", "TruncSeries.exp"),
    ("series", "TruncSeries.log"),
    ("series", "TruncSeries.compose"),
    ("series", "TruncSeries.reversion"),
    ("jacobi", "moments_by_motzkin_paths"),
    ("jacobi", "moments_by_cfrac_expansion"),
    ("jacobi", "jfraction_from_moments"),
    ("riordan", "exp_riordan_from_params"),
    ("riordan", "riordan_matrix"),
    ("riordan", "lower_tri_inverse"),
    ("riordan", "production_series"),
    ("riordan", "production_matrix_from_series"),
    ("riordan", "production_matrix_direct"),
    ("families", "enumeration_polynomial"),
    ("families", "recurrence_polynomial"),
    ("families", "eulerian_numbers_type_a"),
    ("families", "eulerian_numbers_type_b"),
    ("convexity", "check_q_log_convex"),
    ("convexity", "check_strong_q_log_convex"),
    ("convexity", "moment_convexity_criterion"),
    ("convexity", "transform_log_convexity_experiment"),
)

#: Counted only (profiler pass): every QRatFun made, by either constructor,
#: and every Fraction add, subtract, multiply and divide.
QRATFUN_CONSTRUCTORS = ("QRatFun.__init__", "QRatFun._trusted")
FRACTION_OPS = ("_add", "_sub", "_mul", "_div")


def span_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname.replace('__mul__', 'mul')}"


_CALLS = (
    "algebra.QPoly.mul",
    "algebra.poly_gcd",
    "series.TruncSeries.inverse",
    "series.TruncSeries.exp",
    "series.TruncSeries.log",
    "series.TruncSeries.compose",
    "series.TruncSeries.reversion",
)
_SELF = (
    "jacobi.moments_by_cfrac_expansion",
    "jacobi.moments_by_motzkin_paths",
    "jacobi.jfraction_from_moments",
    *_CALLS,
    "riordan.riordan_matrix",
    "riordan.lower_tri_inverse",
    "riordan.production_matrix_direct",
    "riordan.production_series",
    "families.enumeration_polynomial",
    "families.recurrence_polynomial",
    "families.eulerian_numbers_type_a",
    "families.eulerian_numbers_type_b",
    "convexity.check_strong_q_log_convex",
    "convexity.check_q_log_convex",
    "convexity.moment_convexity_criterion",
    "convexity.transform_log_convexity_experiment",
    "cli.main",
)

#: Span totals, children included: the route-level costs that the planned
#: cfrac recurrence, faster reversion and integer-content QPoly change.
_TOTAL = (
    "series.egf_polynomials",
    "jacobi.moments_by_cfrac_expansion",
    "jacobi.jfraction_from_moments",
    "riordan.production_series",
    "convexity.check_strong_q_log_convex",
)

#: The per-layer metrics of a traced run, in report order, with units.
PER_LAYER: tuple[tuple[str, str], ...] = (
    *((f"{name}.self_s", "s") for name in _SELF),
    *((f"{name}.total_s", "s") for name in _TOTAL),
    *((f"{name}.calls", "count") for name in _CALLS),
    ("algebra.QRatFun.new.calls", "count"),
    ("algebra.fraction_ops", "count"),
    ("algebra.max_coeff_bits", "bits"),
    ("cli.output_bytes", "bytes"),
    ("import_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.interpreter_start_s", "s"),
    ("trace.uncovered_s", "s"),
)
