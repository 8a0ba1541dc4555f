"""Exact q-Eulerian polynomials of Coxeter groups.

Three independent routes to the same polynomial tables (exponential
generating functions, Jacobi continued fractions through production
matrices of exponential Riordan arrays, and direct enumeration over
permutations and signed permutations), plus exact verification of
q-log-convexity properties.  All arithmetic is over the rationals;
nothing here ever rounds.

Importing the package loads no submodule: each public name, and each
submodule, is imported on first access (PEP 562).
"""

import sys

__version__ = "0.1.0"

#: Home module of each public name, in ``__all__`` order; each row is that module's ``__all__``.
_EXPORTS = {
    "algebra": ("QPoly", "as_fraction", "parse_rational", "poly_divmod", "poly_gcd"),
    "ratfun": ("QRatFun",),
    "series": ("TruncSeries", "compose_all", "egf_polynomials", "egf_series"),
    "riordan": (
        "ExpRiordan",
        "ProductionData",
        "exp_riordan_from_params",
        "lower_tri_inverse",
        "production_matrix_direct",
        "production_matrix_from_series",
        "production_series",
        "riordan_matrix",
    ),
    "jacobi": (
        "JFraction",
        "NonQuasiDefiniteError",
        "jfraction_from_moments",
        "jfraction_from_params",
        "moments_by_cfrac_expansion",
        "moments_by_motzkin_paths",
        "orthogonal_basis",
        "verify_orthogonality",
    ),
    "families": (
        "FamilySpec",
        "enumeration_polynomial",
        "eulerian_numbers_type_a",
        "eulerian_numbers_type_b",
        "family_egf_params",
        "recurrence_polynomial",
        "type_b_polynomial",
    ),
    "walks": ("descent_polynomial", "excedance_cycle_polynomial", "signed_descent_polynomial"),
    "convexity": (
        "BUILTIN_SEQUENCES",
        "ConvexityReport",
        "CriterionReport",
        "GapResult",
        "TransformReport",
        "builtin_sequence",
        "check_q_log_convex",
        "check_strong_q_log_convex",
        "moment_convexity_criterion",
        "transform_log_convexity_experiment",
        "weight_gap",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name in _EXPORTS:
        # unlike importlib.import_module, __import__ shows in -X importtime
        __import__(f"{__name__}.{name}")
        return sys.modules[f"{__name__}.{name}"]
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(__getattr__(_HOME[name]), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
