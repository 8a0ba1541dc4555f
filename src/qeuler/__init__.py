"""Exact q-Eulerian polynomials of Coxeter groups.

Three independent routes to the same polynomial tables (exponential
generating functions, Jacobi continued fractions through production
matrices of exponential Riordan arrays, and direct enumeration over
permutations and signed permutations), plus exact verification of
q-log-convexity properties.  All arithmetic is over the rationals;
nothing here ever rounds.
"""

__version__ = "0.1.0"

from .algebra import QPoly, QRatFun, as_fraction, parse_rational, poly_divmod, poly_gcd
from .convexity import (
    BUILTIN_SEQUENCES,
    ConvexityReport,
    CriterionReport,
    GapResult,
    TransformReport,
    Triangle,
    builtin_sequence,
    check_q_log_convex,
    check_strong_q_log_convex,
    moment_convexity_criterion,
    transform_log_convexity_experiment,
    weight_gap,
)
from .families import (
    Family,
    FamilySpec,
    descent_polynomial,
    enumeration_polynomial,
    eulerian_numbers_type_a,
    eulerian_numbers_type_b,
    excedance_cycle_polynomial,
    family_egf_params,
    recurrence_polynomial,
    signed_descent_polynomial,
    type_b_polynomial,
)
from .jacobi import (
    JFraction,
    NonQuasiDefiniteError,
    jfraction_from_moments,
    jfraction_from_params,
    moments_by_cfrac_expansion,
    moments_by_motzkin_paths,
    orthogonal_basis,
    verify_orthogonality,
)
from .riordan import (
    ExpRiordan,
    ProductionData,
    exp_riordan_from_params,
    lower_tri_inverse,
    production_matrix_direct,
    production_matrix_from_series,
    production_series,
    riordan_matrix,
)
from .series import TruncSeries, compose_all, egf_polynomials, egf_series

__all__ = [
    "__version__",
    "QPoly",
    "QRatFun",
    "as_fraction",
    "parse_rational",
    "poly_divmod",
    "poly_gcd",
    "TruncSeries",
    "compose_all",
    "egf_polynomials",
    "egf_series",
    "ExpRiordan",
    "ProductionData",
    "exp_riordan_from_params",
    "lower_tri_inverse",
    "production_matrix_direct",
    "production_matrix_from_series",
    "production_series",
    "riordan_matrix",
    "JFraction",
    "NonQuasiDefiniteError",
    "jfraction_from_moments",
    "jfraction_from_params",
    "moments_by_cfrac_expansion",
    "moments_by_motzkin_paths",
    "orthogonal_basis",
    "verify_orthogonality",
    "Family",
    "FamilySpec",
    "descent_polynomial",
    "enumeration_polynomial",
    "eulerian_numbers_type_a",
    "eulerian_numbers_type_b",
    "excedance_cycle_polynomial",
    "family_egf_params",
    "recurrence_polynomial",
    "signed_descent_polynomial",
    "type_b_polynomial",
    "BUILTIN_SEQUENCES",
    "ConvexityReport",
    "CriterionReport",
    "GapResult",
    "TransformReport",
    "Triangle",
    "builtin_sequence",
    "check_q_log_convex",
    "check_strong_q_log_convex",
    "moment_convexity_criterion",
    "transform_log_convexity_experiment",
    "weight_gap",
]
