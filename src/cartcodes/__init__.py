"""Generalized affine Cartesian codes over finite fields.

Construct evaluation codes on Cartesian product sets with per-coordinate
scalars, compute their parameters and duals in closed form, decide the
linear-complementary-dual property through the extended Euclidean
remainder sequence, and cross-validate everything against exact
linear-algebra brute force.
"""

from .codes import (
    CartesianSpec,
    DistanceDecomposition,
    LinearCode,
    brute_force_min_distance,
    dimension_formula,
    dual_spec,
    generator_matrix,
    length,
    min_distance_formula,
    parameter_report,
)
from .errors import (
    BudgetExceededError,
    FieldMismatchError,
    InconsistencyError,
    NotCoprimeError,
    NotLcdError,
    SingularMatrixError,
)
from .field import GF, Field, FieldElement
from .lcd import (
    LcdReport,
    SearchRecord,
    SearchTruncation,
    UnivariateLcdAnalysis,
    associated_poly_multivariate,
    associated_poly_univariate,
    cartesian_scalars,
    is_lcd_bruteforce,
    is_lcd_product_sufficient,
    is_lcd_univariate,
    lcd_admissible_set,
    lcd_necessity_check,
    not_lcd_product,
    search_lcd,
)
from .linalg import Matrix, subspace_intersection
from .masking import MaskingContext, build_context, detect_fault, masking_transcript, split
from .multipoly import (
    CartesianSet,
    MPoly,
    interpolate_multivariate,
    lagrange_point,
    monomial_basis,
    reduce_mod_ideal,
)
from .unipoly import (
    NEG_INF,
    EeaResult,
    EeaStep,
    Poly,
    eea_sequence,
    formal_derivative,
    interpolate,
    lagrange_term,
    vanishing_poly,
)

__version__ = "0.1.0"

__all__ = [
    "GF",
    "Field",
    "FieldElement",
    "Poly",
    "MPoly",
    "Matrix",
    "CartesianSet",
    "CartesianSpec",
    "LinearCode",
    "LcdReport",
    "DistanceDecomposition",
    "EeaResult",
    "EeaStep",
    "MaskingContext",
    "SearchRecord",
    "SearchTruncation",
    "UnivariateLcdAnalysis",
    "NEG_INF",
    "associated_poly_multivariate",
    "associated_poly_univariate",
    "brute_force_min_distance",
    "build_context",
    "cartesian_scalars",
    "detect_fault",
    "dimension_formula",
    "dual_spec",
    "eea_sequence",
    "formal_derivative",
    "generator_matrix",
    "interpolate",
    "interpolate_multivariate",
    "is_lcd_bruteforce",
    "is_lcd_product_sufficient",
    "is_lcd_univariate",
    "lagrange_point",
    "lagrange_term",
    "lcd_admissible_set",
    "lcd_necessity_check",
    "length",
    "masking_transcript",
    "min_distance_formula",
    "monomial_basis",
    "not_lcd_product",
    "parameter_report",
    "reduce_mod_ideal",
    "search_lcd",
    "split",
    "subspace_intersection",
    "vanishing_poly",
    "BudgetExceededError",
    "FieldMismatchError",
    "InconsistencyError",
    "NotCoprimeError",
    "NotLcdError",
    "SingularMatrixError",
]
