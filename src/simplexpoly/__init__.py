"""Exact reducibility classification for simplex-distance quartics and
Cayley-Menger determinants, with independent brute-force, numeric, and
Diophantine cross-checks."""

__version__ = "0.1.0"

from .field import (
    CHAR2,
    CYCLOTOMIC,
    RATIONAL,
    FieldElement,
    FieldSpec,
    is_square,
    prime_field,
    primitive_cube_root,
)
from .poly import Polynomial, parse_polynomial, poly_to_text
from .family import (
    CayleyMengerRing,
    GParams,
    SubstitutionRule,
    build_f,
    build_g,
    cayley_menger,
    prekite_reduction,
    special_family_substitution,
)
from .classify import (
    Char2GParams,
    ClassificationRule,
    FactorizationCertificate,
    Irreducible,
    ZeroPolynomial,
    classify_cayley_menger,
    classify_diagonal_quadratic,
    classify_g,
    factor_quadratic,
    verify_certificate,
)
from .oracle import (
    BudgetExceeded,
    FactorFound,
    NoFactorFound,
    SearchBudget,
    brute_force_factor_search,
    discriminant_check,
)
from .geometry import (
    DistanceTuple,
    RegularSimplex,
    regular_simplex,
    relation_residual,
    solve_fourth_distance,
)
from .diophantine import SolutionTuple, enumerate_solutions, is_solution

__all__ = [
    "CHAR2",
    "CYCLOTOMIC",
    "RATIONAL",
    "FieldElement",
    "FieldSpec",
    "is_square",
    "prime_field",
    "primitive_cube_root",
    "Polynomial",
    "parse_polynomial",
    "poly_to_text",
    "CayleyMengerRing",
    "GParams",
    "SubstitutionRule",
    "build_f",
    "build_g",
    "cayley_menger",
    "prekite_reduction",
    "special_family_substitution",
    "Char2GParams",
    "ClassificationRule",
    "FactorizationCertificate",
    "Irreducible",
    "ZeroPolynomial",
    "classify_cayley_menger",
    "classify_diagonal_quadratic",
    "classify_g",
    "factor_quadratic",
    "verify_certificate",
    "BudgetExceeded",
    "FactorFound",
    "NoFactorFound",
    "SearchBudget",
    "brute_force_factor_search",
    "discriminant_check",
    "DistanceTuple",
    "RegularSimplex",
    "regular_simplex",
    "relation_residual",
    "solve_fourth_distance",
    "SolutionTuple",
    "enumerate_solutions",
    "is_solution",
]
