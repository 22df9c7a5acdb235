"""Exact Frobenius / p-Sylow analysis for genus-2 Jacobians with quartic CM."""

from .cm_field import (
    CMFieldParams,
    FrobeniusElement,
    GaloisType,
    RealQuadElem,
    relative_norm,
    validate_field,
    xi_square_rule,
)
from .frobenius import (
    FrobeniusPoly,
    char_poly_closed,
    char_poly_product,
    group_order,
    weil_validate,
)
from .oracle import (
    GenusTwoCurve,
    GroupStructure,
    cantor_add,
    char_poly_from_counts,
    count_points,
    enumerate_jacobian,
    p_sylow_structure,
)
from .sylow import (
    Lemma2Report,
    SylowVerdict,
    analyze,
    coefficient_bounds,
    lemma1_check,
    p_adic_valuation,
    verify_lemma2,
)

__all__ = [
    "CMFieldParams",
    "FrobeniusElement",
    "FrobeniusPoly",
    "GaloisType",
    "GenusTwoCurve",
    "GroupStructure",
    "Lemma2Report",
    "RealQuadElem",
    "SylowVerdict",
    "analyze",
    "cantor_add",
    "char_poly_closed",
    "char_poly_from_counts",
    "char_poly_product",
    "coefficient_bounds",
    "count_points",
    "enumerate_jacobian",
    "group_order",
    "lemma1_check",
    "p_adic_valuation",
    "p_sylow_structure",
    "relative_norm",
    "validate_field",
    "verify_lemma2",
    "weil_validate",
    "xi_square_rule",
]
