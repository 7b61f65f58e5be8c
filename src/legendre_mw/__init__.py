"""Exact arithmetic for explicit points, canonical heights and BSD
bookkeeping on y^2 = x(x+1)(x+u^d), d = p^f + 1, over F_q(u)."""

from .gf import FieldCtx, FieldElement, build_field, is_prime, zeta
from .ratfunc import Poly, RatFunc, poly_sqrt
from .curve import (CoordChange, CurvePoint, IsogenyChain, IsogenyMap,
                    WeierstrassCurve, change_coords, legendre_form_curve,
                    two_isogeny_quotient, two_torsion)
from .legendre import (FamilyParams, admissible_b_values, frobenius_orbit_sum,
                       make_family, matching_index, point_P, point_R,
                       substitute_zeta_u, torsion_points, trace_point)
from .heights import (GramMatrix, canonical_height, combination,
                      expected_gram, expected_lattice_det, gram_matrix,
                      is_torsion_point, pairing, point_order,
                      relation_is_torsion)
from .invariants import (BSDReport, LFunctionInfo, bad_fibers, bsd_report,
                         conductor_degree, euler_totient,
                         fiber_audit, frobenius_orbits, index_bound,
                         integrality_check, multiplicative_order,
                         rank_formula, regulator_coefficient, sha_order,
                         tamagawa_factor, torsion_order, validate_q)

__version__ = "0.1.0"

__all__ = [
    "FieldCtx", "FieldElement", "build_field", "is_prime", "zeta",
    "Poly", "RatFunc", "poly_sqrt",
    "CoordChange", "CurvePoint", "IsogenyChain", "IsogenyMap",
    "WeierstrassCurve", "change_coords", "legendre_form_curve",
    "two_isogeny_quotient", "two_torsion",
    "FamilyParams", "admissible_b_values", "frobenius_orbit_sum",
    "make_family", "matching_index", "point_P", "point_R", "substitute_zeta_u",
    "torsion_points", "trace_point",
    "GramMatrix", "canonical_height", "combination", "expected_gram",
    "expected_lattice_det", "gram_matrix", "is_torsion_point", "pairing",
    "point_order", "relation_is_torsion",
    "BSDReport", "LFunctionInfo", "bad_fibers", "bsd_report",
    "conductor_degree", "euler_totient", "fiber_audit", "frobenius_orbits",
    "index_bound", "integrality_check", "multiplicative_order", "rank_formula",
    "regulator_coefficient", "sha_order", "tamagawa_factor", "torsion_order",
    "validate_q",
]
