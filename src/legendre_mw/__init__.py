"""Exact arithmetic for explicit points, canonical heights and BSD
bookkeeping on y^2 = x(x+1)(x+u^d), d = p^f + 1, over F_q(u).

Importing the package loads none of its modules: each public name is
imported from its module on first access (PEP 562), so a command
compiles only the modules it runs."""

import importlib

__version__ = "0.1.0"

# the public names, by the module that defines them
_HOMES = {
    "gf": ("FieldCtx", "FieldElement", "build_field", "is_prime", "validate_q",
           "zeta"),
    "ratfunc": ("Poly", "RatFunc", "poly_sqrt"),
    "curve": ("CurvePoint", "WeierstrassCurve", "legendre_form_curve", "two_torsion"),
    "isogeny": ("CoordChange", "IsogenyChain", "IsogenyMap", "change_coords",
                "two_isogeny_quotient"),
    "legendre": ("FamilyParams", "admissible_b_values", "make_family",
                 "matching_index", "point_P", "point_R", "substitute_zeta_u",
                 "torsion_points", "trace_point"),
    "heights": ("canonical_height", "combination", "expected_gram",
                "gram_matrix", "is_torsion_point", "point_order"),
    "invariants": ("bad_fibers", "bsd_report", "conductor_degree",
                   "euler_totient", "fiber_audit", "frobenius_orbits",
                   "index_bound", "integrality_check", "multiplicative_order",
                   "rank_formula", "regulator_coefficient", "sha_order",
                   "tamagawa_factor", "torsion_order"),
}
_MODULE_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
