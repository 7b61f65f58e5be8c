"""The curve y^2 = x(x+1)(x+t) with t = u^d, d = p^f + 1, over F_q(u).

Constructs the explicit non-torsion points

    P_i = (zeta^i u, zeta^i u (zeta^i u + 1)^(d/2)),   zeta a primitive
    d-th root of unity in F_{p^{2f}},

the eight 2- and 4-torsion points, the Galois traces, and the descended
points R_b on the F_p(u) model (f = 1 only).
"""

from __future__ import annotations

from collections import namedtuple

from .gf import FieldElement, build_field, zeta as primitive_root_of_unity
from .ratfunc import Poly, RatFunc, poly_sqrt
from .curve import CurvePoint, legendre_form_curve, two_torsion


class FamilyParams(namedtuple("FamilyParams", "p f d ctx zeta u t curve")):
    """Everything fixed once (p, f) are chosen: d = p^f + 1, ctx the
    constants field F_{p^{2f}} (F_p when f = 0), zeta a primitive d-th
    root of unity in it, u the variable, t = u^d and curve the Legendre
    curve y^2 = x(x+1)(x+t)."""

    __slots__ = ()


def make_family(p: int, f: int = 1) -> FamilyParams:
    """Field, root of unity and curve for d = p^f + 1.

    f = 0 gives d = 2 over F_p; f >= 1 needs F_{p^{2f}} so that
    d | p^{2f} - 1.  `build_field` rejects a p that is not an odd prime.
    """
    if f < 0:
        raise ValueError("f must be >= 0")
    k = 2 * f if f >= 1 else 1
    ctx = build_field(p, k)
    d = p ** f + 1
    zeta = primitive_root_of_unity(ctx, d)
    u = RatFunc.variable(ctx)
    t = u ** d
    return FamilyParams(p=p, f=f, d=d, ctx=ctx, zeta=zeta, u=u, t=t,
                        curve=legendre_form_curve(t))


def point_P(params: FamilyParams, i: int) -> CurvePoint:
    """P_i = (zeta^i u, zeta^i u (zeta^i u + 1)^(d/2)).  Index mod d."""
    zi = params.zeta ** (i % params.d)
    x = params.u * zi
    y = x * (x + 1) ** (params.d // 2)
    return params.curve.point(x, y)


def torsion_points(params: FamilyParams) -> dict[str, CurvePoint]:
    """The full torsion subgroup Z/2 x Z/4 (eight points).

    T = (u^{d/2}, u^{d/2}(u^{d/2} + 1)) has order 4 with 2T = (0,0);
    T' = T + (-1, 0) is the other order-4 pair generator.
    """
    curve = params.curve
    q0, q1, qt = two_torsion(curve)
    s = params.u ** (params.d // 2)
    big_t = curve.point(s, s * (s + 1))
    tprime = curve.point(-s, s * s - s)
    pts = {"O": curve.infinity(), "Q0": q0, "Q1": q1, "Qt": qt,
           "T": big_t, "-T": -big_t, "T'": tprime, "-T'": -tprime}
    if not (2 * big_t == q0 and big_t + q1 == tprime):
        raise ArithmeticError("4-torsion structure")
    return pts


def trace_point(params: FamilyParams, pts: list[CurvePoint], i: int) -> CurvePoint:
    """Galois trace sum_{j<f} P_{i p^j} of pts = [P_0, ..., P_{d-1}]
    (Frobenius acts on indices by p)."""
    if params.f < 1:
        raise ValueError("traces need f >= 1")
    p, d = params.p, params.d
    return sum((pts[i * p ** j % d] for j in range(1, params.f)), pts[i % d])


# ----------------------------------------------------------------------
# Descent to F_p(u): points R_b (f = 1, d = p + 1 only).

def admissible_b_values(params: FamilyParams) -> list[FieldElement]:
    """b in F_p with b^2 - 4 a nonsquare in F_p; exactly (p-1)/2 values."""
    if params.f != 1:
        raise ValueError("R_b points are defined for f = 1 only")
    # Euler's criterion, as in point_R
    p = params.p
    out = [b for b in map(params.ctx.elem, range(p)) if (b * b - 4) ** ((p - 1) // 2) == -1]
    if len(out) != (p - 1) // 2:
        raise ArithmeticError("expected (p-1)/2 admissible b values, found %d" % len(out))
    return out


def point_R(params: FamilyParams, b: FieldElement) -> CurvePoint:
    """R_b = P_i + P_{-i} where zeta^i + zeta^{-i} = b; a point with
    coordinates in F_p(u).

    x(R_b) = [2u^{p+1} + b u^p + b u + 2 - 2 (u^2 + b u + 1)^{d/2}] / (b^2 - 4),
    which is a polynomial in u; y is the square root of x(x+1)(x+t)
    that `poly_sqrt` returns, whose leading coefficient is the root with
    the smaller encoding.
    """
    if params.f != 1:
        raise ValueError("R_b points are defined for f = 1 only")
    ctx, p, d = params.ctx, params.p, params.d
    if not b.frobenius() == b:
        raise ValueError("b must lie in the prime field")
    disc = b * b - 4
    # Euler criterion in F_p (the ambient field is F_{p^2}, where every
    # prime-field element is a square, so sqrt() would be the wrong test)
    if disc ** ((p - 1) // 2) != -1:
        raise ValueError("b^2 - 4 must be a nonsquare in F_p")
    u = Poly.variable(ctx)
    core = u ** (p + 1) * 2 + (u ** p) * b + u * b + 2 - (u * u + u * b + 1) ** (d // 2) * 2
    x = RatFunc.from_poly(core * disc.inv())
    rhs = x * (x + 1) * (x + params.t)
    return params.curve.point(x, RatFunc.from_poly(poly_sqrt(rhs.num)))


def matching_index(params: FamilyParams, b: FieldElement) -> int:
    """The smallest i >= 1 with zeta^i + zeta^{-i} = b."""
    z = params.zeta
    for i in range(1, params.d):
        zi = z ** i
        if zi + zi.inv() == b:
            return i
    raise ValueError("no index matches b")


def substitute_zeta_u(params: FamilyParams, P: CurvePoint) -> CurvePoint:
    """Galois conjugate over F_q(t): substitute u -> zeta u.

    t = u^d is fixed, so this maps the curve to itself and sends P_j to
    P_{j+1} (with the y-sign convention built into the closed form,
    which this matches)."""
    if P.is_infinity:
        return P
    z = params.zeta
    return params.curve.point(P.x.scale_var(z), P.y.scale_var(z))
