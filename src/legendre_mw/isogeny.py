"""2-isogenies with explicit rational maps, invertible coordinate
changes and the 2-isogeny chain from y^2 + xy + (t/16) y = x^3 +
(t/16) x^2 down to the Legendre-form curve, on the curves of `curve.py`.

`change_coords` raises ValueError for a non-polynomial r or t_ or a
non-constant s or w, which keep the a_i polynomial, so every point is an
integral section as `curve.py` describes: the maps read the reduced
denominators off that rule instead of taking gcds whose answer it
fixes.  A coordinate change keeps den(x) and den(y), and the 2-isogeny
takes at most gcd(b, A) and gcd(B, A^2 / gcd(b, A^2)) for x = A/D,
y = B/E.  A coordinate change compares j = c4^3 / disc of both curves
by cross-multiplying.
"""

from __future__ import annotations

from .curve import (CurvePoint, WeierstrassCurve, _as_poly, _coeff_obj, _exact,
                    legendre_form_curve)
from .gf import FieldElement
from .ratfunc import Poly, RatFunc, _common, _frac, _monic_den


def _same_j(E: WeierstrassCurve, F: WeierstrassCurve) -> bool:
    """j(E) = j(F), i.e. c4^3 disc' = c4'^3 disc, compared by
    cross-multiplying."""
    return E.c4() ** 3 * F.discriminant() == F.c4() ** 3 * E.discriminant()


class IsogenyMap:
    """Separable 2-isogeny with kernel {O, (0,0)} on y^2 = x^3 + a x^2 + b x:
    x' = x + a + b/x, y' = y (1 - b/x^2)."""

    __slots__ = ("domain", "codomain")

    def __init__(self, domain, codomain):
        self.domain = domain
        self.codomain = codomain

    def apply(self, P: CurvePoint) -> CurvePoint:
        """(x', y') for x = N/D, y = Y/E reduced.
        x' = (N^2 + a N D + b D^2)/(N D), where the numerator is prime to
        D and meets N in gcd(b, N).  y' = Y (N^2 - b D^2)/(E N^2), where
        gcd(N^2 - b D^2, N^2) = gcd(b, N^2), N^2 - b D^2 is prime to E
        (it is N^2 mod C), and only Y and N^2 / gcd(b, N^2) can share
        more; gcd(b, N) = 1 makes both gcds with b 1."""
        if P.curve != self.domain:
            raise ValueError("point not on the isogeny domain")
        if P.is_infinity or P.x.is_zero():
            return self.codomain.infinity()
        a, b = self.domain.a2, self.domain.a4
        N, D, Y, E = P.x.num, P.x.den, P.y.num, P.y.den
        N2, ND = N * N, N * D
        bD2 = b * (D * D)
        xn, xd, yn, M = N2 + a * ND + bD2, ND, N2 - bD2, N2
        g = _common(b, N)
        if g is not None:
            xn, xd = xn // g, xd // g
            h = _common(b, N2)
            yn, M = yn // h, M // h
        x2 = _monic_den(xn, xd)
        if Y.is_zero():
            return self.codomain.point(x2, P.y)
        k = _common(Y, M)
        if k is not None:
            Y, M = Y // k, M // k
        return self.codomain.point(x2, _monic_den(Y * yn, E * M))

    def to_obj(self):
        """The maps as coefficient lists in x, low degree first:
        x' = (b + a x + x^2)/x, y' = y (-b + x^2)/x^2."""
        a, b = self.domain.a2, self.domain.a4
        zero, one = RatFunc.zero(a.ctx).to_obj(), RatFunc.one(a.ctx).to_obj()
        return {
            "degree": 2,
            "domain": self.domain.to_obj(),
            "codomain": self.codomain.to_obj(),
            "x_map": {"num": [_coeff_obj(b), _coeff_obj(a), one], "den": [zero, one]},
            "y_map": {"num": [_coeff_obj(-b), zero, one], "den": [zero, zero, one]},
        }


def two_isogeny_quotient(curve: WeierstrassCurve) -> IsogenyMap:
    """Quotient of y^2 = x^3 + a x^2 + b x by the 2-torsion point (0,0).

    Codomain y^2 = x^3 - 2a x^2 + (a^2 - 4b) x, with
    x' = x + a + b/x and y' = y (1 - b/x^2).
    """
    ctx = curve.ctx
    if not (curve.a1.is_zero() and curve.a3.is_zero() and curve.a6.is_zero()):
        raise ValueError("expected y^2 = x^3 + a x^2 + b x")
    a, b = curve.a2, curve.a4
    if b.is_zero():
        raise ValueError("(0,0) must be a nonsingular 2-torsion point")
    return IsogenyMap(curve, WeierstrassCurve.from_coeffs(ctx, 0, -2 * a, 0, a * a - 4 * b, 0))


class CoordChange:
    """Invertible substitution x = w^2 x' + r, y = w^3 y' + s w^2 x' + t_.

    forward() maps points of the original curve to the transformed one,
    backward() inverts.  r and t_ are Polys and s and w FieldElements (as
    change_coords() makes them), so a point x = N/D, y = Y/E with E = D C
    maps to fractions over the same D and E: x' = (N - r D)/(w^2 D) and
    y' = (Y - s (N - r D) C - t_ E)/(w^3 E), already reduced as their
    numerators are N and Y mod C (and backward() likewise).
    """

    __slots__ = ("domain", "codomain", "r", "s", "t_", "w")

    def __init__(self, domain, codomain, r: Poly, s: FieldElement, t_: Poly, w: FieldElement):
        self.domain = domain
        self.codomain = codomain
        self.r, self.s, self.t_, self.w = r, s, t_, w

    def forward(self, P: CurvePoint) -> CurvePoint:
        if P.curve != self.domain:
            raise ValueError("point not on the source curve")
        if P.is_infinity:
            return self.codomain.infinity()
        N, D, Y, E = P.x.num, P.x.den, P.y.num, P.y.den
        X = N - self.r * D
        Y = Y - X * self.s * _exact(E, D) - self.t_ * E
        return self.codomain.point(_frac(X, D) / self.w ** 2,
                                   _frac(Y, E) / self.w ** 3)

    def backward(self, P: CurvePoint) -> CurvePoint:
        if P.curve != self.codomain:
            raise ValueError("point not on the target curve")
        if P.is_infinity:
            return self.domain.infinity()
        N, D, Y, E = P.x.num, P.x.den, P.y.num, P.y.den
        N = N * self.w ** 2
        X = N + self.r * D
        Y = Y * self.w ** 3 + N * self.s * _exact(E, D) + self.t_ * E
        return self.domain.point(_frac(X, D), _frac(Y, E))


def change_coords(curve: WeierstrassCurve, r, s, t_, w) -> tuple[WeierstrassCurve, CoordChange]:
    """Transformed curve and the point map for x = w^2 x' + r,
    y = w^3 y' + s w^2 x' + t_.  Preserves j.  Raises ValueError unless
    r and t_ are polynomials and s and w constants, so that the new a_i
    are polynomials too.  Each may be given as a Poly, an int, a
    FieldElement or a RatFunc with denominator 1."""
    r, s, t_, w = (_as_poly(curve.ctx, v) for v in (r, s, t_, w))
    if r is None or t_ is None:
        raise ValueError("r and t_ must be polynomials in u")
    if s is None or w is None or s.deg > 0 or w.deg > 0:
        raise ValueError("s and w must be constants")
    if w.is_zero():
        raise ValueError("w must be invertible")
    s, w = s.coeff(0), w.coeff(0)
    v = w.inv()
    a1, a2, a3, a4, a6 = curve.a1, curve.a2, curve.a3, curve.a4, curve.a6
    na1 = (a1 + 2 * s) * v
    # each Poly stands left of the constant it is scaled by, so that
    # Poly.__mul__ takes the product with no FieldElement dispatch first
    na2 = (a2 - a1 * s + 3 * r - s * s) * v ** 2
    na3 = (a3 + r * a1 + 2 * t_) * v ** 3
    na4 = (a4 - a3 * s + 2 * r * a2 - (t_ + r * s) * a1 + 3 * r * r - t_ * (2 * s)) * v ** 4
    na6 = (a6 + r * a4 + r * r * a2 + r ** 3 - t_ * a3 - t_ * t_ - r * t_ * a1) * v ** 6
    new_curve = WeierstrassCurve(na1, na2, na3, na4, na6)
    if not _same_j(new_curve, curve):
        raise ArithmeticError("j must be preserved")
    return new_curve, CoordChange(curve, new_curve, r, s, t_, w)


# ----------------------------------------------------------------------
# The 2-isogeny chain from y^2 + xy + (t/16) y = x^3 + (t/16) x^2 down to
# the Legendre-form curve y^2 = x(x+1)(x+t).

class IsogenyChain:
    """Holds the curves and maps of the chain; forward() composes the
    whole pipeline, backward() is a 2-isogeny section built from the
    dual (so forward(backward(R)) = 2R, but always lands on a valid
    point).

    The paper's substitutions (r, s, t_, w) = (0, -1/2, -t/32, 1),
    (-t/16, 0, 0, 1) and (0, 0, 0, 1/4) from source to mid compose to
    the single change (-t/16, -1/2, 0, 1/4).  The dual isogeny lands on
    mid rescaled by w = 2, i.e. on the image of the same change with
    w = 1/8, and backward() inverts that change."""

    __slots__ = ("t", "source", "mid", "quotient", "legendre",
                 "_to_mid", "phi", "_to_legendre", "_dual_phi", "_from_dual")

    def __init__(self, t: RatFunc):
        ctx = t.ctx
        tp = t / 16
        self.t = t
        # y^2 + x y + t' y = x^3 + t' x^2 with t' = t/16
        self.source = WeierstrassCurve.from_coeffs(ctx, 1, tp, tp, 0, 0)
        inv2 = ctx.elem(2).inv()
        self.mid, self._to_mid = change_coords(self.source, -tp, -inv2, 0, ctx.elem(4).inv())
        if self.mid != self.expected_mid():
            raise ArithmeticError("first displayed model")
        self.phi = two_isogeny_quotient(self.mid)
        self.quotient = self.phi.codomain
        if self.quotient != self.expected_quotient():
            raise ArithmeticError("second displayed model")
        self.legendre, self._to_legendre = change_coords(self.quotient, 4, 0, 0, 2)
        if self.legendre != legendre_form_curve(t):
            raise ArithmeticError("must land on y^2 = x(x+1)(x+t)")
        self._dual_phi = two_isogeny_quotient(self.quotient)
        dual_target, self._from_dual = change_coords(self.source, -tp, -inv2, 0, ctx.elem(8).inv())
        if dual_target != self._dual_phi.codomain:
            raise ArithmeticError("dual isogeny must land back on the domain")

    def expected_mid(self) -> WeierstrassCurve:
        """y^2 = x^3 + (4 - 2t) x^2 + t^2 x."""
        t = self.t
        return WeierstrassCurve.from_coeffs(t.ctx, 0, 4 - 2 * t, 0, t * t, 0)

    def expected_quotient(self) -> WeierstrassCurve:
        """y^2 = x^3 + (4t - 8) x^2 - 16 (t - 1) x = x (x - 4) (x + 4(t-1))."""
        t = self.t
        return WeierstrassCurve.from_coeffs(t.ctx, 0, 4 * t - 8, 0, -16 * (t - 1), 0)

    def forward(self, P: CurvePoint) -> CurvePoint:
        """Source -> Legendre form (one isomorphism onto the first
        displayed model, the 2-isogeny, one more isomorphism)."""
        return self._to_legendre.forward(self.phi.apply(self._to_mid.forward(P)))

    def backward(self, R: CurvePoint) -> CurvePoint:
        """Legendre form -> source, through the dual isogeny."""
        return self._from_dual.backward(self._dual_phi.apply(self._to_legendre.backward(R)))
