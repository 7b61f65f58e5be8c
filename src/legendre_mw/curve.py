"""Elliptic curves in long Weierstrass form over F_q(u), with the exact
chord-tangent group law, 2-isogenies with explicit rational maps, and
invertible coordinate changes.

All coordinates are RatFunc values, so every computation is exact, and
the group law, the isogenies and the coordinate changes return reduced
coordinates.  Every curve has its a_i, c4, c6 and discriminant as Polys
in F_q[u]: `WeierstrassCurve` raises ValueError for any other
coefficient, and `change_coords` for a non-polynomial r or t_ or a
non-constant s or w, which keep the a_i polynomial.  On such a model a
reduced point x = A/D, y = B/E has D = C^2 and E = C^3 for one monic C:
at a prime of F_q[u] where x has a pole of order 2m, y has one of order
3m (an integral section; Silverman, "Advanced Topics in the Arithmetic
of Elliptic Curves", ch. III).  The point maps read the reduced
denominators off this rule instead of taking gcds whose answer it fixes:
C = E / D (an exact division, checked), a coordinate change keeps D and
E, the 2-isogeny takes at most gcd(b, A) and gcd(B, A^2 / gcd(b, A^2)),
and the group law writes lam^2 + a1 lam over den(lam)^2 and reads y3's
denominator as den(x3)^(3/2).

The checks do not reduce and take no gcd.  Membership is the curve
equation times C^6, an identity of polynomials.  A new curve checks
c4^3 - c6^2 = 1728 disc, and a coordinate change compares
j = c4^3 / disc of both curves by cross-multiplying.
"""

from __future__ import annotations

from .gf import FieldCtx, FieldElement
from .ratfunc import Poly, RatFunc, _common, _frac, _monic_den, poly_sqrt


class CurvePoint:
    """Affine point (x, y) or the point at infinity (x = y = None)."""

    __slots__ = ("curve", "x", "y")

    def __init__(self, curve: "WeierstrassCurve", x: RatFunc | None, y: RatFunc | None):
        self.curve = curve
        self.x = x
        self.y = y

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __eq__(self, other):
        if not isinstance(other, CurvePoint):
            return NotImplemented
        if self.curve != other.curve:
            return False
        if self.is_infinity or other.is_infinity:
            return self.is_infinity and other.is_infinity
        return self.x == other.x and self.y == other.y

    __hash__ = None

    def __neg__(self):
        return self.curve.neg(self)

    def __add__(self, other):
        return self.curve.add(self, other)

    def __sub__(self, other):
        return self.curve.add(self, self.curve.neg(other))

    def __rmul__(self, n: int):
        return self.curve.smul(n, self)

    def __repr__(self):
        if self.is_infinity:
            return "O"
        return "(%s, %s)" % (self.x, self.y)


class WeierstrassCurve:
    """y^2 + a1 x y + a3 y = x^3 + a2 x^2 + a4 x + a6 with a_i in F_q[u],
    held as Polys.  Each a_i may be given as a Poly, an int, a
    FieldElement or a RatFunc with denominator 1; the field is that of
    the first one that is not an int."""

    __slots__ = ("ctx", "a1", "a2", "a3", "a4", "a6", "_c4", "_c6", "_disc")

    def __init__(self, a1, a2, a3, a4, a6):
        coeffs = (a1, a2, a3, a4, a6)
        ctx = next((a.ctx for a in coeffs if not isinstance(a, int)), None)
        if ctx is None:
            raise ValueError("int coefficients need a field: use from_coeffs")
        coeffs = [_as_poly(ctx, a) for a in coeffs]
        if any(a is None for a in coeffs):
            raise ValueError("the coefficients a_i must be polynomials in u")
        self.ctx = ctx
        self.a1, self.a2, self.a3, self.a4, self.a6 = a1, a2, a3, a4, a6 = coeffs
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        self._c4 = b2 * b2 - 24 * b4
        self._c6 = -(b2 ** 3) + 36 * b2 * b4 - 216 * b6
        self._disc = -(b2 * b2 * b8) - 8 * (b4 ** 3) - 27 * (b6 * b6) + 9 * b2 * b4 * b6
        # the checks read the stored invariants back through c4(), c6()
        # and discriminant(), the values every caller sees
        c4, c6, disc = self.c4(), self.c6(), self.discriminant()
        if disc.is_zero():
            raise ValueError("singular curve: discriminant is zero")
        # c4^3 - c6^2 = 1728 * disc must hold identically
        if not c4 ** 3 - c6 ** 2 == 1728 * disc:
            raise ArithmeticError("c-invariant identity failed")

    @classmethod
    def from_coeffs(cls, ctx: FieldCtx, a1, a2, a3, a4, a6) -> "WeierstrassCurve":
        """The curve over ctx; an int a_i is a constant of ctx."""
        return cls(*(Poly.constant(ctx, a) if isinstance(a, int) else a
                     for a in (a1, a2, a3, a4, a6)))

    # -- invariants, computed once in __init__ ---------------------------

    def c4(self) -> Poly:
        return self._c4

    def c6(self) -> Poly:
        return self._c6

    def discriminant(self) -> Poly:
        return self._disc

    # -- points ----------------------------------------------------------

    def infinity(self) -> CurvePoint:
        return CurvePoint(self, None, None)

    def contains(self, x: RatFunc, y: RatFunc) -> bool:
        """Whether y^2 + a1 x y + a3 y = x^3 + a2 x^2 + a4 x + a6.  A
        point of this model has x = A/C^2 and y = B/C^3, so C = den(y) /
        den(x) must be exact with C^2 = den(x); the equation times C^6 is
        then B (B + a1 A C + a3 C^3) = A ((A + a2 C^2) A + a4 C^4) + a6 C^6.
        No gcd is taken, and a zero a_i skips its products."""
        A, C2, B = x.num, x.den, y.num
        C, rem = divmod(y.den, C2)
        if not (rem.is_zero() and C * C == C2):
            return False
        a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
        return (B * (B + a1 * A * C + a3 * C2 * C)
                == A * ((A + a2 * C2) * A + a4 * C2 * C2) + a6 * C2 * C2 * C2)

    def point(self, x: RatFunc, y: RatFunc) -> CurvePoint:
        if not self.contains(x, y):
            raise ValueError("point is not on the curve")
        return CurvePoint(self, x, y)

    def on_curve(self, P: CurvePoint) -> bool:
        if P.curve != self:
            return False
        return P.is_infinity or self.contains(P.x, P.y)

    # -- group law ---------------------------------------------------------

    def neg(self, P: CurvePoint) -> CurvePoint:
        if P.curve != self:
            raise ValueError("point from a different curve")
        if P.is_infinity:
            return P
        return CurvePoint(self, P.x, -P.y - self.a1 * P.x - self.a3)

    def add(self, P: CurvePoint, Q: CurvePoint) -> CurvePoint:
        """P + Q.  For lam = N/D, lam^2 + a1 lam = N (N + a1 D)/D^2 is
        reduced, its numerator being N^2 mod D.  y3 = lam (x1 - x3) - y1
        - a1 x3 - a3 has the reduced denominator E3 C3 for E3 = den(x3) =
        C3^2.  With x1 = A1/E1, y1 = B1/F1 (F1 = E1 C1) and x3 = A3/E3,
        y3 = T/(D F1 E3) for T = N (A1 E3 - A3 E1) C1 - B1 D E3 - (a1 A3 +
        a3 E3) D F1, so its numerator is T C3 / (D F1), an exact
        division."""
        if P.curve != self or Q.curve != self:
            raise ValueError("point from a different curve")
        if P.is_infinity:
            return Q
        if Q.is_infinity:
            return P
        x1, y1, x2, y2 = P.x, P.y, Q.x, Q.y
        if x1 == x2:
            if y2 == -y1 - self.a1 * x1 - self.a3:
                return self.infinity()
            # now P == Q with 2y + a1 x + a3 != 0: tangent line
            lam = (3 * (x1 * x1) + 2 * self.a2 * x1 + self.a4 - self.a1 * y1) \
                / (2 * y1 + self.a1 * x1 + self.a3)
        else:
            lam = (y2 - y1) / (x2 - x1)
        N, D = lam.num, lam.den
        x3 = _frac(N * (N + self.a1 * D), D * D) \
            - (self.a2 + x1 + x2)
        A1, E1, B1, F1 = x1.num, x1.den, y1.num, y1.den
        A3, E3 = x3.num, x3.den
        C3 = poly_sqrt(E3)
        DF1 = D * F1
        T = N * _exact(F1, E1) * (A1 * E3 - A3 * E1) - B1 * D * E3
        if not (self.a1.is_zero() and self.a3.is_zero()):
            T = T - (self.a1 * A3 + self.a3 * E3) * DF1
        return CurvePoint(self, x3, _frac(_exact(T * C3, DF1), E3 * C3))

    def smul(self, n: int, P: CurvePoint) -> CurvePoint:
        """n*P by left-to-right double-and-add: one doubling per bit
        below the top one."""
        if P.curve != self:
            raise ValueError("point from a different curve")
        if n < 0:
            return self.smul(-n, self.neg(P))
        if n == 0:
            return self.infinity()
        acc = P
        for bit in bin(n)[3:]:
            acc = self.add(acc, acc)
            if bit == "1":
                acc = self.add(acc, P)
        return acc

    # -- misc -----------------------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, WeierstrassCurve) and self.ctx == other.ctx
                and self.a1 == other.a1 and self.a2 == other.a2
                and self.a3 == other.a3 and self.a4 == other.a4
                and self.a6 == other.a6)

    __hash__ = None

    def __repr__(self):
        return ("Curve(a1=%s, a2=%s, a3=%s, a4=%s, a6=%s)"
                % (self.a1, self.a2, self.a3, self.a4, self.a6))

    def to_obj(self):
        return {k: _coeff_obj(getattr(self, k)) for k in ("a1", "a2", "a3", "a4", "a6")}


def _as_poly(ctx: FieldCtx, value) -> Poly | None:
    """value as a Poly over ctx when it is a Poly, an int, a FieldElement
    or a RatFunc with denominator 1, else None.  ValueError for a value
    over another field."""
    if isinstance(value, (int, FieldElement)):
        return Poly.constant(ctx, value)
    if isinstance(value, RatFunc) and value.den.deg == 0:
        value = value.num
    if not isinstance(value, Poly):
        return None
    if value.ctx != ctx:
        raise ValueError("coefficient field mismatch")
    return value


def _coeff_obj(a: Poly) -> dict:
    """A polynomial coefficient in the {"num", "den"} shape of a RatFunc."""
    return RatFunc.from_poly(a).to_obj()


def _exact(a: Poly, b: Poly) -> Poly:
    """a / b for a monic b that divides a; ArithmeticError otherwise."""
    if b.deg == 0:
        return a
    q, r = divmod(a, b)
    if not r.is_zero():
        raise ArithmeticError("inexact division: the point is not reduced "
                              "on a model with polynomial coefficients")
    return q


def _same_j(E: WeierstrassCurve, F: WeierstrassCurve) -> bool:
    """j(E) = j(F), i.e. c4^3 disc' = c4'^3 disc, compared by
    cross-multiplying."""
    return E.c4() ** 3 * F.discriminant() == F.c4() ** 3 * E.discriminant()


# ----------------------------------------------------------------------
# Family helpers.

def legendre_form_curve(t: RatFunc) -> WeierstrassCurve:
    """y^2 = x (x + 1) (x + t), i.e. a2 = 1 + t, a4 = t, a6 = 0."""
    return WeierstrassCurve.from_coeffs(t.ctx, 0, 1 + t, 0, t, 0)


def two_torsion(curve: WeierstrassCurve) -> tuple[CurvePoint, CurvePoint, CurvePoint]:
    """(0,0), (-1,0), (-t,0) on a Legendre-form curve y^2 = x(x+1)(x+t);
    raises ValueError for a curve of any other shape."""
    ctx = curve.ctx
    zero = RatFunc.zero(ctx)
    t = curve.a4
    if not (curve.a1.is_zero() and curve.a3.is_zero() and curve.a6.is_zero()
            and curve.a2 == 1 + t):
        raise ValueError("curve is not in y^2 = x(x+1)(x+t) form")
    return (CurvePoint(curve, zero, zero),
            CurvePoint(curve, RatFunc.constant(ctx, -1), zero),
            CurvePoint(curve, RatFunc.from_poly(-t), zero))


# ----------------------------------------------------------------------
# 2-isogenies and coordinate changes.

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
