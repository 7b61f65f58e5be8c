"""Elliptic curves in long Weierstrass form over F_q(u), with the exact
chord-tangent group law.  The 2-isogenies, the coordinate changes and
the isogeny chain are in `isogeny.py`; this module re-exports their
names on first access (PEP 562), so a command that runs no isogeny
does not compile them.

All coordinates are RatFunc values, so every computation is exact, and
the group law returns reduced coordinates.  Every curve has its a_i,
c4, c6 and discriminant as Polys in F_q[u]: `WeierstrassCurve` raises
ValueError for any other coefficient.  On such a model a reduced point
x = A/D, y = B/E has D = C^2 and E = C^3 for one monic C: at a prime of
F_q[u] where x has a pole of order 2m, y has one of order 3m (an
integral section; Silverman, "Advanced Topics in the Arithmetic of
Elliptic Curves", ch. III).  The group law reads the reduced
denominators off this rule instead of taking gcds whose answer it
fixes: it writes lam^2 + a1 lam over den(lam)^2 and reads y3's
denominator as den(x3)^(3/2), with C = E / D an exact division,
checked.

The checks do not reduce and take no gcd.  Membership is the curve
equation times C^6, an identity of polynomials, and a new curve checks
c4^3 - c6^2 = 1728 disc.
"""

from __future__ import annotations

from .gf import FieldCtx, FieldElement
from .ratfunc import Poly, RatFunc, _frac, poly_sqrt

# the isogeny half, defined in isogeny.py
_ISOGENY_NAMES = ("CoordChange", "IsogenyChain", "IsogenyMap", "change_coords",
                  "two_isogeny_quotient")


def __getattr__(name):
    if name not in _ISOGENY_NAMES:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from . import isogeny

    value = getattr(isogeny, name)
    globals()[name] = value
    return value


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
