"""Canonical heights, height pairings and Gram matrices on
y^2 = x(x+1)(x+t) with t = u^d over F_q(u).

For even d the canonical height is Shioda's local formula

    h(P) = 2 chi + 2 (P.O) - sum_v contr_v(P),      chi = d/2,

read off x(P) = N/D in lowest terms (D monic) in O(deg x).  The bad
fibres are I_2d at u = 0 and at u = oo and I_2 at the d roots of
u^d = 1 (p does not divide d, so u^d - 1 is squarefree), and an I_n
fibre met in component i contributes i (n - i) / n, with n = 2d:

* 2 (P.O) = deg D + max(0, deg N - deg D - d): the finite poles of x,
  plus the pole at oo of X = x s^d on Y^2 = X (X + 1) (X + s^d), s = 1/u;
* at u = 0, i0 = min(max(ord_u N - ord_u D, 0), d);
* at oo, ioo = min(max(d + deg D - deg N, 0), d);  N = 0 gives d for both;
* P meets the node x = -1 of an I_2 fibre exactly where N + D vanishes,
  so the r = deg gcd(N + D, u^d - 1) such fibres contribute r/2, whether
  or not u^d - 1 splits over the coefficient field (N + D = 0 gives d).

The family's d = p^f + 1 is even for odd p, so odd d is refused.  The
value is exact by construction: (d-1)(d-2)/2d for each P_i and 0 for
every torsion point.

The torsion test `point_order` reads x(2P) off the duplication formula.
"""

from __future__ import annotations

from fractions import Fraction

from .curve import CurvePoint, two_torsion
from .ratfunc import Poly


def _family_t(P: CurvePoint) -> tuple[Poly, int]:
    """Check the curve has the shape y^2 = x(x+1)(x+u^d) and return
    (t as a polynomial, d)."""
    two_torsion(P.curve)   # raises ValueError for any other shape
    tp = P.curve.a4
    d = int(tp.deg)
    if d < 1 or not tp == Poly.monomial(tp.ctx, d):
        raise ValueError("t must be the monomial u^d")
    return tp, d


def _local_height(N: Poly, D: Poly, d: int) -> Fraction:
    """Shioda's formula for x = N/D on y^2 = x(x+1)(x+u^d), d even."""
    n = 2 * d
    if N.is_zero():
        two_po, i0, ioo = 0, d, d
    else:
        two_po = D.deg + max(0, N.deg - D.deg - d)
        i0 = min(max(N.valuation() - D.valuation(), 0), d)
        ioo = min(max(d + D.deg - N.deg, 0), d)
    r = Poly.gcd(N + D, Poly.monomial(D.ctx, d) - 1).deg
    return (d + two_po - Fraction(i0 * (n - i0) + ioo * (n - ioo), n)
            - Fraction(r, 2))


def canonical_height(P: CurvePoint) -> Fraction:
    """Exact canonical height as a Fraction (0 for torsion), from the
    local formula in the module docstring.  Raises ValueError for odd d,
    where the formula does not apply, and when p divides d, where the
    fibres at the roots of u^d = 1 are not I_2."""
    tp, d = _family_t(P)
    if d % 2:
        raise ValueError("d = %d is odd" % d)
    if d % tp.ctx.p == 0:
        raise ValueError("p = %d divides d = %d" % (tp.ctx.p, d))
    if P.is_infinity:
        return Fraction(0)
    return _local_height(P.x.num, P.x.den, d)


def point_order(P: CurvePoint) -> int:
    """The order of P if P is torsion, else 0.  The torsion subgroup is
    Z/2 x Z/4, so P is torsion iff 4P = O: O has order 1, y = 0 gives
    order 2, and otherwise P has order 4 exactly when 2P is 2-torsion,
    that is when x(2P) = (x^2 - t)^2 / (4 x (x + 1) (x + t)) is one of
    the roots 0, -1, -t.  With x = N/D, x(2P) = A^2 / G for
    A = N^2 - t D^2 and G = 4 N D (N + D) (N + t D), so the test is
    A^2 + e G = 0 for some e in {0, 1, t}."""
    tp, _ = _family_t(P)
    if P.is_infinity:
        return 1
    if P.y.is_zero():
        return 2
    N, D = P.x.num, P.x.den
    tD = tp * D
    A2 = (N * N - tD * D) ** 2
    G = 4 * (N * D) * ((N + D) * (N + tD))
    if A2.is_zero() or (A2 + G).is_zero() or (A2 + tp * G).is_zero():
        return 4
    return 0


def is_torsion_point(P: CurvePoint) -> bool:
    """Exact torsion test: whether P has finite order."""
    return point_order(P) > 0


# ----------------------------------------------------------------------
# Gram matrices: tuples of rows of Fractions.

def gram_matrix(points: list[CurvePoint]) -> tuple[tuple[Fraction, ...], ...]:
    """Pairing matrix of the given points, heights computed exactly."""
    n = len(points)
    heights = [canonical_height(P) for P in points]
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = heights[i]
        for j in range(i + 1, n):
            hs = canonical_height(points[i] + points[j])
            v = (hs - heights[i] - heights[j]) / 2
            rows[i][j] = rows[j][i] = v
    return tuple(tuple(r) for r in rows)


def expected_gram(d: int, indices) -> tuple[tuple[Fraction, ...], ...]:
    """Predicted pairing matrix of the points P_i: diagonal
    (d-1)(d-2)/2d, off-diagonal (1-d)/d for i - j even and 0 for odd."""
    idx = list(indices)
    diag = Fraction((d - 1) * (d - 2), 2 * d)
    even = Fraction(1 - d, d)
    rows = []
    for i in idx:
        row = []
        for j in idx:
            if i == j:
                row.append(diag)
            elif (i - j) % 2 == 0:
                row.append(even)
            else:
                row.append(Fraction(0))
        rows.append(tuple(row))
    return tuple(rows)


def combination(points: list[CurvePoint], coeffs) -> CurvePoint:
    """sum coeffs[i] * points[i] by the group law, added pairwise as a
    balanced tree so the operands stay small; terms equal to O are dropped."""
    if not points or len(coeffs) != len(points) \
            or not all(isinstance(c, int) for c in coeffs):
        raise ValueError("need points and one int coefficient per point")
    curve = points[0].curve
    terms = [S for S in map(curve.smul, coeffs, points) if not S.is_infinity]
    while len(terms) > 1:
        terms = [A + B for A, B in zip(terms[::2], terms[1::2])] + terms[len(terms) // 2 * 2:]
    return terms[0] if terms else curve.infinity()
