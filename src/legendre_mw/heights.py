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

Odd d is pulled back along u -> u^2, which doubles every height.  The
value is exact by construction: (d-1)(d-2)/2d for each P_i and 0 for
every torsion point.

The torsion test `point_order` reads x(2P) off the duplication formula.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .curve import CurvePoint, two_torsion
from .exact_linalg import determinant, kernel_basis, rank
from .invariants import regulator_coefficient
from .ratfunc import Poly


def _family_t(P: CurvePoint) -> tuple[Poly, int]:
    """Check the curve has the shape y^2 = x(x+1)(x+u^d) and return
    (t as a polynomial, d)."""
    two_torsion(P.curve)   # raises ValueError for any other shape
    t = P.curve.a4
    if not t.is_poly():
        raise ValueError("t must be the polynomial u^d")
    tp = t.num
    d = int(tp.deg)
    if d < 1 or not tp == Poly.monomial(tp.ctx, d):
        raise ValueError("t must be the monomial u^d")
    return tp, d


def _ord_u(f: Poly) -> int:
    """Multiplicity of the root u = 0 of a nonzero polynomial."""
    return next(i for i, e in enumerate(f.c) if e is not None)


def _local_height(N: Poly, D: Poly, d: int) -> Fraction:
    """Shioda's formula for x = N/D on y^2 = x(x+1)(x+u^d), d even."""
    n = 2 * d
    if N.is_zero():
        two_po, i0, ioo = 0, d, d
    else:
        two_po = D.deg + max(0, N.deg - D.deg - d)
        i0 = min(max(_ord_u(N) - _ord_u(D), 0), d)
        ioo = min(max(d + D.deg - N.deg, 0), d)
    r = Poly.gcd(N + D, Poly.monomial(D.ctx, d) - 1).deg
    return (d + two_po - Fraction(i0 * (n - i0) + ioo * (n - ioo), n)
            - Fraction(r, 2))


def _spread(f: Poly) -> Poly:
    """f(u^2)."""
    logs = [None] * max(2 * len(f.c) - 1, 0)
    logs[::2] = f.c
    return Poly(f.ctx, logs)


def canonical_height(P: CurvePoint) -> Fraction:
    """Exact canonical height as a Fraction (0 for torsion), from the
    local formula in the module docstring.  Raises ValueError when p
    divides d, where the fibres at the roots of u^d = 1 are not I_2."""
    tp, d = _family_t(P)
    if d % tp.ctx.p == 0:
        raise ValueError("p = %d divides d = %d" % (tp.ctx.p, d))
    if P.is_infinity:
        return Fraction(0)
    N, D = P.x.num, P.x.den
    if d % 2:
        return _local_height(_spread(N), _spread(D), 2 * d) / 2
    return _local_height(N, D, d)


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


def pairing(P: CurvePoint, Q: CurvePoint) -> Fraction:
    """Height pairing <P, Q> = (h(P+Q) - h(P) - h(Q)) / 2."""
    return gram_matrix([P, Q]).entries[0][1]


# ----------------------------------------------------------------------
# Gram matrices.

class GramMatrix(namedtuple("GramMatrix", "labels entries")):
    """A pairing matrix: one label per point, and the entries as a tuple
    of rows of Fractions."""

    __slots__ = ()

    def rank(self) -> int:
        return rank(self.entries)

    def det(self) -> Fraction:
        return determinant(self.entries)

    def kernel(self) -> list[tuple[int, ...]]:
        """Primitive integer vectors spanning the null space."""
        return kernel_basis(self.entries)

    def submatrix(self, indices) -> "GramMatrix":
        idx = list(indices)
        return GramMatrix(
            labels=tuple(self.labels[i] for i in idx),
            entries=tuple(tuple(self.entries[i][j] for j in idx) for i in idx),
        )

    def to_obj(self):
        return {"labels": list(self.labels),
                "entries": [[str(v) for v in row] for row in self.entries]}


def gram_matrix(points: list[CurvePoint], labels: list[str] | None = None) -> GramMatrix:
    """Pairing matrix of the given points, heights computed exactly."""
    n = len(points)
    if labels is None:
        labels = ["P%d" % i for i in range(n)]
    if len(labels) != n:
        raise ValueError("one label per point")
    heights = [canonical_height(P) for P in points]
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = heights[i]
        for j in range(i + 1, n):
            hs = canonical_height(points[i] + points[j])
            v = (hs - heights[i] - heights[j]) / 2
            rows[i][j] = rows[j][i] = v
    return GramMatrix(labels=tuple(labels),
                      entries=tuple(tuple(r) for r in rows))


def expected_gram(d: int, indices) -> GramMatrix:
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
    return GramMatrix(labels=tuple("P%d" % i for i in idx), entries=tuple(rows))


def expected_lattice_det(d: int) -> Fraction:
    """det of the pairing matrix of P_0 .. P_{d-3}: the regulator coefficient at m = 1."""
    return regulator_coefficient(d, 1)


def combination(points: list[CurvePoint], coeffs) -> CurvePoint:
    """sum coeffs[i] * points[i] by the group law."""
    if not points:
        raise ValueError("need at least one point")
    curve = points[0].curve
    acc = curve.infinity()
    for P, c in zip(points, coeffs):
        acc = acc + curve.smul(int(c), P)
    return acc


def relation_is_torsion(points: list[CurvePoint], coeffs) -> bool:
    """Whether sum coeffs[i] * points[i] is torsion."""
    return is_torsion_point(combination(points, coeffs))
