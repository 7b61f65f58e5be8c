"""Canonical heights, height pairings and Gram matrices on
y^2 = x(x+1)(x+t) with t = u^d over F_q(u).

The canonical height is computed exactly from the x-coordinate
duplication map

    x(2P) = (x^2 - t)^2 / (4 x (x + 1) (x + t)):

with x = N/D in lowest terms the new coordinate is A^2 / G where
A = N^2 - t D^2 and G = 4 N D (N + D) (N + t D).  Any common factor of
A^2 and G divides u (u^d - 1): a common prime divides A and one of the
four factors of G, and substituting N = 0, D = 0, N = -D or N = -tD
into A forces it to divide t = u^d or t - 1.  When u^d - 1 splits over
the coefficient field the common factor is u^e0 times a product of
(u - rho)^e over the roots rho = zeta^j: the power of u is dropped by
slicing off coefficient rows and only the root part is divided out.
Otherwise, since u^{d+1} - u is squarefree (d = 1 mod p), repeatedly
cancelling gcd(A^2, G, u^{d+1}-u) removes the entire common factor
without a full-degree Euclid run.

`_doublings` runs this map for every consumer: heights, the degree
sequence and the torsion test.  Heights here lie in (1/2d) Z, so the
limit h(2^n P)/4^n is read off by rounding to that grid once two
consecutive levels agree, within DEFAULT_MAX_DOUBLINGS doublings unless
the caller passes another cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

import numpy as np

from .curve import CurvePoint
from .exact_linalg import determinant, kernel_basis, rank
from .gf import FieldCtx, zeta
from .ratfunc import Poly

DEFAULT_MAX_DOUBLINGS = 6


class HeightError(RuntimeError):
    """Raised when the doubling limit is hit before stabilization."""


def _family_t(P: CurvePoint) -> tuple[Poly, int]:
    """Check the curve has the shape y^2 = x(x+1)(x+u^d) and return
    (t as a polynomial, d)."""
    curve = P.curve
    t = curve.a4
    if not (curve.a1.is_zero() and curve.a3.is_zero() and curve.a6.is_zero()
            and curve.a2 == 1 + t):
        raise ValueError("curve is not in y^2 = x(x+1)(x+t) form")
    if not t.is_poly():
        raise ValueError("t must be the polynomial u^d")
    tp = t.num
    d = int(tp.deg)
    if d < 1 or not tp == Poly.monomial(tp.ctx, d):
        raise ValueError("t must be the monomial u^d")
    return tp, d


def naive_height(P: CurvePoint) -> int:
    """deg x(P) = max(deg num, deg den); zero for x = 0."""
    if P.is_infinity:
        raise ValueError("the point at infinity has no naive height")
    return 0 if P.x.is_zero() else P.x.deg()


def _round_to_grid(value: Fraction, denom: int) -> Fraction:
    """Nearest multiple of 1/denom, halves rounding up."""
    scaled = value * denom
    return Fraction((scaled.numerator * 2 + scaled.denominator)
                    // (2 * scaled.denominator), denom)


class _SupportStripper:
    """Removes gcd(F, G) from a duplication pair.

    Valid because every common prime is linear: u or u - rho with
    rho^d = 1, and u^d - 1 splits over the coefficient field (d | q - 1).
    The multiplicity of each root is the index of the first nonvanishing
    Hasse derivative H^j F = sum_n C(n, j) f_n u^(n-j), a test that works
    in any characteristic and vectorizes to k^2 integer dot products.
    """

    def __init__(self, ctx: FieldCtx, d: int):
        self.ctx, self.d = ctx, d
        self.p, self.k = ctx.p, ctx.k
        z = zeta(ctx, d)
        self.roots = [z ** j for j in range(d)]
        # row m holds the digits of zeta^m, so (zeta^j)^n is row j n mod d
        self._zeta_rows = np.array([r.c for r in self.roots], dtype=np.int64)
        pas = np.zeros((ctx.p, ctx.p), dtype=np.int64)
        pas[:, 0] = 1
        for a in range(1, ctx.p):
            for b in range(1, a + 1):
                pas[a, b] = (pas[a - 1, b - 1] + pas[a - 1, b]) % ctx.p
        self._pascal = pas

    def _binom_weights(self, L: int, j: int) -> np.ndarray | None:
        """C(n, j) mod p for n < L via Lucas; None stands for all ones."""
        if j == 0:
            return None
        n = np.arange(L, dtype=np.int64)
        out = np.ones(L, dtype=np.int64)
        p = self.p
        while j:
            out = out * self._pascal[n % p, j % p] % p
            n //= p
            j //= p
        return out

    def _hasse_vanishes(self, rows: np.ndarray, w, tab: np.ndarray) -> bool:
        """Whether sum_n w[n] * rows[n] * root^n is zero in the field."""
        L, k = rows.shape
        acc = np.zeros(2 * k - 1, dtype=np.int64)
        for a in range(k):
            fa = rows[:, a] if w is None else rows[:, a] * w
            if not fa.any():
                continue
            for b in range(k):
                acc[a + b] += int(fa @ tab[:L, b])
        for m in range(2 * k - 2, k - 1, -1):
            if acc[m]:
                acc[:k] += acc[m] * self.ctx.reduction_rows[m - k]
        return not (acc[:k] % self.p).any()

    def _min_ord(self, F: np.ndarray, G: np.ndarray, i: int) -> int:
        """min of the multiplicities of the root zeta^i in F and G."""
        L = max(F.shape[0], G.shape[0])
        tab = self._zeta_rows[i * np.arange(L) % self.d]
        for j in range(min(F.shape[0], G.shape[0])):
            w = self._binom_weights(L, j)
            wf = None if w is None else w[:F.shape[0]]
            if not self._hasse_vanishes(F, wf, tab):
                return j
            wg = None if w is None else w[:G.shape[0]]
            if not self._hasse_vanishes(G, wg, tab):
                return j
        return 0  # pragma: no cover - a nonzero poly has a finite order

    def strip(self, F: Poly, G: Poly) -> tuple[Poly, Poly]:
        ctx = self.ctx
        e0 = min(int(np.nonzero(F.c.any(axis=1))[0][0]),
                 int(np.nonzero(G.c.any(axis=1))[0][0]))
        F = Poly(ctx, F.c[e0:], _trusted=True)
        G = Poly(ctx, G.c[e0:], _trusted=True)
        g = Poly.one(ctx)
        for i, root in enumerate(self.roots):
            e = self._min_ord(F.c, G.c, i)
            if e:
                g = g * Poly.from_elems(ctx, [-root, 1]) ** e
        if g.deg > 0:
            F, rf = divmod(F, g)
            G, rg = divmod(G, g)
            if not (rf.is_zero() and rg.is_zero()):
                raise ArithmeticError("root multiplicities do not divide the pair")
        return F, G


class _EuclidStripper:
    """Fallback full-gcd reduction for fields where u^d - 1 does not
    split (d not dividing q - 1)."""

    def __init__(self, ctx: FieldCtx, d: int):
        self.mask = Poly.monomial(ctx, d + 1) - Poly.variable(ctx)

    def strip(self, F: Poly, G: Poly) -> tuple[Poly, Poly]:
        while True:
            c = Poly.gcd(Poly.gcd(self.mask, F), G)
            if c.deg < 1:
                return F, G
            F = F // c
            G = G // c


_STRIPPERS: dict = {}


def _get_stripper(ctx: FieldCtx, d: int):
    key = (ctx, d)
    s = _STRIPPERS.get(key)
    if s is None:
        try:
            s = _SupportStripper(ctx, d)
        except ValueError:
            s = _EuclidStripper(ctx, d)
        _STRIPPERS[key] = s
    return s


def _doublings(P: CurvePoint):
    """Yield x(2^n P) = N/D in lowest terms, D monic, for n = 0, 1, ...

    The sequence ends, after the last 2^n P != O, exactly when P is
    torsion; a point with x = 0 is yielded as (0, 1).
    """
    if P.is_infinity:
        return
    tp, d = _family_t(P)
    ctx = tp.ctx
    stripper = _get_stripper(ctx, d)
    N, D = P.x.num, P.x.den
    while True:
        yield N, D
        tD = tp * D
        G = 4 * (N * D) * ((N + D) * (N + tD))
        if G.is_zero():
            return  # x in {0, -1, -t}: 2^n P is 2-torsion
        A = N * N - tD * D
        if A.is_zero():
            N, D = A, Poly.one(ctx)  # the double is (0, 0)
            continue
        N, D = stripper.strip(A * A, G)
        lc = D.lc()
        if not lc == ctx.one():
            inv = lc.inv()
            N, D = N.scale(inv), D.scale(inv)


def canonical_height(P: CurvePoint, max_doublings: int = DEFAULT_MAX_DOUBLINGS,
                     with_level: bool = False):
    """Exact canonical height as a Fraction (0 for torsion).

    Doubles the x-coordinate until round(h_n / 4^n) agrees on the
    (1/2d)-grid at two consecutive levels n - 1, n with n >= 3; raises
    HeightError past max_doublings doublings.  with_level also returns
    that n (0 for torsion).
    """
    grid = 2 * _family_t(P)[1]
    est_prev = None
    for n, (N, D) in enumerate(_doublings(P)):
        if n > max_doublings:
            raise HeightError("height did not stabilize within %d doublings"
                              % max_doublings)
        est = _round_to_grid(Fraction(max(N.deg, D.deg), 4 ** n), grid)
        if n >= 3 and est == est_prev:
            return (est, n) if with_level else est
        est_prev = est
    return (Fraction(0), 0) if with_level else Fraction(0)


def height_sequence(P: CurvePoint, levels: int) -> list[int]:
    """[h_0, ..., h_levels] with h_n = deg x(2^n P); stops early with a
    shorter list if P is torsion (x = 0 counts as degree 0)."""
    return [int(max(N.deg, D.deg)) for N, D in islice(_doublings(P), levels + 1)]


def is_torsion_point(P: CurvePoint) -> bool:
    """Exact torsion test: the torsion subgroup is Z/2 x Z/4, so P is
    torsion iff 4P = O, i.e. iff the doubling sequence stops within
    two terms."""
    return sum(1 for _ in islice(_doublings(P), 3)) < 3


def pairing(P: CurvePoint, Q: CurvePoint) -> Fraction:
    """Height pairing <P, Q> = (h(P+Q) - h(P) - h(Q)) / 2."""
    if P == Q:
        return canonical_height(P)
    hs = canonical_height(P + Q)
    hp = canonical_height(P)
    hq = canonical_height(Q)
    return (hs - hp - hq) / 2


# ----------------------------------------------------------------------
# Gram matrices.

@dataclass(frozen=True)
class GramMatrix:
    labels: tuple[str, ...]
    entries: tuple[tuple[Fraction, ...], ...]

    @property
    def size(self) -> int:
        return len(self.labels)

    def rank(self) -> int:
        return rank([list(row) for row in self.entries])

    def det(self) -> Fraction:
        return determinant([list(row) for row in self.entries])

    def kernel(self) -> list[tuple[int, ...]]:
        """Primitive integer vectors spanning the null space."""
        return kernel_basis([list(row) for row in self.entries])

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
    """det of the pairing matrix of P_0 .. P_{d-3}: 2^(4-d) (d-1)^(d-2) / d^2."""
    return Fraction(2 ** 4 * (d - 1) ** (d - 2), 2 ** d * d ** 2)


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
    """Whether sum coeffs[i] * points[i] is torsion (Z/2 x Z/4 here, so
    multiplying by 8 must kill it)."""
    S = combination(points, coeffs)
    return S.curve.smul(8, S).is_infinity
