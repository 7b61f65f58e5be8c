"""Test-side oracle for `canonical_height` and `point_order`: the
x-coordinate duplication map and the doubling limit
h(P) = lim deg x(2^n P) / 4^n, independent of the local formula.

`_doublings` runs

    x(2P) = (x^2 - t)^2 / (4 x (x + 1) (x + t)).

With x = N/D in lowest terms the new coordinate is A^2 / G, A = N^2 - t D^2
and G = 4 N D (N + D) (N + t D).  A common prime of A^2 and G divides one
of the four factors of G, and substituting N = 0, D = 0, N = -D or N = -tD
into A forces it to divide t or t - 1.  So `_strip` slices off the common
power of u and cancels gcd(A^2, G, u^d - 1) until it is 1, with reduction
mod u^d - 1 and exact division by it done on blocks of d coefficients
rather than by long division.
"""

from fractions import Fraction
from itertools import islice
from math import floor

import numpy as np

from legendre_mw.heights import _family_t
from legendre_mw.ratfunc import Poly

MAX_LEVEL = 6


def _unit_rows(F, d):
    """The coefficient digit rows of F, zero-padded and split into blocks
    of d, shape (blocks, d, k): block j holds the coefficients of u^(jd)
    to u^(jd + d - 1)."""
    L, k = len(F.c), F.ctx.k
    rows = np.zeros((-(-L // d) * d, k), dtype=np.int64)
    if L:
        rows[:L] = F.to_obj()
    return rows.reshape(-1, d, k)


def _mod_unit(F, d):
    """F mod (u^d - 1), by folding the blocks of d coefficients."""
    rows = (_unit_rows(F, d).sum(axis=0) % F.ctx.p).tolist()
    return Poly.from_elems(F.ctx, [F.ctx.elem(row) for row in rows])


def _div_unit(F, d):
    """F / (u^d - 1) for a multiple F: the quotient Q has
    Q_i = Q_{i-d} - F_i, a running sum over each residue class mod d."""
    L, k = len(F.c), F.ctx.k
    q = (-np.cumsum(_unit_rows(F, d), axis=0) % F.ctx.p).reshape(-1, k)
    if q[L - d:].any():
        raise ArithmeticError("u^d - 1 does not divide the polynomial")
    return Poly.from_elems(F.ctx, [F.ctx.elem(row) for row in q[:L - d].tolist()])


def _strip(F, G, d):
    """F / g, G / g for the part g of gcd(F, G) supported on u (u^d - 1):
    u^e0 is sliced off, then gcd(F, G, u^d - 1) = c is cancelled, as
    (F h) / (u^d - 1) with h = (u^d - 1) / c, until it is 1."""
    ctx = F.ctx
    e0 = min(F.valuation(), G.valuation())
    F, G = Poly(ctx, F.c[e0:]), Poly(ctx, G.c[e0:])
    unit = Poly.monomial(ctx, d) - 1
    while True:
        c = Poly.gcd(Poly.gcd(unit, _mod_unit(F, d)), _mod_unit(G, d))
        if c.deg < 1:
            return F, G
        h = unit // c
        F, G = _div_unit(F * h, d), _div_unit(G * h, d)


def _doublings(P):
    """Yield x(2^n P) = N/D in lowest terms, D monic, for n = 0, 1, ...

    The sequence ends, after the last 2^n P != O, exactly when P is
    torsion; a point with x = 0 is yielded as (0, 1).
    """
    if P.is_infinity:
        return
    tp, d = _family_t(P)
    ctx = tp.ctx
    N, D = P.x.num, P.x.den
    while True:
        yield N, D
        tD = tp * D
        G = 4 * (N * D) * ((N + D) * (N + tD))
        if G.is_zero():
            return  # x in {0, -1, -t}: 2^n P is 2-torsion
        N = N * N - tD * D
        if N.is_zero():
            D = Poly.one(ctx)  # the double is (0, 0)
            continue
        N, D = _strip(N * N, G, d)
        lc = D.lc()
        if not lc == ctx.one():
            inv = lc.inv()
            N, D = N.scale(inv), D.scale(inv)


def height_sequence(P, levels):
    """[h_0, ..., h_levels] with h_n = deg x(2^n P); stops early with a
    shorter list if P is torsion (x = 0 counts as degree 0)."""
    return [int(max(N.deg, D.deg)) for N, D in islice(_doublings(P), levels + 1)]


def doubling_limit(P, grid=None):
    """(height, level): deg x(2^n P) / 4^n rounded to the (1/grid) Z grid
    (grid = 2d by default), once levels n - 1 and n >= 3 agree; (0, 0) for
    torsion, None when no two levels agree within MAX_LEVEL doublings."""
    if grid is None:
        grid = 2 * P.curve.a4.deg
    for n in range(3, MAX_LEVEL + 1):
        degs = height_sequence(P, n)
        if len(degs) <= n:
            return Fraction(0), 0  # the sequence ended: P is torsion
        prev, est = (Fraction(floor(Fraction(h * grid, 4 ** m) + Fraction(1, 2)), grid)
                     for m, h in ((n - 1, degs[n - 1]), (n, degs[n])))
        if prev == est:
            return est, n
    return None
