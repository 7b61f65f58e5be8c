"""Test-side oracle for `canonical_height`: the doubling limit
h(P) = lim deg x(2^n P) / 4^n, read from the public `height_sequence`
and so independent of the local formula."""

from fractions import Fraction
from math import floor

from legendre_mw.heights import height_sequence

MAX_LEVEL = 6


def doubling_limit(P, grid=None):
    """(height, level): deg x(2^n P) / 4^n rounded to the (1/grid) Z grid
    (grid = 2d by default), once levels n - 1 and n >= 3 agree; (0, 0) for
    torsion, None when no two levels agree within MAX_LEVEL doublings."""
    if grid is None:
        grid = 2 * P.curve.a4.num.deg
    for n in range(3, MAX_LEVEL + 1):
        degs = height_sequence(P, n)
        if len(degs) <= n:
            return Fraction(0), 0  # the sequence ended: P is torsion
        prev, est = (Fraction(floor(Fraction(h * grid, 4 ** m) + Fraction(1, 2)), grid)
                     for m, h in ((n - 1, degs[n - 1]), (n, degs[n])))
        if prev == est:
            return est, n
    return None
