"""Exact linear algebra over the rationals via fraction-free elimination.

Matrices of Fractions are scaled to integers, reduced with Bareiss-style
(fraction-free) elimination, and kernels are back-substituted into
primitive integer vectors.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _to_int_matrix(rows):
    """Scale a matrix of Fractions/ints to integers; returns (M, L) with
    M = L * rows entrywise."""
    if len({len(row) for row in rows}) > 1:
        raise ValueError("rows must have equal length")
    fr = [[Fraction(x) for x in row] for row in rows]
    L = 1
    for row in fr:
        for x in row:
            L = lcm(L, x.denominator)
    return [[int(x * L) for x in row] for row in fr], L


def _echelon_bareiss(m):
    """Fraction-free row echelon form in place.

    Returns (rows, pivot_cols, sign).  Entry growth is controlled by the
    exact divisions of the Bareiss recurrence.
    """
    rows = [list(r) for r in m]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    pivot_cols = []
    sign = 1
    prev = 1
    r = 0
    for c in range(nc):
        if r >= nr:
            break
        piv = None
        for i in range(r, nr):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        pivot = rows[r][c]
        for i in range(r + 1, nr):
            ric = rows[i][c]
            for j in range(c, nc):
                rows[i][j] = (rows[i][j] * pivot - ric * rows[r][j]) // prev
        prev = pivot
        pivot_cols.append(c)
        r += 1
    return rows, pivot_cols, sign


def determinant(rows) -> Fraction:
    """Exact determinant of a square matrix of Fractions/ints."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant requires a square matrix")
    if n == 0:
        return Fraction(1)
    m, L = _to_int_matrix(rows)
    ech, pivots, sign = _echelon_bareiss(m)
    if len(pivots) < n:
        return Fraction(0)
    # after full Bareiss elimination the last pivot is det(M_int)
    det_int = sign * ech[n - 1][pivots[n - 1]]
    return Fraction(det_int, L ** n)


def rank(rows) -> int:
    """Exact rank of a matrix of Fractions/ints."""
    if not rows:
        return 0
    m, _ = _to_int_matrix(rows)
    _, pivots, _ = _echelon_bareiss(m)
    return len(pivots)


def kernel_basis(rows) -> list[tuple[int, ...]]:
    """Primitive integer basis of the right null space.

    One basis vector per free column, in column order, with the free
    coordinate positive; pivot coordinates come from exact back
    substitution on the fraction-free echelon form.
    """
    if not rows:
        return []
    nc = len(rows[0])
    m, _ = _to_int_matrix(rows)
    ech, pivots, _ = _echelon_bareiss(m)
    pivot_set = set(pivots)
    free_cols = [c for c in range(nc) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        x = [Fraction(0)] * nc
        x[fc] = Fraction(1)
        for r in range(len(pivots) - 1, -1, -1):
            c = pivots[r]
            s = Fraction(0)
            for j in range(c + 1, nc):
                if x[j]:
                    s += Fraction(ech[r][j]) * x[j]
            x[c] = -s / ech[r][c]
        den = lcm(*[v.denominator for v in x]) if nc else 1
        ints = [int(v * den) for v in x]
        g = 0
        for v in ints:
            g = gcd(g, v)
        if g > 1:
            ints = [v // g for v in ints]
        lead = next((v for v in ints if v != 0), 1)
        if lead < 0:
            ints = [-v for v in ints]
        basis.append(tuple(ints))
    return basis
