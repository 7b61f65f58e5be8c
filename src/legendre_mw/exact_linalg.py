"""Exact linear algebra over the rationals via fraction-free elimination.

Matrices of Fractions are scaled to integers, reduced with Bareiss-style
(fraction-free) elimination, and kernels are back-substituted into
primitive integer vectors.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _eliminate(rows):
    """Scale a matrix of Fractions/ints to integers, M = L * rows with L
    the lcm of the denominators, and bring M to row echelon form by
    Bareiss (fraction-free) elimination, whose exact divisions keep the
    entries small.

    Returns (echelon rows, pivot columns, sign of the row swaps, L).
    """
    if len({len(row) for row in rows}) > 1:
        raise ValueError("rows must have equal length")
    fr = [[Fraction(x) for x in row] for row in rows]
    L = lcm(*(x.denominator for row in fr for x in row))
    m = [[x.numerator * (L // x.denominator) for x in row] for row in fr]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    pivot_cols = []
    sign = 1
    prev = 1
    r = 0
    for c in range(nc):
        if r >= nr:
            break
        piv = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        pivot = m[r][c]
        for i in range(r + 1, nr):
            ric = m[i][c]
            for j in range(c, nc):
                m[i][j] = (m[i][j] * pivot - ric * m[r][j]) // prev
        prev = pivot
        pivot_cols.append(c)
        r += 1
    return m, pivot_cols, sign, L


def determinant(rows) -> Fraction:
    """Exact determinant of a square matrix of Fractions/ints."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant requires a square matrix")
    if n == 0:
        return Fraction(1)
    ech, pivots, sign, L = _eliminate(rows)
    if len(pivots) < n:
        return Fraction(0)
    # after full Bareiss elimination the last pivot is det(L * rows)
    return Fraction(sign * ech[n - 1][n - 1], L ** n)


def rank(rows) -> int:
    """Exact rank of a matrix of Fractions/ints."""
    return len(_eliminate(rows)[1])


def kernel_basis(rows) -> list[tuple[int, ...]]:
    """Primitive integer basis of the right null space.

    One basis vector per free column, in column order, with the free
    coordinate positive; pivot coordinates come from exact back
    substitution on the fraction-free echelon form.
    """
    if not rows:
        return []
    nc = len(rows[0])
    ech, pivots, _, _ = _eliminate(rows)
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
