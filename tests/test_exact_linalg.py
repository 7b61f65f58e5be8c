import random
from fractions import Fraction

import pytest

from legendre_mw.exact_linalg import determinant, kernel_basis, rank


def _laplace_det(m):
    n = len(m)
    if n == 1:
        return Fraction(m[0][0])
    total = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * Fraction(m[0][j]) * _laplace_det(minor)
    return total


def _rand_matrix(rng, n, rational=True):
    def entry():
        if rational:
            return Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
        return rng.randrange(-9, 10)
    return [[entry() for _ in range(n)] for _ in range(n)]


def test_determinant_matches_cofactor_expansion():
    rng = random.Random(2024)
    for n in (1, 2, 3, 4, 5):
        for _ in range(8):
            m = _rand_matrix(rng, n)
            assert determinant(m) == _laplace_det(m)


def test_determinant_known_values():
    assert determinant([[Fraction(3, 4)]]) == Fraction(3, 4)
    # 3x3 Hilbert matrix
    hilbert = [[Fraction(1, i + j + 1) for j in range(3)] for i in range(3)]
    assert determinant(hilbert) == Fraction(1, 2160)
    assert determinant([[1, 2], [2, 4]]) == 0


def test_determinant_multilinear_in_rows():
    rng = random.Random(11)
    m = _rand_matrix(rng, 4)
    doubled = [m[0]] + [[2 * x for x in m[1]]] + m[2:]
    assert determinant(doubled) == 2 * determinant(m)
    swapped = [m[1], m[0]] + m[2:]
    assert determinant(swapped) == -determinant(m)


def test_rank():
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[Fraction(1, 2), 0, 1], [0, 1, 1]]) == 2
    rng = random.Random(5)
    for _ in range(10):
        m = _rand_matrix(rng, 4)
        d = determinant(m)
        r = rank(m)
        assert (r == 4) == (d != 0)
        # appending a linear combination of rows never raises the rank
        combo = [sum(m[i][j] for i in range(4)) for j in range(4)]
        assert rank(m + [combo]) == r


def test_kernel_vectors_annihilate():
    rng = random.Random(17)
    for _ in range(12):
        m = _rand_matrix(rng, 4)
        # force a dependency
        m[3] = [m[0][j] + 2 * m[1][j] for j in range(4)]
        ker = kernel_basis(m)
        assert len(ker) == 4 - rank(m)
        for v in ker:
            assert all(isinstance(x, int) for x in v)
            for row in m:
                assert sum(Fraction(row[j]) * v[j] for j in range(4)) == 0


def test_kernel_of_parity_gram():
    # the even/odd indicator relations of the d=4 pairing matrix
    d = 4
    g = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            if i == j:
                g[i][j] = Fraction((d - 1) * (d - 2), 2 * d)
            elif (i - j) % 2 == 0:
                g[i][j] = Fraction(1 - d, d)
    ker = kernel_basis(g)
    assert len(ker) == 2
    span = {tuple(v) for v in ker}
    assert (1, 0, 1, 0) in span and (0, 1, 0, 1) in span


def test_ragged_rows_are_refused():
    # a ragged matrix is an error, not read by the length of its first row
    with pytest.raises(ValueError, match="equal length"):
        rank([[1], [0, 1]])
    with pytest.raises(ValueError, match="equal length"):
        kernel_basis([[1, 0], [0]])


def test_kernel_primitive():
    ker = kernel_basis([[2, 4, 6]])
    for v in ker:
        from math import gcd
        assert gcd(gcd(abs(v[0]), abs(v[1])), abs(v[2])) == 1


def _low_rank_matrix(rng, rows, cols, r):
    """rows x cols rational matrix of rank <= r: a product of random
    rows x r and r x cols factors."""
    a = [[Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(r)]
         for _ in range(rows)]
    b = [[Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(cols)]
         for _ in range(r)]
    return [[sum(a[i][k] * b[k][j] for k in range(r)) for j in range(cols)]
            for i in range(rows)]


def test_linalg_matches_sympy_matrix():
    # determinant, rank and kernel span against sympy.Matrix over QQ, on
    # square, wide and tall matrices of full and deficient rank
    sympy = pytest.importorskip("sympy")
    rng = random.Random(77)
    for _ in range(60):
        rows = rng.randrange(1, 7)
        cols = rows if rng.random() < 0.5 else rng.randrange(1, 7)
        m = _low_rank_matrix(rng, rows, cols, rng.randrange(0, min(rows, cols) + 1))
        ref = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                            for row in m])
        if rows == cols:
            det = ref.det(method="bareiss")
            assert determinant(m) == Fraction(int(det.p), int(det.q))
        assert rank(m) == ref.rank()
        ker = kernel_basis(m)
        want = ref.nullspace()
        assert len(ker) == len(want)
        if ker:
            # equal spans: the same reduced row echelon form
            ours = sympy.Matrix([list(v) for v in ker]).rref()[0]
            theirs = sympy.Matrix.hstack(*want).T.rref()[0]
            assert ours == theirs
