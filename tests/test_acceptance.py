"""End-to-end acceptance checks, one per criterion, each printing a
single PASS/FAIL line (run with -s to watch them stream).

Everything is exact rational/finite-field arithmetic; "matches" always
means equality of Fractions or field elements, never approximation.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from doubling_oracle import doubling_limit
from legendre_mw.curve import IsogenyChain
from legendre_mw.exact_linalg import determinant, kernel_basis, rank
from legendre_mw.gf import build_field
from legendre_mw.heights import (
    canonical_height,
    combination,
    expected_gram,
    gram_matrix,
    is_torsion_point,
)
from legendre_mw.invariants import (
    bsd_report,
    frobenius_orbits,
    index_bound,
    integrality_check,
    rank_formula,
    regulator_coefficient,
)
from legendre_mw.legendre import (
    admissible_b_values,
    make_family,
    matching_index,
    point_P,
    point_R,
    torsion_points,
)

CASES = [(3, 1), (5, 1), (7, 1), (3, 2)]    # d = 4, 6, 8, 10


@contextmanager
def _criterion(n, desc):
    try:
        yield
    except BaseException:
        print("FAIL  criterion %2d: %s" % (n, desc))
        raise
    print("PASS  criterion %2d: %s" % (n, desc))


@pytest.fixture(scope="module")
def d10_gram():
    """Full 10x10 Gram matrix for (p, f) = (3, 2), shared by several
    criteria; the fixture records the wall-clock cost of the one big
    computation."""
    fam = make_family(3, 2)
    pts = [point_P(fam, i) for i in range(fam.d)]
    start = time.monotonic()
    g = gram_matrix(pts)
    elapsed = time.monotonic() - start
    return fam, pts, g, elapsed


def test_criterion_01_small_gram_matrices():
    with _criterion(1, "full Gram matrices for d = 4, 6, 8 match the "
                       "closed form, each within 60 s"):
        for p, f in CASES[:3]:
            fam = make_family(p, f)
            pts = [point_P(fam, i) for i in range(fam.d)]
            start = time.monotonic()
            g = gram_matrix(pts)
            elapsed = time.monotonic() - start
            assert g == expected_gram(fam.d, range(fam.d))
            assert elapsed < 60.0


def test_criterion_02_d10_gram_matrix(d10_gram):
    with _criterion(2, "full 10x10 Gram matrix for (3, 2) is exact "
                       "(18/5 diagonal, -9/10 even, 0 odd) within 600 s"):
        fam, _, g, elapsed = d10_gram
        assert fam.d == 10
        for i in range(10):
            for j in range(10):
                if i == j:
                    assert g[i][j] == Fraction(18, 5)
                elif (i - j) % 2 == 0:
                    assert g[i][j] == Fraction(-9, 10)
                else:
                    assert g[i][j] == 0
        assert elapsed < 600.0


def test_criterion_03_lattice_determinants(d10_gram):
    with _criterion(3, "det Gram(P_0..P_{d-3}) = 9/16, 625/144, "
                       "117649/1024, 43046721/6400"):
        expected = {4: Fraction(9, 16), 6: Fraction(625, 144),
                    8: Fraction(117649, 1024), 10: Fraction(43046721, 6400)}
        for p, f in CASES[:3]:
            fam = make_family(p, f)
            pts = [point_P(fam, i) for i in range(fam.d - 2)]
            det = determinant(gram_matrix(pts))
            assert det == expected[fam.d] == regulator_coefficient(fam.d, 1)
        _, _, g, _ = d10_gram
        det = determinant([row[:8] for row in g[:8]])
        assert det == expected[10] == regulator_coefficient(10, 1)


def test_criterion_04_kernel_sums_are_torsion(d10_gram):
    with _criterion(4, "sum of even-index points and sum of odd-index "
                       "points are torsion (verified by the group law)"):
        for p, f in CASES:
            fam = make_family(p, f)
            pts = [point_P(fam, i) for i in range(fam.d)]
            even = tuple(1 - i % 2 for i in range(fam.d))
            odd = tuple(i % 2 for i in range(fam.d))
            for coeffs in (even, odd):
                assert is_torsion_point(combination(pts, coeffs))
        # and those two vectors span the Gram kernel
        _, _, g, _ = d10_gram
        span = {tuple(v) for v in kernel_basis(g)}
        assert span == {tuple(1 - i % 2 for i in range(10)),
                        tuple(i % 2 for i in range(10))}


def test_criterion_05_torsion_section():
    with _criterion(5, "torsion is Z/2 x Z/4: full 8x8 closure and the "
                       "relations 2T = Q0, T + Q1 = T', T + Qt = -T'"):
        for p, f in CASES[:3]:
            fam = make_family(p, f)
            tor = torsion_points(fam)
            pts = list(tor.values())
            assert len(pts) == 8
            for A in pts:
                for B in pts:
                    assert (A + B) in pts
            orders = sorted(min(n for n in (1, 2, 4)
                                if fam.curve.smul(n, P).is_infinity)
                            for P in pts)
            assert orders == [1, 2, 2, 2, 4, 4, 4, 4]
            assert tor["T"] + tor["T"] == tor["Q0"]
            assert tor["T"] + tor["Q1"] == tor["T'"]
            assert tor["T"] + tor["Qt"] == tor["-T'"]


def test_criterion_06_descended_rb_points():
    with _criterion(6, "R_b points: closed form = P_i + P_{-i}, fixed by "
                       "Frobenius, Gram rank (p-1)/2 with P_0, P_{d/2}"):
        for p in (5, 7):
            fam = make_family(p)
            rpts = []
            for b in admissible_b_values(fam):
                R = point_R(fam, b)
                i = matching_index(fam, b)
                S = point_P(fam, i) + point_P(fam, -i)
                assert R.x == S.x and (R == S or R == -S)
                assert R.x.frobenius() == R.x
                assert R.y.frobenius() == R.y
                assert not is_torsion_point(R)
                rpts.append(R)
            spanning = rpts + [point_P(fam, 0), point_P(fam, fam.d // 2)]
            assert rank(gram_matrix(spanning)) == (p - 1) // 2
        # p = 3: the lone R_0 degenerates to a torsion point
        fam3 = make_family(3)
        R0 = point_R(fam3, fam3.ctx.elem(0))
        assert is_torsion_point(R0)


def test_criterion_07_rank_formula():
    with _criterion(7, "rank formula: d - 2 at q = p^{2f}, plus the "
                       "smaller descended ranks, cross-checked on a Gram"):
        for p, f in CASES:
            d = p ** f + 1
            assert rank_formula(d, p ** (2 * f)) == d - 2
        assert rank_formula(4, 3) == 1
        assert rank_formula(10, 3) == 2
        # Frobenius-orbit sums over F_3(u) for d = 4 realize rank 1
        fam = make_family(3)
        pts = [point_P(fam, i) for i in range(4)]
        orbit_pts = [combination(pts, [int(i in o) for i in range(4)])
                     for o in frobenius_orbits(4, 3)]
        g = gram_matrix([P for P in orbit_pts if not is_torsion_point(P)])
        assert rank(g) == rank_formula(4, 3)


def test_criterion_08_bsd_identity():
    with _criterion(8, "BSD ratio is exactly 1 across the (p, f, q, m) "
                       "grid; index bounds 3, 25, 343, 6561"):
        bounds = []
        for p, f in CASES:
            base = p ** (2 * f)
            for q in (base, base ** 2):
                for m in (1, p):
                    rep = bsd_report(p, f, q, m)
                    assert rep["bsd_ratio"] == 1 and rep["passes"]
                    assert integrality_check(rep["d"], m)
            bounds.append(index_bound(p, f))
        assert bounds == [3, 25, 343, 6561]


def test_criterion_09_isogeny_chain():
    with _criterion(9, "2-isogeny chain hits both displayed models and "
                       "maps 20 random points homomorphically to the "
                       "Legendre curve"):
        fam = make_family(3)
        chain = IsogenyChain(fam.t)
        assert chain.mid == chain.expected_mid()
        assert chain.quotient == chain.expected_quotient()
        assert chain.legendre == fam.curve
        rng = random.Random(2718)
        pts = [point_P(fam, i) for i in range(4)]
        tor = list(torsion_points(fam).values())
        sources = []
        while len(sources) < 20:
            R = rng.choice(tor)
            for _ in range(rng.randrange(1, 3)):
                R = R + rng.choice(pts)
            sources.append(chain.backward(R))
        images = []
        for P in sources:
            img = chain.forward(P)
            assert img.is_infinity or chain.legendre.on_curve(img)
            images.append(img)
        for P, Q in zip(sources, sources[1:]):
            assert chain.forward(P + Q) == chain.forward(P) + chain.forward(Q)
        # round trip through the dual is multiplication by 2
        for R in images[:6]:
            assert chain.forward(chain.backward(R)) == R + R


def test_criterion_10_property_suites():
    with _criterion(10, "property suites: exhaustive field axioms "
                        "(q <= 121), 100 group-law triples, 20 height "
                        "quadraticity samples, stabilization depth <= 6"):
        # (a) exhaustive field axioms for the largest supported fields
        for p, k in ((11, 2), (3, 4)):
            ctx = build_field(p, k)
            q = ctx.order
            els = list(ctx.elements())
            add = np.zeros((q, q), dtype=np.int64)
            mul = np.zeros((q, q), dtype=np.int64)
            for a in els:
                for b in els:
                    add[a.code(), b.code()] = (a + b).code()
                    mul[a.code(), b.code()] = (a * b).code()
            i, j = np.meshgrid(np.arange(q), np.arange(q), indexing="ij")
            for t in range(q):
                assert np.array_equal(add[add[i, j], t], add[i, add[j, t]])
                assert np.array_equal(mul[mul[i, j], t], mul[i, mul[j, t]])
                assert np.array_equal(mul[add[i, j], t],
                                      add[mul[i, t], mul[j, t]])

        # (b) 100 random group-law associativity triples
        fam = make_family(3)
        rng = random.Random(31415)
        pts = [point_P(fam, i) for i in range(4)]
        tor = list(torsion_points(fam).values())
        pool = [rng.choice(tor) + rng.choice(pts) for _ in range(20)] + pts
        for _ in range(100):
            P, Q, R = (rng.choice(pool) for _ in range(3))
            assert (P + Q) + R == P + (Q + R)
            assert P + Q == Q + P

        # (c) 20 parallelogram-law samples (quadraticity of the height)
        for _ in range(20):
            P = rng.choice(pool)
            Q = rng.choice(pts)
            lhs = canonical_height(P + Q) + canonical_height(P - Q)
            assert lhs == 2 * canonical_height(P) + 2 * canonical_height(Q)

        # (d) the doubling limit stabilizes within 6 doublings and agrees
        # with the local height; sample the levels across all four families
        for p, f in CASES:
            famx = make_family(p, f)
            idxs = range(famx.d) if famx.d <= 8 else (0, 1, 5)
            for i in idxs:
                h, level = doubling_limit(point_P(famx, i))
                assert level <= 6
                assert h == canonical_height(point_P(famx, i))
        S = pts[0] + pts[1] + tor[4]
        h, level = doubling_limit(S)
        assert level <= 6
        assert h == canonical_height(S)
