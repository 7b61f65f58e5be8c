import random

import pytest

from legendre_mw.legendre import (
    admissible_b_values,
    make_family,
    matching_index,
    point_P,
    point_R,
    substitute_zeta_u,
    torsion_points,
    trace_point,
)
from legendre_mw.heights import combination, is_torsion_point
from legendre_mw.invariants import frobenius_orbits
from legendre_mw.ratfunc import Poly, RatFunc


@pytest.mark.parametrize("p,f", [(3, 1), (5, 1), (7, 1), (3, 2), (3, 0), (5, 0)])
def test_family_shape(p, f):
    fam = make_family(p, f)
    assert fam.d == p ** f + 1
    assert fam.t == RatFunc.variable(fam.ctx) ** fam.d
    if f == 0:
        assert fam.ctx.order == p
    else:
        assert fam.ctx.order == p ** (2 * f)
        assert fam.zeta.multiplicative_order() == fam.d


def test_make_family_rejects():
    with pytest.raises(ValueError):
        make_family(4)
    with pytest.raises(ValueError):
        make_family(2)
    with pytest.raises(ValueError):
        make_family(3, -1)


@pytest.mark.parametrize("p,f", [(3, 1), (5, 1), (3, 2)])
def test_points_on_curve(p, f):
    fam = make_family(p, f)
    for i in range(fam.d):
        P = point_P(fam, i)
        assert fam.curve.on_curve(P)
        assert P.x == fam.zeta ** i * fam.u
    assert point_P(fam, fam.d) == point_P(fam, 0)


def test_torsion_group_structure():
    fam = make_family(3)
    tor = torsion_points(fam)
    assert len(tor) == 8
    pts = list(tor.values())
    # closure: an 8x8 addition table lands inside the set
    for A in pts:
        for B in pts:
            assert (A + B) in pts
    # Z/2 x Z/4: four elements killed by 2, all killed by 4
    killed2 = [P for P in pts if (P + P).is_infinity]
    assert len(killed2) == 4
    for P in pts:
        assert fam.curve.smul(4, P).is_infinity


def test_torsion_relations():
    # 2T = Q0, T + Q1 = T', T + Qt = -T'
    fam = make_family(5)
    tor = torsion_points(fam)
    assert tor["T"] + tor["T"] == tor["Q0"]
    assert tor["T"] + tor["Q1"] == tor["T'"]
    assert tor["T"] + tor["Qt"] == tor["-T'"]


@pytest.mark.parametrize("p,f", [(3, 1), (3, 0)])
def test_is_torsion_agrees_with_multiplication_by_8(p, f):
    fam = make_family(p, f)
    rng = random.Random(61)
    tor = list(torsion_points(fam).values())
    frees = [point_P(fam, i) for i in range(fam.d)]
    samples = tor + [F + T for F in frees[:2] for T in tor[:3]] + frees
    for P in samples:
        assert is_torsion_point(P) == fam.curve.smul(8, P).is_infinity


def test_galois_substitution_permutes_points():
    # u -> zeta u sends P_i to P_{i+1}
    fam = make_family(3)
    for i in range(fam.d):
        assert substitute_zeta_u(fam, point_P(fam, i)) == point_P(fam, i + 1)
    # and fixes the torsion section T up to the same substitution rule
    tor = torsion_points(fam)
    img = substitute_zeta_u(fam, tor["T"])
    assert fam.curve.on_curve(img)


def test_trace_point():
    fam = make_family(3, 2)   # d = 10, Frobenius multiplies indices by 3
    pts = [point_P(fam, i) for i in range(fam.d)]
    assert trace_point(fam, pts, 1) == pts[1] + pts[3]
    assert trace_point(fam, pts, 11) == pts[1] + pts[3]
    with pytest.raises(ValueError):
        trace_point(make_family(3, 0), [], 1)


def test_frobenius_orbit_sum():
    fam = make_family(3)
    pts = [point_P(fam, i) for i in range(4)]
    # q = 3 acts on Z/4 with orbits {0}, {1,3}, {2}
    orbits = frobenius_orbits(4, 3)
    assert orbits == [[0], [1, 3], [2]]
    sums = [combination(pts, [int(i in o) for i in range(4)]) for o in orbits]
    assert sums == [pts[0], pts[1] + pts[3], pts[2]]
    # each orbit sum is defined over F_3(u)
    for S in sums:
        assert S.x.frobenius() == S.x and S.y.frobenius() == S.y


@pytest.mark.parametrize("p,codes", [(3, [0]), (5, [1, 4]), (7, [0, 3, 4])])
def test_admissible_b_values(p, codes):
    fam = make_family(p)
    assert [b.code() for b in admissible_b_values(fam)] == codes


def test_point_R_oracles():
    fam = make_family(5)
    b = admissible_b_values(fam)[0]
    R = point_R(fam, b)
    u = Poly.variable(fam.ctx)
    assert R.x == RatFunc.from_poly(4 * u ** 4 + 3 * u ** 3 + 4 * u ** 2)
    assert fam.curve.on_curve(R)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_point_R_closed_form_matches_group_law(p):
    fam = make_family(p)
    for b in admissible_b_values(fam):
        R = point_R(fam, b)
        i = matching_index(fam, b)
        assert (fam.zeta ** i + fam.zeta ** (-i)) == b
        S = point_P(fam, i) + point_P(fam, -i)
        # the closed form pins x; y is a square root, fixed only up to sign
        assert R.x == S.x
        assert R == S or R == -S
        # coordinates descend to the prime subfield: Frobenius fixes them
        assert R.x.frobenius() == R.x
        assert R.y.frobenius() == R.y


def test_point_R_rejects_bad_b():
    fam = make_family(5)
    for c in (0, 2, 3):   # b^2 - 4 is a square (or zero) in F_5
        with pytest.raises(ValueError):
            point_R(fam, fam.ctx.elem(c))


def test_point_R_torsion_edge_case():
    # p = 3: the only admissible b gives x = u^2, a torsion point
    fam = make_family(3)
    R = point_R(fam, fam.ctx.elem(0))
    u = Poly.variable(fam.ctx)
    assert R.x == RatFunc.from_poly(u * u)
    assert is_torsion_point(R)
