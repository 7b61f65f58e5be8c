import random
from fractions import Fraction

import pytest

from legendre_mw.curve import legendre_form_curve
from legendre_mw.gf import build_field
from legendre_mw.heights import (
    DEFAULT_MAX_DOUBLINGS,
    HeightError,
    _EuclidStripper,
    _get_stripper,
    _SupportStripper,
    canonical_height,
    combination,
    expected_gram,
    expected_lattice_det,
    gram_matrix,
    height_sequence,
    is_torsion_point,
    naive_height,
    pairing,
    relation_is_torsion,
)
from legendre_mw.legendre import make_family, point_P, torsion_points
from legendre_mw.ratfunc import RatFunc

FAM4 = make_family(3)
FAM6 = make_family(5)


def _theoretical_height(d):
    return Fraction((d - 1) * (d - 2), 2 * d)


def test_naive_height():
    P = point_P(FAM4, 0)
    assert naive_height(P) == 1
    assert naive_height(P + P) == 4
    with pytest.raises(ValueError):
        naive_height(FAM4.curve.infinity())


def test_height_sequence_doubles():
    # deg x(2^n P_0) for d = 4: quadruples once the quasi-parallelogram
    # defect is exhausted
    assert height_sequence(point_P(FAM4, 0), 4) == [1, 4, 12, 48, 192]


@pytest.mark.parametrize("fam", [FAM4, FAM6], ids=["d4", "d6"])
def test_heights_of_generators(fam):
    expect = _theoretical_height(fam.d)
    for i in range(fam.d):
        assert canonical_height(point_P(fam, i)) == expect


def test_heights_of_torsion_vanish():
    for P in torsion_points(FAM4).values():
        assert canonical_height(P) == 0
        assert is_torsion_point(P)


def test_pairing_parity_pattern():
    d = FAM4.d
    pts = [point_P(FAM4, i) for i in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            expect = Fraction(1 - d, d) if (i - j) % 2 == 0 else Fraction(0)
            assert pairing(pts[i], pts[j]) == expect
            assert pairing(pts[j], pts[i]) == expect


def test_pairing_of_point_with_itself_is_height():
    P = point_P(FAM6, 2)
    assert pairing(P, P) == canonical_height(P)


def test_quadraticity_and_parallelogram_law():
    # >= 20 seeded samples of h(P+Q) + h(P-Q) == 2h(P) + 2h(Q),
    # plus h(nP) == n^2 h(P)
    rng = random.Random(909)
    pts = [point_P(FAM4, i) for i in range(4)]
    tor = list(torsion_points(FAM4).values())
    samples = 0
    while samples < 20:
        P = rng.choice(pts) + rng.choice(tor)
        Q = rng.choice(pts)
        if rng.random() < 0.4:
            Q = Q + rng.choice(pts)
        lhs = canonical_height(P + Q) + canonical_height(P - Q)
        rhs = 2 * canonical_height(P) + 2 * canonical_height(Q)
        assert lhs == rhs
        samples += 1
    P = point_P(FAM4, 1)
    h = canonical_height(P)
    for n in (2, 3):
        assert canonical_height(FAM4.curve.smul(n, P)) == n * n * h


def test_height_is_invariant_under_torsion_translation():
    P = point_P(FAM4, 0)
    h = canonical_height(P)
    for T in torsion_points(FAM4).values():
        assert canonical_height(P + T) == h


def test_stabilization_level_small():
    for i in range(FAM4.d):
        h, level = canonical_height(point_P(FAM4, i), with_level=True)
        assert level <= DEFAULT_MAX_DOUBLINGS
        assert level <= 6
    _, level = canonical_height(point_P(FAM6, 0), with_level=True)
    assert level <= 6


def test_height_error_when_cap_too_small():
    with pytest.raises(HeightError):
        canonical_height(point_P(FAM4, 0), max_doublings=2)


def test_gram_matrix_matches_theory():
    pts = [point_P(FAM4, i) for i in range(4)]
    g = gram_matrix(pts)
    assert g.entries == expected_gram(4, range(4)).entries
    assert g.rank() == 2
    assert g.det() == 0
    span = {tuple(v) for v in g.kernel()}
    assert span == {(1, 0, 1, 0), (0, 1, 0, 1)}


def test_gram_kernel_relations_are_torsion():
    pts = [point_P(FAM4, i) for i in range(4)]
    g = gram_matrix(pts)
    for v in g.kernel():
        assert relation_is_torsion(pts, v)
        assert is_torsion_point(combination(pts, v))
    assert not relation_is_torsion(pts, (1, 0, 0, 0))


def test_basis_determinants():
    # P_0 .. P_{d-3} generate a finite-index sublattice with known det
    assert expected_lattice_det(4) == Fraction(9, 16)
    assert expected_lattice_det(6) == Fraction(625, 144)
    assert expected_lattice_det(8) == Fraction(117649, 1024)
    assert expected_lattice_det(10) == Fraction(43046721, 6400)
    for fam in (FAM4, FAM6):
        pts = [point_P(fam, i) for i in range(fam.d - 2)]
        assert gram_matrix(pts).det() == expected_lattice_det(fam.d)


def test_gram_submatrix_and_labels():
    pts = [point_P(FAM4, i) for i in range(3)]
    g = gram_matrix(pts, labels=["P0", "P1", "P2"])
    sub = g.submatrix([0, 2])
    assert sub.labels == ("P0", "P2")
    assert sub.entries[0][1] == pairing(pts[0], pts[2])
    obj = g.to_obj()
    assert obj["labels"] == ["P0", "P1", "P2"]
    assert obj["entries"][0][0] == "3/4"


def test_heights_in_prime_field_family():
    # f = 0 family (no extension): d = p + 1 still applies
    fam = make_family(3, 0)
    assert canonical_height(point_P(fam, 0)) == _theoretical_height(fam.d)


@pytest.mark.parametrize("p", [3, 5])
def test_heights_over_prime_field_use_euclid_stripper(p):
    # over F_p, d = p + 1 does not divide p - 1, so u^d - 1 does not split
    # and only the gcd-based stripper applies
    ctx = build_field(p, 1)
    d = p + 1
    u = RatFunc.variable(ctx)
    curve = legendre_form_curve(u ** d)
    P = curve.point(u, u * (u + 1) ** (d // 2))
    assert isinstance(_get_stripper(ctx, d), _EuclidStripper)
    assert canonical_height(P) == _theoretical_height(d)


@pytest.mark.parametrize("fam", [FAM4, FAM6], ids=["d4", "d6"])
def test_support_stripper_agrees_with_euclid_stripper(fam):
    # both strippers apply when u^d - 1 splits; they must cancel the same
    # common factor at every doubling level, torsion translates included
    tp = fam.t.num
    support = _SupportStripper(fam.ctx, fam.d)
    euclid = _EuclidStripper(fam.ctx, fam.d)
    T = torsion_points(fam)["T"]
    for P in (point_P(fam, 1), point_P(fam, 0) + T, point_P(fam, 0) + point_P(fam, 1)):
        N, D = P.x.num, P.x.den
        for _ in range(3):
            tD = tp * D
            A = N * N - tD * D
            F, G = A * A, 4 * (N * D) * ((N + D) * (N + tD))
            got, want = support.strip(F, G), euclid.strip(F, G)
            inv = got[1].lc().inv()
            N, D = got[0].scale(inv), got[1].scale(inv)
            inv = want[1].lc().inv()
            assert (N, D) == (want[0].scale(inv), want[1].scale(inv))
