import random
from fractions import Fraction

import pytest

from doubling_oracle import _div_unit, _mod_unit, doubling_limit, height_sequence
from legendre_mw.curve import legendre_form_curve, two_torsion
from legendre_mw.exact_linalg import determinant, kernel_basis, rank
from legendre_mw.gf import build_field
from legendre_mw.heights import (
    canonical_height,
    combination,
    expected_gram,
    gram_matrix,
    is_torsion_point,
    point_order,
)
from legendre_mw.invariants import regulator_coefficient
from legendre_mw.legendre import (admissible_b_values, make_family, point_P,
                                  point_R, torsion_points)
from legendre_mw.ratfunc import Poly, RatFunc

FAM4 = make_family(3)
FAM6 = make_family(5)


def _theoretical_height(d):
    return Fraction((d - 1) * (d - 2), 2 * d)


def test_height_sequence_doubles():
    # deg x(2^n P_0) for d = 4: quadruples once the quasi-parallelogram
    # defect is exhausted
    assert height_sequence(point_P(FAM4, 0), 4) == [1, 4, 12, 48, 192]


def _prime_field_points(p):
    """P = (u, u (u + 1)^(d/2)) on the F_p(u) model with d = p + 1, its
    double, the 4-torsion point T = (u^(d/2), .) and the 2-torsion."""
    ctx = build_field(p, 1)
    d = p + 1
    u = RatFunc.variable(ctx)
    curve = legendre_form_curve(u ** d)
    P = curve.point(u, u * (u + 1) ** (d // 2))
    s = u ** (d // 2)
    T = curve.point(s, s * (s + 1))
    return [curve.infinity(), P, P + P, T, -T, T + T, P + T, P - T] + list(two_torsion(curve))


def _order_cases(case):
    fams = (FAM4, FAM6)
    if case == "P_i":
        return [point_P(fam, i) for fam in fams for i in range(fam.d)]
    if case == "torsion":
        return [T for fam in fams for T in torsion_points(fam).values()]
    if case == "R_b":
        return [point_R(fam, b) for fam in fams for b in admissible_b_values(fam)]
    if case == "P_i+-T":
        return [P + s * T for fam in fams for P in (point_P(fam, 0), point_P(fam, 1))
                for T in torsion_points(fam).values() for s in (1, -1)]
    if case == "kernel":
        out = []
        for fam in fams:
            pts = [point_P(fam, i) for i in range(fam.d)]
            out += [combination(pts, v) for v in kernel_basis(gram_matrix(pts))]
        return out
    return _prime_field_points(int(case[2:]))


@pytest.mark.parametrize("case", ["P_i", "torsion", "R_b", "P_i+-T", "kernel",
                                  "Fp3", "Fp5", "Fp7"])
def test_point_order_matches_group_law(case):
    # the duplication-formula order against the least n in {1, 2, 4}
    # with nP = O, and against 2^n for the length n < 3 of the oracle's
    # doubling sequence (0 when it runs on)
    for P in _order_cases(case):
        want = next((n for n in (1, 2, 4) if P.curve.smul(n, P).is_infinity), 0)
        n = len(height_sequence(P, 2))
        assert point_order(P) == want == (2 ** n if n < 3 else 0)


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
            assert gram_matrix([pts[i], pts[j]])[0][1] == expect
            assert gram_matrix([pts[j], pts[i]])[0][1] == expect


def test_pairing_of_point_with_itself_is_height():
    P = point_P(FAM6, 2)
    assert gram_matrix([P, P])[0][1] == canonical_height(P)


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
    for P in [point_P(FAM4, i) for i in range(FAM4.d)] + [point_P(FAM6, 0)]:
        h, level = doubling_limit(P)
        assert level <= 6
        assert h == canonical_height(P)


def _seeded_sums(fam, count, seed):
    """P_i +- P_j + T for seeded indices and torsion points T."""
    rng = random.Random(seed)
    pts = [point_P(fam, i) for i in range(fam.d)]
    tor = list(torsion_points(fam).values())
    sums = []
    for _ in range(count):
        P = rng.choice(pts) + rng.choice(tor)
        Q = rng.choice(pts)
        sums.append(P + Q if rng.random() < 0.5 else P - Q)
    return sums


@pytest.mark.parametrize("p,f", [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1)],
                         ids=["d4", "d6", "d8", "d10", "d12"])
def test_local_height_matches_doubling_limit(p, f):
    # the local formula against the doubling limit of the x-coordinate:
    # every P_i, torsion point, R_b and seeded sums; at d = 12 an oracle
    # call takes up to a few seconds, so only eight points
    fam = make_family(p, f)
    if fam.d == 12:
        pts = [point_P(fam, i) for i in (0, 1, 6)] + _seeded_sums(fam, 3, 12)
        pts += [torsion_points(fam)["T"], point_R(fam, admissible_b_values(fam)[0])]
    else:
        pts = [point_P(fam, i) for i in range(fam.d)]
        pts += list(torsion_points(fam).values()) + _seeded_sums(fam, 6, fam.d)
        if f == 1:
            pts += [point_R(fam, b) for b in admissible_b_values(fam)]
    for P in pts:
        limit = doubling_limit(P)
        assert limit is not None and canonical_height(P) == limit[0]


def test_height_rejects_p_dividing_d():
    # u^6 - 1 = (u^2 - 1)^3 over F_3, so the fibres at its roots are not
    # I_2; and the local formula needs an even d, as d = p^f + 1 is
    for p, k, d in ((3, 1, 6), (5, 2, 3)):
        curve = legendre_form_curve(RatFunc.variable(build_field(p, k)) ** d)
        for P in two_torsion(curve) + (curve.infinity(),):
            with pytest.raises(ValueError):
                canonical_height(P)


def test_gram_matrix_matches_theory():
    pts = [point_P(FAM4, i) for i in range(4)]
    g = gram_matrix(pts)
    assert g == expected_gram(4, range(4))
    assert g[0][2] == g[2][0] == gram_matrix([pts[0], pts[2]])[0][1]
    assert rank(g) == 2
    assert determinant(g) == 0
    span = {tuple(v) for v in kernel_basis(g)}
    assert span == {(1, 0, 1, 0), (0, 1, 0, 1)}


def test_gram_kernel_relations_are_torsion():
    pts = [point_P(FAM4, i) for i in range(4)]
    for v in kernel_basis(gram_matrix(pts)):
        assert is_torsion_point(combination(pts, v))
    assert not is_torsion_point(combination(pts, (1, 0, 0, 0)))


def test_combination_refuses_bad_coefficients():
    # extra coefficients are not dropped, nor 1/2 or 1.9 truncated
    pts = [point_P(FAM4, i) for i in range(2)]
    for coeffs in ((1,), (1, 0, 1), (1, Fraction(1, 2)), (1.9, 0)):
        with pytest.raises(ValueError):
            combination(pts, coeffs)


def test_basis_determinants():
    # P_0 .. P_{d-3} generate a finite-index sublattice with known det
    # (the regulator coefficient at index m = 1)
    assert regulator_coefficient(4, 1) == Fraction(9, 16)
    assert regulator_coefficient(6, 1) == Fraction(625, 144)
    assert regulator_coefficient(8, 1) == Fraction(117649, 1024)
    assert regulator_coefficient(10, 1) == Fraction(43046721, 6400)
    for fam in (FAM4, FAM6):
        pts = [point_P(fam, i) for i in range(fam.d - 2)]
        assert determinant(gram_matrix(pts)) == regulator_coefficient(fam.d, 1)


@pytest.mark.parametrize("d", [4, 5, 12])
def test_unit_root_reduction_matches_long_division(d):
    # the blockwise mod and exact division by u^d - 1 used by the
    # doubling map, against Poly long division
    rng = random.Random(d)
    ctx = FAM4.ctx
    unit = Poly.monomial(ctx, d) - 1
    for deg in (0, d - 1, d, 3 * d + 2, 50):
        F = Poly.from_elems(ctx, [ctx.from_code(rng.randrange(9)) for _ in range(deg)] + [1])
        assert _mod_unit(F, d) == F % unit
        assert _div_unit(F * unit, d) == F
        if not (F % unit).is_zero():
            with pytest.raises(ArithmeticError):
                _div_unit(F * Poly.monomial(ctx, d), d)


def test_heights_in_prime_field_family():
    # f = 0 family (no extension): d = p + 1 still applies
    fam = make_family(3, 0)
    assert canonical_height(point_P(fam, 0)) == _theoretical_height(fam.d)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_heights_over_prime_field_use_euclid_stripper(p):
    # over F_p, d = p + 1 does not divide p - 1, so u^d - 1 does not split
    # and the roots of u^d = 1 lie in extensions of the coefficient field;
    # P = (u, u (u + 1)^(d/2)), its multiples and torsion translates
    # against the doubling limit
    ctx = build_field(p, 1)
    d = p + 1
    u = RatFunc.variable(ctx)
    curve = legendre_form_curve(u ** d)
    P = curve.point(u, u * (u + 1) ** (d // 2))
    assert canonical_height(P) == _theoretical_height(d)
    s = u ** (d // 2)
    T = curve.point(s, s * (s + 1))
    for Q in (P, P + P, P + P + P, P + T, P - T, T) + two_torsion(curve):
        assert canonical_height(Q) == doubling_limit(Q)[0]
