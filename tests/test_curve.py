import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legendre_mw.curve import (
    CurvePoint,
    IsogenyChain,
    WeierstrassCurve,
    change_coords,
    legendre_form_curve,
    two_isogeny_quotient,
    two_torsion,
)
from legendre_mw.gf import FieldElement, build_field
from legendre_mw.isogeny import _same_j
from legendre_mw.legendre import make_family, point_P, torsion_points
from legendre_mw.ratfunc import Poly, RatFunc

FAM = make_family(3)          # d = 4 over F_9(u)


def _sample_points(params, rng, n):
    """Random small combinations of the explicit generators and torsion."""
    pts = [point_P(params, i) for i in range(params.d)]
    tor = list(torsion_points(params).values())
    out = []
    while len(out) < n:
        P = rng.choice(tor)
        for _ in range(rng.randrange(1, 3)):
            c = rng.randrange(-1, 2)
            if c:
                P = P + c * rng.choice(pts)
        out.append(P)
    return out


def test_curve_invariants():
    E = FAM.curve
    assert not E.discriminant().is_zero()
    # c4^3 - c6^2 = 1728 disc holds by construction; spot check j
    j = RatFunc(E.c4() ** 3, E.discriminant())
    assert j == RatFunc.from_poly(E.c4()) ** 3 / E.discriminant()


@pytest.mark.parametrize("p", [3, 5])
def test_c_invariant_identity_is_checked(monkeypatch, p):
    # the check in __init__ accepts the true c4, c6 (RatFunc identity as
    # the oracle; 1728 = 0 in characteristic 3) and refuses a wrong c6,
    # on the Legendre form, the chain's source and both moved by _moved
    fam = make_family(p)
    source = IsogenyChain(fam.t).source
    curves = [fam.curve, _moved(fam.curve)[0], source, _moved(source)[0]]
    for E in curves:
        assert E.c4() ** 3 - E.c6() ** 2 == E.discriminant() * 1728
    c6 = WeierstrassCurve.c6
    monkeypatch.setattr(WeierstrassCurve, "c6", lambda self: c6(self) + 1)
    for E in curves:
        with pytest.raises(ArithmeticError, match="c-invariant"):
            WeierstrassCurve(E.a1, E.a2, E.a3, E.a4, E.a6)


def test_model_holds_polys():
    # Polys, RatFuncs with denominator 1, FieldElements and ints (through
    # from_coeffs) give one model, whose a_i and invariants are Polys
    ctx, t = FAM.ctx, Poly.monomial(FAM.ctx, FAM.d)
    zero = Poly.zero(ctx)
    rt, rzero = FAM.t, RatFunc.zero(ctx)
    curves = [WeierstrassCurve(zero, 1 + t, zero, t, zero),
              WeierstrassCurve(rzero, 1 + rt, rzero, rt, rzero),
              WeierstrassCurve(ctx.zero(), 1 + t, 0, rt, 0),
              WeierstrassCurve.from_coeffs(ctx, 0, 1 + t, 0, t, 0)]
    for E in curves:
        assert E == FAM.curve
        values = (E.a1, E.a2, E.a3, E.a4, E.a6, E.c4(), E.c6(), E.discriminant())
        assert all(isinstance(v, Poly) for v in values)
    source = IsogenyChain(FAM.t).source
    tp = t * ctx.elem(16).inv()
    assert source == WeierstrassCurve.from_coeffs(ctx, 1, tp, tp, 0, 0)
    assert isinstance(source.a1, Poly) and source.a1 == Poly.one(ctx)


def test_change_coords_takes_constants_in_any_form():
    # s and w as ints, FieldElements, constant RatFuncs or constant Polys,
    # and r, t_ as Polys or RatFuncs, give one curve; the change holds
    # r, t_ as Polys and s, w as FieldElements
    ctx, E = FAM.ctx, FAM.curve
    u = Poly.variable(ctx)
    want, _ = change_coords(E, u, 1, u * u + 1, 2)
    for s, w in ((1, 2), (ctx.elem(1), ctx.elem(2)),
                 (RatFunc.constant(ctx, 1), RatFunc.constant(ctx, 2)),
                 (Poly.constant(ctx, 1), Poly.constant(ctx, 2))):
        for r, t_ in ((u, u * u + 1), (RatFunc.from_poly(u), RatFunc.from_poly(u * u + 1))):
            E2, ch = change_coords(E, r, s, t_, w)
            assert E2 == want
            assert isinstance(ch.r, Poly) and isinstance(ch.t_, Poly)
            assert isinstance(ch.s, FieldElement) and isinstance(ch.w, FieldElement)


def test_singular_curve_rejected():
    ctx = build_field(3, 2)
    with pytest.raises(ValueError):
        WeierstrassCurve.from_coeffs(ctx, 0, 0, 0, 0, 0)


def test_point_validation():
    E = FAM.curve
    u = RatFunc.variable(FAM.ctx)
    with pytest.raises(ValueError):
        E.point(u, u)
    P = point_P(FAM, 0)
    assert E.on_curve(P)
    assert E.contains(P.x, P.y)


def _contains_oracle(E, x, y):
    """Both sides of the curve equation reduced, then compared."""
    lhs = (y + E.a1 * x + E.a3) * y
    rhs = ((x + E.a2) * x + E.a4) * x + E.a6
    return lhs == rhs


def _moved(E):
    """E under x = 4 x' + u, y = 8 y' + 4 x' + u^2 + 1 (r = u, s = 1,
    t_ = u^2 + 1, w = 2), so that the new curve has a1' = (a1 + 2)/2,
    nonzero on the Legendre form, and the map (x, y) -> (x', y') by its
    formulas, without the point check."""
    u = RatFunc.variable(E.ctx)
    r, s, t_, w = u, 1, u * u + 1, 2
    E2, _ = change_coords(E, r, s, t_, w)

    def image(x, y):
        return (x - r) / (w * w), (y - s * (x - r) - t_) / (w ** 3)

    return E2, image


def _membership_cases(fam):
    """(curve, x, y) on the curve: the P_i, a sum, a 2- and a 4-torsion
    point and 2-isogeny chain images, on the family's curve, on the chain's
    source and on both moved by _moved."""
    E = fam.curve
    chain = IsogenyChain(fam.t)
    P0, P1 = point_P(fam, 0), point_P(fam, 1)
    tors = torsion_points(fam)
    on_E = [P0, P1, P0 + P1, tors["Qt"], tors["T"], chain.forward(chain.backward(P1))]
    on_source = [chain.backward(P0), chain.backward(P0 + P1)]
    cases = []
    for curve, pts in ((E, on_E), (chain.source, on_source)):
        moved, image = _moved(curve)
        for P in pts:
            cases.append((curve, P.x, P.y))
            cases.append((moved,) + image(P.x, P.y))
    return cases


_ORACLE_FAMILIES = [make_family(3, f) for f in (1, 2, 3)]   # F_9, F_81, F_729


@pytest.mark.parametrize("fam", _ORACLE_FAMILIES, ids=lambda fam: "q=%d" % fam.ctx.order)
def test_contains_matches_reduced_oracle(fam):
    # on-curve points, and the same x with y + 1 or y u/(u + 1)
    u = RatFunc.variable(fam.ctx)
    cases = _membership_cases(fam)
    # a1 != 0 (the source, the moved Legendre form) reaches the identity's
    # a1 and a3 terms
    assert any(not curve.a1.is_zero() for curve, _, _ in cases)
    for curve, x, y in cases:
        assert curve.contains(x, y) and _contains_oracle(curve, x, y)
        off = [(x, y + 1)] + ([] if y.is_zero() else [(x, y * u / (u + 1))])
        for ox, oy in off:
            assert _contains_oracle(curve, ox, oy) is False
            assert curve.contains(ox, oy) is False


@pytest.mark.parametrize("fam", _ORACLE_FAMILIES, ids=lambda fam: "q=%d" % fam.ctx.order)
def test_same_j_matches_j_invariant(fam):
    E = fam.curve
    chain = IsogenyChain(fam.t)
    moved, other = _moved(E)[0], legendre_form_curve(fam.t + 1)
    curves = [E, moved, chain.source, _moved(chain.source)[0], other]
    for A in curves:
        for B in curves:
            assert _same_j(A, B) == (RatFunc(A.c4() ** 3, A.discriminant())
                                     == RatFunc(B.c4() ** 3, B.discriminant()))
    assert _same_j(E, moved) and not _same_j(E, other)


def test_contains_runs_no_gcd(monkeypatch):
    E, image = _moved(FAM.curve)
    P = point_P(FAM, 1)
    x, y = image(P.x, P.y)
    calls = []
    real = Poly.gcd

    def counted(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(Poly, "gcd", staticmethod(counted))
    assert E.contains(x, y) and not E.contains(x, y + 1)
    assert calls == []


def test_contains_work_count(monkeypatch):
    # membership is one polynomial identity on every model: on
    # y^2 = x(x+1)(x+t) at most 16 products of two non-constant Polys per
    # on/off pair and no operand above 221 rows (24 products and 433 rows
    # when the sides were cross-multiplied), and at most 16 on the
    # chain's source (a1 = 1; 26 when it cross-multiplied).  The count
    # includes the y + 1 of the off-curve point; products by a constant
    # only scale.
    fam = make_family(7)
    E, chain = fam.curve, IsogenyChain(fam.t)
    P0, P1 = point_P(fam, 0), point_P(fam, 1)
    points = [P0 + P1, P0 + P0, E.smul(2, P0 + P1) + E.smul(4, P0)]
    sources = [chain.backward(R) for R in points]
    mul = Poly.__mul__
    rows = []

    def counting_mul(self, other):
        if isinstance(other, Poly) and len(self.c) > 1 and len(other.c) > 1:
            rows.append(max(len(self.c), len(other.c)))
        return mul(self, other)

    monkeypatch.setattr(Poly, "__mul__", counting_mul)
    monkeypatch.setattr(Poly, "__rmul__", counting_mul)
    for curve, cases, most in ((E, points, 16), (chain.source, sources, 16)):
        for R in cases:
            rows.clear()
            assert curve.contains(R.x, R.y) and not curve.contains(R.x, R.y + 1)
            assert len(rows) <= most
            if curve is E:
                assert max(rows) <= 221


def _chord_with_nu(E, P, Q):
    """The textbook chord-tangent law, with nu = y1 - lam x1 and the
    large lam^2 meeting two sums, as a reference for add()."""
    x1, y1, x2, y2 = P.x, P.y, Q.x, Q.y
    if x1 == x2:
        lam = (3 * x1 * x1 + 2 * E.a2 * x1 + E.a4 - E.a1 * y1) / (2 * y1 + E.a1 * x1 + E.a3)
    else:
        lam = (y2 - y1) / (x2 - x1)
    nu = y1 - lam * x1
    x3 = lam * lam + E.a1 * lam - E.a2 - x1 - x2
    return x3, -(lam + E.a1) * x3 - nu - E.a3


def test_chord_law_gcd_count(monkeypatch):
    # lam * lam meets one sum and y3 = lam (x1 - x3) - y1 - a1 x3 - a3:
    # 2P0 + 2P1 takes at most 12 gcds and (P0+P1) + (P1+P2) at most 3
    # (16 and 6 with nu = y1 - lam x1 and lam^2 meeting two sums)
    fam = make_family(7)
    E = fam.curve
    P0, P1, P2 = (point_P(fam, i) for i in range(3))
    cases = [(P0 + P0, P1 + P1, 12), (P0 + P1, P1 + P2, 3)]
    wants = [_chord_with_nu(E, P, Q) for P, Q, _ in cases]
    calls = []
    real = Poly.gcd

    def counted(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(Poly, "gcd", staticmethod(counted))
    for (P, Q, most), (x3, y3) in zip(cases, wants):
        calls.clear()
        S = E.add(P, Q)
        assert len(calls) <= most
        assert (S.x, S.y) == (x3, y3)


def test_point_from_another_curve_rejected():
    # an explicit check, so it also holds under python -O
    fam5 = make_family(5)
    P, Q = point_P(FAM, 0), point_P(fam5, 0)
    with pytest.raises(ValueError):
        FAM.curve.add(P, Q)
    with pytest.raises(ValueError):
        fam5.curve.add(Q, P)
    with pytest.raises(ValueError):
        FAM.curve.smul(2, Q)


def test_identity_and_negation():
    E = FAM.curve
    O = E.infinity()
    rng = random.Random(100)
    for P in _sample_points(FAM, rng, 10):
        assert P + O == P and O + P == P
        assert P - P == O
        assert -(-P) == P
        assert E.on_curve(-P)


def test_group_law_random_triples():
    # associativity + commutativity on >= 100 random triples
    rng = random.Random(4242)
    pts = _sample_points(FAM, rng, 24)
    checked = 0
    while checked < 100:
        P, Q, R = (rng.choice(pts) for _ in range(3))
        S = P + Q
        assert S == Q + P
        assert (S + R) == P + (Q + R)
        assert FAM.curve.on_curve(S)
        checked += 1


def test_smul_matches_repeated_addition():
    E = FAM.curve
    P = point_P(FAM, 0)
    acc = E.infinity()
    for n in range(6):
        assert E.smul(n, P) == acc
        assert E.smul(-n, P) == -acc
        acc = acc + P
    assert 2 * P == P + P
    assert 3 * P == P + P + P


def test_smul_doubles_only_to_the_top_bit(monkeypatch):
    E = FAM.curve
    P = point_P(FAM, 0)
    add = WeierstrassCurve.add
    doublings = []

    def counting_add(self, A, B):
        if not A.is_infinity and A == B:
            doublings.append((A, B))
        return add(self, A, B)

    monkeypatch.setattr(WeierstrassCurve, "add", counting_add)
    for n, want in ((2, 1), (5, 2), (8, 3)):
        doublings.clear()
        E.smul(n, P)
        assert len(doublings) == want


def test_curve_construction_work_count(monkeypatch):
    # b2..b8, c4, c6 and disc are each computed once per construction:
    # 28 Poly products and 13 sums, plus the 8 products inside b2^3,
    # b4^3 and the c4^3 - c6^2 = 1728 disc check and its one subtraction
    # (10 products and 5 sums more when c4, c6 and disc each recomputed
    # the b_i they need)
    curves = [FAM.curve, IsogenyChain(FAM.t).source]
    mul, add, sub = Poly.__mul__, Poly.__add__, Poly.__sub__
    products, sums = [], []

    def counting_mul(self, other):
        products.append(other)
        return mul(self, other)

    def counting(op):
        def counted(self, other):
            sums.append(other)
            return op(self, other)
        return counted

    monkeypatch.setattr(Poly, "__mul__", counting_mul)
    monkeypatch.setattr(Poly, "__rmul__", counting_mul)
    monkeypatch.setattr(Poly, "__add__", counting(add))
    monkeypatch.setattr(Poly, "__radd__", counting(add))
    monkeypatch.setattr(Poly, "__sub__", counting(sub))
    for E in curves:
        products.clear()
        sums.clear()
        WeierstrassCurve(E.a1, E.a2, E.a3, E.a4, E.a6)
        assert len(products) <= 36
        assert len(sums) <= 14


def test_two_torsion_shape():
    Q0, Q1, Qt = two_torsion(FAM.curve)
    for Q in (Q0, Q1, Qt):
        assert Q + Q == FAM.curve.infinity()
    xs = {str(Q.x) for Q in (Q0, Q1, Qt)}
    assert len(xs) == 3


def test_coordinate_change_roundtrip():
    ctx = FAM.ctx
    E = FAM.curve
    rng = random.Random(7)
    r, s, t_, w = 2, 1, 2, 2
    E2, ch = change_coords(E, r, s, t_, w)
    assert RatFunc(E2.c4() ** 3, E2.discriminant()) == RatFunc(E.c4() ** 3, E.discriminant())
    for P in _sample_points(FAM, rng, 8):
        img = ch.forward(P)
        assert E2.on_curve(img)
        assert ch.backward(img) == P
    # group homomorphism
    P, Q = _sample_points(FAM, rng, 2)
    assert ch.forward(P + Q) == ch.forward(P) + ch.forward(Q)


def test_quotient_isogeny_is_homomorphism():
    ctx = FAM.ctx
    u = RatFunc.variable(ctx)
    t = FAM.t
    # y^2 = x(x+1)(x+t) rewritten as x^3 + (1+t)x^2 + t x
    E = WeierstrassCurve.from_coeffs(ctx, 0, (1 + t), 0, t, 0)
    phi = two_isogeny_quotient(E)
    assert phi.codomain.a2 == -2 * (1 + t)
    assert phi.codomain.a4 == (1 + t) ** 2 - 4 * t
    zero = RatFunc.zero(ctx)
    ker = E.point(zero, zero)
    assert phi.apply(ker).is_infinity
    rng = random.Random(55)
    pts = []
    for P in _sample_points(FAM, rng, 6):
        if P.is_infinity:
            continue
        Q = E.point(P.x, P.y)      # same model here
        pts.append(Q)
        img = phi.apply(Q)
        assert img.is_infinity or phi.codomain.on_curve(img)
    for P, Q in zip(pts, pts[1:]):
        assert phi.apply(P + Q) == phi.apply(P) + phi.apply(Q)


def test_isogeny_chain_displays():
    chain = IsogenyChain(FAM.t)
    assert chain.mid == chain.expected_mid()
    assert chain.quotient == chain.expected_quotient()
    assert chain.legendre == legendre_form_curve(FAM.t)
    # the chain starts from y^2 + xy + (t/16)y = x^3 + (t/16)x^2
    s = FAM.t / 16
    assert chain.source.a1 == RatFunc.one(FAM.ctx)
    assert chain.source.a2 == s and chain.source.a3 == s
    assert chain.source.a4.is_zero() and chain.source.a6.is_zero()


def test_isogeny_chain_roundtrip_is_doubling():
    chain = IsogenyChain(FAM.t)
    rng = random.Random(31)
    for R in _sample_points(FAM, rng, 6):
        P = chain.backward(R)
        assert chain.source.on_curve(P) or P.is_infinity
        back = chain.forward(P)
        assert back == R + R
    # forward is a homomorphism
    pts = [chain.backward(P) for P in _sample_points(FAM, rng, 4)]
    for P, Q in zip(pts, pts[1:]):
        assert chain.forward(P + Q) == chain.forward(P) + chain.forward(Q)


@pytest.mark.parametrize("p", [3, 5])
def test_isogeny_chain_matches_displayed_substitutions(p):
    # the paper's pipeline, one displayed substitution at a time
    fam = make_family(p)
    ctx, t = fam.ctx, fam.t
    chain = IsogenyChain(t)
    half, quarter = (RatFunc.constant(ctx, c).inv() for c in (2, 4))
    c1, m1 = change_coords(chain.source, 0, -half, -t / 32, 1)
    c2, m2 = change_coords(c1, -t / 16, 0, 0, 1)
    mid, m3 = change_coords(c2, 0, 0, 0, quarter)
    legendre, m5 = change_coords(chain.quotient, 4, 0, 0, 2)
    assert mid == chain.mid and legendre == chain.legendre
    dual = two_isogeny_quotient(chain.quotient)
    _, rescale = change_coords(dual.codomain, 0, 0, 0, 2)

    def forward(P):
        return m5.forward(chain.phi.apply(m3.forward(m2.forward(m1.forward(P)))))

    def backward(R):
        Q = rescale.forward(dual.apply(m5.backward(R)))
        return m1.backward(m2.backward(m3.backward(Q)))

    rng = random.Random(17)
    for R in _sample_points(fam, rng, 6):
        S = backward(R)
        assert chain.backward(R) == S
        assert chain.forward(S) == forward(S) == R + R


# Known denominators: on the chain's models, whose a_i are polynomials,
# the point maps and the group law read reduced denominators off
# den(y) = den(x)^(3/2); the RatFunc formulas below are the reference.

_CHAINS = {p: (make_family(p), IsogenyChain(make_family(p).t)) for p in (3, 5)}
# a change with nonzero polynomial r, t_ and constant s, w on each
# Legendre-form curve, which the chain's own changes (t_ = 0) lack
_SHIFTS = {p: change_coords(fam.curve, fam.u, 1, fam.u ** 2 + 1, 2)[1]
           for p, (fam, _) in _CHAINS.items()}


def _change_by_formulas(ch, P, forward):
    x, y = P.x, P.y
    if forward:
        w2 = ch.w * ch.w
        return (x - ch.r) / w2, (y - ch.s * (x - ch.r) - ch.t_) / (w2 * ch.w)
    w2 = ch.w * ch.w
    return w2 * x + ch.r, w2 * ch.w * y + ch.s * w2 * x + ch.t_


def _isogeny_by_formulas(phi, P):
    b_x = phi.domain.a4 / P.x
    return P.x + phi.domain.a2 + b_x, P.y * (1 - b_x / P.x)


@st.composite
def _chain_points(draw):
    """A chain and a point on its Legendre-form curve: a small
    combination of two P_i plus a torsion point, not O."""
    p = draw(st.sampled_from(sorted(_CHAINS)))
    fam, chain = _CHAINS[p]
    i, j = draw(st.integers(0, fam.d - 1)), draw(st.integers(0, fam.d - 1))
    a, b = draw(st.integers(-2, 2)), draw(st.integers(-1, 1))
    tors = list(torsion_points(fam).values())
    R = a * point_P(fam, i) + b * point_P(fam, j) + draw(st.sampled_from(tors))
    return fam, chain, R


@settings(max_examples=25, deadline=None)
@given(_chain_points(), _chain_points())
def test_known_denominators_match_formulas(drawn, other):
    fam, chain, R = drawn
    if R.is_infinity:
        return
    S = other[2] if other[0] is fam else R + R
    # the maps: each step of backward() and forward() against the formulas
    steps = []
    Q = chain._to_legendre.backward(R)
    steps.append((Q, _change_by_formulas(chain._to_legendre, R, False)))
    shift = _SHIFTS[fam.p]
    moved = shift.forward(R)
    steps.append((moved, _change_by_formulas(shift, R, True)))
    steps.append((shift.backward(moved), (R.x, R.y)))
    if not Q.x.is_zero():
        M = chain._dual_phi.apply(Q)
        steps.append((M, _isogeny_by_formulas(chain._dual_phi, Q)))
        src = chain._from_dual.backward(M)
        steps.append((src, _change_by_formulas(chain._from_dual, M, False)))
        mid = chain._to_mid.forward(src)
        steps.append((mid, _change_by_formulas(chain._to_mid, src, True)))
        if not mid.x.is_zero():
            steps.append((chain.phi.apply(mid), _isogeny_by_formulas(chain.phi, mid)))
    for got, (x, y) in steps:
        assert (got.x, got.y) == (x, y)
    # the group law on the Legendre form, the first displayed model and
    # the source (a1 = 1): chord and tangent
    pts = [(fam.curve, R, S)]
    if not Q.x.is_zero():
        pts.append((chain.source, src, chain.backward(S)))
        pts.append((chain.mid, mid, chain._to_mid.forward(chain.backward(S))))
    for E, A, B in pts:
        for P2 in (A, B):
            if P2.is_infinity or E.neg(P2) == A:
                continue
            T = E.add(A, P2)
            assert (T.x, T.y) == _chord_with_nu(E, A, P2)
            assert E.on_curve(T)


def test_non_polynomial_models_are_refused():
    # a curve with a coefficient outside F_q[u], and a coordinate change
    # whose new a_i would be (a non-polynomial r or t_, a non-constant s
    # or w), raise ValueError before any point is mapped
    u = RatFunc.variable(FAM.ctx)
    E = FAM.curve
    with pytest.raises(ValueError, match="polynomials"):
        WeierstrassCurve(E.a1, E.a2, E.a3, E.a4 + 1 / u, E.a6)
    with pytest.raises(ValueError, match="polynomials"):
        WeierstrassCurve.from_coeffs(FAM.ctx, 1 / u, 0, 0, FAM.t, 0)
    for r, s, t_, w in ((0, 0, 0, u + 2), (0, 0, 0, 1 / u), (0, u, 0, 1),
                        (1 / u, 0, 0, 1), (0, 0, u / (u + 1), 1)):
        with pytest.raises(ValueError, match="must be"):
            change_coords(E, r, s, t_, w)


def test_inexact_known_denominator_is_refused():
    # x = 1/u^2 with y = 1/u (den(y) is not den(x) C) on a model with
    # polynomial a_i: the checked division C = den(y) / den(x) refuses it
    u = RatFunc.variable(FAM.ctx)
    chain = IsogenyChain(FAM.t)
    x, y = 1 / (u * u), 1 / u
    P = CurvePoint(chain.legendre, x, y)
    with pytest.raises(ArithmeticError, match="inexact"):
        chain._to_legendre.backward(P)


def test_curve_serialization():
    obj = FAM.curve.to_obj()
    assert obj["a2"] == RatFunc.from_poly(FAM.curve.a2).to_obj()
