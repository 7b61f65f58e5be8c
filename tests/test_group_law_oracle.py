"""An oracle for the group law over F_q(u) that uses none of its Poly or
RatFunc arithmetic: specialise at good places.

For a in F_q^x with a^d != 1 the fibre E_a : y^2 = x(x+1)(x+a^d) is an
elliptic curve over F_q, and u -> a is a group homomorphism
E(F_q(u)) -> E_a(F_q) (Silverman, "The Arithmetic of Elliptic Curves",
VII.2).  So if S = sum n_i P_i over F_q(u), then at every good a where
neither x(S) nor any x(P_i) has a pole, S(a) = sum n_i P_i(a) on E_a,
added here by the affine chord-tangent formulas over FieldElement.  The sums, differences, doublings, `smul` and `combination`
(of kernel vectors and of random integer vectors) are drawn over F_9,
compared at every place, and over F_81 and F_729, compared at 24 drawn
places each.
"""

from functools import cache

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from legendre_mw.exact_linalg import kernel_basis
from legendre_mw.heights import combination, expected_gram
from legendre_mw.legendre import make_family, point_P, torsion_points

POLE = "pole"


def _value(f, a):
    """f(a) for a Poly f, by Horner over its coefficients."""
    acc = a.ctx.zero()
    for i in reversed(range(len(f.c))):
        acc = acc * a + f.coeff(i)
    return acc


def _at(P, a):
    """P(a) as an affine pair, None for O, POLE where x or y has a pole."""
    if P.is_infinity:
        return None
    dx, dy = _value(P.x.den, a), _value(P.y.den, a)
    if dx.is_zero() or dy.is_zero():
        return POLE
    return _value(P.x.num, a) / dx, _value(P.y.num, a) / dy


def _add(P, Q, t):
    """P + Q on y^2 = x^3 + (1+t) x^2 + t x over F_q; None is O."""
    if P is None or Q is None:
        return Q if P is None else P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2 and y1 == -y2:
        return None
    if x1 == x2:
        lam = (3 * x1 * x1 + 2 * (t + 1) * x1 + t) / (2 * y1)
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam - (t + 1) - x1 - x2
    return x3, lam * (x1 - x3) - y1


def _mul(n, P, t):
    """n P on E_a by |n| additions."""
    if n < 0 and P is not None:
        n, P = -n, (P[0], -P[1])
    acc = None
    for _ in range(n):
        acc = _add(acc, P, t)
    return acc


def _on_fibre(P, t):
    return P is None or P[1] * P[1] == P[0] * (P[0] + 1) * (P[0] + t)


def _check(fam, terms, S, places):
    """S = sum n P over (n, P) in terms: compare S(a) with the sum of the
    n P(a) at each good place a among `places`; returns how many places
    were compared."""
    terms = [(n, P) for n, P in terms if n]
    compared = 0
    for a in places:
        t = a ** fam.d
        if a.is_zero() or t == 1:
            continue
        vals = [_at(P, a) for _, P in terms]
        got = _at(S, a)
        if got is POLE or POLE in vals:
            continue
        assert all(_on_fibre(V, t) for V in vals + [got])
        want = None
        for (n, _), V in zip(terms, vals):
            want = _add(want, _mul(n, V, t), t)
        assert got == want, (a, S)
        compared += 1
    return compared


@cache
def _family(f):
    fam = make_family(3, f)
    pts = [point_P(fam, i) for i in range(fam.d)]
    pool = pts + list(torsion_points(fam).values())
    kern = kernel_basis(expected_gram(fam.d, range(fam.d)))
    return fam, pts, pool, kern


def _example(data, f, n_places=None):
    fam, pts, pool, kern = _family(f)
    d = fam.d
    places = list(fam.ctx.elements())
    if n_places is not None:
        codes = data.draw(st.sets(st.integers(1, fam.ctx.order - 1),
                                  min_size=n_places, max_size=n_places))
        places = [places[c] for c in sorted(codes)]

    def point():
        # a pool point, or the sum of two
        A = pool[data.draw(st.integers(0, len(pool) - 1))]
        if data.draw(st.booleans()):
            A = A + pool[data.draw(st.integers(0, len(pool) - 1))]
        return A

    op = data.draw(st.sampled_from(
        ["sum", "difference", "double", "smul", "kernel", "vector"]))
    if op in ("sum", "difference", "double"):
        A = point()
        B = A if op == "double" else point()
        if op == "difference":
            terms, S = [(1, A), (-1, B)], A - B
        else:
            terms, S = [(1, A), (1, B)], A + B
    elif op == "smul":
        A, n = point(), data.draw(st.integers(-5, 5))
        terms, S = [(n, A)], fam.curve.smul(n, A)
    else:
        if op == "kernel":
            v = data.draw(st.sampled_from(kern))
        else:
            support = data.draw(st.dictionaries(
                st.integers(0, d - 1), st.integers(-2, 2), min_size=1, max_size=4))
            v = [support.get(i, 0) for i in range(d)]
        terms, S = list(zip(v, pts)), combination(pts, v)
    assume(_check(fam, terms, S, places) > 0)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_group_law_matches_fibres_over_F9(data):
    _example(data, 1)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_group_law_matches_fibres_over_F81(data):
    _example(data, 2, n_places=24)


@settings(max_examples=5, deadline=None)
@given(st.data())
def test_group_law_matches_fibres_over_F729(data):
    _example(data, 3, n_places=24)
