import random

import numpy as np
import pytest

from legendre_mw.gf import build_field
from legendre_mw.ratfunc import NEG_INF, Poly, RatFunc, _mul_arrays, poly_sqrt

CTX = build_field(3, 2)
CTX5 = build_field(5, 1)


def _rand_poly(ctx, rng, max_deg=6, allow_zero=True):
    d = rng.randrange(-1 if allow_zero else 0, max_deg + 1)
    if d < 0:
        return Poly.zero(ctx)
    elems = [ctx.from_code(rng.randrange(ctx.order)) for _ in range(d)]
    elems.append(ctx.from_code(rng.randrange(1, ctx.order)))
    return Poly.from_elems(ctx, elems)


def _slow_mul(a, b):
    """Reference product straight from the distributive law."""
    ctx = a.ctx
    if a.is_zero() or b.is_zero():
        return Poly.zero(ctx)
    out = [ctx.zero()] * (a.deg + b.deg + 1)
    for i in range(a.deg + 1):
        for j in range(b.deg + 1):
            out[i + j] = out[i + j] + a.coeff(i) * b.coeff(j)
    return Poly.from_elems(ctx, out)


def test_constructors():
    u = Poly.variable(CTX)
    assert u.deg == 1 and u.is_monic()
    assert Poly.zero(CTX).deg == NEG_INF
    assert Poly.one(CTX).deg == 0
    assert Poly.monomial(CTX, 5).deg == 5
    assert Poly.constant(CTX, 2).coeff(0) == CTX.elem(2)


@pytest.mark.parametrize("ctx,seed", [(CTX, 7), (CTX5, 8)])
def test_ring_axioms_random(ctx, seed):
    rng = random.Random(seed)
    for _ in range(80):
        a = _rand_poly(ctx, rng)
        b = _rand_poly(ctx, rng)
        c = _rand_poly(ctx, rng)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == _slow_mul(a, b)
        assert a - a == Poly.zero(ctx)
        assert a * Poly.one(ctx) == a


def test_pow_matches_repeated_mul():
    rng = random.Random(21)
    for _ in range(20):
        a = _rand_poly(CTX, rng, max_deg=3, allow_zero=False)
        acc = Poly.one(CTX)
        for e in range(6):
            assert a ** e == acc
            acc = acc * a


def test_mul_overflow_guard():
    # a product whose int64 accumulation could overflow is refused; the
    # operands are stride-0 views, so nothing of that size is allocated
    rows = 2 ** 62 // ((3 - 1) ** 2 * (1 + (3 - 1))) + 1
    big = np.broadcast_to(np.ones((1, CTX.k), dtype=np.int64), (rows, CTX.k))
    with pytest.raises(OverflowError):
        _mul_arrays(CTX, big, big)


@pytest.mark.parametrize("ctx,seed", [(CTX, 31), (CTX5, 32)])
def test_divmod_invariant(ctx, seed):
    rng = random.Random(seed)
    for _ in range(80):
        a = _rand_poly(ctx, rng, max_deg=9)
        b = _rand_poly(ctx, rng, max_deg=4, allow_zero=False)
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.deg < b.deg
        assert a // b == q and a % b == r
    with pytest.raises(ZeroDivisionError):
        divmod(a, Poly.zero(ctx))


def test_gcd_properties():
    rng = random.Random(77)
    for _ in range(40):
        a = _rand_poly(CTX, rng, max_deg=5)
        b = _rand_poly(CTX, rng, max_deg=5)
        g = Poly.gcd(a, b)
        if a.is_zero() and b.is_zero():
            assert g.is_zero()
            continue
        assert g.is_monic()
        assert (a % g).is_zero() and (b % g).is_zero()
        m = _rand_poly(CTX, rng, max_deg=2, allow_zero=False)
        # common factor m must divide gcd(ma, mb)
        assert (Poly.gcd(a * m, b * m) % m.monic()).is_zero() or a.is_zero() or b.is_zero()


def test_eval_is_homomorphism():
    rng = random.Random(5)
    for _ in range(40):
        a = _rand_poly(CTX, rng)
        b = _rand_poly(CTX, rng)
        pt = CTX.from_code(rng.randrange(CTX.order))
        assert (a + b).eval(pt) == a.eval(pt) + b.eval(pt)
        assert (a * b).eval(pt) == a.eval(pt) * b.eval(pt)


def test_scale_var():
    u = Poly.variable(CTX)
    z = CTX.generator()
    f = u ** 3 + 2 * u + 1
    g = f.scale_var(z)
    for c in range(CTX.order):
        a = CTX.from_code(c)
        assert g.eval(a) == f.eval(z * a)


def test_frobenius_poly():
    rng = random.Random(13)
    for _ in range(20):
        a = _rand_poly(CTX, rng)
        b = _rand_poly(CTX, rng)
        assert (a * b).frobenius() == a.frobenius() * b.frobenius()
        assert a.frobenius().frobenius() == a


def test_poly_sqrt_roundtrip():
    rng = random.Random(3)
    for _ in range(40):
        g = _rand_poly(CTX, rng, max_deg=5, allow_zero=False)
        r = poly_sqrt(g * g)
        assert r == g or r == -g
    assert poly_sqrt(Poly.zero(CTX)).is_zero()


def test_poly_sqrt_rejects_nonsquares():
    u = Poly.variable(CTX)
    for f in (u, u ** 2 + u, u ** 3):
        with pytest.raises(ValueError):
            poly_sqrt(f)


def test_ratfunc_canonical():
    u = Poly.variable(CTX)
    r = RatFunc(u ** 2 - 1, 2 * (u - 1))
    # reduced and monic denominator
    assert r.den.is_monic()
    assert Poly.gcd(r.num, r.den) == Poly.one(CTX)
    assert r == RatFunc(u + 1, Poly.constant(CTX, 2))
    with pytest.raises(ZeroDivisionError):
        RatFunc(u, Poly.zero(CTX))


def test_ratfunc_field_axioms_random():
    rng = random.Random(41)
    u = RatFunc.variable(CTX)
    pool = [u, u + 1, RatFunc.one(CTX), (u ** 2 + 2) / (u + 2), 2 / u]
    for _ in range(60):
        a = rng.choice(pool) + rng.randrange(3)
        b = rng.choice(pool) * rng.randrange(1, 3)
        c = rng.choice(pool)
        assert (a + b) * c == a * c + b * c
        assert a - b == -(b - a)
        if not b.is_zero():
            assert (a / b) * b == a
            assert b * b.inv() == RatFunc.one(CTX)
        assert a ** 3 == a * a * a
        if not a.is_zero():
            assert a ** (-2) == (a * a).inv()


def test_ratfunc_eval_and_scale_var():
    u = RatFunc.variable(CTX)
    r = (u ** 2 + 1) / (u + 2)
    pt = CTX.generator()
    assert r.eval(pt) == (pt * pt + CTX.one()) / (pt + CTX.elem(2))
    z = CTX.generator()
    assert r.scale_var(z).eval(pt) == r.eval(z * pt)


def test_ratfunc_serialization_roundtrip():
    u = RatFunc.variable(CTX)
    r = (u ** 3 + 2) / (u ** 2 + u)
    assert RatFunc.from_obj(CTX, r.to_obj()) == r
    f = u.num
    assert Poly.from_obj(CTX, f.to_obj()) == f
