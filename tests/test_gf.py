import itertools
import random

import numpy as np
import pytest

from legendre_mw.gf import (MAX_FIELD_ORDER, FieldCtx, build_field, is_prime,
                            prime_factors, zeta)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)
    assert is_prime(2 ** 31 - 1)
    assert not is_prime(2 ** 32 + 1)


def test_prime_factors():
    assert prime_factors(1) == []
    assert prime_factors(12) == [2, 3]
    assert prime_factors(97) == [97]
    assert prime_factors(3 ** 4 * 5) == [3, 5]


def test_build_field_deterministic_moduli():
    # first irreducible in integer-encoding order of the low coefficients
    assert build_field(3, 2).modulus == (1, 0, 1)   # x^2 + 1
    assert build_field(5, 2).modulus == (2, 0, 1)   # x^2 + 2
    assert build_field(3, 1).modulus == (0, 1)      # x
    assert build_field(3, 4).modulus == (2, 1, 0, 0, 1)


def test_build_field_rejects_bad_p():
    for p in (0, 1, 2, 4, 9):
        with pytest.raises(ValueError):
            build_field(p, 1)


def test_build_field_refuses_fields_too_large_to_tabulate():
    # the check comes before any table is built, and a large k is
    # refused before p^k is computed, so these return at once
    for p, k in ((3, 16), (3, 10 ** 9), (100000007, 2), (2 ** 31 - 1, 1)):
        with pytest.raises(ValueError, match="larger than"):
            build_field(p, k)
    assert 3 ** 12 <= MAX_FIELD_ORDER and 101 ** 2 <= MAX_FIELD_ORDER
    # FieldCtx checks the size before Rabin's test and the tables, so the
    # degree-21 modulus x^21 + 1 is refused for its order 3^21 at once
    with pytest.raises(ValueError, match="larger than"):
        FieldCtx(3, 21, (1,) + (0,) * 20 + (1,))


def test_modulus_validation():
    with pytest.raises(ValueError):
        FieldCtx(3, 2, (0, 0, 1))   # x^2 reducible
    with pytest.raises(ValueError):
        FieldCtx(3, 2, (1, 0, 2))   # not monic
    with pytest.raises(ValueError):
        FieldCtx(3, 2, (1, 1))      # wrong degree
    with pytest.raises(ValueError):
        # x (x^2 + 1)(x^3 + 2x + 1): w^(3^6) == w holds mod this
        # squarefree product, so only the unit test of Rabin's criterion
        # rejects it
        FieldCtx(3, 6, (0, 1, 2, 1, 0, 0, 1))


def _op_tables(ctx):
    """q x q int tables for + and * indexed by element code."""
    q = ctx.order
    els = list(ctx.elements())
    add = np.zeros((q, q), dtype=np.int64)
    mul = np.zeros((q, q), dtype=np.int64)
    for a in els:
        ia = a.code()
        for b in els:
            add[ia, b.code()] = (a + b).code()
            mul[ia, b.code()] = (a * b).code()
    return add, mul


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (11, 1), (3, 2), (5, 2),
                                 (7, 2), (11, 2), (3, 4)])
def test_field_axioms_exhaustive(p, k):
    # exhaustive associativity/commutativity/distributivity through
    # code-indexed op tables (q^3 triples, q <= 121)
    ctx = build_field(p, k)
    q = ctx.order
    assert q <= 121
    add, mul = _op_tables(ctx)
    i, j = np.meshgrid(np.arange(q), np.arange(q), indexing="ij")
    assert np.array_equal(add, add.T) and np.array_equal(mul, mul.T)
    for t in range(q):
        assert np.array_equal(add[add[i, j], t], add[i, add[j, t]])
        assert np.array_equal(mul[mul[i, j], t], mul[i, mul[j, t]])
        assert np.array_equal(mul[add[i, j], t], add[mul[i, t], mul[j, t]])
    zero, one = ctx.zero().code(), ctx.one().code()
    assert np.array_equal(add[zero], np.arange(q))
    assert np.array_equal(mul[one], np.arange(q))
    assert np.array_equal(mul[zero], np.zeros(q, dtype=np.int64))
    # additive and multiplicative inverses exist and are unique
    assert sorted(np.argmax(add == zero, axis=1)[:]) == list(range(q))
    inv_hits = (mul[1:, 1:] == one).sum(axis=1)
    assert np.array_equal(inv_hits, np.ones(q - 1, dtype=np.int64))


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (7, 1), (3, 4)])
def test_inverse_and_pow(p, k):
    ctx = build_field(p, k)
    rng = random.Random(1234 + p * k)
    for _ in range(60):
        a = ctx.from_code(rng.randrange(1, ctx.order))
        assert a * a.inv() == ctx.one()
        assert a ** (ctx.order - 1) == ctx.one()   # Lagrange
        e = rng.randrange(-8, 30)
        b = a ** e
        assert b * a ** (-e) == ctx.one()
    zero = ctx.zero()
    assert zero ** 0 == ctx.one()
    assert zero ** 3 == zero
    with pytest.raises(ZeroDivisionError):
        zero ** -1
    with pytest.raises(ZeroDivisionError):
        zero.inv()
    with pytest.raises(ValueError):
        zero.multiplicative_order()


def test_reflected_operators_refuse_unsupported_operands():
    # the other operand is coerced before self is inverted or negated
    ctx = build_field(3, 2)
    g = ctx.generator()
    with pytest.raises(TypeError, match="for /:"):
        "a" / ctx.zero()
    with pytest.raises(TypeError, match="for -:"):
        "a" - g
    assert 1 / g == g.inv() and (1 / g) * g == ctx.one()
    assert 1 - g == ctx.one() + (-g) and (1 - g) + g == ctx.one()


def test_generator_and_zeta():
    ctx = build_field(3, 2)
    g = ctx.generator()
    assert g.multiplicative_order() == 8
    assert g.code() == 4    # first full-order code: w + 1
    z = zeta(ctx, 4)
    assert z.multiplicative_order() == 4
    assert z ** 4 == ctx.one() and z ** 2 != ctx.one()
    with pytest.raises(ValueError):
        zeta(ctx, 3)   # 3 does not divide 8


def _brute_force_generator(ctx):
    """Code of the first element whose powers, walked one by one with
    the table-free product gf._mulmod, reach 1 only after q - 1 steps,
    with those powers' codes in order."""
    from legendre_mw.gf import _code, _mulmod
    p, q, f = ctx.p, ctx.order, ctx.modulus
    digits = [c[::-1] for c in itertools.product(range(p), repeat=ctx.k)]
    for g in range(2, q):
        codes, x = [1], digits[g]
        while x != digits[1]:
            codes.append(_code(x, p))
            x = _mulmod(x, digits[g], f, p)
        if len(codes) == q - 1:
            return g, codes
    raise AssertionError("no generator")


_SMALL_FIELDS = [(p, k) for p in range(3, 730, 2) if is_prime(p)
                 for k in range(1, 7) if p ** k <= 729]


def test_generator_matches_brute_force_order_search():
    # the primitivity test picks the same generator, and so the same
    # tables, as walking every candidate's powers, for every F_q, q <= 729
    assert len(_SMALL_FIELDS) > 100 and (3, 6) in _SMALL_FIELDS
    for p, k in _SMALL_FIELDS:
        ctx = build_field(p, k)
        g, codes = _brute_force_generator(ctx)
        assert ctx.generator().code() == g, (p, k)
        assert ctx._exp == codes, (p, k)


def test_frobenius_fixes_prime_field():
    ctx = build_field(5, 2)
    for c in range(5):
        assert ctx.elem(c).frobenius() == ctx.elem(c)
    # frobenius is a field automorphism of order k
    rng = random.Random(99)
    for _ in range(40):
        a = ctx.from_code(rng.randrange(ctx.order))
        b = ctx.from_code(rng.randrange(ctx.order))
        assert (a * b).frobenius() == a.frobenius() * b.frobenius()
        assert (a + b).frobenius() == a.frobenius() + b.frobenius()
        assert a.frobenius().frobenius() == a


def test_sqrt():
    ctx = build_field(7, 1)
    squares = {(ctx.elem(c) * ctx.elem(c)).code() for c in range(7)}
    for c in range(7):
        a = ctx.elem(c)
        r = a.sqrt()
        if c in squares:
            assert r is not None and r * r == a
        else:
            assert r is None
    # every element of F_{p^2} containing F_p has a root there or not;
    # count must be (q+1)/2 squares
    ctx2 = build_field(3, 2)
    roots = [e for e in ctx2.elements() if e.sqrt() is not None]
    assert len(roots) == (ctx2.order + 1) // 2
    # the root returned is the one with the smaller code
    for p, k in [(3, 2), (5, 2), (3, 4)]:
        ctx = build_field(p, k)
        assert ctx.zero().sqrt() == ctx.zero()
        smallest = {}
        for e in ctx.elements():
            smallest.setdefault((e * e).code(), e.code())
        for a in ctx.elements():
            r = a.sqrt()
            assert (None if r is None else r.code()) == smallest.get(a.code())


def test_element_codes_roundtrip():
    ctx = build_field(5, 2)
    for code in range(ctx.order):
        assert ctx.from_code(code).code() == code
    assert ctx.elem([2, 3]).code() == 2 + 3 * 5
    with pytest.raises(ValueError):
        ctx.from_code(25)


def test_serialization():
    ctx = build_field(3, 2)
    assert ctx.to_obj() == {"p": 3, "k": 2, "modulus": [1, 0, 1]}
    a = ctx.elem([1, 2])
    assert ctx.elem(a.to_obj()) == a


# ----------------------------------------------------------------------
# sympy's galoistools as an independent oracle (coefficient lists there
# run high degree first).

def _to_gt(c):
    out = list(reversed(c))
    while out and out[0] == 0:
        out.pop(0)
    return out


def _from_gt(ctx, f):
    return ctx.elem(list(reversed(f)))


def _oracle_pairs(ctx, rng):
    if ctx.order <= 49:
        return [(a, b) for a in ctx.elements() for b in ctx.elements()]
    return [(ctx.from_code(rng.randrange(ctx.order)), ctx.from_code(rng.randrange(ctx.order)))
            for _ in range(2000)]


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (7, 2), (3, 4), (5, 4), (3, 6)])
def test_field_ops_match_sympy_galoistools(p, k):
    gt = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ
    ctx = build_field(p, k)
    f = _to_gt(ctx.modulus)
    rng = random.Random(p ** k)
    for a, b in _oracle_pairs(ctx, rng):
        A, B = _to_gt(a.c), _to_gt(b.c)
        assert a + b == _from_gt(ctx, gt.gf_add(A, B, p, ZZ))
        assert a - b == _from_gt(ctx, gt.gf_sub(A, B, p, ZZ))
        assert -a == _from_gt(ctx, gt.gf_neg(A, p, ZZ))
        assert a * b == _from_gt(ctx, gt.gf_rem(gt.gf_mul(A, B, p, ZZ), f, p, ZZ))
        assert a.frobenius() == _from_gt(ctx, gt.gf_pow_mod(A, p, f, p, ZZ))
        if not a.is_zero():
            s, _, g = gt.gf_gcdex(A, f, p, ZZ)
            assert g == [1]
            assert a.inv() == _from_gt(ctx, s)


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (3, 3), (3, 4), (3, 6), (5, 4), (7, 3)])
def test_irreducibility_matches_sympy_galoistools(p, k):
    gt = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ
    from legendre_mw.gf import _is_irreducible
    for low in itertools.product(range(p), repeat=k):
        f = low + (1,)
        assert _is_irreducible(f, p, k) == gt.gf_irreducible_p(_to_gt(f), p, ZZ), f
