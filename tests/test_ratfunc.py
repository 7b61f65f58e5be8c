import random

import numpy as np
import poly_reference as ref
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legendre_mw import ratfunc
from legendre_mw.gf import FieldElement, build_field
from legendre_mw.ratfunc import NEG_INF, Poly, RatFunc, poly_sqrt

CTX = build_field(3, 2)
CTX5 = build_field(5, 1)


def _rand_poly(ctx, rng, max_deg=6, allow_zero=True, sparse=False):
    """Random Poly; when sparse, each coefficient below the top is zero
    with a random probability, so sparse and dense operands both occur."""
    d = rng.randrange(-1 if allow_zero else 0, max_deg + 1)
    if d < 0:
        return Poly.zero(ctx)
    density = rng.random() if sparse else 1.0
    elems = [ctx.from_code(rng.randrange(ctx.order))
             if not sparse or rng.random() < density else ctx.zero()
             for _ in range(d)]
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
    assert u.deg == 1 and u.lc() == 1
    assert Poly.zero(CTX).deg == NEG_INF
    assert Poly.one(CTX).deg == 0
    assert Poly.monomial(CTX, 5).deg == 5
    # shape[0] counts the coefficients, as for a 1-D array
    assert Poly.monomial(CTX, 5).c.shape == (6,)
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


@pytest.mark.parametrize("e,products", [(0, 0), (1, 0), (2, 1), (3, 2), (8, 3)])
def test_pow_products_by_bits(monkeypatch, e, products):
    # left-to-right square-and-multiply: one squaring per bit below the
    # top bit and one product per further 1 bit, no product with one
    f = Poly.variable(CTX) + 2
    want = Poly.one(CTX)
    for _ in range(e):
        want = want * f
    calls = []
    real = ratfunc._mul

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(ratfunc, "_mul", counted)
    assert f ** e == want
    assert len(calls) == products


def test_products_by_one_return_the_operand(monkeypatch):
    p = Poly.variable(CTX) ** 3 + 2
    calls = []
    real = ratfunc._mul

    def counted(*args):
        calls.append(1)
        return real(*args)

    scalings = []
    scale = Poly.scale

    def counted_scale(self, a):
        scalings.append(1)
        return scale(self, a)

    monkeypatch.setattr(ratfunc, "_mul", counted)
    monkeypatch.setattr(Poly, "scale", counted_scale)
    assert p * Poly.one(CTX) is p
    assert Poly.one(CTX) * p is p
    assert scalings == [] and calls == []
    # any other constant takes the general product: one row's product
    # and its fold, as a scaling is
    g = Poly.constant(CTX, CTX.generator())
    assert p * g == g * p == p.scale(CTX.generator())


def test_ratfunc_ops_run_no_gcd_against_a_constant(monkeypatch):
    # x + poly, x * c, x / c and inv meet a denominator or numerator of
    # degree 0 in every gcd they would need, and x * x is reduced as
    # the square of a reduced fraction, so Euclid never runs.  A sum
    # with a zero term returns the other term (negated for 0 - x), and
    # an int or FieldElement operand only scales the numerator or adds
    # c * den to it, so those make no Poly product and no constant
    # RatFunc either.
    u = RatFunc.variable(CTX)
    x = (u ** 3 + CTX.generator()) / (u ** 2 + 2)
    f = Poly.variable(CTX) ** 2 + 1
    c = CTX.generator()
    zero = RatFunc.zero(CTX)
    want = [RatFunc(x.num + f * x.den, x.den), RatFunc(x.num * c, x.den),
            RatFunc(x.num, x.den * c), RatFunc(x.den, x.num),
            RatFunc(x.num * x.num, x.den * x.den)]
    cheap = [(lambda: x + 0, x), (lambda: 0 + x, x), (lambda: x - 0, x),
             (lambda: 0 - x, -x), (lambda: x + zero, x), (lambda: zero + x, x),
             (lambda: x - zero, x), (lambda: zero - x, -x), (lambda: x * 3, zero),
             (lambda: 2 * x, RatFunc(x.num * 2, x.den)),
             (lambda: x / 2, RatFunc(x.num, x.den * 2)),
             (lambda: c / x, RatFunc(x.den * c, x.num)),
             (lambda: x + c, RatFunc(x.num + x.den * c, x.den)),
             (lambda: x - 2, RatFunc(x.num - x.den * 2, x.den)),
             (lambda: 1 - x, RatFunc(x.den - x.num, x.den)),
             (lambda: RatFunc.from_poly(Poly.constant(CTX, 2)) + 1, zero)]
    calls, products = [], []
    real, mul = Poly.gcd, ratfunc._mul

    def counted(a, b):
        calls.append(1)
        return real(a, b)

    def counted_product(*args):
        products.append(1)
        return mul(*args)

    monkeypatch.setattr(Poly, "gcd", staticmethod(counted))
    assert [x + f, x * c, x / c, x.inv(), x * x] == want
    assert calls == []
    monkeypatch.setattr(ratfunc, "_mul", counted_product)
    monkeypatch.setattr(RatFunc, "constant", None)
    got = [op() for op, _ in cheap]
    assert calls == [] and products == []
    monkeypatch.undo()
    assert [(r.num, r.den) for r in got] == [(r.num, r.den) for _, r in cheap]
    with pytest.raises(ZeroDivisionError):
        x / 3


def _all_top_digits(ctx, rows):
    """The Poly whose every digit is p - 1: each slot at its largest."""
    return Poly.from_elems(ctx, [ctx.from_code(ctx.order - 1)] * rows)


def _all_top_product(ctx, la, lb):
    """The product of two all-(p - 1) Polys in closed form: coefficient J
    is c^2 times the number of pairs i + j = J."""
    c2 = ctx.from_code(ctx.order - 1) ** 2
    return Poly.from_elems(ctx, [c2 * (min(J + 1, la, lb, la + lb - 1 - J) % ctx.p)
                                 for J in range(la + lb - 1)])


def test_mul_overflow_guard():
    # a product's slots reach min(la, lb) k (p-1)^2 (1 + (k-1)(p-1)) with
    # every digit p - 1; up to lmax rows in the shorter operand they fit
    # the slot (with the bit the even/odd mod needs), and a longer one is
    # cut into pieces, so no product overflows or is refused.  These are
    # the fields whose lmax is a few thousand rows at most.
    for p, k in [(3, 1), (5, 1), (3, 2), (101, 2), (7, 4)]:
        ctx = build_field(p, k)
        pk = ratfunc._packing(ctx)
        per_row = pk.kpp * pk.spread
        assert pk.lmax * per_row <= pk.limit < (pk.lmax + 1) * per_row
        for la, lb in [(pk.lmax, pk.lmax), (pk.lmax + 1, pk.lmax + 3)]:
            a, b = _all_top_digits(ctx, la), _all_top_digits(ctx, lb)
            assert a * b == b * a == _all_top_product(ctx, la, lb)
        a = _all_top_digits(ctx, 2 * pk.lmax + 5)
        assert a * a == _all_top_product(ctx, 2 * pk.lmax + 5, 2 * pk.lmax + 5)


def _digit_rows(f):
    return np.array(f.to_obj(), dtype=np.int64).reshape(-1, f.ctx.k)


def _convolve_mul(a, b):
    """Test-side product: per-digit-column integer convolution in int64
    (np.convolve), w^m for m >= k reduced by rows from FieldElement
    powers of w, then mod p."""
    ctx = a.ctx
    k, p = ctx.k, ctx.p
    A, B = _digit_rows(a), _digit_rows(b)
    acc = np.zeros((A.shape[0] + B.shape[0] - 1, 2 * k - 1), dtype=np.int64)
    for i in range(k):
        for j in range(k):
            acc[:, i + j] += np.convolve(A[:, i], B[:, j])
    w = ctx.from_code(p) if k > 1 else ctx.one()
    for m in range(k, 2 * k - 1):
        acc[:, :k] += acc[:, m:m + 1] * np.array((w ** m).c, dtype=np.int64)
    return (acc[:, :k] % p).tolist()


# (p, k, operand lengths): each field's lengths put min(la, lb) on both
# sides of the slot-width steps min(la, lb) k (p-1)^2 (1 + (k-1)(p-1))
# < 2^8, 2^16, 2^32: for F_7 between 7 and 8 and between 1820 and 1821
# rows, for F_729 between 248 and 249, for F_{101^2} between 2126 and 2127
_KRONECKER_CASES = [
    (7, 1, [(2, 2), (7, 7), (7, 40), (8, 8), (1820, 1900), (1821, 1821)]),
    (3, 6, [(2, 3), (248, 300), (249, 249)]),
    (101, 2, [(2, 5), (2126, 2200), (2127, 2127)]),
]


def _recorded_slots(monkeypatch):
    """Record the slot width of every reference Kronecker product."""
    widths = []
    slot = ref._slot

    def recorded(bound):
        bits, code = slot(bound)
        widths.append(bits)
        return bits, code

    monkeypatch.setattr(ref, "_slot", recorded)
    return widths


def _kronecker(a, b):
    """a * b by the reference's log Kronecker kernel."""
    return Poly(a.ctx, ref._kronecker_logs(a.ctx, list(a.c), list(b.c))).to_obj()


@pytest.mark.parametrize("p,k,lengths", _KRONECKER_CASES)
def test_kronecker_product_matches_convolution(monkeypatch, p, k, lengths):
    # the packed product against the int64 convolution, and the
    # reference's Kronecker kernel too, its slot widths pinned at every
    # one of these lengths; 2127 rows over F_{101^2} is past lmax
    ctx = build_field(p, k)
    rng = random.Random(p * k)
    widths = _recorded_slots(monkeypatch)
    for la, lb in lengths:
        a, b = (Poly.from_elems(ctx, [ctx.from_code(rng.randrange(ctx.order))
                                      for _ in range(n - 1)]
                                + [ctx.from_code(rng.randrange(1, ctx.order))])
                for n in (la, lb))
        want = _convolve_mul(a, b)
        assert (a * b).to_obj() == want
        assert _kronecker(a, b) == want
    assert sorted(set(widths)) == {7: [8, 16, 32], 3: [16, 32], 101: [32, 64]}[p]


# two moduli of F_9 = F_3[w]: the same (p, k), different digits per log
_F9_MODULI = [(1, 0, 1), (2, 1, 1)]


def test_products_over_two_moduli_of_one_order(monkeypatch):
    # products over two F_9 with different moduli, interleaved.  Packing
    # or reduction data shared by (p, k), or keyed by id() and so met
    # again by a field built where a dropped one lived, would use one
    # field's digits for the other's logs.  The reference's Kronecker
    # kernel, whose slot bound 24 min(la, lb) crosses 2^8 between 10 and
    # 11 rows and 2^16 between 2730 and 2731, runs alongside.
    from legendre_mw.gf import FieldCtx
    rng = random.Random(18)
    logs = [None] + list(range(8))

    def rows(ctx, n):
        return Poly(ctx, [rng.choice(logs) for _ in range(n - 1)] + [rng.randrange(8)])

    widths = _recorded_slots(monkeypatch)
    fields = [FieldCtx(3, 2, m) for m in _F9_MODULI]
    assert fields[0]._exp != fields[1]._exp
    for la, lb in [(3, 10), (11, 11), (2730, 2731), (2731, 2731)]:
        for ctx in fields:
            a, b = rows(ctx, la), rows(ctx, lb)
            want = _convolve_mul(a, b)
            assert (a * b).to_obj() == want
            assert _kronecker(a, b) == want
    assert sorted(set(widths)) == [8, 16, 32]
    # the convolution of logs, interleaved
    for la, lb in [(2, 5), (8, 8), (30, 24), (80, 40)]:
        for ctx in fields:
            a, b = rows(ctx, la), rows(ctx, lb)
            assert Poly(ctx, ref._convolve_logs(ctx._zech, list(a.c), list(b.c))).to_obj() \
                == _convolve_mul(a, b)
    for i in range(6):
        ctx = FieldCtx(3, 2, _F9_MODULI[i % 2])
        a, b = rows(ctx, 12), rows(ctx, 7)
        assert (a * b).to_obj() == _convolve_mul(a, b)
        del ctx, a, b


# (p, k) of F_9, F_25, F_49, F_81, F_729 and F_{101^2}
_KERNEL_FIELDS = [(3, 2), (5, 2), (7, 2), (3, 4), (3, 6), (101, 2)]


@pytest.mark.parametrize("p,k", _KERNEL_FIELDS)
def test_kernels_match_references_across_crossovers(p, k):
    # products on both sides of the reference's la * lb = 64 k crossover
    # against the int64 convolution
    ctx = build_field(p, k)
    n = ctx.order - 1
    rng = random.Random(p + k)

    def rows(m, density):
        return Poly(ctx, [rng.randrange(n) if rng.random() < density else None
                          for _ in range(m - 1)] + [rng.randrange(n)])

    edge = int((ref._CONVOLVE_ROWS2_PER_K * k) ** 0.5)
    for la, lb in [(1, 2), (edge, edge), (edge + 1, edge + 1), (3, 40), (40, 50)]:
        for density in (1.0, 0.4):
            a, b = rows(la, density), rows(lb, density)
            assert (a * b).to_obj() == _convolve_mul(a, b)


# -- packed kernels against the log reference (tests/poly_reference.py) ----

# k = 1, 2 and 4 over p = 3, 5, 7 and 101 (F_{101^4} is too large to
# tabulate)
_REF_FIELDS = [build_field(p, k) for p, k in [(3, 1), (5, 1), (7, 1), (101, 1), (3, 2),
                                               (5, 2), (7, 2), (101, 2), (3, 4), (5, 4),
                                               (7, 4)]]


@st.composite
def _log_lists(draw, ctx, max_size):
    """A trimmed coefficient-log list, its codes drawn from the whole field
    or only from 0 and q - 1, the element whose every digit is p - 1."""
    top = ctx.order - 1
    codes = st.sampled_from([0, top]) if draw(st.booleans()) else st.integers(0, top)
    return ref._trim([ctx._log[c] for c in draw(st.lists(codes, max_size=max_size))])


@st.composite
def _kernel_cases(draw):
    ctx = draw(st.sampled_from(_REF_FIELDS))
    a, b = draw(_log_lists(ctx, 40)), draw(_log_lists(ctx, 20))
    x = draw(st.one_of(st.none(), st.integers(0, ctx.order - 2)))
    return ctx, a, b, x


@settings(max_examples=300, deadline=None)
@given(_kernel_cases())
def test_packed_kernels_match_log_reference(case):
    ctx, a, b, x = case
    A, B, X = Poly(ctx, a), Poly(ctx, b), FieldElement(ctx, x)
    assert list(A.c) == a and len(A.c) == A.c.shape[0] == len(a)
    assert list((A + B).c) == ref.add_logs(ctx, a, b)
    assert list((A - B).c) == ref.add_logs(ctx, a, ref.neg_logs(ctx, b))
    assert list((-A).c) == ref.neg_logs(ctx, a)
    assert list(A.scale(X).c) == ref.times_logs(ctx, a, x)
    assert list((A * B).c) == ref.mul_logs(ctx, a, b)
    assert list(A.frobenius().c) == ref.frobenius_logs(ctx, a)
    assert list(A.scale_var(X).c) == ref.scale_var_logs(ctx, a, x)
    assert A.eval(X).e == ref.eval_logs(ctx, a, x)
    assert list(Poly.gcd(A, B).c) == ref.gcd_logs(ctx, a, b)
    if b:
        q, r = ref.divmod_logs(ctx, a, b)
        Q, R = divmod(A, B)
        assert (list(Q.c), list(R.c)) == (q, r)
        assert list((A // B).c) == q and list((A % B).c) == r


# the fold takes one pass per lowering of the top w-degree: two for the
# low, sparse modulus build_field picks for F_{3^8}, three and five for
# these dense moduli of F_81 and F_729
_MULTI_PASS_FIELDS = [((3, 8, None), 2), ((3, 4, (1, 1, 1, 1, 1)), 3),
                      ((3, 6, (1, 1, 1, 1, 1, 1, 1)), 5)]


@pytest.mark.parametrize("spec,passes", _MULTI_PASS_FIELDS)
def test_kernels_match_log_reference_over_multi_pass_folds(spec, passes):
    from legendre_mw.gf import FieldCtx
    p, k, modulus = spec
    ctx = build_field(p, k) if modulus is None else FieldCtx(p, k, modulus)
    assert len(ratfunc._packing(ctx).passes) == passes
    rng = random.Random(p * k)
    top = ctx.order - 1
    for size_a, size_b in [(1, 1), (5, 3), (40, 17), (90, 60)]:
        codes = [0, top] if rng.random() < 0.3 else range(ctx.order)
        a, b = ([ctx._log[rng.choice(codes)] for _ in range(n - 1)] + [rng.randrange(top)]
                for n in (size_a, size_b))
        A, B = Poly(ctx, a), Poly(ctx, b)
        assert list((A * B).c) == ref.mul_logs(ctx, a, b)
        assert list(A.scale(ctx.generator()).c) == ref.times_logs(ctx, a, 1)
        assert [list(f.c) for f in divmod(A, B)] == list(ref.divmod_logs(ctx, a, b))
        assert list(Poly.gcd(A, B).c) == ref.gcd_logs(ctx, a, b)


@pytest.mark.parametrize("p", [3, 5])
def test_long_division_reduces_before_slots_overflow(p):
    # a remainder slot gains up to k (p-1)^2 per quotient row that reaches
    # it, at most once per divisor row.  Over F_p the bound is met: with
    # every digit of b equal to p - 1 and every quotient coefficient 1,
    # each step adds exactly (p-1)^2.  Quotient and divisor here are long
    # enough to overflow a whole slot, so the remainder must be reduced on
    # the way (p = 3 and 5 have 16-bit slots)
    ctx = build_field(p, 1)
    pk = ratfunc._packing(ctx)
    rows = (1 << pk.w) // pk.kpp + 1
    b = _all_top_digits(ctx, rows)
    q = Poly.from_elems(ctx, [1] * rows)
    r = Poly.from_elems(ctx, [2, 0, 1])
    assert divmod(q * b + r, b) == (q, r)


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


# -- division oracles ----------------------------------------------------

def _rand_sparse_poly(ctx, rng, max_deg):
    return _rand_poly(ctx, rng, max_deg, allow_zero=False, sparse=True)


def _division_cases(ctx, rng):
    """(a, b) pairs: random ones up to degree 80, plus a dividend shorter
    than the divisor, constant and non-monic divisors, the sparse
    u^d - 1 both ways, exact quotients, and a step where a coefficient
    cancels to zero (1 + g^e = 0 in Zech terms)."""
    u = Poly.variable(ctx)
    g = ctx.generator()
    cases = [(_rand_sparse_poly(ctx, rng, 80), _rand_sparse_poly(ctx, rng, 40))
             for _ in range(12)]
    a = _rand_sparse_poly(ctx, rng, 20)
    b = _rand_sparse_poly(ctx, rng, 10) * g
    cases += [
        (_rand_sparse_poly(ctx, rng, 5), u ** 9 + g * u + 1),
        (a, Poly.constant(ctx, g)),
        (a, b),
        (a * b + u ** 3, b),
        (u ** 12 - 1, u + g),
        (a * b, u ** 8 - 1),
        ((u ** 8 - 1) * b, u ** 8 - 1),
        (u ** 2 + u + g, u + 1),
        (Poly.zero(ctx), b),
    ]
    return cases


def _school_divmod(a, b):
    """Schoolbook long division coefficient by coefficient in
    FieldElement arithmetic (the test-side reference)."""
    ctx = a.ctx
    r = [a.coeff(i) for i in range(len(a.c))]
    db = len(b.c) - 1
    inv = b.lc().inv()
    q = [ctx.zero()] * max(len(r) - db, 0)
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i] * inv
        q[i - db] = c
        for j in range(db + 1):
            r[i - db + j] = r[i - db + j] - c * b.coeff(j)
    return Poly.from_elems(ctx, q), Poly.from_elems(ctx, r[:db])


def _school_gcd(a, b):
    while not b.is_zero():
        a, b = b, _school_divmod(a, b)[1]
    if a.is_zero():
        return a
    inv = a.lc().inv()
    return Poly.from_elems(a.ctx, [a.coeff(i) * inv for i in range(len(a.c))])


def _gcd_cases(ctx, rng):
    a = _rand_sparse_poly(ctx, rng, 30) * ctx.generator()
    zero = Poly.zero(ctx)
    common = _rand_sparse_poly(ctx, rng, 6)
    return [(zero, zero), (a, zero), (zero, a), (a, a * ctx.generator()),
            (a * common, _rand_sparse_poly(ctx, rng, 30) * common)]


@pytest.mark.parametrize("p", [3, 7, 101])
def test_divmod_and_gcd_match_sympy_galoistools(p):
    galoistools = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    def dense(f):  # high degree first, as galoistools wants
        return [row[0] for row in f.to_obj()[::-1]]

    ctx = build_field(p, 1)
    rng = random.Random(p)
    for a, b in _division_cases(ctx, rng):
        q, r = divmod(a, b)
        assert (dense(q), dense(r)) == tuple(galoistools.gf_div(dense(a), dense(b), p, ZZ))
        assert a // b == q and a % b == r
    for a, b in _division_cases(ctx, rng) + _gcd_cases(ctx, rng):
        assert dense(Poly.gcd(a, b)) == galoistools.gf_gcd(dense(a), dense(b), p, ZZ)


@pytest.mark.parametrize("p,k", [(3, 2), (3, 4), (3, 6), (101, 2)])
def test_divmod_and_gcd_match_schoolbook(p, k):
    ctx = build_field(p, k)
    rng = random.Random(p * k)
    for a, b in _division_cases(ctx, rng):
        q, r = divmod(a, b)
        assert (q, r) == _school_divmod(a, b)
        assert a // b == q and a % b == r
    for a, b in _division_cases(ctx, rng)[-5:] + _gcd_cases(ctx, rng):
        assert Poly.gcd(a, b) == _school_gcd(a, b)


def test_gcd_edge_cases():
    u = Poly.variable(CTX)
    g = CTX.generator()
    a = g * u ** 3 + u + 1
    assert Poly.gcd(Poly.zero(CTX), Poly.zero(CTX)).is_zero()
    assert Poly.gcd(a, Poly.zero(CTX)) == a.monic()
    assert Poly.gcd(Poly.zero(CTX), a) == a.monic()
    assert Poly.gcd(a, a * g) == a.monic()


@pytest.mark.parametrize("p,k", [(3, 1), (7, 1), (101, 1), (3, 2), (3, 4), (3, 6),
                                 (101, 2)])
def test_zech_table_is_log_of_one_plus(p, k):
    ctx = build_field(p, k)
    g = ctx.generator()
    n = ctx.order - 1
    assert len(ctx._zech) == n
    for e, z in enumerate(ctx._zech):
        s = ctx.one() + g ** e
        if z is None:
            assert s.is_zero() and e == n // 2
        else:
            assert 0 <= z < n and g ** z == s


_HYP_FIELDS = [build_field(3, 2), build_field(3, 4), build_field(3, 6)]


@st.composite
def _poly_pairs(draw):
    ctx = draw(st.sampled_from(_HYP_FIELDS))
    codes = st.integers(0, ctx.order - 1)
    a = Poly.from_elems(ctx, [ctx.from_code(c) for c in draw(st.lists(codes, max_size=40))])
    b = Poly.from_elems(ctx, [ctx.from_code(c) for c in draw(st.lists(codes, max_size=20))])
    return a, b


@settings(max_examples=150, deadline=None)
@given(_poly_pairs())
def test_division_identity_property(pair):
    a, b = pair
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            divmod(a, b)
        return
    q, r = a // b, a % b
    assert q * b + r == a
    assert r.deg < b.deg



def _hyp_poly(draw, ctx, max_size):
    codes = st.lists(st.integers(0, ctx.order - 1), max_size=max_size)
    return Poly.from_elems(ctx, [ctx.from_code(c) for c in draw(codes)])


@st.composite
def _poly_triples(draw):
    ctx = draw(st.sampled_from(_HYP_FIELDS))
    return tuple(_hyp_poly(draw, ctx, 12) for _ in range(3))


@st.composite
def _ratfunc_triples(draw):
    ctx = draw(st.sampled_from(_HYP_FIELDS))
    out = []
    for _ in range(3):
        num, den = _hyp_poly(draw, ctx, 6), _hyp_poly(draw, ctx, 6)
        out.append(RatFunc(num, den if not den.is_zero() else Poly.one(ctx)))
    return tuple(out)


@settings(max_examples=100, deadline=None)
@given(_poly_triples())
def test_poly_ring_laws_property(triple):
    a, b, c = triple
    one = Poly.one(a.ctx)
    assert a * b == b * a == _slow_mul(a, b)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * one == a and (a - a).is_zero()
    assert (a * b).is_zero() == (a.is_zero() or b.is_zero())
    if not a.is_zero() and not b.is_zero():
        assert (a * b).deg == a.deg + b.deg


@st.composite
def _ratfunc_pairs(draw):
    """Two reduced RatFuncs over one field, built by the general
    constructor: independent; with denominators sharing a drawn monic
    factor s; or x and y = z - x for a drawn z, so that x + y cancels
    much of the shared part of the denominators."""
    ctx = draw(st.sampled_from(_HYP_FIELDS))

    def nonzero(max_size):
        f = _hyp_poly(draw, ctx, max_size)
        return f if not f.is_zero() else Poly.one(ctx)

    kind = draw(st.sampled_from(["independent", "shared", "cancel"]))
    s = nonzero(4).monic() if kind == "shared" else Poly.one(ctx)
    x = RatFunc(_hyp_poly(draw, ctx, 6), nonzero(4) * s)
    y = RatFunc(_hyp_poly(draw, ctx, 6), nonzero(4) * s)
    if kind == "cancel":
        y = RatFunc(y.num * x.den - x.num * y.den, y.den * x.den)
    return x, y


def _reduced(r):
    return r.den.lc() == 1 and Poly.gcd(r.num, r.den) == Poly.one(r.ctx)


@settings(max_examples=200, deadline=None)
@given(_ratfunc_pairs())
def test_ratfunc_ops_match_general_constructor(pair):
    # each operator returns a canonical result without running the
    # constructor's Euclid; the constructor on the cross-multiplied
    # pair is the oracle
    x, y = pair
    a, b, c, d = x.num, x.den, y.num, y.den
    results = [(x + y, RatFunc(a * d + c * b, b * d)),
               (x - y, RatFunc(a * d - c * b, b * d)),
               (x * y, RatFunc(a * c, b * d))]
    if not y.is_zero():
        results += [(x / y, RatFunc(a * d, b * c)), (y.inv(), RatFunc(d, c))]
    for got, want in results:
        assert _reduced(got)
        assert got == want


@settings(max_examples=100, deadline=None)
@given(_ratfunc_triples())
def test_ratfunc_field_laws_property(triple):
    a, b, c = triple
    one = RatFunc.one(a.num.ctx)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert (a + b) * c == a * c + b * c
    assert a * one == a and (a - a).is_zero()
    if not b.is_zero():
        assert (a / b) * b == a
        assert b * b.inv() == one

def test_gcd_properties():
    rng = random.Random(77)
    for _ in range(40):
        a = _rand_poly(CTX, rng, max_deg=5)
        b = _rand_poly(CTX, rng, max_deg=5)
        g = Poly.gcd(a, b)
        if a.is_zero() and b.is_zero():
            assert g.is_zero()
            continue
        assert g.lc() == 1
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
    g = CTX.generator()          # log 1: not a square
    for f, why in [(u ** 3 + 1, "odd degree"), (u ** 2 * g + 1, "leading coefficient"),
                   ((u + 1) ** 2 + u, "not a perfect square")]:
        with pytest.raises(ValueError, match=why):
            poly_sqrt(f)


def _sqrt_by_elements(f):
    """The root poly_sqrt returns, solved on FieldElements: g_m =
    lc(f).sqrt(), then each lower g_i from the u^(m+i) coefficient."""
    ctx, m = f.ctx, f.deg // 2
    g = [ctx.zero()] * (m + 1)
    g[m] = f.lc().sqrt()
    inv2gm = (ctx.elem(2) * g[m]).inv()
    for i in range(m - 1, -1, -1):
        s = f.coeff(m + i)
        for j in range(i + 1, m):
            s = s - g[j] * g[m + i - j]
        g[i] = s * inv2gm
    return Poly.from_elems(ctx, g)


@pytest.mark.parametrize("p,k", [(3, 2), (7, 2), (3, 4)])
def test_poly_sqrt_matches_elementwise_root(p, k):
    ctx = build_field(p, k)
    rng = random.Random(p * k)
    for _ in range(25):
        g = _rand_poly(ctx, rng, max_deg=30, allow_zero=False, sparse=True)
        f = g * g
        r = poly_sqrt(f)
        assert r == _sqrt_by_elements(f)
        assert r == g or r == -g


def test_ratfunc_canonical():
    u = Poly.variable(CTX)
    r = RatFunc(u ** 2 - 1, 2 * (u - 1))
    # reduced and monic denominator
    assert r.den.lc() == 1
    assert Poly.gcd(r.num, r.den) == Poly.one(CTX)
    assert r == RatFunc(u + 1, Poly.constant(CTX, 2))
    with pytest.raises(ZeroDivisionError):
        RatFunc(u, Poly.zero(CTX))


def test_poly_ratfunc_equality_is_symmetric():
    # Poly.__eq__ defers to RatFunc for a RatFunc operand, so both orders
    # agree, for an equal and for an unequal pair
    one, u = Poly.one(CTX), Poly.variable(CTX)
    assert one == RatFunc.one(CTX) and RatFunc.one(CTX) == one
    assert u == RatFunc.variable(CTX) and RatFunc.variable(CTX) == u
    assert not u == RatFunc.one(CTX) and not RatFunc.one(CTX) == u
    assert u != RatFunc.one(CTX) and RatFunc.one(CTX) != u


def test_sum_cancelling_the_shared_factor():
    u = RatFunc.variable(CTX)
    one = RatFunc.one(CTX)
    assert 1 / u + (u - 1) / u == one
    assert (1 / u + (u - 1) / u).den == Poly.one(CTX)
    # in characteristic 3 the numerator (u + 2) + (u + 1) = 2u cancels
    # the shared factor u of the denominators, and nothing else
    total = 1 / (u * (u + 1)) + 1 / (u * (u + 2))
    assert (total.num, total.den) == (Poly.constant(CTX, 2), ((u + 1) * (u + 2)).num)


def test_unsupported_operands_raise_type_error():
    x = RatFunc.variable(CTX)
    f = Poly.variable(CTX)
    with pytest.raises(TypeError, match="for /:"):
        "a" / x
    with pytest.raises(TypeError, match="for -:"):
        "a" - x
    with pytest.raises(TypeError, match="for -:"):
        "a" - f


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


def test_scale_var_at_zero_is_the_value_at_zero():
    # u -> 0 u is no automorphism: num and den become the constants
    # num(0) and den(0), which the constructor reduces, and a den
    # with a root at 0 leaves no value
    u = RatFunc.variable(CTX)
    zero = CTX.zero()
    for r in ((u ** 2 + 2 * u + 1) / (u + 2), u / (u + 1)):
        s = r.scale_var(zero)
        assert (s.num, s.den) == (Poly.constant(CTX, r.eval(zero)), Poly.one(CTX))
    with pytest.raises(ZeroDivisionError):
        ((u + 1) / u).scale_var(zero)


@pytest.mark.parametrize("k", [2, 4, 6])
def test_coefficient_maps_run_no_gcd(monkeypatch, k):
    # the Frobenius and u -> a*u (a != 0) are automorphisms of F_q[u],
    # so they keep a reduced fraction reduced; the general constructor
    # on the mapped num and den is the oracle
    ctx = build_field(3, k)
    rng = random.Random(k)
    cases = []
    for _ in range(12):
        num = _rand_poly(ctx, rng, sparse=True)
        den = _rand_poly(ctx, rng, max_deg=5, allow_zero=False)
        x = RatFunc(num, den)
        a = ctx.from_code(rng.randrange(1, ctx.order))
        cases.append((x, a, RatFunc(x.num.frobenius(), x.den.frobenius()),
                      RatFunc(x.num.scale_var(a), x.den.scale_var(a))))
    calls = []
    real = Poly.gcd

    def counted(p, q):
        calls.append(1)
        return real(p, q)

    monkeypatch.setattr(Poly, "gcd", staticmethod(counted))
    # equal to the canonical oracle, so reduced with a monic den
    for x, a, frob, scaled in cases:
        assert x.frobenius() == frob and x.scale_var(a) == scaled
    assert calls == []


def test_ratfunc_serialization_roundtrip():
    u = RatFunc.variable(CTX)
    r = (u ** 3 + 2) / (u ** 2 + u)
    assert r.to_obj() == {"num": [[2, 0], [0, 0], [0, 0], [1, 0]],
                          "den": [[0, 0], [1, 0], [1, 0]]}
    assert u.num.to_obj() == [[0, 0], [1, 0]]
