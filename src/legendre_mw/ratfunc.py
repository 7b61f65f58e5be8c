"""Polynomials F_q[u] and reduced rational functions F_q(u).

F_q = F_p[w]/(m(w)) with q = p^k.  A Poly is one int: the digits over F_p
of its coefficients in slots of W bits, W fixed per field.  Coefficient
j, digits c_0..c_(k-1) in the basis w^0..w^(k-1), fills the row of
S = 2k - 1 slots from slot S j, c_i in slot S j + i, slots k..S-1 zero.
Stored slots are reduced, 0 <= c_i < p, so equality is int ==, zero is
0 and the degree is read off bit_length.  Each kernel is a few big-int
operations, with no Python step per coefficient:
- a + b, a + (p - 1) b and (p - 1) a add, subtract and negate;
- a product is one int product (Kronecker substitution u -> 2^(SW),
  w -> 2^W; Harvey, "Faster polynomial multiplication via multipoint
  Kronecker substitution", 2009).  Two rows' w-convolution reaches
  w^(2k-2) inside its row.  A fold pass masks out the w-degrees >= k of
  every row at once and adds them back times the digits of w^k (the
  field's `_red[0]`); for the low, sparse moduli `build_field` picks,
  one or two passes leave none.  Scaling by a field element is the
  product by its row, a k x k map over F_p on every coefficient at once;
- every slot is then taken mod p at once (SWAR): with m = ceil(2^s/p),
  floor(v m / 2^s) = floor(v / p) for v up to a bound, so
  x - p ((x m >> s) & mask) reduces all slots.  v m takes about twice
  the bits of v: small bounds (sums, scalings) fit in a slot, larger
  ones are reduced on the even and the odd slots apart, with 2W bits each;
- long division reads the remainder's top row (folded, its digits mod
  p), takes the quotient coefficient from the log tables, and
  adds -c times the divisor, shifted, with one product and one add.  Each
  such step adds at most k (p - 1)^2 to a slot, and the remainder is
  reduced at the end, or before its slots could outgrow W bits.
W is the narrowest whole number of bytes that holds, with a bit to spare,
a product of 1024-row operands: a product's slot is at most
min(la, lb) k (p - 1)^2 before the fold and `spread` times that after it.  A product past `lmax` rows (the rows that fit) stays exact: its
shorter operand is cut into pieces of lmax rows and the reduced partial
products are summed.  Coefficients become logs (a FieldElement's format)
only to be read: `coeff`, `lc`, `repr`, `eval`, `scale_var`, `frobenius`,
`poly_sqrt` and the read-only view `c`; `to_obj` reads the digit slots.

A RatFunc is always canonical: gcd(num, den) = 1 and den monic.  The
constructor RatFunc(num, den) always reduces, by Euclid on the whole
numerator and denominator; a result known to be reduced is built
unchecked by _frac, as a Poly is by _poly.  The Frobenius and u -> a*u
(a != 0) are automorphisms of F_q[u], so they keep num and den coprime.
The field operators take gcds only of factors that can be shared
(Henrici; Knuth, TAOCP 4.5.1), none with a constant operand and none for
x * x; an int or FieldElement operand and a zero term make no Poly
product at all, a Poly product by a constant is one product by its row,
as a scaling is, and a product by 1 returns the other operand.
"""

from __future__ import annotations

from .gf import FieldCtx, FieldElement

NEG_INF = float("-inf")


def _magic(p: int, width: int, cap: int) -> tuple[int, int, int]:
    """(v, s, m) with m = ceil(2^s / p) and the largest v <= cap such that
    floor(x m / 2^s) = floor(x / p) for 0 <= x <= v and v m < 2^width.
    With e = m p - 2^s < p and x = t p + r, x m / 2^s = t + r/p +
    x e / (p 2^s), which stays below t + 1 while x e < 2^s."""
    best = (0, 0, 0)
    for s in range(1, 2 * width):
        m = -(-(1 << s) // p)
        e = m * p - (1 << s)
        v = min(cap, ((1 << s) - 1) // e if e else cap, ((1 << width) - 1) // m)
        best = max(best, (v, s, m))
    return best


class _Packing(dict):
    """The packed format of one field (see the module docstring): slot
    width, SWAR constants, the fold, masks that repeat a slot or row
    pattern over `cap` bits (lengthened when an operand outgrows them),
    and, as a dict, the packed row of each element code, made when first
    asked."""

    __slots__ = ("ctx", "p", "k", "w", "mask", "digits", "rb", "rowmask", "kw", "low", "kpp",
                 "spread", "limit", "lmax", "vm", "s1", "m1", "s2", "m2", "passes", "red", "cap",
                 "q1", "even", "q2", "high", "lowk")

    def __init__(self, ctx: FieldCtx):
        p, k = ctx.p, ctx.k
        self.ctx, self.p, self.k = ctx, p, k
        # bound on a product's slots per row of its shorter operand
        self.kpp = k * (p - 1) ** 2
        # A fold pass replaces the w-degrees >= k of every row, at once,
        # by their product with the digits of w^k, until none is left
        # (a dense modulus takes k - 1 passes).  Folding a row of ones
        # gives the factor by which the passes can grow a bound.
        red, v, passes = ctx._red[0] if k > 1 else (), [1] * (2 * k - 1), 0
        while any(v[k:]):
            high, v = v[k:], v[:k] + [0] * (k - 1)
            for m, h in enumerate(high):
                for i, r in enumerate(red):
                    v[m + i] += h * r
            passes += 1
        self.passes, self.spread = range(passes), max(v)
        w = 8 * -(-((1024 * self.kpp * self.spread).bit_length() + 1) // 8)
        self.w, self.rb = w, (2 * k - 1) * w
        self.mask, self.digits = (1 << w) - 1, tuple(w * i for i in reversed(range(k)))
        self.kw = k * w
        self.low = (1 << self.kw) - 1        # the low k slots of a row
        self.rowmask = (1 << self.rb) - 1
        self.limit = (1 << (w - 1)) - 1
        self.lmax = self.limit // (self.kpp * self.spread)
        # the one-slot SWAR step takes slots up to vm; the even/odd one
        # takes any slot up to limit, as 2W bits hold limit * m2
        self.vm, self.s1, self.m1 = _magic(p, w, self.limit)
        _, self.s2, self.m2 = _magic(p, 2 * w, self.limit)
        self.red = sum(d << w * i for i, d in enumerate(red))
        self.cap = 0
        self.fit(64 * self.rb)

    def fit(self, bits: int) -> None:
        """Lengthen the masks to cover `bits` bits, at least doubling."""
        if bits <= self.cap:
            return
        w, rb = self.w, self.rb
        cap = -(-max(bits, 2 * self.cap) // (2 * rb)) * 2 * rb
        full = (1 << cap) - 1
        slots, pairs, rows = full // ((1 << w) - 1), full // ((1 << 2 * w) - 1), full // self.rowmask
        self.q1 = ((1 << (w - self.s1)) - 1) * slots
        self.even = ((1 << w) - 1) * pairs
        self.q2 = ((1 << (2 * w - self.s2)) - 1) * pairs
        self.high = ((1 << (self.k - 1) * w) - 1) * rows
        self.lowk = ((1 << self.k * w) - 1) * rows
        self.cap = cap

    def read(self, t: int) -> int:
        """Code (sum of digits times p^i) of the row t, whose slots may be
        unreduced and may hold w-degrees k..2k-2 (at most limit once
        folded)."""
        p, mask, kw = self.p, self.mask, self.kw
        for _ in self.passes:
            t = (t & self.low) + (t >> kw) * self.red
        code = 0
        for shift in self.digits:
            code = code * p + (t >> shift & mask) % p
        return code

    def __missing__(self, code: int) -> int:
        self[code] = row = sum(d << self.w * i for i, d in enumerate(self.ctx._digits[code]))
        return row

    def pack(self, logs) -> int:
        """The packed int of coefficient logs, low degree first."""
        exp = self.ctx._exp
        return self.join([0 if e is None else self[exp[e]] for e in logs])

    def join(self, rows: list[int]) -> int:
        """The packed int of packed rows, low degree first."""
        size = self.rb // 8
        return int.from_bytes(b"".join(x.to_bytes(size, "little") for x in rows), "little")

    def unpack(self, v: int) -> list[int]:
        """The rows of the packed int v, low degree first."""
        size = self.rb // 8
        raw = v.to_bytes(-(-v.bit_length() // self.rb) * size, "little")
        return [int.from_bytes(raw[i:i + size], "little") for i in range(0, len(raw), size)]


_PACKINGS: dict = {}


def _packing(ctx: FieldCtx) -> _Packing:
    pk = _PACKINGS.get(ctx)
    if pk is None:
        pk = _PACKINGS[ctx] = _Packing(ctx)
    return pk


# ----------------------------------------------------------------------
# Kernels on packed ints.

def _reduce(pk: _Packing, x: int, bound: int) -> int:
    """x with every slot taken mod p, for slots at most bound <= pk.limit."""
    if x.bit_length() > pk.cap:
        pk.fit(x.bit_length())
    p = pk.p
    if bound <= pk.vm:
        return x - (x * pk.m1 >> pk.s1 & pk.q1) * p
    w, even, m, s, q = pk.w, pk.even, pk.m2, pk.s2, pk.q2
    a, b = x & even, x >> w & even
    return (a - (a * m >> s & q) * p) | (b - (b * m >> s & q) * p) << w


def _normalize(pk: _Packing, x: int, bound: int) -> int:
    """The stored form of x, whose rows may hold w-degrees up to 2k - 2
    and whose slots are at most bound: fold the w-degrees >= k of every
    row into its low k slots, then reduce mod p."""
    if pk.passes:
        if x.bit_length() > pk.cap:
            pk.fit(x.bit_length())
        kw, high, lowk, red = pk.kw, pk.high, pk.lowk, pk.red
        for _ in pk.passes:
            x = (x & lowk) + (x >> kw & high) * red
        bound *= pk.spread
    return _reduce(pk, x, bound)


def _mul(pk: _Packing, a: int, b: int) -> int:
    """a * b for nonzero packed a, b: one int product, then the fold and
    the mod, or one per piece of lmax rows of the shorter operand."""
    la, lb = (a.bit_length() - 1) // pk.rb + 1, (b.bit_length() - 1) // pk.rb + 1
    if la > lb:
        a, b, la = b, a, lb
    if la <= pk.lmax:
        return _normalize(pk, a * b, la * pk.kpp)
    step = pk.lmax * pk.rb
    piece = (1 << step) - 1
    acc = 0
    for shift in range(0, la * pk.rb, step):
        acc += _normalize(pk, (a >> shift & piece) * b, pk.lmax * pk.kpp) << shift
    return _reduce(pk, acc, -(-la // pk.lmax) * (pk.p - 1))


def _divmod(pk: _Packing, a: int, b: int, want_quotient: bool) -> tuple[int, int]:
    """(quotient or 0, remainder) of packed a by nonzero packed b.  Row i
    of the remainder, read from the top, gives the quotient coefficient
    c = r_i / lc(b) from the log tables, and -c b shifted to row i is
    added at once; each such step adds at most k (p - 1)^2 to a slot."""
    rb, ctx = pk.rb, pk.ctx
    db, da = (b.bit_length() - 1) // rb, (a.bit_length() - 1) // rb
    if da < db:
        return 0, a
    log, exp, n = ctx._log, ctx._exp, ctx.order - 1
    top = log[pk.read(b >> rb * db)]
    neg = n // 2 - top                       # -1/lc(b), as -1 = g^(n/2)
    p, mask, digits, kw, low, red = pk.p, pk.mask, pk.digits, pk.kw, pk.low, pk.red
    passes, rowmask, step = pk.passes, pk.rowmask, pk.kpp
    start = bound = p - 1
    cap = pk.limit // pk.spread
    r, q = a, 0
    for i in range(da, db - 1, -1):
        t, code = r >> rb * i & rowmask, 0     # pk.read, inline
        for _ in passes:
            t = (t & low) + (t >> kw) * red
        for shift in digits:
            code = code * p + (t >> shift & mask) % p
        c = log[code]
        q <<= rb
        if c is None:
            continue
        if want_quotient:
            q |= pk[exp[(c - top) % n]]
        r += b * pk[exp[(c + neg) % n]] << rb * (i - db)
        bound += step
        if bound > cap:
            r, bound = _normalize(pk, r, bound), start
    return q, _normalize(pk, r & ((1 << rb * db) - 1), bound)


# ----------------------------------------------------------------------

class Logs:
    """Read-only view of a Poly's coefficient logs (each the `e` of a
    FieldElement, None for zero), low degree first, decoded when read.
    Like a 1-D array, it has a shape, (number of coefficients,)."""

    __slots__ = ("_f",)

    def __init__(self, f: "Poly"):
        self._f = f

    shape = property(lambda self: (len(self),))

    def __len__(self) -> int:
        return self._f.deg + 1 if self._f._v else 0

    def __getitem__(self, i):
        return self._f._logs()[i]

    def __iter__(self):
        return iter(self._f._logs())


def _poly(pk: _Packing, v: int) -> "Poly":
    f = object.__new__(Poly)
    f.ctx, f._pk, f._v = pk.ctx, pk, v
    return f


def _frac(num: "Poly", den: "Poly") -> "RatFunc":
    """num/den for coprime num and monic den, unchecked."""
    r = object.__new__(RatFunc)
    r.num, r.den = num, den
    return r


class Poly:
    __slots__ = ("ctx", "_pk", "_v")

    def __init__(self, ctx: FieldCtx, logs=()):
        """The polynomial with coefficient logs `logs` (low degree first,
        None for zero)."""
        self.ctx = ctx
        self._pk = _packing(ctx)
        self._v = self._pk.pack(logs)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_elems(cls, ctx: FieldCtx, elems) -> "Poly":
        """Build from a list of FieldElements / ints, low degree first."""
        return cls(ctx, [ctx.elem(e).e for e in elems])

    @classmethod
    def zero(cls, ctx: FieldCtx) -> "Poly":
        return _poly(_packing(ctx), 0)

    @classmethod
    def one(cls, ctx: FieldCtx) -> "Poly":
        return _poly(_packing(ctx), 1)

    @classmethod
    def constant(cls, ctx: FieldCtx, value) -> "Poly":
        return cls.from_elems(ctx, [value])

    @classmethod
    def variable(cls, ctx: FieldCtx) -> "Poly":
        return cls.monomial(ctx, 1)

    @classmethod
    def monomial(cls, ctx: FieldCtx, n: int) -> "Poly":
        """u^n."""
        pk = _packing(ctx)
        return _poly(pk, 1 << pk.rb * n)

    # -- inspection ---------------------------------------------------

    @property
    def c(self) -> Logs:
        """The coefficient logs, read-only."""
        return Logs(self)

    @property
    def deg(self):
        """Degree, with -inf for the zero polynomial."""
        v = self._v
        return (v.bit_length() - 1) // self._pk.rb if v else NEG_INF

    def is_zero(self) -> bool:
        return not self._v

    def coeff(self, i: int) -> FieldElement:
        pk = self._pk
        code = pk.read(self._v >> pk.rb * i & pk.rowmask) if i >= 0 else 0
        return FieldElement(self.ctx, self.ctx._log[code])

    def lc(self) -> FieldElement:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeff(self.deg)

    def valuation(self) -> int:
        """Multiplicity of the root u = 0 of a nonzero polynomial."""
        v = self._v
        return ((v & -v).bit_length() - 1) // self._pk.rb

    def _logs(self) -> list:
        pk, log = self._pk, self.ctx._log
        return [log[pk.read(row)] for row in pk.unpack(self._v)]

    # -- ring operations ----------------------------------------------

    def _check(self, other: "Poly"):
        if self._pk is not other._pk:
            raise ValueError("coefficient field mismatch")

    def __add__(self, other):
        if isinstance(other, (int, FieldElement)):
            other = Poly.constant(self.ctx, other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        if not other._v:
            return self
        if not self._v:
            return other
        pk = self._pk
        return _poly(pk, _reduce(pk, self._v + other._v, 2 * pk.p - 2))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, FieldElement)):
            other = Poly.constant(self.ctx, other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        if not other._v:
            return self
        p = self._pk.p
        return _poly(self._pk, _reduce(self._pk, self._v + (p - 1) * other._v, p * (p - 1)))

    def __rsub__(self, other):
        if isinstance(other, (int, FieldElement)):
            return Poly.constant(self.ctx, other) - self
        return NotImplemented

    def __neg__(self):
        p = self._pk.p
        return _poly(self._pk, _reduce(self._pk, (p - 1) * self._v, (p - 1) ** 2))

    def __mul__(self, other):
        if isinstance(other, (int, FieldElement)):
            return self.scale(self.ctx.elem(other))
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        pk, a, b = self._pk, self._v, other._v
        if a == 1:
            return other
        if b == 1:
            return self
        if not a or not b:
            return _poly(pk, 0)
        return _poly(pk, _mul(pk, a, b))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        if e == 0:
            return Poly.one(self.ctx)
        # left to right: square per bit below the top, times self per 1
        result = self
        for bit in bin(e)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def scale(self, a: FieldElement) -> "Poly":
        """Multiply every coefficient by the field element a."""
        if a.is_zero() or self.is_zero():
            return Poly.zero(self.ctx)
        return self._times(a.e)

    def _times(self, s: int) -> "Poly":
        """self * g^s for the field's generator g; self itself for s = 0."""
        if not s:
            return self
        pk = self._pk
        row = pk[self.ctx._exp[s % (pk.ctx.order - 1)]]
        return _poly(pk, _normalize(pk, self._v * row, pk.kpp))

    def __divmod__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        q, r = self._divide(other, want_quotient=True)
        return _poly(self._pk, q), _poly(self._pk, r)

    def __floordiv__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return _poly(self._pk, self._divide(other, want_quotient=True)[0])

    def __mod__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return _poly(self._pk, self._divide(other, want_quotient=False)[1])

    def _divide(self, other: "Poly", want_quotient: bool):
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        return _divmod(self._pk, self._v, other._v, want_quotient)

    @staticmethod
    def gcd(a: "Poly", b: "Poly") -> "Poly":
        """Monic gcd (gcd(0, 0) = 0) by the Euclidean algorithm on the
        packed ints, made monic once at the end."""
        a._check(b)
        pk = a._pk
        x, y = a._v, b._v
        while y:
            x, y = y, _divmod(pk, x, y, False)[1]
        g = _poly(pk, x)
        return g.monic() if x else g

    def monic(self) -> "Poly":
        if self.is_zero():
            raise ValueError("cannot normalize the zero polynomial")
        return self._times(-self.lc().e)

    # -- maps ----------------------------------------------------------

    def eval(self, a: FieldElement) -> FieldElement:
        """Horner evaluation at a field element."""
        acc = self.ctx.zero()
        for e in reversed(self._logs()):
            acc = acc * a + FieldElement(self.ctx, e)
        return acc

    def scale_var(self, a: FieldElement) -> "Poly":
        """The substitution u -> a*u (coefficient i picks up a^i)."""
        la = a.e
        if la is None:
            return _poly(self._pk, self._v & self._pk.rowmask)
        n = self.ctx.order - 1
        return Poly(self.ctx, [None if e is None else (e + i * la) % n
                               for i, e in enumerate(self._logs())])

    def frobenius(self) -> "Poly":
        """Apply a -> a^p to every coefficient (fixes u)."""
        if self.ctx.k == 1:
            return self
        p, n = self.ctx.p, self.ctx.order - 1
        return Poly(self.ctx, [None if e is None else e * p % n for e in self._logs()])

    # -- misc -----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self._pk is other._pk and self._v == other._v

    __hash__ = None

    def __repr__(self):
        if self.is_zero():
            return "0"
        terms = []
        for i, e in reversed(list(enumerate(self._logs()))):
            if e is None:
                continue
            astr = repr(FieldElement(self.ctx, e))
            if i == 0:
                terms.append(astr)
            else:
                ustr = "u" if i == 1 else "u^%d" % i
                terms.append(ustr if e == 0 else "%s*%s" % (astr, ustr))
        return " + ".join(terms)

    def to_obj(self):
        """Coefficient digit rows over F_p, low degree first."""
        pk = self._pk
        mask = (1 << pk.w) - 1
        return [[row >> pk.w * i & mask for i in range(pk.k)] for row in pk.unpack(self._v)]


def poly_sqrt(f: Poly) -> Poly:
    """Exact square root of a perfect-square polynomial, without
    factoring: solve g from the top coefficient down on coefficient
    logs, then verify.  The top coefficient is lc(f).sqrt().  Raises
    ValueError if f is not a square."""
    if f.is_zero():
        return f
    if f.deg % 2 != 0:
        raise ValueError("odd degree: not a perfect square")
    ctx = f.ctx
    m = f.deg // 2
    top = f.lc().sqrt()
    if top is None:
        raise ValueError("leading coefficient is not a square")
    zech, c = ctx._zech, f._logs()
    n = len(zech)
    neg = n // 2
    g = [None] * (m + 1)
    g[m] = top.e
    # log of -1/(2 g_m)
    scale = (neg - ctx.elem(2).e - top.e) % n
    for i in range(m - 1, -1, -1):
        # the u^(m+i) coefficient of g^2 is 2 g_m g_i + the sum over the
        # already known ordered pairs (j, m+i-j) with i < j < m, so with
        # s = that sum - f_(m+i), g_i = -s/(2 g_m)
        s = None if c[m + i] is None else (c[m + i] + neg) % n
        for j in range(i + 1, m):
            x, y = g[j], g[m + i - j]
            if x is None or y is None:
                continue
            t = (x + y) % n
            if s is None:
                s = t
            else:
                z = zech[t - s]
                s = None if z is None else (s + z) % n
        g[i] = None if s is None else (s + scale) % n
    root = Poly(ctx, g)
    if not (root * root) == f:
        raise ValueError("not a perfect square")
    return root


def _common(a: Poly, b: Poly) -> Poly | None:
    """gcd(a, b) for nonzero b (b made monic for a = 0), or None when it
    is 1; a constant operand makes it 1 without running Euclid."""
    if a.deg == 0 or b.deg == 0:
        return None
    g = Poly.gcd(a, b)
    return g if g.deg > 0 else None


def _monic_den(num: Poly, den: Poly) -> "RatFunc":
    """num/den for coprime num, den, scaled so that den is monic."""
    s = -den.lc().e
    return _frac(num._times(s), den._times(s))


# ----------------------------------------------------------------------

class RatFunc:
    """Reduced rational function num/den with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        """num/den over gcd(num, den) (den for num = 0), den made monic."""
        num._check(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        g = _common(num, den)
        if g is not None:
            num, den = num // g, den // g
        s = -den.lc().e
        self.num, self.den = num._times(s), den._times(s)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_poly(cls, p: Poly) -> "RatFunc":
        return _frac(p, _poly(p._pk, 1))

    @classmethod
    def constant(cls, ctx: FieldCtx, value) -> "RatFunc":
        return cls.from_poly(Poly.constant(ctx, value))

    @classmethod
    def zero(cls, ctx: FieldCtx) -> "RatFunc":
        return cls.from_poly(Poly.zero(ctx))

    @classmethod
    def one(cls, ctx: FieldCtx) -> "RatFunc":
        return cls.from_poly(Poly.one(ctx))

    @classmethod
    def variable(cls, ctx: FieldCtx) -> "RatFunc":
        return cls.from_poly(Poly.variable(ctx))

    # -- inspection ---------------------------------------------------

    @property
    def ctx(self) -> FieldCtx:
        return self.num.ctx

    def is_zero(self) -> bool:
        return self.num.is_zero()

    # -- field operations ----------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, FieldElement)):
            return self._plus(self.ctx.elem(other))
        o = _as_ratfunc(self.ctx, other)
        if o is NotImplemented:
            return NotImplemented
        return self._sum(o.num, o.den)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, FieldElement)):
            return self._plus(-self.ctx.elem(other))
        o = _as_ratfunc(self.ctx, other)
        if o is NotImplemented:
            return NotImplemented
        return self._sum(-o.num, o.den)

    def __rsub__(self, other):
        if isinstance(other, (int, FieldElement)):
            return (-self)._plus(self.ctx.elem(other))
        o = _as_ratfunc(self.ctx, other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def _plus(self, c: FieldElement) -> "RatFunc":
        """self + c for a field element c: (num + c den)/den is reduced,
        as num + c den = num mod den."""
        if c.e is None:
            return self
        return _frac(self.num + self.den._times(c.e), self.den)

    def _sum(self, c: Poly, d: Poly) -> "RatFunc":
        """self + c/d for coprime c, d with d monic (Henrici): with
        g = gcd(b, d), a/b + c/d = (a d' + c b') / (b' d' g) for b = b' g,
        d = d' g, and only gcd(a d' + c b', g) can cancel.  A zero term
        leaves the other one."""
        a, b = self.num, self.den
        if c.is_zero():
            return self
        if a.is_zero():
            return _frac(c, d)
        g = _common(b, d)
        b1, d1 = (b, d) if g is None else (b // g, d // g)
        num = a * d1 + c * b1
        if num.is_zero():
            return RatFunc.zero(self.ctx)
        h = None if g is None else _common(num, g)
        if h is not None:
            num, d = num // h, d // h
        return _frac(num, b1 * d)

    def __neg__(self):
        return _frac(-self.num, self.den)

    def __mul__(self, other):
        if isinstance(other, (int, FieldElement)):
            return self._scaled(self.ctx.elem(other))
        o = _as_ratfunc(self.ctx, other)
        if o is NotImplemented:
            return NotImplemented
        a, b, c, d = self.num, self.den, o.num, o.den
        if o is self:
            # a square of a reduced fraction is reduced
            return _frac(a * a, b * b)
        if a.is_zero() or c.is_zero():
            return RatFunc.zero(self.ctx)
        # gcd(a c, b d) = gcd(a, d) gcd(c, b)
        g = _common(a, d)
        if g is not None:
            a, d = a // g, d // g
        g = _common(c, b)
        if g is not None:
            c, b = c // g, b // g
        return _frac(a * c, b * d)

    __rmul__ = __mul__

    def _scaled(self, c: FieldElement) -> "RatFunc":
        """self * c for a field element c: only the numerator scales."""
        if c.e is None:
            return RatFunc.zero(self.ctx)
        return _frac(self.num._times(c.e), self.den)

    def __truediv__(self, other):
        if isinstance(other, (int, FieldElement)):
            return self._scaled(self.ctx.elem(other).inv())
        o = _as_ratfunc(self.ctx, other)
        if o is NotImplemented:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return self * o.inv()

    def __rtruediv__(self, other):
        if isinstance(other, (int, FieldElement)):
            return self.inv()._scaled(self.ctx.elem(other))
        o = _as_ratfunc(self.ctx, other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def inv(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return _monic_den(self.den, self.num)

    def __pow__(self, e: int):
        if e < 0:
            return self.inv() ** (-e)
        # num^e, den^e stay coprime and den^e stays monic
        return _frac(self.num ** e, self.den ** e)

    # -- maps ------------------------------------------------------------

    def eval(self, a: FieldElement) -> FieldElement:
        d = self.den.eval(a)
        if d.is_zero():
            raise ZeroDivisionError("pole at the evaluation point")
        return self.num.eval(a) / d

    def scale_var(self, a: FieldElement) -> "RatFunc":
        """The substitution u -> a*u.  For a != 0 it is an automorphism of
        F_q[u], so num and den stay coprime and only den's new leading
        coefficient a^deg(den) is divided out."""
        num, den = self.num.scale_var(a), self.den.scale_var(a)
        if a.is_zero():
            return RatFunc(num, den)
        return _monic_den(num, den)

    def frobenius(self) -> "RatFunc":
        """Coefficient-wise p-power Frobenius; fixes u.  A rational
        function is defined over F_p(u) iff this fixes it.  An
        automorphism of F_q[u] fixing 1, so num and den stay coprime and
        den monic."""
        return _frac(self.num.frobenius(), self.den.frobenius())

    # -- misc --------------------------------------------------------------

    def __eq__(self, other):
        other = _as_ratfunc(self.ctx, other)
        return (isinstance(other, RatFunc) and self.num == other.num
                and self.den == other.den)

    __hash__ = None

    def __repr__(self):
        if self.den.deg == 0:
            return repr(self.num)
        return "(%s)/(%s)" % (self.num, self.den)

    def to_obj(self):
        return {"num": self.num.to_obj(), "den": self.den.to_obj()}


def _as_ratfunc(ctx: FieldCtx, value):
    """value as a RatFunc: a RatFunc itself, a Poly over its own field,
    an int or a FieldElement as a constant over ctx, and NotImplemented
    for anything else."""
    if isinstance(value, RatFunc):
        return value
    if isinstance(value, Poly):
        return RatFunc.from_poly(value)
    if isinstance(value, (int, FieldElement)):
        return RatFunc.constant(ctx, value)
    return NotImplemented
