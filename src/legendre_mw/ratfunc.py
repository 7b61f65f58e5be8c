"""Polynomials F_q[u] and reduced rational functions F_q(u).

A Poly stores its coefficients as the tuple of their logs to the field's
generator (each the `e` of a FieldElement), low u-degree first, None for
a zero coefficient, with no trailing None; the zero polynomial is the
empty tuple and carries the degree sentinel -inf.  Every operation is
arithmetic in the field's tables: a product of coefficients adds logs,
a sum reads the Zech table (g^s + g^t = g^(s + zech[t - s])), negation
adds n/2 for n = q - 1, as -1 = g^(n/2), and the Frobenius a -> a^p
multiplies each log by p.
Division and gcd are long division on these lists.

A product of an la-row and an lb-row operand with la * lb <= 64 k, the
measured crossover, is a convolution of the logs: each pair of nonzero
terms adds its logs and is summed into its row through the Zech table.
A larger product is one Kronecker substitution (Harvey,
"Faster polynomial multiplication via multipoint Kronecker substitution",
2009): the operands are split into their k digit components over F_p,
each component is packed into one Python int with a fixed-width slot per
coefficient, the packed ints are multiplied, the w-degrees >= k of the
products are reduced on the big ints by the field's reduction rows, and
the slots are read back mod p.  The slots are 1, 2, 4 or 8 bytes, wide
enough for the largest coefficient before the final mod.

A RatFunc is always canonical: gcd(num, den) = 1 and den monic.  The
general constructor RatFunc(num, den) is the one place that runs
Euclid on a whole numerator and denominator; it serves arbitrary
fractions and the substitution u -> 0.  The Frobenius and u -> a*u
(a != 0) are automorphisms of F_q[u], so they keep num and den
coprime and at most rescale.  The field operators start from canonical
operands and return canonical results directly, taking gcds only of
factors that can be shared (Henrici; Knuth, TAOCP 4.5.1): a sum
a/b + c/d needs g = gcd(b, d) and then gcd of the new numerator with
g alone, a product needs gcd(a, d) and gcd(c, b), and an inverse only
rescales.  A gcd with a constant operand is 1 and is not computed,
and a square x * x of one operand takes no gcd, as the square of a
reduced fraction is reduced.  A RatFunc times an int or FieldElement
only moves the numerator's logs, plus one is (num + c den)/den, and a
sum with a zero term returns the other term: none of them makes a Poly
product.  A Poly product with a one-row operand is a scaling, and a
product by 1 returns the other operand without building a field
element.
"""

from __future__ import annotations

import sys
from array import array

from .gf import FieldCtx, FieldElement

NEG_INF = float("-inf")

# (slot bits, array typecode) of the Kronecker slots, narrowest first
_SLOTS = tuple(sorted({(8 * array(t).itemsize, t) for t in "BHIQ"}))


class Logs(tuple):
    """Coefficient logs of a Poly (see the module docstring).  Like a
    1-D array, it has a shape, (number of coefficients,)."""

    __slots__ = ()

    @property
    def shape(self) -> tuple[int]:
        return (len(self),)


class Poly:
    __slots__ = ("ctx", "c")

    def __init__(self, ctx: FieldCtx, logs=()):
        """The polynomial with coefficient logs `logs` (low degree first,
        None for zero); trailing zeros are dropped."""
        if logs and logs[-1] is None:
            logs = _trim(list(logs))
        self.ctx = ctx
        self.c = Logs(logs)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_elems(cls, ctx: FieldCtx, elems) -> "Poly":
        """Build from a list of FieldElements / ints, low degree first."""
        return cls(ctx, [ctx.elem(e).e for e in elems])

    @classmethod
    def zero(cls, ctx: FieldCtx) -> "Poly":
        return cls(ctx)

    @classmethod
    def one(cls, ctx: FieldCtx) -> "Poly":
        return cls(ctx, (0,))

    @classmethod
    def constant(cls, ctx: FieldCtx, value) -> "Poly":
        return cls.from_elems(ctx, [value])

    @classmethod
    def variable(cls, ctx: FieldCtx) -> "Poly":
        return cls.monomial(ctx, 1)

    @classmethod
    def monomial(cls, ctx: FieldCtx, n: int) -> "Poly":
        """u^n."""
        return cls(ctx, [None] * n + [0])

    # -- inspection ---------------------------------------------------

    @property
    def deg(self):
        """Degree, with -inf for the zero polynomial."""
        return len(self.c) - 1 if self.c else NEG_INF

    def is_zero(self) -> bool:
        return not self.c

    def coeff(self, i: int) -> FieldElement:
        return FieldElement(self.ctx, self.c[i] if 0 <= i < len(self.c) else None)

    def lc(self) -> FieldElement:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return FieldElement(self.ctx, self.c[-1])

    def is_monic(self) -> bool:
        return bool(self.c) and self.c[-1] == 0

    # -- ring operations ----------------------------------------------

    def _check(self, other: "Poly"):
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ValueError("coefficient field mismatch")

    def __add__(self, other):
        if isinstance(other, (int, FieldElement)):
            other = Poly.constant(self.ctx, other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        if not other.c:
            return self
        if not self.c:
            return other
        return Poly(self.ctx, _add_logs(self.ctx._zech, self.c, other.c))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, FieldElement)):
            other = Poly.constant(self.ctx, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if isinstance(other, (int, FieldElement)):
            return Poly.constant(self.ctx, other) - self
        return NotImplemented

    def __neg__(self):
        return self._times(len(self.ctx._zech) // 2)

    def __mul__(self, other):
        if isinstance(other, (int, FieldElement)):
            return self.scale(self.ctx.elem(other))
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        # a constant factor (most often 1, a RatFunc's denominator) scales
        if len(self.c) == 1:
            return other._times(self.c[0])
        if len(other.c) == 1:
            return self._times(other.c[0])
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.ctx)
        return Poly(self.ctx, _mul_logs(self.ctx, self.c, other.c))

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
        """self * g^s, by adding s to every log; self itself for s = 0."""
        if not s:
            return self
        n = len(self.ctx._zech)
        return Poly(self.ctx, [None if e is None else (e + s) % n for e in self.c])

    def __divmod__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        q, r = self._divide(other, want_quotient=True)
        return Poly(self.ctx, q), Poly(self.ctx, r)

    def __floordiv__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return Poly(self.ctx, self._divide(other, want_quotient=True)[0])

    def __mod__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return Poly(self.ctx, self._divide(other, want_quotient=False)[1])

    def _divide(self, other: "Poly", want_quotient: bool):
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        return _divmod_logs(self.ctx._zech, self.c, other.c, want_quotient)

    @staticmethod
    def gcd(a: "Poly", b: "Poly") -> "Poly":
        """Monic gcd (gcd(0, 0) = 0) by the Euclidean algorithm: each
        step is one `_divmod_logs` remainder, with no Poly and no monic
        copy per step; the result is made monic once, by subtracting its
        leading log."""
        a._check(b)
        zech = a.ctx._zech
        x, y = a.c, b.c
        while y:
            x, y = y, _divmod_logs(zech, x, y, want_quotient=False)[1]
        g = Poly(a.ctx, x)
        return g.monic() if x else g

    def monic(self) -> "Poly":
        if self.is_zero():
            raise ValueError("cannot normalize the zero polynomial")
        return self._times(-self.c[-1])

    # -- maps ----------------------------------------------------------

    def eval(self, a: FieldElement) -> FieldElement:
        """Horner evaluation at a field element."""
        acc = self.ctx.zero()
        for i in range(len(self.c) - 1, -1, -1):
            acc = acc * a + self.coeff(i)
        return acc

    def scale_var(self, a: FieldElement) -> "Poly":
        """The substitution u -> a*u (coefficient i picks up a^i)."""
        la = a.e
        if la is None:
            return Poly(self.ctx, self.c[:1])
        n = len(self.ctx._zech)
        return Poly(self.ctx, [None if e is None else (e + i * la) % n
                               for i, e in enumerate(self.c)])

    def frobenius(self) -> "Poly":
        """Apply a -> a^p to every coefficient (fixes u)."""
        if self.ctx.k == 1:
            return self
        p, n = self.ctx.p, len(self.ctx._zech)
        return Poly(self.ctx, [None if e is None else e * p % n for e in self.c])

    # -- misc -----------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.ctx == other.ctx
                and self.c == other.c)

    __hash__ = None

    def __repr__(self):
        if self.is_zero():
            return "0"
        terms = []
        for i in range(len(self.c) - 1, -1, -1):
            e = self.c[i]
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
        return [self.coeff(i).to_obj() for i in range(len(self.c))]


# ----------------------------------------------------------------------
# Kernels on coefficient-log lists (low degree first, None for zero).

def _trim(logs: list) -> list:
    while logs and logs[-1] is None:
        logs.pop()
    return logs


def _add_logs(zech: list, a, b) -> list:
    """a + b for nonzero a, b, coefficient by coefficient:
    g^s + g^t = g^(s + zech[t - s]), where t - s lies in (-n, n) and
    Python's negative indexing reads zech at t - s mod n; a None from
    zech is a coefficient cancelled to zero."""
    n = len(zech)
    if len(a) < len(b):
        a, b = b, a
    out = [t if s is None else s if t is None
           else None if (z := zech[t - s]) is None else (s + z) % n
           for s, t in zip(a, b)]
    if len(a) > len(b):
        out += a[len(b):]
        return out
    return _trim(out)


def _slot(bound: int) -> tuple[int, str]:
    """(bits, array typecode) of the narrowest slot that holds bound."""
    for bits, code in _SLOTS:
        if bound >> bits == 0:
            return bits, code
    raise OverflowError("polynomial product too large for %d-bit slots" % _SLOTS[-1][0])


# Kernel crossovers, measured on dense operands on a 2-core Xeon KVM
# guest (CPython 3.11).  A convolution of logs costs about la * lb Zech
# steps and beats one Kronecker product up to about 8 x 8 rows at k = 1,
# 11 x 11 at k = 2, 16 x 16 at k = 4 and 18 x 18 at k = 6 (about 10, 14,
# 35 and 46 us per product there), so it runs while la * lb <= 64 k.
_CONVOLVE_ROWS2_PER_K = 64


def _mul_logs(ctx: FieldCtx, a, b) -> list:
    """Exact product of nonzero coefficient-log lists: a convolution of
    the logs while la * lb <= _CONVOLVE_ROWS2_PER_K * k, else one
    Kronecker product."""
    if len(a) * len(b) <= _CONVOLVE_ROWS2_PER_K * ctx.k:
        return _convolve_logs(ctx._zech, a, b)
    return _kronecker_logs(ctx, a, b)


def _convolve_logs(zech: list, a, b) -> list:
    """Schoolbook product: each pair of nonzero terms adds its logs, and
    the term is summed into its row through the Zech table."""
    n = len(zech)
    out = [None] * (len(a) + len(b) - 1)
    terms = [(j, e) for j, e in enumerate(b) if e is not None]
    for i, s in enumerate(a):
        if s is None:
            continue
        for j, e in terms:
            t = (s + e) % n
            c = out[i + j]
            if c is None:
                out[i + j] = t
            else:
                z = zech[t - c]
                out[i + j] = None if z is None else (c + z) % n
    return out


def _kronecker_logs(ctx: FieldCtx, a, b) -> list:
    """Exact product of nonzero coefficient-log lists by Kronecker
    substitution (see the module docstring).  Column i of a holds digit i
    of every coefficient; the product of columns i and j lands in w-degree
    i + j, so before the reduction a slot is at most
    k min(la, lb) (p - 1)^2, and each of the k - 1 reduced w-degrees adds
    at most (p - 1) times that."""
    k, p = ctx.k, ctx.p
    la, lb = len(a), len(b)
    bits, code = _slot(min(la, lb) * k * (p - 1) ** 2 * (1 + (k - 1) * (p - 1)))
    order = sys.byteorder
    digits, exp, zero = ctx._digits, ctx._exp, ctx._digits[0]

    def pack(logs):
        rows = [zero if e is None else digits[exp[e]] for e in logs]
        return [int.from_bytes(array(code, col).tobytes(), order) for col in zip(*rows)]

    A = pack(a)
    B = A if b is a else pack(b)
    acc = [0] * (2 * k - 1)
    for i, x in enumerate(A):
        if x:
            for j, y in enumerate(B):
                if y:
                    acc[i + j] += x * y
    for m, row in enumerate(ctx._red, k):
        if acc[m]:
            for r, c in enumerate(row):
                if c:
                    acc[r] += c * acc[m]
    size = (la + lb - 1) * bits // 8
    codes = [0] * (la + lb - 1)
    for x in reversed(acc[:k]):
        slots = array(code)
        slots.frombytes(x.to_bytes(size, order))
        codes = [c * p + v % p for c, v in zip(codes, slots)]
    log = ctx._log
    return [log[c] for c in codes]


def _divmod_logs(zech: list, a, b, want_quotient: bool):
    """Long division of a by b, both trimmed lists of coefficient logs
    (low degree first, None for zero); zech is the field's Zech table,
    of length n = q - 1.  Returns (quotient or None, remainder), trimmed.

    The quotient term of dividend row i is r_i / lc(b), of log
    r_i - log lc(b), so b is never made monic.  Subtracting that term
    times b_j adds g^t with t = r_i - log lc(b) + n/2 + log b_j (the
    n/2 is the sign, as -1 = g^(n/2)) to g^s, giving g^(s + zech[t - s])
    as in `_add_logs`."""
    n = len(zech)
    db = len(b) - 1
    top = b[db]
    shift = n // 2 - top
    low = b[:db]
    r = list(a)
    q = [None] * max(len(r) - db, 0) if want_quotient else None
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i]
        if c is None:
            continue
        if want_quotient:
            q[i - db] = (c - top) % n
        c += shift
        r[i - db:i] = [s if e is None else (c + e) % n if s is None
                       else None if (z := zech[(c + e - s) % n]) is None else (s + z) % n
                       for s, e in zip(r[i - db:i], low)]
    del r[db:]
    return q, _trim(r)


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
    zech, c = ctx._zech, f.c
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
    """gcd(a, b) of nonzero a and b, or None when it is 1; a constant
    operand makes it 1 without running Euclid."""
    if len(a.c) == 1 or len(b.c) == 1:
        return None
    g = Poly.gcd(a, b)
    return g if len(g.c) > 1 else None


# ----------------------------------------------------------------------

class RatFunc:
    """Reduced rational function num/den with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None, _canonical: bool = False):
        if den is None:
            den = Poly.one(num.ctx)
        num._check(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not _canonical:
            if num.is_zero():
                den = Poly.one(num.ctx)
            else:
                g = Poly.gcd(num, den)
                if g.deg > 0:
                    num = num // g
                    den = den // g
                inv = den.lc().inv()
                num, den = num.scale(inv), den.scale(inv)
        self.num = num
        self.den = den

    # -- constructors -------------------------------------------------

    @classmethod
    def from_poly(cls, p: Poly) -> "RatFunc":
        return cls(p, Poly.one(p.ctx), _canonical=True)

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

    def is_poly(self) -> bool:
        return self.den.deg == 0

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
        return RatFunc(self.num + self.den._times(c.e), self.den, _canonical=True)

    def _sum(self, c: Poly, d: Poly) -> "RatFunc":
        """self + c/d for coprime c, d with d monic (Henrici): with
        g = gcd(b, d), a/b + c/d = (a d' + c b') / (b' d' g) for b = b' g,
        d = d' g, and only gcd(a d' + c b', g) can cancel.  A zero term
        leaves the other one."""
        a, b = self.num, self.den
        if not c.c:
            return self
        if not a.c:
            return RatFunc(c, d, _canonical=True)
        g = _common(b, d)
        b1, d1 = (b, d) if g is None else (b // g, d // g)
        num = a * d1 + c * b1
        if num.is_zero():
            return RatFunc.zero(self.ctx)
        h = None if g is None else _common(num, g)
        if h is not None:
            num, d = num // h, d // h
        return RatFunc(num, b1 * d, _canonical=True)

    def __neg__(self):
        return RatFunc(-self.num, self.den, _canonical=True)

    def __mul__(self, other):
        if isinstance(other, (int, FieldElement)):
            return self._scaled(self.ctx.elem(other))
        o = _as_ratfunc(self.ctx, other)
        if o is NotImplemented:
            return NotImplemented
        a, b, c, d = self.num, self.den, o.num, o.den
        if o is self:
            # a square of a reduced fraction is reduced
            return RatFunc(a * a, b * b, _canonical=True)
        if a.is_zero() or c.is_zero():
            return RatFunc.zero(self.ctx)
        # gcd(a c, b d) = gcd(a, d) gcd(c, b)
        g = _common(a, d)
        if g is not None:
            a, d = a // g, d // g
        g = _common(c, b)
        if g is not None:
            c, b = c // g, b // g
        return RatFunc(a * c, b * d, _canonical=True)

    __rmul__ = __mul__

    def _scaled(self, c: FieldElement) -> "RatFunc":
        """self * c for a field element c: only the numerator's logs move."""
        if c.e is None:
            return RatFunc.zero(self.ctx)
        return RatFunc(self.num._times(c.e), self.den, _canonical=True)

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
        s = self.num.lc().inv()
        return RatFunc(self.den.scale(s), self.num.scale(s), _canonical=True)

    def __pow__(self, e: int):
        if e < 0:
            return self.inv() ** (-e)
        # num^e, den^e stay coprime and den^e stays monic
        return RatFunc(self.num ** e, self.den ** e, _canonical=True)

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
        s = -den.c[-1]
        return RatFunc(num._times(s), den._times(s), _canonical=True)

    def frobenius(self) -> "RatFunc":
        """Coefficient-wise p-power Frobenius; fixes u.  A rational
        function is defined over F_p(u) iff this fixes it.  An
        automorphism of F_q[u] fixing 1, so num and den stay coprime and
        den monic."""
        return RatFunc(self.num.frobenius(), self.den.frobenius(), _canonical=True)

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
