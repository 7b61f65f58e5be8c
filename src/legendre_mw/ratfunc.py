"""Polynomials F_q[u] and reduced rational functions F_q(u).

A Poly stores its coefficients as an (L, k) int64 matrix of F_p digit
vectors, low u-degree first; the zero polynomial is the empty matrix and
carries the degree sentinel -inf.  Products stay in numpy: exact
integer convolution layer by layer in the extension basis, in int64
end to end; a product whose accumulated coefficients could overflow
int64 (over 4 * 10^12 rows even for F_{101^2}) raises OverflowError.
Division and gcd run on Python lists of coefficient logs instead (low
degree first, None for zero): a product of coefficients adds logs and
a sum reads the field's Zech table, so a long-division step makes no
numpy call.

A RatFunc is always canonical: gcd(num, den) = 1 and den monic.  The
general constructor RatFunc(num, den) is the one place that runs
Euclid on a whole numerator and denominator; it serves parsing and
the coefficient maps.  The field operators start from canonical
operands and return canonical results directly, taking gcds only of
factors that can be shared (Henrici; Knuth, TAOCP 4.5.1): a sum
a/b + c/d needs g = gcd(b, d) and then gcd of the new numerator with
g alone, a product needs gcd(a, d) and gcd(c, b), and an inverse only
rescales.  A gcd with a constant operand is 1 and is not computed,
and a square x * x of one operand takes no gcd, as the square of a
reduced fraction is reduced.  A Poly product with a one-row operand is
a scaling, and a product by 1 returns the other operand without
building a field element.
"""

from __future__ import annotations

import numpy as np

from .gf import FieldCtx, FieldElement

NEG_INF = float("-inf")


def _as_matrix(ctx: FieldCtx, rows) -> np.ndarray:
    arr = np.asarray(rows, dtype=np.int64)
    if arr.ndim != 2 or (arr.shape[0] > 0 and arr.shape[1] != ctx.k):
        raise ValueError("coefficient matrix must have shape (L, k)")
    return arr


def _trim_rows(arr: np.ndarray) -> np.ndarray:
    L = arr.shape[0]
    while L > 0 and not arr[L - 1].any():
        L -= 1
    return arr[:L]


class Poly:
    __slots__ = ("ctx", "c")

    def __init__(self, ctx: FieldCtx, rows, _trusted: bool = False):
        if _trusted:
            arr = rows
        else:
            arr = _trim_rows(_as_matrix(ctx, rows) % ctx.p)
        arr.setflags(write=False)
        self.ctx = ctx
        self.c = arr

    # -- constructors -------------------------------------------------

    @classmethod
    def from_elems(cls, ctx: FieldCtx, elems) -> "Poly":
        """Build from a list of FieldElements / ints, low degree first."""
        rows = [ctx.elem(e).c for e in elems]
        if not rows:
            return cls.zero(ctx)
        return cls(ctx, np.array(rows, dtype=np.int64))

    @classmethod
    def zero(cls, ctx: FieldCtx) -> "Poly":
        return cls(ctx, np.zeros((0, ctx.k), dtype=np.int64), _trusted=True)

    @classmethod
    def one(cls, ctx: FieldCtx) -> "Poly":
        return cls.constant(ctx, 1)

    @classmethod
    def constant(cls, ctx: FieldCtx, value) -> "Poly":
        return cls.from_elems(ctx, [value])

    @classmethod
    def variable(cls, ctx: FieldCtx) -> "Poly":
        return cls.monomial(ctx, 1)

    @classmethod
    def monomial(cls, ctx: FieldCtx, n: int, coeff=1) -> "Poly":
        e = ctx.elem(coeff)
        if e.is_zero():
            return cls.zero(ctx)
        rows = np.zeros((n + 1, ctx.k), dtype=np.int64)
        rows[n, :] = e.c
        return cls(ctx, rows, _trusted=True)

    # -- inspection ---------------------------------------------------

    @property
    def deg(self):
        """Degree, with -inf for the zero polynomial."""
        return self.c.shape[0] - 1 if self.c.shape[0] else NEG_INF

    def is_zero(self) -> bool:
        return self.c.shape[0] == 0

    def coeff(self, i: int) -> FieldElement:
        if 0 <= i < self.c.shape[0]:
            return FieldElement(self.ctx, tuple(int(v) for v in self.c[i]))
        return self.ctx.zero()

    def lc(self) -> FieldElement:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeff(self.c.shape[0] - 1)

    def is_monic(self) -> bool:
        return not self.is_zero() and self.lc() == self.ctx.one()

    # -- ring operations ----------------------------------------------

    def _check(self, other: "Poly"):
        if self.ctx != other.ctx:
            raise ValueError("coefficient field mismatch")

    def __add__(self, other):
        if isinstance(other, (int, FieldElement)):
            other = Poly.constant(self.ctx, other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        la, lb = self.c.shape[0], other.c.shape[0]
        n = max(la, lb)
        out = np.zeros((n, self.ctx.k), dtype=np.int64)
        out[:la] += self.c
        out[:lb] += other.c
        return Poly(self.ctx, _trim_rows(out % self.ctx.p), _trusted=True)

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
        return Poly(self.ctx, (-self.c) % self.ctx.p, _trusted=True)

    def __mul__(self, other):
        if isinstance(other, (int, FieldElement)):
            return self.scale(self.ctx.elem(other))
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        # a constant factor (most often 1, a RatFunc's denominator) scales
        if self.c.shape[0] == 1:
            return other if _is_one(self.c) else other.scale(self.coeff(0))
        if other.c.shape[0] == 1:
            return self if _is_one(other.c) else self.scale(other.coeff(0))
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.ctx)
        return Poly(self.ctx, _mul_arrays(self.ctx, self.c, other.c), _trusted=True)

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
        if a == self.ctx.one():
            return self
        m = self.ctx.mul_matrix(a)
        return Poly(self.ctx, (self.c @ m) % self.ctx.p, _trusted=True)

    def __divmod__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        q, r = self._divide(other, want_quotient=True)
        return self._from_logs(q), self._from_logs(r)

    def __floordiv__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self._from_logs(self._divide(other, want_quotient=True)[0])

    def __mod__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self._from_logs(self._divide(other, want_quotient=False)[1])

    def _divide(self, other: "Poly", want_quotient: bool):
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        return _divmod_logs(self.ctx._zech, self._logs(), other._logs(),
                            want_quotient)

    @staticmethod
    def gcd(a: "Poly", b: "Poly") -> "Poly":
        """Monic gcd (gcd(0, 0) = 0) by the Euclidean algorithm on
        coefficient-log lists: each step is one `_divmod_logs` remainder,
        with no Poly and no monic copy per step; the result is made
        monic once, by subtracting its leading log."""
        a._check(b)
        zech = a.ctx._zech
        x, y = a._logs(), b._logs()
        while y:
            x, y = y, _divmod_logs(zech, x, y, want_quotient=False)[1]
        if x:
            n, top = len(zech), x[-1]
            x = [None if e is None else (e - top) % n for e in x]
        return a._from_logs(x)

    def _logs(self) -> list:
        """Coefficient logs to the field's generator, None for zero."""
        ctx = self.ctx
        log = ctx._log
        return [log[c] for c in (self.c @ ctx.p ** np.arange(ctx.k)).tolist()]

    def _from_logs(self, logs: list) -> "Poly":
        """The Poly over self's field with trimmed coefficient logs."""
        ctx = self.ctx
        digits, exp, zero = ctx._digits, ctx._exp, ctx._digits[0]
        rows = [zero if e is None else digits[exp[e]] for e in logs]
        return Poly(ctx, np.array(rows, dtype=np.int64).reshape(-1, ctx.k),
                    _trusted=True)

    def monic(self) -> "Poly":
        if self.is_zero():
            raise ValueError("cannot normalize the zero polynomial")
        return self.scale(self.lc().inv())

    # -- maps ----------------------------------------------------------

    def eval(self, a: FieldElement) -> FieldElement:
        """Horner evaluation at a field element."""
        acc = self.ctx.zero()
        for i in range(self.c.shape[0] - 1, -1, -1):
            acc = acc * a + self.coeff(i)
        return acc

    def scale_var(self, a: FieldElement) -> "Poly":
        """The substitution u -> a*u (coefficient i picks up a^i)."""
        if self.is_zero():
            return self
        rows = np.array(self.c)
        power = self.ctx.one()
        for i in range(1, rows.shape[0]):
            power = power * a
            rows[i] = (rows[i] @ self.ctx.mul_matrix(power)) % self.ctx.p
        return Poly(self.ctx, _trim_rows(rows), _trusted=True)

    def frobenius(self) -> "Poly":
        """Apply a -> a^p to every coefficient (fixes u)."""
        if self.is_zero() or self.ctx.k == 1:
            return self
        return Poly(self.ctx, (self.c @ self.ctx.frobenius_matrix) % self.ctx.p,
                    _trusted=True)

    # -- misc -----------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.ctx == other.ctx
                and np.array_equal(self.c, other.c))

    __hash__ = None

    def __repr__(self):
        if self.is_zero():
            return "0"
        terms = []
        for i in range(self.c.shape[0] - 1, -1, -1):
            a = self.coeff(i)
            if a.is_zero():
                continue
            if self.ctx.k == 1:
                astr = str(a.c[0])
                one = a.c[0] == 1
            else:
                astr = repr(a)
                one = a == self.ctx.one()
            if i == 0:
                terms.append(astr)
            else:
                ustr = "u" if i == 1 else "u^%d" % i
                terms.append(ustr if one else "%s*%s" % (astr, ustr))
        return " + ".join(terms)

    def to_obj(self):
        return [[int(v) for v in row] for row in self.c]

    @classmethod
    def from_obj(cls, ctx: FieldCtx, obj) -> "Poly":
        if not obj:
            return cls.zero(ctx)
        return cls(ctx, np.array(obj, dtype=np.int64))


# ----------------------------------------------------------------------
# Array kernels.

def _is_one(c: np.ndarray) -> bool:
    """Whether the one-row coefficient matrix c is the constant 1."""
    return c[0, 0] == 1 and not c[0, 1:].any()


def _mul_arrays(ctx: FieldCtx, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact product of coefficient matrices: per-layer integer
    convolution in u, then reduction of w-degrees >= k, then mod p."""
    k, p = ctx.k, ctx.p
    la, lb = a.shape[0], b.shape[0]
    # worst-case accumulated magnitude before the final mod
    if min(la, lb) * (p - 1) ** 2 * (1 + (k - 1) * (p - 1)) >= 2 ** 62:
        raise OverflowError("polynomial product too large for int64 accumulation")
    acc = np.zeros((la + lb - 1, 2 * k - 1), dtype=np.int64)
    for i in range(k):
        ai = a[:, i]
        if not ai.any():
            continue
        for j in range(k):
            bj = b[:, j]
            if bj.any():
                acc[:, i + j] += np.convolve(ai, bj)
    if k > 1:
        red = ctx.reduction_rows
        for m in range(2 * k - 2, k - 1, -1):
            col = acc[:, m]
            if col.any():
                acc[:, :k] += col[:, None] * red[m - k][None, :]
    return _trim_rows(acc[:, :k] % p)


def _divmod_logs(zech: list, a: list, b: list, want_quotient: bool):
    """Long division of a by b, both trimmed lists of coefficient logs
    (low degree first, None for zero); zech is the field's Zech table,
    of length n = q - 1.  Returns (quotient or None, remainder), trimmed.

    The quotient term of dividend row i is r_i / lc(b), of log
    r_i - log lc(b), so b is never made monic.  Subtracting that term
    times b_j adds g^t with t = r_i - log lc(b) + n/2 + log b_j (the
    n/2 is the sign, as -1 = g^(n/2)), and g^s + g^t = g^(s + zech[t - s]),
    where t - s lies in (-n, n) and Python's negative indexing reads
    zech at t - s mod n.  A None from zech is a coefficient cancelled
    to zero."""
    n = len(zech)
    db = len(b) - 1
    shift = n // 2 - b[db]
    low = b[:db]
    r = list(a)
    q = [None] * max(len(r) - db, 0) if want_quotient else None
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i]
        if c is None:
            continue
        if want_quotient:
            q[i - db] = (c - b[db]) % n
        c += shift
        row = []
        for s, e in zip(r[i - db:i], low):
            if e is not None:
                t = (c + e) % n
                if s is None:
                    s = t
                else:
                    z = zech[t - s]
                    s = None if z is None else (s + z) % n
            row.append(s)
        r[i - db:i] = row
    del r[db:]
    while r and r[-1] is None:
        r.pop()
    return q, r


def poly_sqrt(f: Poly) -> Poly:
    """Exact square root of a perfect-square polynomial, without
    factoring: solve g from the top coefficient down, then verify.
    Raises ValueError if f is not a square."""
    if f.is_zero():
        return f
    if f.deg % 2 != 0:
        raise ValueError("odd degree: not a perfect square")
    ctx = f.ctx
    m = f.deg // 2
    top = f.lc().sqrt()
    if top is None:
        raise ValueError("leading coefficient is not a square")
    g = [ctx.zero()] * (m + 1)
    g[m] = top
    inv2gm = (ctx.elem(2) * top).inv()
    for i in range(m - 1, -1, -1):
        # x^(m+i) coefficient of g^2 is 2*g_m*g_i + sum over the already
        # known ordered pairs (j, m+i-j) with i < j < m
        s = f.coeff(m + i)
        for j in range(i + 1, m):
            s = s - g[j] * g[m + i - j]
        g[i] = s * inv2gm
    root = Poly.from_elems(ctx, g)
    if not (root * root) == f:
        raise ValueError("not a perfect square")
    return root


def _common(a: Poly, b: Poly) -> Poly | None:
    """gcd(a, b) of nonzero a and b, or None when it is 1; a constant
    operand makes it 1 without running Euclid."""
    if a.c.shape[0] == 1 or b.c.shape[0] == 1:
        return None
    g = Poly.gcd(a, b)
    return g if g.c.shape[0] > 1 else None


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

    def deg(self) -> int:
        """Height-style degree max(deg num, deg den); errors on zero."""
        if self.is_zero():
            raise ValueError("deg of the zero rational function is undefined")
        return int(max(self.num.deg, self.den.deg))

    # -- field operations ----------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, Poly):
            return RatFunc.from_poly(other)
        if isinstance(other, (int, FieldElement)):
            return RatFunc.constant(self.ctx, other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._sum(o.num, o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._sum(-o.num, o.den)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def _sum(self, c: Poly, d: Poly) -> "RatFunc":
        """self + c/d for coprime c, d with d monic (Henrici): with
        g = gcd(b, d), a/b + c/d = (a d' + c b') / (b' d' g) for b = b' g,
        d = d' g, and only gcd(a d' + c b', g) can cancel."""
        a, b = self.num, self.den
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
        o = self._coerce(other)
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

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
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
        return RatFunc(self.num.scale_var(a), self.den.scale_var(a))

    def frobenius(self) -> "RatFunc":
        """Coefficient-wise p-power Frobenius; fixes u.  A rational
        function is defined over F_p(u) iff this fixes it."""
        return RatFunc(self.num.frobenius(), self.den.frobenius())

    # -- misc --------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, FieldElement, Poly)):
            other = self._coerce(other)
        return (isinstance(other, RatFunc) and self.num == other.num
                and self.den == other.den)

    __hash__ = None

    def __repr__(self):
        if self.den.deg == 0:
            return repr(self.num)
        return "(%s)/(%s)" % (self.num, self.den)

    def to_obj(self):
        return {"num": self.num.to_obj(), "den": self.den.to_obj()}

    @classmethod
    def from_obj(cls, ctx: FieldCtx, obj) -> "RatFunc":
        return cls(Poly.from_obj(ctx, obj["num"]), Poly.from_obj(ctx, obj["den"]))
