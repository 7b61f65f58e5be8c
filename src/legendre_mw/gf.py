"""Arithmetic in small finite fields F_p and F_{p^k}.

F_{p^k} is F_p[w] modulo a fixed monic irreducible modulus.  The fields
this package meets are small (q up to about 10^4; a FieldCtx refuses
q > MAX_FIELD_ORDER), so each FieldCtx tabulates its whole
multiplicative group once, and an element is stored as its log to a
fixed generator g, None for zero.  Products, inverses, powers and
square roots add or scale logs mod q - 1, and a table of Zech
logarithms log(1 + g^e) makes sums one lookup.  The digits of an
element over F_p in the basis w^0..w^{k-1}, which a Poly stores, are
read from a table.  Everything is immutable and exact.  The only
polynomial arithmetic over F_p here, `_mulmod` and `_powmod`, builds
the tables and tests moduli for irreducibility; gf imports no other
module of the package.
"""

from __future__ import annotations

import itertools
from math import gcd

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Largest field order a FieldCtx accepts.  A FieldCtx holds four
# Python lists of q entries: on a 2-core KVM guest build_field takes
# 0.8-1.2 s and a process peak RSS of 28 MB for 3^10, and 7-9 s and
# 138 MB for 3^12 (< 2^20), so 3^16 would take about 11 GB; 101^2
# (points --p 101) is far below the limit.
MAX_FIELD_ORDER = 2 ** 20


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond any field size used here."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors by trial division (n stays small here)."""
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1 if q == 2 else 2
    if n > 1:
        out.append(n)
    return out


# ----------------------------------------------------------------------
# Digit tuples over F_p, low degree first: their codes, and products
# modulo a monic f of degree k = len(f) - 1, which only build a
# FieldCtx's tables and test candidate moduli.

def _code(c, p):
    """Integer encoding sum c_i p^i of a digit tuple."""
    out = 0
    for a in reversed(c):
        out = out * p + a
    return out


def _mulmod(a, b, f, p):
    """a * b mod f for length-k digit tuples, by Horner's rule over b:
    multiplying by w shifts up and subtracts top * f."""
    acc = [0] * (len(f) - 1)
    for bi in reversed(b):
        top = acc[-1]
        acc = [0] + acc[:-1]
        if top:
            acc = [(x - top * c) % p for x, c in zip(acc, f)]
        if bi:
            acc = [(x + bi * y) % p for x, y in zip(acc, a)]
    return tuple(acc)


def _powmod(a, e, f, p):
    result = (1,) + (0,) * (len(f) - 2)
    while e:
        if e & 1:
            result = _mulmod(result, a, f, p)
        a = _mulmod(a, a, f, p)
        e >>= 1
    return result


def _is_irreducible(f, p, k):
    """Rabin's test for a monic degree-k f over F_p: w^(p^k) == w mod f,
    and w^(p^(k/ell)) - w is a unit mod f for each prime ell | k.  The
    first makes f squarefree with every factor's degree dividing k, so
    F_p[w]/f is a product of subfields of F_{p^k} and h is a unit
    exactly when h^(p^k - 1) == 1."""
    if k == 1:
        return True
    w = (0, 1) + (0,) * (k - 2)
    if _powmod(w, p ** k, f, p) != w:
        return False
    one = (1,) + (0,) * (k - 1)
    for ell in prime_factors(k):
        h = _powmod(w, p ** (k // ell), f, p)
        h = tuple((a - b) % p for a, b in zip(h, w))
        if _powmod(h, p ** k - 1, f, p) != one:
            return False
    return True


def _check_field(p: int, k: int) -> None:
    """F_{p^k} needs an odd prime p, k >= 1 and at most MAX_FIELD_ORDER
    elements to tabulate; p^k > 2^k, so a large k is refused before p^k
    is computed."""
    if not is_prime(p) or p == 2:
        raise ValueError("p must be an odd prime, got %r" % (p,))
    if k < 1:
        raise ValueError("extension degree k must be >= 1")
    if k >= MAX_FIELD_ORDER.bit_length() or p ** k > MAX_FIELD_ORDER:
        raise ValueError("field of order %d^%d is larger than the %d elements "
                         "this package tabulates" % (p, k, MAX_FIELD_ORDER))


# ----------------------------------------------------------------------

class FieldCtx:
    """Context for F_{p^k}: odd prime p, extension degree k, monic
    irreducible modulus (coefficient tuple, low degree first, length k+1).

    It holds four tables of O(q) ints: _digits, the digit tuple of each
    code sum c_i p^i; _exp and _log, from a log to a code and back, for
    the generator g (the first code of multiplicative order q - 1); and
    the Zech logarithms _zech[e] = log(1 + g^e), None at e = (q - 1)/2
    where g^e = -1, so that g^s + g^t = g^(s + _zech[t - s]).  Poly
    products also read _red, the digit tuples of w^k..w^{2k-2}, which
    reduce the w-degrees >= k.
    """

    __slots__ = ("p", "k", "modulus", "_digits", "_exp", "_log", "_zech", "_red")

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        _check_field(p, k)
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree k")
        if not _is_irreducible(modulus, p, k):
            raise ValueError("modulus is not irreducible over F_%d" % p)
        self.p = p
        self.k = k
        self.modulus = modulus
        q = p ** k
        digits = [c[::-1] for c in itertools.product(range(p), repeat=k)]
        self._digits = digits
        # the first code of order q - 1, i.e. with g^((q-1)/r) != 1 for
        # every prime r | q - 1, and then one walk through its powers
        one = digits[1]
        cofactors = [(q - 1) // r for r in prime_factors(q - 1)]
        g = next(c for c in range(2, q)
                 if all(_powmod(digits[c], e, modulus, p) != one for e in cofactors))
        exp, x = [1], digits[g]
        while x != one:
            exp.append(_code(x, p))
            x = _mulmod(x, digits[g], modulus, p)
        self._exp = exp
        log = [None] * q
        for i, code in enumerate(exp):
            log[code] = i
        self._log = log
        # 1 + x adds 1 to the lowest digit of x's code
        self._zech = [log[c - c % p + (c + 1) % p] for c in exp]
        # w has code p when k > 1
        lw = log[p] if k > 1 else 0
        self._red = tuple(digits[exp[m * lw % (q - 1)]] for m in range(k, 2 * k - 1))

    # -- basic data -------------------------------------------------

    @property
    def order(self) -> int:
        return self.p ** self.k

    def __eq__(self, other):
        return (isinstance(other, FieldCtx) and self.p == other.p
                and self.k == other.k and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        return "FieldCtx(p=%d, k=%d)" % (self.p, self.k)

    # -- element construction ---------------------------------------

    def elem(self, value) -> "FieldElement":
        """Coerce an int (prime-subfield constant) or coefficient list."""
        if isinstance(value, FieldElement):
            if value.ctx != self:
                raise ValueError("field mismatch")
            return value
        if isinstance(value, int):
            return FieldElement(self, self._log[value % self.p])
        c = [int(v) % self.p for v in value]
        if len(c) > self.k:
            raise ValueError("coefficient vector longer than k")
        return FieldElement(self, self._log[_code(c, self.p)])

    def zero(self) -> "FieldElement":
        return FieldElement(self, None)

    def one(self) -> "FieldElement":
        return FieldElement(self, 0)

    def from_code(self, code: int) -> "FieldElement":
        """Element with base-p digit vector of code (0 <= code < p^k)."""
        if not 0 <= code < self.order:
            raise ValueError("code out of range")
        return FieldElement(self, self._log[code])

    def elements(self):
        """Deterministic enumeration of the whole field, by code."""
        for code in range(self.order):
            yield self.from_code(code)

    def generator(self) -> "FieldElement":
        """First multiplicative generator in code order (deterministic)."""
        return FieldElement(self, 1)

    # -- serialization ------------------------------------------------

    def to_obj(self):
        return {"p": self.p, "k": self.k, "modulus": [int(c) for c in self.modulus]}


class FieldElement:
    """Immutable element of F_{p^k}, stored as its log e to
    ctx.generator() mod q - 1, None for zero.  Its digits `c` are read
    from ctx._digits to be shown."""

    __slots__ = ("ctx", "e")

    def __init__(self, ctx: FieldCtx, e: int | None):
        self.ctx = ctx
        self.e = e

    def _coerce(self, other):
        if isinstance(other, (FieldElement, int)):
            return self.ctx.elem(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.e is None or o.e is None:
            return o if self.e is None else self
        # g^s + g^t = g^(s + zech[t - s]); None is a sum cancelled to zero
        zech = self.ctx._zech
        z = zech[o.e - self.e]
        return FieldElement(self.ctx, None if z is None else (self.e + z) % len(zech))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __neg__(self):
        if self.e is None:
            return self
        n = len(self.ctx._exp)
        return FieldElement(self.ctx, (self.e + n // 2) % n)   # -1 = g^(n/2)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.e is None or o.e is None:
            return self.ctx.zero()
        return FieldElement(self.ctx, (self.e + o.e) % len(self.ctx._exp))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __pow__(self, e: int):
        if self.e is None:
            if e < 0:
                raise ZeroDivisionError("inverse of zero")
            return self.ctx.one() if e == 0 else self
        return FieldElement(self.ctx, self.e * e % len(self.ctx._exp))

    def inv(self) -> "FieldElement":
        """Multiplicative inverse: generator^(-log self)."""
        if self.e is None:
            raise ZeroDivisionError("inverse of zero")
        return FieldElement(self.ctx, -self.e % len(self.ctx._exp))

    def frobenius(self) -> "FieldElement":
        return self ** self.ctx.p

    def sqrt(self):
        """Square root with the smaller code, or None: a nonzero element
        is a square iff its log is even, and its roots are
        +-generator^(log/2)."""
        if self.e is None:
            return self
        if self.e % 2:
            return None
        r = FieldElement(self.ctx, self.e // 2)
        return min(r, -r, key=FieldElement.code)

    def is_zero(self) -> bool:
        return self.e is None

    @property
    def c(self) -> tuple[int, ...]:
        """Digit tuple over F_p in the basis w^0..w^{k-1}, low first."""
        return self.ctx._digits[self.code()]

    def code(self) -> int:
        """Integer encoding sum c_i p^i (the deterministic element order)."""
        return 0 if self.e is None else self.ctx._exp[self.e]

    def multiplicative_order(self) -> int:
        if self.e is None:
            raise ValueError("zero has no multiplicative order")
        n = self.ctx.order - 1
        return n // gcd(self.e, n)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ctx.elem(other)
        return (isinstance(other, FieldElement) and self.ctx == other.ctx
                and self.e == other.e)

    def __hash__(self):
        return hash((self.ctx.p, self.ctx.k, self.e))

    def __repr__(self):
        if self.ctx.k == 1:
            return str(self.c[0])
        terms = []
        for i in range(self.ctx.k - 1, -1, -1):
            a = self.c[i]
            if a == 0:
                continue
            if i == 0:
                terms.append(str(a))
            else:
                w = "w" if i == 1 else "w^%d" % i
                terms.append(w if a == 1 else "%d*%s" % (a, w))
        return "(" + (" + ".join(terms) if terms else "0") + ")"

    def to_obj(self):
        return list(self.c)


# ----------------------------------------------------------------------

def build_field(p: int, k: int) -> FieldCtx:
    """F_{p^k} with the deterministic modulus: the first monic irreducible
    of degree k in integer-encoding order of the low coefficients (for
    k = 1 this is the polynomial x itself)."""
    _check_field(p, k)
    for c in itertools.product(range(p), repeat=k):
        try:
            return FieldCtx(p, k, c[::-1] + (1,))
        except ValueError:
            continue  # reducible
    raise RuntimeError("no irreducible polynomial found")  # pragma: no cover


def zeta(ctx: FieldCtx, d: int) -> FieldElement:
    """Canonical primitive d-th root of unity: g^((q-1)/d) for the first
    generator g in code order.  Requires d | q - 1."""
    if d < 1:
        raise ValueError("d must be positive")
    n = ctx.order - 1
    if n % d != 0:
        raise ValueError("d = %d does not divide q - 1 = %d" % (d, n))
    return ctx.generator() ** (n // d)
