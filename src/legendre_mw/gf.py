"""Arithmetic in small finite fields F_p and F_{p^k} (polynomial basis).

Elements are coefficient vectors over F_p in the basis w^0..w^{k-1},
reduced modulo a fixed monic irreducible modulus.  Everything is
immutable and exact.  The fields this package actually meets are tiny
(q <= a few thousand), so clarity wins over asymptotics here; the
polynomial layer in ratfunc.py is where speed matters.
"""

from __future__ import annotations

import numpy as np

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


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
# Dense polynomials over F_p as low-degree-first int tuples (no trailing
# zeros).  Used only for modulus bookkeeping inside FieldCtx.

def _trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _psub(a, b, p):
    n = max(len(a), len(b))
    return _trim(tuple(((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
                       for i in range(n)))


def _pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(tuple(out))


def _pdivmod(a, b, p):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    db = len(b) - 1
    inv_lead = pow(b[-1], p - 2, p)
    q = [0] * max(0, len(a) - db)
    for i in range(len(r) - 1, db - 1, -1):
        if r[i] == 0:
            continue
        c = r[i] * inv_lead % p
        q[i - db] = c
        for j in range(db + 1):
            r[i - db + j] = (r[i - db + j] - c * b[j]) % p
    return _trim(tuple(q)), _trim(tuple(r))


def _pgcd(a, b, p):
    while b:
        a, b = b, _pdivmod(a, b, p)[1]
    if a:
        inv_lead = pow(a[-1], p - 2, p)
        a = _trim(tuple(c * inv_lead % p for c in a))
    return a


def _ppowmod(a, e, m, p):
    result = (1,)
    base = _pdivmod(a, m, p)[1]
    while e:
        if e & 1:
            result = _pdivmod(_pmul(result, base, p), m, p)[1]
        base = _pdivmod(_pmul(base, base, p), m, p)[1]
        e >>= 1
    return result


def _is_irreducible(f, p, k):
    """Monic degree-k f over F_p: x^(p^k) == x mod f and the gcd test
    against x^(p^(k/ell)) - x for each prime ell | k."""
    if k == 1:
        return True
    x = (0, 1)
    if _ppowmod(x, p ** k, f, p) != x:
        return False
    for ell in prime_factors(k):
        g = _psub(_ppowmod(x, p ** (k // ell), f, p), x, p)
        if _pgcd(g, f, p) != (1,):
            return False
    return True


# ----------------------------------------------------------------------

class FieldCtx:
    """Context for F_{p^k}: odd prime p, extension degree k, monic
    irreducible modulus (coefficient tuple, low degree first, length k+1).

    Also precomputes the numpy matrices the polynomial layer needs:
    reduction rows for w^k..w^{2k-2}, the Frobenius matrix of a -> a^p,
    and per-element multiplication matrices (cached by element code).
    """

    __slots__ = ("p", "k", "modulus", "_red", "_frob", "_mulmats", "_gen")

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        if not is_prime(p) or p == 2:
            raise ValueError("p must be an odd prime, got %r" % (p,))
        if k < 1:
            raise ValueError("extension degree k must be >= 1")
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree k")
        if not _is_irreducible(modulus, p, k):
            raise ValueError("modulus is not irreducible over F_%d" % p)
        self.p = p
        self.k = k
        self.modulus = modulus
        red = np.zeros((max(k - 1, 0), k), dtype=np.int64)
        for m in range(k, 2 * k - 1):
            rem = _pdivmod((0,) * m + (1,), modulus, p)[1]
            for i, c in enumerate(rem):
                red[m - k, i] = c
        red.setflags(write=False)
        self._red = red
        frob = np.zeros((k, k), dtype=np.int64)
        for j in range(k):
            img = _ppowmod((0,) * j + (1,), p, modulus, p)
            for i, c in enumerate(img):
                frob[j, i] = c
        frob.setflags(write=False)
        self._frob = frob
        self._mulmats = {}
        self._gen = None

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
            c = [value % self.p] + [0] * (self.k - 1)
            return FieldElement(self, tuple(c))
        c = [int(v) % self.p for v in value]
        if len(c) > self.k:
            raise ValueError("coefficient vector longer than k")
        c += [0] * (self.k - len(c))
        return FieldElement(self, tuple(c))

    def zero(self) -> "FieldElement":
        return self.elem(0)

    def one(self) -> "FieldElement":
        return self.elem(1)

    def from_code(self, code: int) -> "FieldElement":
        """Element with base-p digit vector of code (0 <= code < p^k)."""
        if not 0 <= code < self.order:
            raise ValueError("code out of range")
        c = []
        for _ in range(self.k):
            c.append(code % self.p)
            code //= self.p
        return FieldElement(self, tuple(c))

    def elements(self):
        """Deterministic enumeration of the whole field, by code."""
        for code in range(self.order):
            yield self.from_code(code)

    # -- numpy helpers for the polynomial layer ----------------------

    @property
    def reduction_rows(self) -> np.ndarray:
        return self._red

    @property
    def frobenius_matrix(self) -> np.ndarray:
        return self._frob

    def mul_matrix(self, a: "FieldElement") -> np.ndarray:
        """k x k matrix M with row j = coefficients of a*w^j; for a row
        vector v of digits, v @ M = digits of (element of v) * a."""
        key = a.code()
        m = self._mulmats.get(key)
        if m is None:
            m = np.zeros((self.k, self.k), dtype=np.int64)
            for j in range(self.k):
                img = _pdivmod(_pmul(a.c, (0,) * j + (1,), self.p), self.modulus, self.p)[1]
                for i, c in enumerate(img):
                    m[j, i] = c
            m.setflags(write=False)
            self._mulmats[key] = m
        return m

    # -- generator / roots of unity ----------------------------------

    def generator(self) -> "FieldElement":
        """First multiplicative generator in code order (deterministic)."""
        if self._gen is None:
            n = self.order - 1
            checks = [n // ell for ell in prime_factors(n)]
            for code in range(1, self.order):
                g = self.from_code(code)
                if all((g ** e).code() != 1 for e in checks):
                    self._gen = g
                    break
            else:  # pragma: no cover - multiplicative group is cyclic
                raise RuntimeError("no generator found")
        return self._gen

    # -- serialization ------------------------------------------------

    def to_obj(self):
        return {"p": self.p, "k": self.k, "modulus": [int(c) for c in self.modulus]}

    @classmethod
    def from_obj(cls, obj) -> "FieldCtx":
        return cls(obj["p"], obj["k"], tuple(obj["modulus"]))


class FieldElement:
    """Immutable element of F_{p^k}, stored as a length-k digit tuple."""

    __slots__ = ("ctx", "c")

    def __init__(self, ctx: FieldCtx, c: tuple[int, ...]):
        self.ctx = ctx
        self.c = c

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.ctx != self.ctx:
                raise ValueError("field mismatch")
            return other
        if isinstance(other, int):
            return self.ctx.elem(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        p = self.ctx.p
        return FieldElement(self.ctx, tuple((a + b) % p for a, b in zip(self.c, o.c)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        p = self.ctx.p
        return FieldElement(self.ctx, tuple((a - b) % p for a, b in zip(self.c, o.c)))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        p = self.ctx.p
        return FieldElement(self.ctx, tuple(-a % p for a in self.c))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        ctx = self.ctx
        prod = _pmul(self.c, o.c, ctx.p)
        rem = _pdivmod(prod, ctx.modulus, ctx.p)[1]
        return ctx.elem(rem)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        return self.inv() * other

    def __pow__(self, e: int):
        if e < 0:
            return self.inv() ** (-e)
        result = self.ctx.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inv(self) -> "FieldElement":
        """Multiplicative inverse via extended Euclid on F_p[w]."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        ctx = self.ctx
        p, m = ctx.p, ctx.modulus
        r0, r1 = _trim(self.c), m
        s0, s1 = (1,), ()
        while r1:
            q, r = _pdivmod(r0, r1, p)
            r0, r1 = r1, r
            s0, s1 = s1, _psub(s0, _pmul(q, s1, p), p)
        # r0 is a nonzero constant gcd
        c = pow(r0[0], p - 2, p)
        return ctx.elem(_trim(tuple(v * c % p for v in s0)))

    def frobenius(self) -> "FieldElement":
        return self ** self.ctx.p

    def sqrt(self):
        """Square root with the smallest code, or None (brute force; fields
        here are tiny and this only runs during point construction)."""
        for e in self.ctx.elements():
            if (e * e) == self:
                return e
        return None

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.c)

    def code(self) -> int:
        """Integer encoding sum c_i p^i (the deterministic element order)."""
        out = 0
        for a in reversed(self.c):
            out = out * self.ctx.p + a
        return out

    def multiplicative_order(self) -> int:
        if self.is_zero():
            raise ValueError("zero has no multiplicative order")
        n = self.ctx.order - 1
        for ell in prime_factors(n):
            while n % ell == 0 and (self ** (n // ell)).code() == 1:
                n //= ell
        return n

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ctx.elem(other)
        return (isinstance(other, FieldElement) and self.ctx == other.ctx
                and self.c == other.c)

    def __hash__(self):
        return hash((self.ctx.p, self.ctx.k, self.c))

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
        return [int(a) for a in self.c]


# ----------------------------------------------------------------------

def build_field(p: int, k: int) -> FieldCtx:
    """F_{p^k} with the deterministic modulus: the first monic irreducible
    of degree k in integer-encoding order of the low coefficients (for
    k = 1 this is the polynomial x itself)."""
    if not is_prime(p) or p == 2:
        raise ValueError("p must be an odd prime, got %r" % (p,))
    if k < 1:
        raise ValueError("extension degree k must be >= 1")
    for code in range(p ** k):
        c, rest = [], code
        for _ in range(k):
            c.append(rest % p)
            rest //= p
        f = tuple(c) + (1,)
        if _is_irreducible(f, p, k):
            return FieldCtx(p, k, f)
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
