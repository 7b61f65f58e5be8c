"""Test-side reference for the packed Poly kernels: the coefficient-log
kernels the package ran before it packed digits into ints, kept as the
oracle that every packed kernel is checked against.

A polynomial here is a list of coefficient logs to the field's generator
(the `e` of each FieldElement), low degree first, None for a zero
coefficient, with no trailing None.  A sum reads the Zech table
(g^s + g^t = g^(s + zech[t - s])), negation adds n/2 for n = q - 1, as
-1 = g^(n/2), and the Frobenius multiplies each log by p.  Products
convolve the logs or, for larger operands, pack each digit column into
an int with the narrowest of 1, 2, 4 or 8 bytes per slot (Kronecker
substitution); division and gcd are long division on the log lists.
"""

import sys
from array import array

from legendre_mw.gf import FieldCtx

# (slot bits, array typecode) of the Kronecker slots, narrowest first
_SLOTS = tuple(sorted({(8 * array(t).itemsize, t) for t in "BHIQ"}))

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


# both product kernels run: the convolution while la * lb <= 64 k
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



def mul_logs(ctx: FieldCtx, a, b) -> list:
    """Product of any two log lists (zero is the empty list)."""
    return _trim(_mul_logs(ctx, a, b)) if a and b else []


def add_logs(ctx: FieldCtx, a, b) -> list:
    if not a or not b:
        return list(a or b)
    return _add_logs(ctx._zech, a, b)


def times_logs(ctx: FieldCtx, a, s) -> list:
    """a times g^s, or zero for s None."""
    n = ctx.order - 1
    return [] if s is None else [None if e is None else (e + s) % n for e in a]


def neg_logs(ctx: FieldCtx, a) -> list:
    return times_logs(ctx, a, (ctx.order - 1) // 2)


def divmod_logs(ctx: FieldCtx, a, b):
    q, r = _divmod_logs(ctx._zech, list(a), list(b), want_quotient=True)
    return _trim(q), r


def gcd_logs(ctx: FieldCtx, a, b) -> list:
    """Monic gcd by Euclid on log lists."""
    x, y = list(a), list(b)
    while y:
        x, y = y, _divmod_logs(ctx._zech, x, y, want_quotient=False)[1]
    return times_logs(ctx, x, -x[-1]) if x else x


def frobenius_logs(ctx: FieldCtx, a) -> list:
    return [None if e is None else e * ctx.p % (ctx.order - 1) for e in a]


def scale_var_logs(ctx: FieldCtx, a, la) -> list:
    """u -> g^la u, or u -> 0 for la None."""
    if la is None:
        return _trim(list(a[:1]))
    return [None if e is None else (e + i * la) % (ctx.order - 1) for i, e in enumerate(a)]


def eval_logs(ctx: FieldCtx, a, x):
    """Horner at the field element with log x (None for 0); the log of the value."""
    zech, n = ctx._zech, ctx.order - 1
    acc = None
    for e in reversed(a):
        if acc is not None:
            acc = None if x is None else (acc + x) % n
        if e is None:
            continue
        if acc is None:
            acc = e
        else:
            z = zech[e - acc]
            acc = None if z is None else (acc + z) % n
    return acc
