"""Arithmetic invariants of y^2 = x(x+1)(x+u^d), d = p^f + 1, over F_q(u).

All quantities are exact integers or Fractions.  The L-function side:
over any F_q with q a power of p^{2f} we have q = 1 mod d, the curve has
full rank d - 2, and L(s) = (1 - q^(1-s))^(d-2), whose leading Taylor
coefficient at s = 1 is (log q)^(d-2).  The BSD ratio computed here is
the rational part of

    |Sha| * Regulator * tamagawa / |torsion|^2  divided by  that leading
    coefficient,

which cancels to exactly 1 for every valid q and claimed index m.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .gf import prime_factors, validate_q


def euler_totient(n: int) -> int:
    if n < 1:
        raise ValueError("totient of a nonpositive integer")
    out = n
    for q in prime_factors(n):
        out -= out // q
    return out


def multiplicative_order(q: int, n: int) -> int:
    """Order of q in (Z/n)^*."""
    if n < 1 or gcd(q, n) != 1:
        raise ValueError("q must be invertible mod n")
    if n == 1:
        return 1
    o, acc = 1, q % n
    while acc != 1:
        acc = acc * q % n
        o += 1
    return o


def divisors(n: int) -> list[int]:
    out = [e for e in range(1, n + 1) if n % e == 0]
    return out


def rank_formula(d: int, q: int) -> int:
    """Mordell-Weil rank over F_q(u): sum over divisors e of d with
    e > 2 of phi(e) / ord_q(e) (the number of q-power orbits of
    primitive e-th roots of unity)."""
    _check_coprime(d, q)
    total = 0
    for e in divisors(d):
        if e <= 2:
            continue
        phi, o = euler_totient(e), multiplicative_order(q, e)
        if phi % o != 0:
            raise ArithmeticError("orbits of size ord_q(e) partition the phi(e) roots")
        total += phi // o
    return total


def conductor_degree(d: int) -> int:
    """deg N = d + 2: one multiplicative place at u = 0, d at the roots
    of u^d = 1, one at infinity."""
    return d + 2


def frobenius_orbits(d: int, q: int) -> list[list[int]]:
    """Orbits of multiplication by q on Z/d, smallest representative
    first; the orbit count equals rank_formula(d, q) + 2.  Multiplication
    by q permutes Z/d only when q is prime to d."""
    _check_coprime(d, q)
    seen = set()
    orbits = []
    for i in range(d):
        if i in seen:
            continue
        orbit = []
        j = i
        while j not in seen:
            seen.add(j)
            orbit.append(j)
            j = j * q % d
        orbits.append(orbit)
    return orbits


# ----------------------------------------------------------------------
# Parameter checks.

def _check_coprime(d: int, q: int) -> None:
    if gcd(q, d) != 1:
        raise ValueError("q and d must be coprime")


# ----------------------------------------------------------------------
# BSD ingredients.

def regulator_coefficient(d: int, m: int) -> Fraction:
    """Rational part of the regulator: the P_0..P_{d-3} lattice
    determinant 2^(4-d) (d-1)^(d-2) / d^2 divided by the square of the
    index m of that lattice in the full Mordell-Weil group."""
    if m < 1:
        raise ValueError("index m must be >= 1")
    return Fraction(2 ** 4 * (d - 1) ** (d - 2), 2 ** d * d ** 2 * m * m)


def tamagawa_factor(q: int, d: int) -> Fraction:
    """q^(1 - d/2) * (2d)^2 * 2^d (the product of the local factors
    against the q-power weighting)."""
    if d % 2 != 0:
        raise ValueError("d must be even")
    return Fraction(q) ** (1 - d // 2) * (2 * d) ** 2 * 2 ** d


def torsion_order() -> int:
    """|E(F_q(u))_tors| = 8 (Z/2 x Z/4) throughout the family."""
    return 8


def sha_order(p: int, f: int, q: int, m: int) -> int:
    """|Sha| = m^2 * (q / p^{2f})^((p^f - 1)/2), which for q = (p^{2f})^j
    is m^2 * p^(f (j - 1) (p^f - 1)); f = 0 gives m^2."""
    j = validate_q(q, p, f)
    return m * m * p ** (f * (j - 1) * (p ** f - 1))


def index_bound(p: int, f: int) -> int:
    """The index of the lattice spanned by P_0..P_{d-3} in the full
    Mordell-Weil lattice divides p^(f (d-2)/2), d = p^f + 1."""
    return p ** (f * (p ** f - 1) // 2)


def integrality_check(d: int, m: int) -> bool:
    """m can only be an index if m^2 divides (d-1)^(d-2) (the odd part
    of the lattice determinant's numerator)."""
    if m < 1:
        raise ValueError("index m must be >= 1")
    return (d - 1) ** (d - 2) % (m * m) == 0


def bsd_report(p: int, f: int, q: int, m: int = 1) -> dict:
    """Assemble every invariant for d = p^f + 1 over F_q(u) and form the
    BSD ratio; exact cancellation to 1 is the consistency check.  The
    result is the JSON row, with the rational parts left as Fractions.

    The log-power bookkeeping: the regulator carries (log q)^rank and
    the leading L-coefficient carries (log q)^(d-2); these must match,
    which pins rank = d - 2 (q = 1 mod d holds for every valid q).  The
    leading coefficient's rational part is 1, so nothing divides the
    ratio."""
    validate_q(q, p, f)
    d = p ** f + 1
    r = rank_formula(d, q)
    if r != d - 2:
        raise ArithmeticError("every valid q is 1 mod d, forcing full rank")
    reg = regulator_coefficient(d, m)
    tam = tamagawa_factor(q, d)
    tors = torsion_order()
    sha = sha_order(p, f, q, m)
    ratio = sha * reg * tam / tors ** 2
    admissible = integrality_check(d, m)
    return {
        "p": p, "f": f, "d": d, "q": q, "m": m,
        "rank": r,
        "conductor_degree": conductor_degree(d),
        "l_function": {"form": "(1 - q^(1-s))^%d" % (d - 2),
                       "q": q,
                       "order_of_vanishing": d - 2,
                       "leading_log_power": d - 2,
                       "leading_rational_part": Fraction(1)},
        "regulator_rational_part": reg,
        "tamagawa": tam,
        "torsion_order": tors,
        "sha_order": sha,
        "index_bound": index_bound(p, f),
        "m_is_admissible": admissible,
        "bsd_ratio": ratio,
        "passes": ratio == 1 and admissible,
    }


# ----------------------------------------------------------------------
# Reduction data.

def bad_fibers(d: int) -> list[dict]:
    """The multiplicative fibers as JSON rows: I_{2d} at u = 0 and
    u = infinity, I_2 at each of the d roots of u^d = 1 (count d)."""
    big = {"kodaira": "I%d" % (2 * d), "components": 2 * d,
           "delta_valuation": 2 * d, "count": 1}
    return [{"place": "u=0", **big},
            {"place": "u^%d=1" % d, "kodaira": "I2", "components": 2,
             "delta_valuation": 2, "count": d},
            {"place": "u=infinity", **big}]


def fiber_audit(d: int) -> dict:
    """Sum of delta valuations must be 6d = 12 * (d/2) and the number of
    bad places d + 2 (the conductor degree, all reduction being
    multiplicative)."""
    fibers = bad_fibers(d)
    total_delta = sum(fb["delta_valuation"] * fb["count"] for fb in fibers)
    places = sum(fb["count"] for fb in fibers)
    ok = total_delta == 6 * d and places == conductor_degree(d)
    return {"fibers": fibers,
            "delta_degree_affine_plus_infinity": total_delta,
            "euler_characteristic_times_12": 6 * d,
            "bad_places": places,
            "conductor_degree": conductor_degree(d),
            "consistent": ok}
