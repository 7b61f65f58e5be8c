from fractions import Fraction

import pytest

from legendre_mw.invariants import (
    bad_fibers,
    bsd_report,
    conductor_degree,
    divisors,
    euler_totient,
    fiber_audit,
    frobenius_orbits,
    index_bound,
    integrality_check,
    multiplicative_order,
    rank_formula,
    regulator_coefficient,
    sha_order,
    tamagawa_factor,
    torsion_order,
    validate_q,
)


def test_totient_and_order():
    assert [euler_totient(n) for n in (1, 2, 6, 10, 12)] == [1, 1, 2, 4, 4]
    assert multiplicative_order(3, 10) == 4
    assert multiplicative_order(9, 10) == 2
    assert multiplicative_order(2, 7) == 3
    with pytest.raises(ValueError):
        multiplicative_order(2, 10)   # gcd != 1
    assert divisors(12) == [1, 2, 3, 4, 6, 12]


def test_rank_formula_values():
    # sum over divisors e > 2 of d of phi(e)/ord_q(e)
    assert rank_formula(4, 9) == 2
    assert rank_formula(4, 3) == 1
    assert rank_formula(6, 25) == 4
    assert rank_formula(8, 49) == 6
    assert rank_formula(10, 81) == 8
    assert rank_formula(10, 3) == 2
    assert rank_formula(2, 9) == 0
    with pytest.raises(ValueError):
        rank_formula(4, 2)   # q not coprime to d


def test_frobenius_orbits():
    assert frobenius_orbits(4, 3) == [[0], [1, 3], [2]]
    assert frobenius_orbits(4, 9) == [[0], [1], [2], [3]]
    # orbit count is rank + 2 (the two torsion relations)
    for d, q in ((4, 3), (4, 9), (6, 5), (10, 3), (10, 9)):
        orbs = frobenius_orbits(d, q)
        assert sum(len(o) for o in orbs) == d
        assert len(orbs) == rank_formula(d, q) + 2


def test_is_power_of_and_validate_q():
    assert validate_q(9, 3, 1) == 1
    assert validate_q(81, 3, 1) == 2
    assert validate_q(3, 3, 0) == 1
    for bad in (27, 3, 12, 0, 1, -9):
        with pytest.raises(ValueError):
            validate_q(bad, 3, 1)   # must be a power of p^{2f}


def test_conductor_degree():
    for d in (4, 6, 8, 10):
        assert conductor_degree(d) == d + 2


def test_regulator_and_tamagawa():
    assert regulator_coefficient(4, 1) == Fraction(9, 16)
    assert regulator_coefficient(4, 3) == Fraction(1, 16)
    assert tamagawa_factor(9, 4) == Fraction(64 * 16, 9)
    assert torsion_order() == 8
    with pytest.raises(ValueError):
        regulator_coefficient(4, 0)


def test_sha_order_values():
    assert sha_order(3, 1, 9, 1) == 1
    assert sha_order(3, 1, 81, 1) == 9
    assert sha_order(3, 1, 81, 3) == 81
    assert sha_order(5, 1, 625, 1) == 25 ** 2
    assert sha_order(3, 2, 81, 1) == 1


def test_index_bound_formula():
    assert index_bound(3, 1) == 3
    assert index_bound(5, 1) == 25
    assert index_bound(7, 1) == 343
    assert index_bound(3, 2) == 6561


def test_integrality_check():
    assert integrality_check(4, 1)
    assert integrality_check(4, 3)
    assert not integrality_check(4, 2)
    assert integrality_check(6, 25)
    assert not integrality_check(6, 125)   # 5^6 has no room for 5^6 squared


@pytest.mark.parametrize("p,f", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_bsd_ratio_is_one(p, f):
    base = p ** (2 * f)
    for q in (base, base ** 2):
        for m in (1, p):
            rep = bsd_report(p, f, q, m)
            assert rep.ratio == 1
            assert rep.passes
            assert rep.rank == p ** f - 1
            assert rep.torsion == 8
            assert rep.lfunction.order_of_vanishing == rep.rank


def test_bsd_report_fields():
    rep = bsd_report(3, 1, 9, 1)
    assert rep.d == 4 and rep.conductor_degree == 6
    assert rep.sha == 1 and rep.regulator == Fraction(9, 16)
    assert rep.index_bound == 3
    obj = rep.to_obj()
    assert obj["bsd_ratio"] == "1" and obj["passes"] is True


def test_bsd_rejects_invalid_q():
    with pytest.raises(ValueError):
        bsd_report(3, 1, 27, 1)


def test_fiber_audit():
    for d in (4, 6, 10):
        audit = fiber_audit(d)
        assert audit["consistent"]
        assert audit["delta_degree_affine_plus_infinity"] == 6 * d
        assert audit["bad_places"] == d + 2
    fibers = bad_fibers(4)
    kinds = {fb["place"]: fb["kodaira"] for fb in fibers}
    assert kinds["u=0"] == "I8" and kinds["u=infinity"] == "I8"
    assert kinds["u^4=1"] == "I2"
