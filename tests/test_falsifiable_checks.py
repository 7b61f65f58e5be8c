"""Every `checks.*` entry must be able to turn false.  Each test feeds
one check's computation a wrong input, never a changed comparison, and
asserts that this check alone turns false and that the command exits 1.

Checks no input can make false without raising first:
- isogeny.chain_reaches_legendre_form compares the chain's last curve
  with the family's curve.  IsogenyChain(t) itself refuses (ArithmeticError)
  unless that curve is y^2 = x(x+1)(x+t), and a family whose curve does
  not match its t gives sample points that the chain's maps refuse
  (ValueError: a point off the curve or off the map's domain).  So a
  wrong t or a wrong curve raises before the check is read.

A check no input can make false alone:
- gram.lattice_det_matches compares the determinant of the leading
  (d - 2) x (d - 2) block of G with a closed form.  The determinant is a
  function of the entries, which gram.entries_match_closed_form compares
  with their closed forms, so a wrong input that changes it changes an
  entry and turns that check false too.

Checks no input can make false until the BSD inputs (fibre types,
torsion order, L-value) are derived from the curve, not closed forms:
- invariants.bsd_ratio_is_one: the m^2 of the Sha order cancels the
  1/m^2 of the regulator, so the ratio is 1 for every --m.
- invariants.fiber_data_consistent compares the literal bad-fibre table
  with formulas in d.

COVERED names the test that turns each covered check false, OPEN the
checks no test turns false yet; together they are the 20 checks of
`all`.
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from legendre_mw import cli, exact_linalg, invariants
from legendre_mw.curve import CurvePoint, IsogenyChain, WeierstrassCurve, legendre_form_curve
from legendre_mw.legendre import substitute_zeta_u
from legendre_mw.ratfunc import RatFunc
from legendre_mw.sections import rb as rb_section

COVERED = {
    "points.explicit_points_nontorsion": "test_cli.py::test_d2_points_are_checked_torsion",
    "isogeny.round_trip_is_multiplication_by_2":
        "test_falsifiable_checks.py::test_negated_pullbacks_break_only_the_round_trip",
    "isogeny.forward_is_homomorphism":
        "test_falsifiable_checks.py::test_sums_off_by_a_torsion_point_break_only_the_homomorphism",
    "rb.closed_form_matches_group_law":
        "test_falsifiable_checks.py::test_shifted_matching_index_breaks_only_the_closed_form",
    "rb.descended_rank_matches":
        "test_falsifiable_checks.py::test_p1_for_p0_breaks_only_the_descended_rank",
    "rb.coordinates_frobenius_fixed":
        "test_falsifiable_checks.py::test_conjugated_points_break_only_the_frobenius_check",
    "points.points_on_curve":
        "test_falsifiable_checks.py::test_doubled_torsion_y_breaks_only_points_on_curve",
    "invariants.discriminant_is_16_t2_tm1_2":
        "test_falsifiable_checks.py::test_doubled_t_breaks_only_the_discriminant_formula",
    "invariants.discriminant_degree":
        "test_falsifiable_checks.py::test_d_plus_one_breaks_only_the_discriminant_degree",
    "invariants.index_is_admissible":
        "test_falsifiable_checks.py::test_index_two_breaks_only_the_index_check",
    "points.torsion_order_profile":
        "test_falsifiable_checks.py::test_q0_for_t_breaks_only_the_torsion_profile",
    "points.galois_shift_permutes_points":
        "test_falsifiable_checks.py::test_negated_p1_breaks_only_the_galois_shift",
    "gram.entries_match_closed_form":
        "test_falsifiable_checks.py::test_negated_p0_breaks_only_the_closed_form_entries",
    "gram.kernel_relations_are_torsion":
        "test_falsifiable_checks.py::test_shifted_kernel_vector_breaks_only_the_torsion_relations",
    "gram.rank_is_d_minus_2":
        "test_falsifiable_checks.py::test_extra_kernel_vector_breaks_only_the_rank",
    "gram.orbit_rank_matches_formula":
        "test_falsifiable_checks.py::test_split_orbit_breaks_only_the_orbit_rank",
}

OPEN = (
    "gram.lattice_det_matches",
    "invariants.bsd_ratio_is_one",
    "invariants.fiber_data_consistent",
    "isogeny.chain_reaches_legendre_form",
)


def _checks(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, json.loads(out.getvalue())["checks"]


def _false_checks(argv):
    code, checks = _checks(argv)
    return code, sorted(name for name, ok in checks.items() if not ok)


@pytest.mark.parametrize("p", ["3", "7"])
def test_negated_pullbacks_break_only_the_round_trip(monkeypatch, p):
    # forward(-S) = -2R: not 2R for a non-torsion R, while forward stays
    # a homomorphism on the negated pullbacks
    backward = IsogenyChain.backward
    monkeypatch.setattr(IsogenyChain, "backward", lambda self, R: -backward(self, R))
    assert _false_checks(["isogeny", "--p", p]) == (
        1, ["isogeny.round_trip_is_multiplication_by_2"])


@pytest.mark.parametrize("p", ["3", "7"])
def test_sums_off_by_a_torsion_point_break_only_the_homomorphism(monkeypatch, p):
    # on the source model (the only curve with a1 != 0), each sum of two
    # pullbacks is off by the point (0, 0), which forward does not send
    # to O; the round trip adds no points on the source
    add = WeierstrassCurve.add

    def off_by_origin(self, P, Q):
        S = add(self, P, Q)
        if self.a1.is_zero():
            return S
        zero = RatFunc.zero(self.ctx)
        return add(self, S, self.point(zero, zero))

    monkeypatch.setattr(WeierstrassCurve, "add", off_by_origin)
    assert _false_checks(["isogeny", "--p", p]) == (1, ["isogeny.forward_is_homomorphism"])


@pytest.mark.parametrize("field", ["t", "curve"])
def test_chain_reaches_legendre_form_raises_before_it_can_be_false(monkeypatch, field):
    # the reason this check is listed in the module docstring: a family
    # whose t and curve disagree is refused before the check is read
    make_family = cli.make_family

    def mismatched(p, f=1):
        params = make_family(p, f)
        wrong = params.t * 2
        return params._replace(**{field: wrong if field == "t" else legendre_form_curve(wrong)})

    monkeypatch.setattr(cli, "make_family", mismatched)
    with pytest.raises(ValueError, match="not on the"):
        cli.main(["isogeny", "--p", "3"])


@pytest.mark.parametrize("p", ["3", "5", "7"])
def test_shifted_matching_index_breaks_only_the_closed_form(monkeypatch, p):
    # R_b is compared with P_(i+1) + P_(d-i-1), another sum of a
    # Frobenius pair; the R_b themselves and their Gram are unchanged
    matching_index = rb_section.matching_index
    monkeypatch.setattr(rb_section, "matching_index",
                        lambda params, b: matching_index(params, b) + 1)
    assert _false_checks(["rb", "--p", p]) == (1, ["rb.closed_form_matches_group_law"])


@pytest.mark.parametrize("p", ["3", "5", "7"])
def test_p1_for_p0_breaks_only_the_descended_rank(monkeypatch, p):
    # P_1 is not defined over F_p(u), so the Gram of the R_b, P_1 and
    # P_(d/2) has rank (p - 1)/2 + 1; the sums P_i + P_(d-i) never read
    # P_0.  (Dropping one admissible b leaves every check true at p = 7:
    # the remaining points still span rank 3.)
    point_P = cli.point_P
    monkeypatch.setattr(cli, "point_P", lambda params, i: point_P(params, i or 1))
    assert _false_checks(["rb", "--p", p]) == (1, ["rb.descended_rank_matches"])


@pytest.mark.parametrize("p", ["5", "7"])
def test_conjugated_points_break_only_the_frobenius_check(monkeypatch, p):
    # every P_i and R_b under u -> zeta u, an automorphism of the curve
    # that keeps sums and heights: each R_b is still the sum of its pair
    # and the Gram is the same, but the points are not defined over
    # F_p(u).  At p = 3 (d = 4, zeta^2 = -1) each R_b is even in u
    # (x = u^2, y = u^4 + u^2 for the one admissible b), so its conjugate
    # is a point of F_3(u) again.
    point_P, point_R = cli.point_P, rb_section.point_R
    monkeypatch.setattr(cli, "point_P",
                        lambda params, i: substitute_zeta_u(params, point_P(params, i)))
    monkeypatch.setattr(rb_section, "point_R",
                        lambda params, b: substitute_zeta_u(params, point_R(params, b)))
    assert _false_checks(["rb", "--p", p]) == (1, ["rb.coordinates_frobenius_fixed"])


@pytest.mark.parametrize("p", ["5", "7"])
def test_doubled_torsion_y_breaks_only_points_on_curve(monkeypatch, p):
    # T as (x_T, 2 y_T), built without the point check: point_order reads
    # only x and whether y = 0, so T keeps order 4, but it is off the
    # curve.  At p = 3, 2 = -1 and (x_T, 2 y_T) is -T, on the curve.
    torsion_points = cli.torsion_points

    def doubled_y(params):
        tors = torsion_points(params)
        T = tors["T"]
        tors["T"] = CurvePoint(T.curve, T.x, T.y * 2)
        return tors

    monkeypatch.setattr(cli, "torsion_points", doubled_y)
    assert _false_checks(["points", "--p", p]) == (1, ["points.points_on_curve"])


@pytest.mark.parametrize("p", ["3", "5", "7"])
def test_q0_for_t_breaks_only_the_torsion_profile(monkeypatch, p):
    # a torsion table whose T is the 2-torsion point (0, 0): every point
    # is still on the curve, but the orders are 1, 2, 2, 2, 2, 4, 4, 4
    torsion_points = cli.torsion_points

    def q0_for_t(params):
        tors = torsion_points(params)
        tors["T"] = tors["Q0"]
        return tors

    monkeypatch.setattr(cli, "torsion_points", q0_for_t)
    assert _false_checks(["points", "--p", p]) == (1, ["points.torsion_order_profile"])


@pytest.mark.parametrize("p", ["3", "5", "7"])
def test_negated_p1_breaks_only_the_galois_shift(monkeypatch, p):
    # -P_1 is on the curve and not torsion, but u -> zeta u sends P_0 to
    # P_1, not to -P_1
    point_P = cli.point_P
    monkeypatch.setattr(cli, "point_P",
                        lambda params, i: -point_P(params, i) if i == 1 else point_P(params, i))
    assert _false_checks(["points", "--p", p]) == (1, ["points.galois_shift_permutes_points"])


def _family_with(monkeypatch, change):
    make_family = cli.make_family
    monkeypatch.setattr(cli, "make_family", lambda p, f=1: change(make_family(p, f)))


@pytest.mark.parametrize("p", ["3", "5", "7"])
def test_doubled_t_breaks_only_the_discriminant_formula(monkeypatch, p):
    # the curve's discriminant, of degree 4d, is compared with
    # 16 t^2 (t - 1)^2 at t = 2 u^d
    _family_with(monkeypatch, lambda params: params._replace(t=params.t * 2))
    assert _false_checks(["invariants", "--p", p]) == (
        1, ["invariants.discriminant_is_16_t2_tm1_2"])


@pytest.mark.parametrize("p", ["3", "5", "7"])
def test_d_plus_one_breaks_only_the_discriminant_degree(monkeypatch, p):
    # the curve's discriminant, 16 t^2 (t - 1)^2, has degree 4d, not
    # 4 (d + 1); the fibre table is consistent for every d
    _family_with(monkeypatch, lambda params: params._replace(d=params.d + 1))
    assert _false_checks(["invariants", "--p", p]) == (1, ["invariants.discriminant_degree"])


@pytest.mark.parametrize("p", ["3", "5"])
def test_index_two_breaks_only_the_index_check(p):
    # m = 2 cannot be an index: m^2 = 4 does not divide the odd
    # (d - 1)^(d - 2); the BSD ratio stays 1 (see the module docstring)
    assert _false_checks(["invariants", "--p", p, "--m", "2"]) == (
        1, ["invariants.index_is_admissible"])


@pytest.mark.parametrize("p", ["3", "5", "7"])
def test_negated_p0_breaks_only_the_closed_form_entries(monkeypatch, p):
    # -P_0 for P_0 conjugates G by diag(-1, 1, ..., 1): the off-diagonal
    # entries of row and column 0 change sign, but the determinant, the
    # rank, the orbit rank and the torsion of the kernel relations (read
    # on the same points) do not
    point_P = cli.point_P
    monkeypatch.setattr(cli, "point_P",
                        lambda params, i: -point_P(params, i) if i == 0 else point_P(params, i))
    assert _false_checks(["gram", "--p", p]) == (1, ["gram.entries_match_closed_form"])


def _kernel_with(monkeypatch, change):
    kernel_basis = exact_linalg.kernel_basis
    monkeypatch.setattr(exact_linalg, "kernel_basis", lambda rows: change(kernel_basis(rows)))


@pytest.mark.parametrize("p", ["3", "5", "7"])
def test_shifted_kernel_vector_breaks_only_the_torsion_relations(monkeypatch, p):
    # the first relation plus e_0 sums to a torsion point plus P_0, which
    # is not torsion; the kernel keeps its size, so the rank is unchanged
    _kernel_with(monkeypatch, lambda kern: [(kern[0][0] + 1,) + kern[0][1:]] + kern[1:])
    assert _false_checks(["gram", "--p", p]) == (1, ["gram.kernel_relations_are_torsion"])


@pytest.mark.parametrize("p", ["3", "5", "7"])
def test_extra_kernel_vector_breaks_only_the_rank(monkeypatch, p):
    # the sum of the two relations is a relation too, so it combines to a
    # torsion point, but a third vector makes the rank d - 3
    _kernel_with(monkeypatch, lambda kern: kern + [tuple(map(sum, zip(*kern)))])
    assert _false_checks(["gram", "--p", p]) == (1, ["gram.rank_is_d_minus_2"])


@pytest.mark.parametrize("p", ["3", "5", "7"])
def test_split_orbit_breaks_only_the_orbit_rank(monkeypatch, p):
    # under --q p one x p orbit of Z/d, split into singletons, adds a row
    # to the orbit Gram that raises its rank past the formula's; with the
    # default q = p^2 every orbit is a singleton already
    frobenius_orbits = invariants.frobenius_orbits

    def split(d, q):
        orbits = frobenius_orbits(d, q)
        k = next(i for i, orbit in enumerate(orbits) if len(orbit) > 1)
        return orbits[:k] + [[j] for j in orbits[k]] + orbits[k + 1:]

    monkeypatch.setattr(invariants, "frobenius_orbits", split)
    assert _false_checks(["gram", "--p", p, "--q", p]) == (
        1, ["gram.orbit_rank_matches_formula"])


def test_inventory_covers_every_check_once():
    # the covered and the open checks split the 20 checks `all` reports,
    # and each covered check names a test that exists
    code, checks = _checks(["all", "--p", "3"])
    assert code == 0 and len(checks) == 20
    assert not set(COVERED) & set(OPEN)
    assert set(COVERED) | set(OPEN) == set(checks)
    here = Path(__file__).parent
    for test in COVERED.values():
        module, name = test.split("::")
        assert "\ndef %s(" % name in (here / module).read_text()
