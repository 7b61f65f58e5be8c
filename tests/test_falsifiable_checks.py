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
"""

import io
import json
from contextlib import redirect_stdout

import pytest

from legendre_mw import cli
from legendre_mw.curve import IsogenyChain, WeierstrassCurve, legendre_form_curve


def _false_checks(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    doc = json.loads(out.getvalue())
    return code, sorted(name for name, ok in doc["checks"].items() if not ok)


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
        zero = self.a2 * 0
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
