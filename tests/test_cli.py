import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from parser_reference import build_parser

from legendre_mw import cli, heights, legendre
from legendre_mw.cli import main
from legendre_mw.sections import isogeny as isogeny_section
from legendre_mw.sections import points as points_section
from legendre_mw.curve import WeierstrassCurve
from legendre_mw.exact_linalg import rank
from legendre_mw.gf import FieldElement
from legendre_mw.heights import gram_matrix
from legendre_mw.legendre import make_family, point_P, torsion_points
from legendre_mw.ratfunc import Poly


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _run_module(*argv, flags=()):
    """Run `python [flags] -m legendre_mw.cli argv` on this checkout's
    sources in a fresh interpreter; stdout and stderr are bytes."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *flags, "-m", "legendre_mw.cli", *argv],
        capture_output=True, env=env, timeout=300)


def test_parser_defaults():
    args = cli.parse_args(["points", "--p", "3"])
    assert args == {"command": "points", "p": 3, "f": 1, "q": None, "m": 1,
                    "depth": "full", "format": "json", "out": None}


def _outcome(parse, argv):
    """(exit code, parsed values or None) of parse(argv), its output
    swallowed: code 0 with values when it accepts."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return 0, parse(argv)
        except SystemExit as exc:
            return exc.code, None


OPTIONS = ("--p", "--f", "--q", "--m", "--depth", "--format", "--out")
VALUES = ("3", "-3", " 7", "0x3", "3.0", "-x.json", "x", "quick", "slow", "table")
TOKENS = (OPTIONS + ("--dep", "--fo", "--o", "--he")
          + tuple("%s=%s" % (opt, v) for opt in ("--p", "--dep", "--fo", "--o") for v in VALUES[:6])
          + cli.COMMANDS + VALUES + ("--", "-h", "--help", "--=3", "-hh", "--help=x"))


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(TOKENS), max_size=9))
@example(["gram", "--dep", "quick", "--fo=table", "--p", "3"])   # prefixes, --opt=value
@example(["--p=-3", "--o", "x.json", "--", "all"])
@example(["--p", "3", "--p", " 7", "points", "--"])              # the last --p counts
@example(["gram", "--p", "x", "--help"])                         # refused before the help
@example(["gram", "x", "--he"])
@example(["--=3", "-h"])                                         # ambiguous
@example(["-h"])
def test_parser_matches_argparse(argv):
    # the argparse parser the CLI had is the oracle: the same values
    # wherever it accepts, exit 2 wherever it refuses and 0 for the help
    want = _outcome(lambda a: vars(build_parser().parse_args(a)), list(argv))
    assert _outcome(cli.parse_args, list(argv)) == want


def test_points_command(capsys):
    code, out = _run(capsys, "points", "--p", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["command"] == "points"
    assert doc["params"]["d"] == 4
    assert len(doc["points"]["points"]) == 4
    assert doc["points"]["points"][0] == {
        "is_torsion": False, "label": "P0", "x": "u", "y": "u^3 + (2)*u^2 + u"}
    assert len(doc["points"]["torsion"]) == 8
    assert all(k.startswith("points.") for k in doc["checks"])
    assert all(doc["checks"].values())


def test_gram_quick(capsys):
    code, out = _run(capsys, "gram", "--p", "3", "--depth", "quick")
    doc = json.loads(out)
    assert code == 0
    g = doc["gram"]["gram"]["entries"]
    assert g[0][0] == "3/4" and g[0][2] == "-3/4" and g[0][1] == "0"
    assert doc["checks"]["gram.entries_match_closed_form"] is True


def test_gram_full_has_determinant(capsys):
    code, out = _run(capsys, "gram", "--p", "3")
    doc = json.loads(out)
    assert code == 0
    assert doc["gram"]["lattice_det"] == "9/16"
    assert doc["gram"]["expected_lattice_det"] == "9/16"
    assert doc["gram"]["rank"] == 2
    assert doc["checks"]["gram.lattice_det_matches"] is True
    assert doc["checks"]["gram.kernel_relations_are_torsion"] is True


def test_gram_descended_field(capsys):
    # q = 3 groups the points into Frobenius orbits; their span has rank 1
    code, out = _run(capsys, "gram", "--p", "3", "--q", "3")
    doc = json.loads(out)
    assert code == 0
    assert doc["gram"]["orbit_gram_rank"] == 1
    assert doc["gram"]["rank_formula"] == 1
    assert doc["gram"]["frobenius_orbits"] == [[0], [1, 3], [2]]
    assert doc["checks"]["gram.orbit_rank_matches_formula"] is True


def test_invariants_command(capsys):
    code, out = _run(capsys, "invariants", "--p", "5")
    doc = json.loads(out)
    assert code == 0
    assert doc["invariants"]["bsd"]["bsd_ratio"] == "1"
    assert doc["invariants"]["bsd"]["sha_order"] == 1
    assert doc["checks"]["invariants.bsd_ratio_is_one"] is True
    assert doc["checks"]["invariants.discriminant_is_16_t2_tm1_2"] is True


def test_isogeny_command(capsys):
    code, out = _run(capsys, "isogeny", "--p", "3")
    doc = json.loads(out)
    assert code == 0
    assert doc["checks"]["isogeny.round_trip_is_multiplication_by_2"] is True
    assert doc["checks"]["isogeny.forward_is_homomorphism"] is True
    assert doc["checks"]["isogeny.chain_reaches_legendre_form"] is True


def test_rb_command(capsys):
    code, out = _run(capsys, "rb", "--p", "5")
    doc = json.loads(out)
    assert code == 0
    assert doc["checks"]["rb.descended_rank_matches"] is True
    assert doc["checks"]["rb.closed_form_matches_group_law"] is True
    assert len(doc["rb"]["points"]) == 2
    assert doc["rb"]["descended_rank"] == 2 == doc["rb"]["expected_rank"]


def test_rb_requires_f_one(capsys):
    code, _ = _run(capsys, "rb", "--p", "3", "--f", "2")
    assert code == 2


def test_all_command_small(capsys):
    code, out = _run(capsys, "all", "--p", "3")
    doc = json.loads(out)
    assert code == 0
    for section in ("points", "gram", "invariants", "isogeny", "rb"):
        assert section in doc
    assert doc["ok"] is True


def test_json_output_is_deterministic(capsys):
    _, first = _run(capsys, "points", "--p", "3")
    _, second = _run(capsys, "points", "--p", "3")
    assert first == second


def test_all_command_same_under_python_O(capsys):
    # python -O strips assert statements, so no result may rest on one
    _, plain = _run(capsys, "all", "--p", "3")
    proc = _run_module("all", "--p", "3", flags=["-O"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == plain.encode()


def test_main_leaves_gc_state_alone(capsys):
    # in-process callers keep collecting their garbage: only the process
    # entry point freezes the heap
    frozen, enabled = gc.get_freeze_count(), gc.isenabled()
    code, _ = _run(capsys, "isogeny", "--p", "3")
    assert code == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)


def test_entry_freezes_after_the_document_is_written(capsys, monkeypatch):
    # python -m and the installed script share the entry; the stand-in
    # for gc.freeze records what stdout holds when it runs
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert 'legendre-mw = "legendre_mw.cli:entry"' in pyproject.read_text()
    _, want = _run(capsys, "points", "--p", "3")
    seen = []
    monkeypatch.setattr(gc, "freeze", lambda: seen.append(capsys.readouterr().out))
    monkeypatch.setattr(sys, "argv", ["legendre-mw", "points", "--p", "3"])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 0
    assert seen == [want]
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv,code", [
    (["points", "--p", "3"], 0),
    (["invariants", "--p", "3", "--m", "2"], 1),  # m = 2 is no index at d = 4
    (["points", "--p", "4"], 2),
    (["--p", "3"], 2),                            # no command
    (["gram", "--p", "3", "--depth", "slow"], 2),
    (["gram", "--p", "x"], 2),
    (["gram", "--p", "3", "extra"], 2),
    (["--help"], 0),
])
def test_module_run_matches_main(capsys, argv, code):
    # a fresh interpreter exits with main's code and writes main's bytes
    try:
        got = main(argv)
    except SystemExit as exc:  # the parser refuses the command line, or prints the help
        got = exc.code
    out, err = capsys.readouterr()
    assert got == code
    proc = _run_module(*argv)
    assert proc.returncode == code, proc.stderr
    assert (proc.stdout, proc.stderr) == (out.encode(), err.encode())


def test_module_run_out_file(tmp_path, capsys):
    in_process, fresh = tmp_path / "main.json", tmp_path / "module.json"
    assert main(["points", "--p", "3", "--out", str(in_process)]) == 0
    proc = _run_module("points", "--p", "3", "--out", str(fresh))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b""
    assert fresh.read_bytes() == in_process.read_bytes()


def test_table_format(capsys):
    code, out = _run(capsys, "invariants", "--p", "3", "--format", "table")
    assert code == 0
    assert "bsd_ratio" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _ = _run(capsys, "points", "--p", "3", "--out", str(target))
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["ok"] is True


@pytest.mark.parametrize("argv", [
    ["points", "--p", "4"],            # not prime
    ["points", "--p", "2"],            # even
    ["points", "--p", "3", "--f", "-1"],
    ["gram", "--p", "3", "--q", "12"],  # q not a power of p
    ["gram", "--p", "3", "--q", "2"],
    ["invariants", "--p", "3", "--q", "27"],   # odd power of p
    ["points", "--p", "3", "--m", "0"],
    ["gram", "--p", "3", "--q", "1"],   # p^0: q must be p^j with j >= 1
    ["points", "--p", "3", "--f", "8"],  # F_{3^16}: too large to tabulate
    ["points", "--p", "100000007"],      # F_{p^2}, q about 10^16
    ["points", "--p", "3", "--q", "-5"],  # every command checks q = p^j
    ["rb", "--p", "5", "--q", "0"],
    ["points", "--p", "3", "--out", ""],  # an empty path is no file
])
def test_invalid_parameters_exit_2(capsys, argv):
    code = main(argv)
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_json_output_refuses_values_other_than_fractions(capsys):
    # a Fraction prints as str(v); any other object the encoder does not
    # know is an error, not its repr in the output
    fam = make_family(3)
    cli._emit({"h": (Fraction(3, 4), Fraction(2))}, "json", None)
    assert json.loads(capsys.readouterr().out) == {"h": ["3/4", "2"]}
    for value in (fam.u, point_P(fam, 0)):
        with pytest.raises(TypeError, match="not JSON serializable"):
            cli._emit({"x": value}, "json", None)
    assert capsys.readouterr().out == ""


def test_out_file_in_missing_directory_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code = main(["points", "--p", "3", "--out", str(target)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not target.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_out_file_that_fails_on_write_exits_2(capsys):
    # /dev/full is in a writable directory, so it passes the check made
    # before the work, and writing the document to it fails (ENOSPC)
    code = main(["points", "--p", "3", "--out", "/dev/full"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == "" and err.startswith("error:")


def test_out_file_checked_before_any_work(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("work began before --out was checked")

    monkeypatch.setattr(points_section, "run_points", refuse)
    for name in ("point_P", "torsion_points"):
        monkeypatch.setattr(cli, name, refuse)
    # a missing directory, and a name longer than the file system allows
    for target in (tmp_path / "missing" / "x.json", tmp_path / ("x" * 300)):
        code = main(["points", "--p", "3", "--out", str(target)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not os.path.lexists(target)


@pytest.mark.parametrize("cmd", [
    "all --p 3", "all --p 5", "all --p 7", "gram --p 3 --f 2 --depth quick",
    "isogeny --p 7"])
def test_output_matches_benchmark_reference_digest(capsys, cmd):
    # the benchmark's sha256 of each command's JSON; it changes only
    # when the JSON is meant to change
    ref = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    want = json.loads(ref.read_text())[cmd]
    code, out = _run(capsys, *cmd.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == want


@pytest.mark.parametrize("cmd,digest", [
    ("all --p 11", "fcf909267f93d2926192cf5244eb482db51e382eb7b2149ad4cbb6d33ac03306"),
    ("gram --p 3 --f 2", "43b37e82bafe737c99919ce60207ca21a0197b1fadde30d9e5addae0f5e4ae25"),
    ("points --p 101", "54b691b557ded5544867db78d587a8e18722778678b0c3ca693351f9737529c8"),
    ("gram --p 3 --f 3", "78cd5a526a21df9023e2c7147d5a3c71ff9834f0eaf3e7591acb64927a0d4330"),
    ("gram --p 5 --f 2", "d9c9f0901ea8791ac941ef9f13b6be5af2b521c7b1fb4b163e0a8e719bbceff6"),
    ("all --p 3 --format table", "6a0bcc04c23701598d11bb0931f2174dcc630ad2d3887a6888a6872a2fd8d6b8"),
    ("gram --p 3 --q 3", "6cbbfd8ff545ba82f52c4cb7ee655c2ba4c1dad29f922a2e974e0cfa39a28cd7"),
    ("gram --p 3 --f 2 --q 3", "952d7759da76867b4285b4b0f641899052a66727984c4569d042c0378c47f230"),
    ("isogeny --p 3 --f 0", "8d9b41a948329198c0ca76d0b5c966aebdd1121f96184c54ab04254752a17e8f"),
    ("gram --p 7 --f 2", "267525802afa19020f52731e25a7117490c6934e32dd67b0448711c9a8df74f0"),
])
def test_long_command_output_digest(capsys, cmd, digest):
    # sha256 of the output of the longer commands outside the benchmark,
    # of the table renderer, of two Grams whose Frobenius orbits are not
    # all singletons, of the only isogeny chain over a k = 1 field (p = 3,
    # f = 0) and of the largest Poly operands (d = 50 over F_2401, k = 4);
    # it changes only when the output is meant to change
    code, out = _run(capsys, *cmd.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_isogeny_gcd_count(capsys, monkeypatch):
    # point checks and squares take no gcd: at most 250
    # Poly.gcd calls (448 when both were reduced)
    calls = []
    real = Poly.gcd

    def counted(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(Poly, "gcd", staticmethod(counted))
    code, _ = _run(capsys, "isogeny", "--p", "7")
    assert code == 0
    assert len(calls) <= 250


def test_isogeny_field_products_need_no_dispatch(monkeypatch):
    # FieldElement * Poly returns NotImplemented before Poly.__rmul__
    # scales, so every Poly stands left of its constant factor;
    # run_isogeny builds the IsogenyChain and runs its maps
    calls, refused = [], []
    real = FieldElement.__mul__

    def counted(self, other):
        res = real(self, other)
        (refused if res is NotImplemented else calls).append(1)
        return res

    monkeypatch.setattr(FieldElement, "__mul__", counted)
    fam = make_family(7)
    pts = [point_P(fam, i) for i in range(4)]
    _, checks = isogeny_section.run_isogeny(fam, pts, torsion_points(fam))
    assert all(checks.values())
    assert calls and not refused


def test_gram_work_count(capsys, monkeypatch):
    # the orbit Gram is read off G and each kernel relation is summed
    # pairwise: d = 10 makes one Gram and 45 + 2 * 4 adds of two affine
    # points (2 Grams and 98 adds when the orbit sums had their own Gram)
    grams, adds = [], []
    real_gram, real_add = heights.gram_matrix, WeierstrassCurve.add

    def gram(points):
        grams.append(len(points))
        return real_gram(points)

    def add(self, P, Q):
        if not (P.is_infinity or Q.is_infinity):
            adds.append(1)
        return real_add(self, P, Q)

    monkeypatch.setattr(heights, "gram_matrix", gram)
    monkeypatch.setattr(WeierstrassCurve, "add", add)
    code, _ = _run(capsys, "gram", "--p", "3", "--f", "2")
    assert code == 0
    assert grams == [10]
    assert len(adds) <= 53


@pytest.mark.parametrize("p,f,q", [(3, 1, 3), (3, 2, 3), (3, 2, 9)])
def test_orbit_gram_is_read_off_G_by_bilinearity(capsys, p, f, q):
    # the CLI reads the Gram of the Frobenius-orbit sums off G as C G C^T;
    # witness it with the sums formed by the group law, none filtered out
    # (a torsion orbit sum gives a zero row on both sides)
    code, out = _run(capsys, "gram", "--p", str(p), "--f", str(f), "--q", str(q))
    assert code == 0
    doc = json.loads(out)["gram"]
    G = [[Fraction(v) for v in row] for row in doc["gram"]["entries"]]
    orbits = doc["frobenius_orbits"]
    fam = make_family(p, f)
    pts = [point_P(fam, i) for i in range(fam.d)]
    sums = [sum((pts[i] for i in orbit), fam.curve.infinity()) for orbit in orbits]
    by_law = gram_matrix(sums)
    read_off = tuple(tuple(sum(G[i][j] for i in a for j in b) for b in orbits)
                     for a in orbits)
    assert read_off == by_law
    assert doc["orbit_gram_rank"] == rank(by_law)


@pytest.mark.parametrize("cmd,n_points,n_torsion", [
    ("all --p 5", 6, 1),
    ("gram --p 3 --f 2 --depth quick", 4, 0),
    ("isogeny --p 7", 4, 1),
    ("points --p 3 --f 2", 10, 1),   # the trace of P_1 reads the same P_i
])
def test_points_built_once_per_run(capsys, monkeypatch, cmd, n_points, n_torsion):
    # every section reads the one set of P_i and torsion points that
    # main builds, and no command builds more than its sections read,
    # counting calls from the cli and from inside the legendre module
    calls = {"point_P": 0, "torsion_points": 0}

    def counted(name):
        real = getattr(legendre, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in calls:
        wrapper = counted(name)
        monkeypatch.setattr(cli, name, wrapper)
        monkeypatch.setattr(legendre, name, wrapper)
    code, _ = _run(capsys, *cmd.split())
    assert code == 0
    assert calls == {"point_P": n_points, "torsion_points": n_torsion}


def test_d2_points_are_checked_torsion(capsys, monkeypatch):
    # for d = 2 the rank d - 2 is 0, so every P_i must be torsion; the
    # check is computed, not taken as true
    code, out = _run(capsys, "points", "--p", "3", "--f", "0")
    assert code == 0
    doc = json.loads(out)
    assert [P["is_torsion"] for P in doc["points"]["points"]] == [True, True]
    assert doc["checks"]["points.explicit_points_nontorsion"] is True
    monkeypatch.setattr(heights, "is_torsion_point", lambda P: False)
    code, out = _run(capsys, "points", "--p", "3", "--f", "0")
    assert code == 1
    assert json.loads(out)["checks"]["points.explicit_points_nontorsion"] is False


def test_f_zero_family(capsys):
    code, out = _run(capsys, "points", "--p", "3", "--f", "0")
    doc = json.loads(out)
    assert code == 0
    assert doc["params"]["d"] == 2
