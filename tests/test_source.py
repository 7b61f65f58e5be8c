"""Source-level checks: no `assert` statement under src/, since
`python -O` strips them, every name in `legendre_mw.__all__`
resolves from the module that defines it, importing the package loads
none of its modules and a command only those it runs, the package
imports no numpy, whose import alone took
longer than most commands' own work, nor argparse, nor dataclasses, which loads
inspect, ast, dis and tokenize for a few records, gf.py imports no
other module of the package, the element format of F_q stays behind
gf.py and that of F_q[u] behind ratfunc.py, and
the names the benchmark's tracer rebinds exist."""

import ast
import importlib.util
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import legendre_mw

SRC = Path(__file__).resolve().parents[1] / "src"


def test_no_assert_statements_in_src():
    files = sorted(SRC.rglob("*.py"))
    assert files
    hits = ["%s:%d" % (path.relative_to(SRC), node.lineno) for path in files
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Assert)]
    assert hits == []


def test_public_names_resolve():
    names = legendre_mw.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(legendre_mw, n)] == []


def test_lazy_export_table_matches_all():
    # each public name maps to the module that defines it, and to no other
    table = legendre_mw._MODULE_OF
    assert sorted(table) == sorted(legendre_mw.__all__)
    assert len(table) == sum(len(names) for names in legendre_mw._HOMES.values())
    wrong = []
    for name, module in table.items():
        mod = importlib.import_module("legendre_mw." + module)
        if getattr(vars(mod).get(name), "__module__", None) != mod.__name__:
            wrong.append("%s -> %s" % (name, module))
    assert wrong == []


def test_unknown_attribute_is_named():
    with pytest.raises(AttributeError, match="no_such_name"):
        legendre_mw.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from legendre_mw import no_such_name  # noqa: F401


def test_curve_reexports_the_isogeny_half():
    # curve.py hands out isogeny.py's names on first access, as the
    # package does, and still names an attribute it does not have
    from legendre_mw import curve, isogeny

    assert [name for name in curve._ISOGENY_NAMES
            if getattr(curve, name) is not getattr(isogeny, name)] == []
    assert sorted(curve._ISOGENY_NAMES) == sorted(legendre_mw._HOMES["isogeny"])
    with pytest.raises(AttributeError, match="no_such_name"):
        curve.no_such_name


def _src_imports(top, files=None):
    """file:line of every import of the top-level module `top` under src/
    (or in `files`); a relative import is one of legendre_mw."""
    hits = []
    for path in sorted(files or SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = ["legendre_mw" if node.level else node.module or ""]
            else:
                continue
            hits += ["%s:%d" % (path.relative_to(SRC), node.lineno)
                     for n in names if n.split(".")[0] == top]
    return hits


def _fresh(code, *flags):
    """stdout of `code` run by a fresh interpreter on this checkout's sources."""
    out = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60, check=True)
    return out.stdout


def _loaded(modules, setup, *flags):
    """Which of `modules` a fresh interpreter has loaded after `setup`."""
    return _fresh("%s\nimport sys; print([m for m in %r if m in sys.modules])"
                  % (setup, modules), *flags)


def _loaded_by_cli_import(modules, *flags):
    """Which of `modules` a fresh `import legendre_mw.cli` loads."""
    return _loaded(modules, "import legendre_mw.cli", *flags)


SECTIONS = tuple("legendre_mw.sections." + m
                 for m in ("points", "gram", "invariants", "isogeny", "rb"))
PACKAGE = tuple("legendre_mw." + m for m in ("gf", "ratfunc", "curve", "isogeny", "legendre",
                                             "heights", "exact_linalg", "invariants", "cli",
                                             "sections")) + SECTIONS
# argparse and the gettext and locale imports it makes cost more than a
# small command's own work; fractions is loaded only with heights
WATCHED = PACKAGE + ("fractions", "argparse", "gettext", "locale")


def _loaded_by_command(*argv):
    """Which package modules, and which of the other WATCHED modules, a
    fresh run of the command loads (-S: no site hook such as a .pth file
    decides)."""
    setup = ("import os, sys, legendre_mw.cli\n"
             "out, sys.stdout = sys.stdout, open(os.devnull, 'w')\n"
             "if legendre_mw.cli.main(%r): raise SystemExit('command failed')\n"
             "sys.stdout = out" % (list(argv),))
    return set(ast.literal_eval(_loaded(WATCHED, setup, "-S")))


def test_package_import_loads_no_module():
    assert _loaded(PACKAGE, "import legendre_mw", "-S") == "[]\n"


# what a command loads beyond cli, legendre and the modules legendre imports
BASE = {"legendre_mw.cli", "legendre_mw.legendre", "legendre_mw.gf", "legendre_mw.ratfunc",
        "legendre_mw.curve", "legendre_mw.sections"}
HEIGHTS = {"legendre_mw.heights", "fractions"}


@pytest.mark.parametrize("argv,extra", [
    # the isogeny chain needs no heights, linear algebra, invariants or Fractions
    (["isogeny", "--p", "3"], {"legendre_mw.isogeny", "legendre_mw.sections.isogeny"}),
    # no command but isogeny and all compiles curve.py's isogeny half
    (["gram", "--p", "3", "--depth", "quick"], HEIGHTS | {"legendre_mw.sections.gram"}),
    (["points", "--p", "3"], HEIGHTS | {"legendre_mw.sections.points"}),
    (["rb", "--p", "3"], HEIGHTS | {"legendre_mw.exact_linalg", "legendre_mw.sections.rb"}),
    (["all", "--p", "3"], set(PACKAGE) | {"fractions"}),
])
def test_command_loads_only_what_it_runs(argv, extra):
    # and none loads argparse, gettext or locale
    assert _loaded_by_command(*argv) == BASE | extra


def test_module_run_imports_cli_only_as_main():
    # python -m runs cli.py as __main__, so a section that imported
    # legendre_mw.cli would compile it a second time
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "legendre_mw.cli", "all",
                           "--p", "3"], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    imported = set(re.findall(r"^import time:.*\|\s*(\S+)$", proc.stderr, re.M))
    assert set(SECTIONS) <= imported
    assert "legendre_mw.cli" not in imported


def test_star_import_dir_and_help_list_every_public_name():
    # a fresh process has loaded no module before it asks
    names = sorted(legendre_mw.__all__)
    star = "ns = {}; exec('from legendre_mw import *', ns); print(sorted(set(ns) - {'__builtins__'}))"
    assert _fresh(star) == "%r\n" % names
    assert _fresh("import legendre_mw; print(sorted(set(legendre_mw.__all__) - set(dir(legendre_mw))))") == "[]\n"
    text = _fresh("import pydoc, legendre_mw; print(pydoc.render_doc(legendre_mw, renderer=pydoc.plaintext))")
    # help's headings: "    class Name(...)", "    name(...)", "    name = ..."
    shown = set(re.findall(r"^    (?:class )?(\w+)[(=]", text, re.M))
    assert set(names) - shown == set()


def test_src_imports_no_numpy():
    assert _src_imports("numpy") == []


def test_src_imports_no_argparse():
    assert _src_imports("argparse") == []


def test_src_imports_no_dataclasses():
    assert _src_imports("dataclasses") == []


def test_gf_imports_no_package_module():
    # the field layer stands alone: its irreducibility test needs no
    # linear algebra, and ratfunc builds on gf, not the other way round
    assert _src_imports("legendre_mw", [SRC / "legendre_mw" / "gf.py"]) == []


def test_cli_import_loads_no_numpy():
    assert _loaded_by_cli_import(("numpy",)) == "[]\n"


def test_cli_import_loads_no_dataclasses():
    # -S: no site hook (such as a .pth file) decides what is loaded
    assert _loaded_by_cli_import(("dataclasses", "inspect"), "-S") == "[]\n"


# FieldCtx tables that other modules' kernels may read directly
KERNEL_TABLES = {"_zech", "_digits", "_exp", "_log", "_red"}


def _private_members(tree, classes=None):
    """Single-underscore names a module's classes (or only `classes`)
    define: slots, methods and class-level assignments."""
    names = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef) or (classes and node.name not in classes):
            continue
        for item in ast.walk(node):
            if isinstance(item, ast.FunctionDef):
                names.add(item.name)
            elif isinstance(item, ast.Constant) and isinstance(item.value, str):
                names.add(item.value)   # __slots__ entries
            elif isinstance(item, ast.Attribute) and isinstance(item.ctx, ast.Store):
                names.add(item.attr)
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def test_field_element_format_stays_in_gf():
    # another module may read FieldCtx's kernel tables, but no other
    # private member of FieldCtx or FieldElement: how an element is
    # stored is gf.py's business (a name the module's own classes also
    # define is that class's member)
    gf = SRC / "legendre_mw" / "gf.py"
    hidden = _private_members(ast.parse(gf.read_text()), {"FieldCtx", "FieldElement"})
    hidden -= KERNEL_TABLES
    assert {"_coerce"} <= hidden
    hits = []
    for path in sorted(SRC.rglob("*.py")):
        if path == gf:
            continue
        tree = ast.parse(path.read_text(), str(path))
        names = hidden - _private_members(tree)
        hits += ["%s:%d %s" % (path.relative_to(SRC), node.lineno, node.attr)
                 for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr in names]
    assert hits == []


def test_poly_storage_stays_in_ratfunc():
    # how a Poly stores its coefficients is ratfunc.py's business: no
    # other module reads Poly.c or a private member of Poly or its Logs
    # view.  A module is checked for every `.c` read unless it defines a
    # `c` itself, as gf.py does for FieldElement's digits (and a private
    # name the module's own classes define is theirs)
    ratfunc = SRC / "legendre_mw" / "ratfunc.py"
    hidden = _private_members(ast.parse(ratfunc.read_text()), {"Poly", "Logs"}) | {"c"}
    assert {"_v", "_pk", "_logs", "_times", "_check"} <= hidden
    hits = []
    for path in sorted(SRC.rglob("*.py")):
        if path == ratfunc:
            continue
        tree = ast.parse(path.read_text(), str(path))
        own = _private_members(tree) | {node.name for node in ast.walk(tree)
                                        if isinstance(node, ast.FunctionDef)}
        hits += ["%s:%d %s" % (path.relative_to(SRC), node.lineno, node.attr)
                 for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr in hidden - own]
    assert hits == []


def test_benchmark_hooks_resolve(monkeypatch):
    # perfbench/layers.py traces a run by rebinding these names at run
    # time; loading the module installs nothing, Tracer.install() does
    path = SRC.parent / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = []
    for layer, module, owner, names in layers.LAYERS:
        mod = importlib.import_module(module)
        home = mod if owner is None else getattr(mod, owner, None)
        missing += ["%s %s" % (layer, name) for name in names
                    if home is None or name not in vars(home)]
    assert missing == []
    # the ratfunc_canon namer finds no _canonical argument, so it counts
    # every RatFunc.__init__ call, and the Poly namers read a row count
    # off c.shape[0]
    from legendre_mw import cli
    from legendre_mw.gf import build_field
    from legendre_mw.ratfunc import Poly, RatFunc
    assert list(inspect.signature(RatFunc.__init__).parameters) == ["self", "num", "den"]
    ctx = build_field(3, 2)
    # so each call is one reduction, and results known to be reduced
    # are built without one: a whole command enters __init__ never
    init, calls = RatFunc.__init__, []

    def counted(self, num, den):
        calls.append((num, den))
        init(self, num, den)

    monkeypatch.setattr(RatFunc, "__init__", counted)
    u = Poly.variable(ctx)
    r = RatFunc(u * u - 1, 2 * (u - 1))
    assert len(calls) == 1
    assert (r.num, r.den) == ((u + 1) * ctx.elem(2).inv(), Poly.one(ctx))
    calls.clear()
    assert cli.main(["all", "--p", "3"]) == 0
    assert calls == []
    for coeffs, count in (([], 0), ([1], 1), ([0, 2, 0, 1], 4), ([2, 0], 1)):
        assert Poly.from_elems(ctx, coeffs).c.shape[0] == count
