"""Source-level checks: no `assert` statement under src/, since
`python -O` strips them, every name in `legendre_mw.__all__`
resolves, the package imports no numpy, whose import alone took
longer than most commands' own work, nor dataclasses, which loads
inspect, ast, dis and tokenize for a few records, the element format
of F_q stays behind gf.py, and the names the benchmark's tracer
rebinds exist."""

import ast
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

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


def _src_imports(top):
    """file:line of every import of the top-level module `top` under src/."""
    hits = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            hits += ["%s:%d" % (path.relative_to(SRC), node.lineno)
                     for n in names if n.split(".")[0] == top]
    return hits


def _loaded_by_cli_import(modules, *flags):
    """Which of `modules` a fresh `import legendre_mw.cli` loads."""
    code = "import sys, legendre_mw.cli; print([m for m in %r if m in sys.modules])" % (modules,)
    out = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60, check=True)
    return out.stdout


def test_src_imports_no_numpy():
    assert _src_imports("numpy") == []


def test_src_imports_no_dataclasses():
    assert _src_imports("dataclasses") == []


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


def test_benchmark_hooks_resolve():
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
    # the ratfunc_canon namer reads _canonical as the fourth positional
    # argument, and the Poly namers read a row count off c.shape[0]
    from legendre_mw.gf import build_field
    from legendre_mw.ratfunc import Poly, RatFunc
    assert list(inspect.signature(RatFunc.__init__).parameters)[3] == "_canonical"
    ctx = build_field(3, 2)
    for coeffs, count in (([], 0), ([1], 1), ([0, 2, 0, 1], 4), ([2, 0], 1)):
        assert Poly.from_elems(ctx, coeffs).c.shape[0] == count
