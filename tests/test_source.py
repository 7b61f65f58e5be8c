"""Source-level checks: no `assert` statement under src/, since
`python -O` strips them, every name in `legendre_mw.__all__`
resolves, and the package imports no numpy, whose import alone took
longer than most commands' own work."""

import ast
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


def test_src_imports_no_numpy():
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
                     for n in names if n.split(".")[0] == "numpy"]
    assert hits == []


def test_cli_import_loads_no_numpy():
    code = "import sys, legendre_mw.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60, check=True)
    assert out.stdout == "False\n"
