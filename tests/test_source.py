"""Source-level checks: no `assert` statement under src/, since
`python -O` strips them, and every name in `legendre_mw.__all__`
resolves."""

import ast
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
