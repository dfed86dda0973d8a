"""Invariant checks in the library raise explicitly: a bare ``assert`` is
stripped under ``python -O`` and would stop checking anything."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cocoa"


def test_library_has_no_bare_assert():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    found = [f"{path.name}:{node.lineno}"
             for path in sources
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
