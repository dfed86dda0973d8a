"""No library module keeps a private name that nothing reads: a
single-underscore name bound at module level (def, class or assignment)
in ``src/cocoa/`` must be read by some module there.  Tests do not count
as readers, so a helper only tests use lives in ``tests/``."""

import ast
from pathlib import Path

import cocoa

SRC = Path(cocoa.__file__).resolve().parent


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_bindings(tree: ast.Module) -> list[str]:
    """The single-underscore names a module binds at its top level."""
    found = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, ast.Assign):
            names = [n.id for t in stmt.targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names = [stmt.target.id]
        else:
            continue
        found += [name for name in names if _is_private(name)]
    return found


def read_names(tree: ast.Module) -> set[str]:
    """Every name a module reads: loaded names, attributes and imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def dead_names(trees: dict[str, ast.Module]) -> set[tuple[str, str]]:
    read = set().union(*map(read_names, trees.values()))
    return {(module, name) for module, tree in trees.items()
            for name in private_bindings(tree) if name not in read}


def test_dead_name_detector():
    trees = {"m": ast.parse("_A = 1\n_B, C = 2, 3\n_c: int = 4\ndef _f(): return _A\n"
                            "class _K: pass\n__all__ = []\n"),
             "n": ast.parse("from m import _K\ndef g(m): return m._c\n")}
    assert dead_names(trees) == {("m", "_B"), ("m", "_f")}


def test_no_dead_private_names():
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    assert dead_names(trees) == set()
