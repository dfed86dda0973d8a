"""No library module keeps a mutable cache at module level: such a cache is
shared by every build in the process, so one build's entries can leak into
the next.  A module-level name bound to an empty ``{}``, ``[]``, ``dict()``
or ``set()`` is taken for one."""

import ast
from pathlib import Path

import cocoa

SRC = Path(cocoa.__file__).resolve().parent

ALLOWED: set[tuple[str, str]] = set()


def _is_empty_container(node: ast.expr | None) -> bool:
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.List):
        return not node.elts
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("dict", "set") and not node.args and not node.keywords)


def module_caches(tree: ast.Module) -> list[str]:
    found = []
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        else:
            continue
        if _is_empty_container(stmt.value):
            found += [t.id for t in targets if isinstance(t, ast.Name)]
    return found


def test_module_cache_detector():
    tree = ast.parse("A = {}\nB: list[int] = []\nC = dict()\nD = set()\n"
                     "E = {1: 2}\nF = (1,)\ndef f():\n    g = {}\n")
    assert module_caches(tree) == ["A", "B", "C", "D"]


def test_no_module_level_caches():
    found = {(path.stem, name)
             for path in sorted(SRC.glob("*.py"))
             for name in module_caches(ast.parse(path.read_text()))}
    # an allowance whose cache is gone is dropped with it
    assert found == ALLOWED, sorted(found ^ ALLOWED)
