"""No library function recurses: in ``src/cocoa/`` no function reaches
itself through plain-name calls, so the depth of a formula or an
automaton is bounded by memory, not by Python's recursion limit.  Each
module's call graph joins a function, nested ones too, to the functions
of that module it calls by plain name; an attribute call such as
``super().intern(v)`` or ``self.next(row)`` is no edge."""

import ast
from pathlib import Path

import cocoa

SRC = Path(cocoa.__file__).resolve().parent
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def own_calls(fn: ast.AST) -> set[str]:
    """The plain names that a function's body calls, outside the
    functions nested in it."""
    called, todo = set(), list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        if isinstance(node, _DEFS):
            continue
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            called.add(node.func.id)
        todo.extend(ast.iter_child_nodes(node))
    return called


def call_graph(tree: ast.Module) -> dict[str, set[str]]:
    """Each function name of a module mapped to the module's function
    names that its body calls."""
    defs = [node for node in ast.walk(tree) if isinstance(node, _DEFS)]
    names = {d.name for d in defs}
    graph: dict[str, set[str]] = {name: set() for name in names}
    for d in defs:
        graph[d.name] |= own_calls(d) & names
    return graph


def recursive_names(graph: dict[str, set[str]]) -> set[str]:
    """The functions that reach themselves through the graph."""
    found = set()
    for start, callees in graph.items():
        seen, todo = set(), list(callees)
        while todo:
            name = todo.pop()
            if name not in seen:
                seen.add(name)
                todo.extend(graph[name])
        if start in seen:
            found.add(start)
    return found


def test_recursion_detector():
    tree = ast.parse(
        "def fact(n): return 1 if n < 2 else n * fact(n - 1)\n"
        "def even(n): return n == 0 or odd(n - 1)\n"
        "def odd(n): return n != 0 and even(n - 1)\n"
        "def outer(t):\n"
        "    def walk(u): return [walk(c) for c in u]\n"
        "    return walk(t)\n"
        "def loop(n):\n"
        "    def body(): return n + 1\n"
        "    return [body() for _ in range(n)]\n"
        "class K(Base):\n"
        "    def intern(self, v): return super().intern(v) or self.intern(v)\n")
    assert recursive_names(call_graph(tree)) == {"fact", "even", "odd", "walk"}


def test_no_library_function_recurses():
    found = {(path.stem, name) for path in sorted(SRC.glob("*.py"))
             for name in recursive_names(call_graph(ast.parse(path.read_text(), str(path))))}
    assert found == set()
