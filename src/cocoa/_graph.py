"""Small deterministic graph helpers shared by the automata modules."""

from __future__ import annotations

from collections import deque
from typing import Callable, Container, Hashable, Iterable, Iterator, Sequence


def tarjan_sccs(roots: Iterable[int], succ: Callable[[int], Iterable[int]],
                settled: Callable[[int], bool] | None = None) -> Iterator[list[int]]:
    """Strongly connected components reachable from the roots.

    Iterative Tarjan over the successor callable ``succ``.  Components come
    out in reverse topological order of the condensation (every component
    is yielded after all components it can reach), members sorted, so
    repeated runs number components identically.  Vertices for which
    ``settled`` holds are skipped, as roots and as successors; a caller may
    settle each component as it is yielded, since the search never enters
    a yielded component again.
    """
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[int] = []
    onstack: set[int] = set()

    def enter(v: int) -> tuple[int, Iterator[int]]:
        index[v] = low[v] = len(index)
        stack.append(v)
        onstack.add(v)
        return v, iter(succ(v))

    for root in roots:
        if root in index or (settled is not None and settled(root)):
            continue
        work = [enter(root)]
        while work:
            v, it = work[-1]
            for w in it:
                if settled is not None and settled(w):
                    continue
                if w not in index:
                    work.append(enter(w))
                    break
                if w in onstack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        onstack.discard(w)
                        comp.append(w)
                        if w == v:
                            break
                    yield sorted(comp)


def cyclic_sccs(succ: Sequence[Sequence[int]], marked: Iterable[int] | None = None) -> list[int]:
    """Component id of every vertex that lies on a cycle, -1 for the
    transient rest, on a graph given by its successor lists.  With
    ``marked``, only the cyclic components holding a marked vertex keep
    their ids.

    A component is cyclic when it has an internal edge (a self-loop
    counts).  Two vertices share a kept component exactly when their ids
    are equal and not -1.
    """
    n = len(succ)
    comp = [-1] * n
    for k, members in enumerate(tarjan_sccs(range(n), succ.__getitem__)):
        for v in members:
            comp[v] = k
    keep = {comp[v] for v in range(n) for w in succ[v] if comp[w] == comp[v]}
    if marked is not None:
        keep &= {comp[v] for v in marked}
    return [c if c in keep else -1 for c in comp]


def lasso_letters(src: int, targets: dict[int, Container[int]],
                  step: Callable[[int], Iterable[tuple[Hashable, int]]]
                  ) -> tuple[list, list] | None:
    """Edge letters of a lasso from ``src``: a shortest path to the nearest
    key of ``targets``, then a shortest non-empty cycle through it inside
    the vertex set that key maps to.  None if either does not exist.

    The graph is given by ``step``, which yields the (letter, successor)
    edges of a vertex in a fixed order, so the lasso is deterministic.
    """
    def path(frm: int, is_dst: Callable[[int], bool], edges, min_len: int):
        # breadth first over (vertex, edges taken, capped at min_len)
        start = (frm, 0)
        prev: dict[tuple[int, int], tuple[tuple[int, int], Hashable]] = {}
        queue = deque([start])
        while queue:
            cur = queue.popleft()
            vid, moved = cur
            if moved >= min_len and is_dst(vid):
                letters = []
                while cur != start:
                    cur, letter = prev[cur]
                    letters.append(letter)
                return vid, letters[::-1]
            for x, v2 in edges(vid):
                nxt = (v2, min(moved + 1, min_len))
                if nxt != start and nxt not in prev:
                    prev[nxt] = (cur, x)
                    queue.append(nxt)
        return None

    found = path(src, targets.__contains__, step, 0)
    if found is None:
        return None
    target, prefix = found
    inside = targets[target]
    cycle = path(target, target.__eq__,
                 lambda v: ((x, w) for x, w in step(v) if w in inside), 1)
    if cycle is None:
        return None
    return prefix, cycle[1]
