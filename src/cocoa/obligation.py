"""Breakpoint (Miyano-Hayashi) construction: weak alternating automaton to
nondeterministic Buchi graph whose vertices pair a state set with the subset
still owing an accepting visit."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ._graph import reachable, scc_ids, tarjan_sccs
from .awa import Awa, cnf_subsume
from .formula import Alphabet, LassoWord, letter_text

Vertex = tuple[frozenset[int], frozenset[int]]


@dataclass(frozen=True, eq=False)
class ObligationGraph:
    """NBW over (S, O) vertices with O subset of S; accepting iff O is empty."""

    alphabet: Alphabet
    vertices: tuple[Vertex, ...]
    initial: int
    edges: dict[tuple[int, frozenset[str]], tuple[int, ...]]
    accepting: frozenset[int]

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def succ(self, vid: int, letter: frozenset[str]) -> tuple[int, ...]:
        return self.edges.get((vid, letter), ())

    def succ_graph(self) -> list[list[int]]:
        out: list[set[int]] = [set() for _ in self.vertices]
        for (vid, _x), dsts in self.edges.items():
            out[vid].update(dsts)
        return [sorted(s) for s in out]


_MM_CACHE: dict[tuple[frozenset[int], ...], tuple[frozenset[int], ...]] = {}


def minimal_models(clauses, canonical: bool = False) -> tuple[frozenset[int], ...]:
    """Minimal hitting sets of a clause collection (each clause non-empty).

    The empty conjunction has the single minimal model {}.
    """
    if canonical:
        canon = tuple(clauses)
    else:
        canon = tuple(sorted(cnf_subsume(clauses), key=lambda c: (len(c), tuple(sorted(c)))))
    got = _MM_CACHE.get(canon)
    if got is not None:
        return got
    results: set[frozenset[int]] = set()

    def rec(remaining: tuple, chosen: tuple) -> None:
        if not remaining:
            results.add(frozenset(chosen))
            return
        first = remaining[0]
        for x in sorted(first):
            rest = tuple(c for c in remaining[1:] if x not in c)
            rec(rest, chosen + (x,))

    rec(canon, ())
    keep: list[frozenset[int]] = []
    for s in sorted(results, key=lambda s: (len(s), tuple(sorted(s)))):
        if not any(t <= s for t in keep):
            keep.append(s)
    out = tuple(keep)
    if len(_MM_CACHE) > 400_000:
        _MM_CACHE.clear()
    _MM_CACHE[canon] = out
    return out


def miyano_hayashi(a: Awa, prune_empty: bool = False) -> ObligationGraph:
    """Language-preserving NBW for the alternating automaton.

    With ``prune_empty`` (used by the emptiness check only) the accepting
    sink is stripped from vertex sets and successors containing the
    rejecting sink are dropped; neither carries an accepted run, so the
    language is unchanged while the graph shrinks.  Obligation graphs that
    feed the tracking machine keep every reachable vertex, dead or not.
    """
    acc = a.accepting
    conj_cache: dict[tuple[frozenset[int], frozenset[str]], tuple] = {}

    def conjunction(states: frozenset[int], x: frozenset[str]) -> tuple:
        key = (states, x)
        got = conj_cache.get(key)
        if got is None:
            merged: set[frozenset[int]] = set()
            for q in states:
                merged.update(a.delta[(q, x)].clauses)
            got = tuple(sorted(cnf_subsume(merged),
                               key=lambda c: (len(c), tuple(sorted(c)))))
            conj_cache[key] = got
        return got

    def successors(S: frozenset[int], O: frozenset[int], x: frozenset[str]) -> list[Vertex]:
        ms = minimal_models(conjunction(S, x), canonical=True)
        if not O:
            succ = {(sm, sm - acc) for sm in ms}
        else:
            mo = minimal_models(conjunction(O, x), canonical=True)
            # Pair each minimal model of the whole set with each minimal
            # model of the obligations; the union keeps the escape states
            # the obligations need even when the overall minimal model
            # would drop them.
            succ = {(sm | so, so - acc) for sm in ms for so in mo}
        if prune_empty:
            pruned = set()
            for (s, o) in succ:
                if a.bottom in s:
                    continue
                if a.top in s:
                    s = s - {a.top}
                pruned.add((s, o))
            succ = pruned
        # keep only componentwise-minimal successors: a smaller state set
        # and smaller obligation set accept every word the bigger pair does
        ordered = sorted(succ, key=lambda v: (len(v[0]), len(v[1]),
                                              tuple(sorted(v[0])), tuple(sorted(v[1]))))
        kept: list[Vertex] = []
        for (s, o) in ordered:
            if not any(s2 <= s and o2 <= o for (s2, o2) in kept):
                kept.append((s, o))
        return sorted(kept, key=lambda v: (tuple(sorted(v[0])), tuple(sorted(v[1]))))

    v0: Vertex = (frozenset({a.initial}), frozenset({a.initial}) - acc)
    ids: dict[Vertex, int] = {v0: 0}
    vertices: list[Vertex] = [v0]
    edges: dict[tuple[int, frozenset[str]], tuple[int, ...]] = {}
    frontier = deque([0])
    while frontier:
        vid = frontier.popleft()
        S, O = vertices[vid]
        for x in a.alphabet.letters:
            dsts = []
            for v in successors(S, O, x):
                nid = ids.get(v)
                if nid is None:
                    nid = len(vertices)
                    ids[v] = nid
                    vertices.append(v)
                    frontier.append(nid)
                dsts.append(nid)
            edges[(vid, x)] = tuple(dsts)
    accepting = frozenset(i for i, (_s, o) in enumerate(vertices) if not o)
    return ObligationGraph(a.alphabet, tuple(vertices), 0, edges, accepting)


def nbw_accepts_lasso(g: ObligationGraph, w: LassoWord) -> bool:
    """Buchi lasso membership on the product with the lasso positions."""
    n = w.n_positions

    def node(vid: int, i: int) -> int:
        return vid * n + i

    total = g.n_vertices * n
    succ: list[list[int]] = [[] for _ in range(total)]
    for vid in range(g.n_vertices):
        for i in range(n):
            succ[node(vid, i)] = [node(v2, w.next_pos(i)) for v2 in g.succ(vid, w.letter_at(i))]
    reach = reachable(succ, [node(g.initial, 0)])
    sccs = tarjan_sccs(total, succ)
    comp = scc_ids(total, sccs)
    cyclic = [False] * len(sccs)
    for v in range(total):
        for s in succ[v]:
            if comp[s] == comp[v]:
                cyclic[comp[v]] = True
    for nd in reach:
        if cyclic[comp[nd]] and (nd // n) in g.accepting:
            return True
    return False


def nonempty_witness(g: ObligationGraph) -> LassoWord | None:
    """An accepted lasso if the language is non-empty, else None."""
    succ = g.succ_graph()
    sccs = tarjan_sccs(g.n_vertices, succ)
    comp = scc_ids(g.n_vertices, sccs)
    cyclic = [False] * len(sccs)
    for v in range(g.n_vertices):
        for s in succ[v]:
            if comp[s] == comp[v]:
                cyclic[comp[v]] = True
    targets = sorted(v for v in g.accepting if cyclic[comp[v]])
    if not targets:
        return None
    target = targets[0]

    def bfs_letters(src: int, dst: int, restrict: set[int] | None, min_len: int):
        # breadth-first path by (vertex, parity of zero-length) bookkeeping
        start = (src, 0)
        prev: dict[tuple[int, int], tuple[tuple[int, int], frozenset[str]]] = {}
        seen = {start}
        queue = deque([start])
        while queue:
            cur = queue.popleft()
            vid, moved = cur
            if vid == dst and moved >= min_len:
                letters = []
                node = cur
                while node != start:
                    node, letter = prev[node]
                    letters.append(letter)
                return list(reversed(letters))
            for x in g.alphabet.letters:
                for v2 in g.succ(vid, x):
                    if restrict is not None and v2 not in restrict:
                        continue
                    nxt = (v2, min(moved + 1, min_len))
                    if nxt not in seen:
                        seen.add(nxt)
                        prev[nxt] = (cur, x)
                        queue.append(nxt)
        return None

    path = bfs_letters(g.initial, target, None, 0)
    members = set(sccs[comp[target]])
    cycle = bfs_letters(target, target, members, 1)
    if path is None or cycle is None:
        raise AssertionError("no lasso through an accepting cyclic vertex")
    return LassoWord(g.alphabet, tuple(path), tuple(cycle))


def obligation_to_dot(g: ObligationGraph) -> str:
    lines = ["digraph obligation {", "  rankdir=LR;"]
    for vid, (S, O) in enumerate(g.vertices):
        shape = "doublecircle" if vid in g.accepting else "circle"
        label = "{%s} | {%s}" % (" ".join(map(str, sorted(S))), " ".join(map(str, sorted(O))))
        lines.append(f'  v{vid} [shape={shape} label="{label}"];')
    lines.append(f"  init [shape=point]; init -> v{g.initial};")
    for vid in range(g.n_vertices):
        for x in g.alphabet.letters:
            for dst in g.succ(vid, x):
                lab = letter_text(x)
                lines.append(f'  v{vid} -> v{dst} [label="{lab}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
