"""Breakpoint (Miyano-Hayashi) construction: weak alternating automaton to
nondeterministic Buchi graph whose vertices pair a state set with the subset
still owing an accepting visit."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ._graph import cyclic_sccs, lasso_letters, reachable
from .awa import Awa, minimal_sets
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

    The empty conjunction has the single minimal model {}.  ``canonical``
    says the clauses are already minimal and in canonical order.
    """
    canon = tuple(clauses) if canonical else minimal_sets(clauses)
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
    out = minimal_sets(results)
    if len(_MM_CACHE) > 400_000:
        _MM_CACHE.clear()
    _MM_CACHE[canon] = out
    return out


class Breakpoint:
    """Breakpoint successors (Miyano and Hayashi, 1984) of (S, O) pairs.

    ``delta`` maps (state, letter) to the clauses of the transition formula
    and ``accepting`` is the accepting state set.  A pair holding one of the
    ``bottoms`` (rejecting sinks) carries no accepted run and is dropped;
    the ``tops`` (accepting sinks, so never in O) impose nothing and are
    stripped from S.  The conjunction of a state set's clauses is cached
    per instance.
    """

    def __init__(self, delta: dict[tuple[int, frozenset[str]], tuple[frozenset[int], ...]],
                 accepting: frozenset[int], tops: frozenset[int], bottoms: frozenset[int]):
        self.delta = delta
        self.accepting = accepting
        self.tops = tops
        self.bottoms = bottoms
        self._conjunctions: dict[tuple[frozenset[int], frozenset[str]], tuple] = {}

    def _conjunction(self, states: frozenset[int], x: frozenset[str]) -> tuple:
        key = (states, x)
        got = self._conjunctions.get(key)
        if got is None:
            merged: set[frozenset[int]] = set()
            for q in states:
                merged.update(self.delta[(q, x)])
            got = minimal_sets(merged)
            self._conjunctions[key] = got
        return got

    def successors(self, S: frozenset[int], O: frozenset[int],
                   x: frozenset[str]) -> list[Vertex]:
        acc = self.accepting
        ms = minimal_models(self._conjunction(S, x), canonical=True)
        if not O:
            return self.prune({(sm, sm - acc) for sm in ms})
        mo = minimal_models(self._conjunction(O, x), canonical=True)
        # Pair each minimal model of the whole set with each minimal model
        # of the obligations; the union keeps the escape states the
        # obligations need even when the overall minimal model would drop
        # them.
        return self.prune({(sm | so, so - acc) for sm in ms for so in mo})

    def prune(self, pairs) -> list[Vertex]:
        """Apply the sinks, then keep the componentwise-minimal pairs (a
        smaller state set and obligation set accept every word the bigger
        pair does), sorted by their sorted members."""
        out = set()
        for (s, o) in pairs:
            if s & self.bottoms:
                continue
            if s & self.tops:
                s = s - self.tops
            out.add((s, o))
        kept: list[Vertex] = []
        for (s, o) in sorted(out, key=lambda v: len(v[0]) + len(v[1])):
            if not any(s2 <= s and o2 <= o for (s2, o2) in kept):
                kept.append((s, o))
        return sorted(kept, key=lambda v: (tuple(sorted(v[0])), tuple(sorted(v[1]))))


def miyano_hayashi(a: Awa, prune_empty: bool = False) -> ObligationGraph:
    """Language-preserving NBW for the alternating automaton.

    With ``prune_empty`` (used by the emptiness check only) the accepting
    sink is stripped from vertex sets and successors containing the
    rejecting sink are dropped; neither carries an accepted run, so the
    language is unchanged while the graph shrinks.  Obligation graphs that
    feed the tracking machine keep every reachable vertex, dead or not.
    """
    acc = a.accepting
    tops = frozenset({a.top}) if prune_empty else frozenset()
    bottoms = frozenset({a.bottom}) if prune_empty else frozenset()
    kernel = Breakpoint({key: p.clauses for key, p in a.delta.items()}, acc, tops, bottoms)
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
            for v in kernel.successors(S, O, x):
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
    comp = cyclic_sccs(succ)
    return any(comp[nd] >= 0 and nd // n in g.accepting for nd in reach)


def nonempty_witness(g: ObligationGraph) -> LassoWord | None:
    """An accepted lasso if the language is non-empty, else None."""
    comp = cyclic_sccs(g.succ_graph())
    targets = sorted(v for v in g.accepting if comp[v] >= 0)
    if not targets:
        return None
    target = targets[0]
    members = {v for v in range(g.n_vertices) if comp[v] == comp[target]}
    found = lasso_letters(
        g.initial, {target: members},
        lambda vid: ((x, v2) for x in g.alphabet.letters for v2 in g.succ(vid, x)))
    if found is None:
        raise AssertionError("no lasso through an accepting cyclic vertex")
    return LassoWord(g.alphabet, tuple(found[0]), tuple(found[1]))


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
