"""Breakpoint (Miyano-Hayashi) construction: weak alternating automaton to
nondeterministic Buchi graph whose vertices pair a state set with the subset
still owing an accepting visit.

A state set is an int mask with one bit per state, as in the automaton's
transition formulas, so a subset test is ``k & s == k``; an
``ObligationGraph`` keeps the kernel's (S, O) mask pairs as its vertices.
The minimal models of a state set's transition formulas are folded from
those of each member state, one state at a time, so no clause set is ever
merged and searched as a whole.

One explorer, ``BreakpointGraph``, interns the pairs and expands their
successor rows.  ``miyano_hayashi`` expands it whole and freezes it into an
``ObligationGraph``; the tracking machine's language oracle expands it only
as far as its emptiness checks reach.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._graph import lasso_letters, tarjan_sccs
from .awa import Awa, canon_key, mask_states, member_order, minimal_masks, state_mask
from .formula import Alphabet, letter_text

Vertex = tuple[int, int]


@dataclass(frozen=True, eq=False)
class ObligationGraph:
    """NBW over (S, O) vertices, pairs of state masks with O subset of S;
    accepting iff O is empty.

    ``edges[vid][i]`` holds the successors of vertex ``vid`` on letter
    number i of the alphabet.
    """

    alphabet: Alphabet
    vertices: tuple[Vertex, ...]
    initial: int
    edges: tuple[tuple[tuple[int, ...], ...], ...]
    accepting: frozenset[int]

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)


def minimal_models(clauses) -> tuple[int, ...]:
    """Minimal hitting sets of a collection of clause masks (each clause
    non-empty), by size and then by sorted members.

    The empty conjunction has the single minimal model 0.  The models grow
    one clause at a time (Berge): a model that already hits the clause is
    kept, any other is extended by each state of the clause.
    """
    models: tuple[int, ...] = (0,)
    for c in clauses:
        grown = set()
        for m in models:
            if m & c:
                grown.add(m)
            else:
                grown.update(m | 1 << q for q in mask_states(c))
        models = minimal_masks(grown)
    return tuple(sorted(models, key=canon_key))


class Breakpoint:
    """Breakpoint successors (Miyano and Hayashi, 1984) of (S, O) pairs of
    state masks.

    ``delta[q][i]`` holds the clause masks of the transition formula of
    state q on letter number i, as in ``Awa.delta``, and ``accepting`` is
    the mask of accepting states.  A pair holding one of the ``bottoms``
    (rejecting sinks) carries no accepted run and is dropped; the ``tops``
    (accepting sinks, so never in O) impose nothing and are stripped from
    S.

    The minimal models of a conjunction are the minimal unions of one
    minimal model per conjunct.  So the models of a state set on a letter
    are folded state by state: those of the set without its lowest state,
    joined with those of that state.  Both are cached per instance, keyed
    by letter number and mask; a single state's models come from
    ``minimal_models``.  Pairs are pruned packed into one int each.
    """

    def __init__(self, delta: tuple[tuple[tuple[int, ...], ...], ...],
                 accepting: int, tops: int, bottoms: int):
        self.delta = delta
        self.accepting = accepting
        self.tops = tops
        self.bottoms = bottoms
        # a pair (S, O) packs into one int, S << width | O, so that one
        # mask test decides componentwise inclusion
        self.width = len(delta)
        # per letter number: state mask -> its minimal models
        self._models: list[dict[int, tuple[int, ...]]] = [{0: (0,)} for _ in delta[0]]

    def models(self, states: int, i: int) -> tuple[int, ...]:
        """Minimal models of the members' transition formulas on letter
        number i, taken together."""
        memo = self._models[i]
        got = memo.get(states)
        if got is not None:
            return got
        # peel the lowest states off until a known set is left, then fold
        # them back in, the last one peeled first
        peeled = []
        rest = states
        while rest not in memo:
            low = rest & -rest
            peeled.append(low)
            rest ^= low
        got = memo[rest]
        for low in reversed(peeled):
            mine = memo.get(low)
            if mine is None:
                mine = memo[low] = minimal_models(self.delta[low.bit_length() - 1][i])
            rest |= low
            got = memo[rest] = minimal_masks(r | m for r in got for m in mine)
        return got

    def successors(self, S: int, O: int, i: int) -> list[tuple[int, int]]:
        w = self.width
        free = ~self.accepting
        if not O:
            return self._pruned({sm << w | (sm & free) for sm in self.models(S, i)})
        # The new state set joins a minimal model of the obligations with
        # one of the other states; the new obligations are the former's
        # non-accepting states.  Pairing each model of the whole set with
        # each model of the obligations gives pairs that each contain one
        # of these, so the minimal pairs kept are the same.
        rest = self.models(S & ~O, i)
        return self._pruned({(so | sr) << w | (so & free)
                             for so in self.models(O, i) for sr in rest})

    def _pruned(self, packed: set[int]) -> list[tuple[int, int]]:
        """Apply the sinks to pairs packed as S << width | O, then keep the
        componentwise-minimal pairs (a smaller state set and obligation set
        accept every word the bigger pair does), sorted by their sorted
        members."""
        w = self.width
        bottoms = self.bottoms << w
        keep = ~(self.tops << w)
        kept = minimal_masks(p & keep for p in packed if not p & bottoms)
        low = (1 << w) - 1
        out = [(p >> w, p & low) for p in kept]
        if len(out) > 1:
            out.sort(key=lambda v: (member_order(v[0]), member_order(v[1])))
        return out


class BreakpointGraph:
    """The graph of a breakpoint kernel over (S, O) mask pairs, explored on
    demand.

    ``intern`` numbers a pair on first sight.  ``row(vid)`` expands a
    vertex once, interning its successors per letter number and, within a
    letter, in kernel order; a graph expanded in id order from vertex 0 is
    thus numbered breadth first.  ``nonempty_from`` settles an emptiness
    verdict per vertex, component by component, so repeated queries on one
    graph reuse each other's work; ``accepted_lasso`` reads a witness off
    them, spelled with ``letters``.
    """

    def __init__(self, kernel: Breakpoint, letters: tuple[frozenset[str], ...]):
        self.kernel = kernel
        self.letters = letters
        self.ids: dict[tuple[int, int], int] = {}
        self.pairs: list[tuple[int, int]] = []
        # per vertex: the successor ids on each letter once expanded, all
        # of them sorted once an emptiness check walks the vertex, and
        # whether an accepted run starts there once settled
        self.rows: list[tuple[tuple[int, ...], ...] | None] = []
        self.succs: list[list[int] | None] = []
        self.verdict: list[bool | None] = []

    def intern(self, v: tuple[int, int]) -> int:
        got = self.ids.get(v)
        if got is None:
            got = len(self.pairs)
            self.ids[v] = got
            self.pairs.append(v)
            self.rows.append(None)
            self.succs.append(None)
            self.verdict.append(None)
        return got

    def row(self, vid: int) -> tuple[tuple[int, ...], ...]:
        """The successor ids of a vertex, one tuple per letter."""
        got = self.rows[vid]
        if got is None:
            S, O = self.pairs[vid]
            got = self.rows[vid] = tuple(
                tuple(self.intern(v) for v in self.kernel.successors(S, O, i))
                for i in range(len(self.letters)))
        return got

    def _succ(self, vid: int) -> list[int]:
        got = self.succs[vid]
        if got is None:
            got = self.succs[vid] = sorted({d for dsts in self.row(vid) for d in dsts})
        return got

    def nonempty_from(self, roots: list[int]) -> bool:
        """True iff some root can reach a cycle through a vertex that owes
        no obligation (O empty).

        Each component of the graph gets its verdict as it is found;
        settled vertices are skipped by later searches, and their verdicts
        are reused as leaf values.
        """
        for comp in tarjan_sccs(roots, self._succ, lambda v: self.verdict[v] is not None):
            members = set(comp)
            good = internal = False
            for w in comp:
                for s in self._succ(w):
                    if s in members:
                        internal = True
                    elif self.verdict[s]:
                        good = True
            if internal and any(not self.pairs[w][1] for w in comp):
                good = True
            for w in comp:
                self.verdict[w] = good
        return any(self.verdict[r] for r in roots)

    def accepted_lasso(self, roots: list[int]) -> tuple[list, list]:
        """Prefix and cycle letters of an accepted lasso from a root that
        ``nonempty_from`` found nonempty.

        Only vertices with a true verdict are walked; all of them are
        expanded and settled.  Every such component either is cyclic with
        a vertex owing nothing, or leads to one that is, so the nearest of
        those vertices closes the lasso.
        """
        def good_succ(v: int) -> list[int]:
            return [s for s in self._succ(v) if self.verdict[s]]

        root = next(r for r in roots if self.verdict[r])
        targets: dict[int, set[int]] = {}
        for comp in tarjan_sccs([root], good_succ):
            inside = set(comp)
            if any(s in inside for w in comp for s in good_succ(w)):
                targets.update((w, inside) for w in comp if not self.pairs[w][1])
        found = lasso_letters(root, targets, lambda v: (
            (x, d) for x, dsts in zip(self.letters, self.row(v)) for d in dsts
            if self.verdict[d]))
        if found is None:
            raise AssertionError("no accepted lasso from a nonempty root")
        return found


def miyano_hayashi(a: Awa) -> ObligationGraph:
    """Language-preserving NBW for the alternating automaton: its breakpoint
    graph, expanded in id order from the initial pair.

    Every reachable vertex is kept, dead or not, since the tracking machine
    steps vertex sets of this graph.
    """
    acc = state_mask(a.accepting)
    graph = BreakpointGraph(Breakpoint(a.delta, acc, 0, 0), a.alphabet.letters)
    init = 1 << a.initial
    graph.intern((init, init & ~acc))
    vid = 0
    while vid < len(graph.pairs):
        graph.row(vid)
        vid += 1
    pairs = graph.pairs
    accepting = frozenset(i for i, (_s, o) in enumerate(pairs) if not o)
    return ObligationGraph(a.alphabet, tuple(pairs), 0, tuple(graph.rows), accepting)


def obligation_to_dot(g: ObligationGraph) -> str:
    lines = ["digraph obligation {", "  rankdir=LR;"]
    for vid, (S, O) in enumerate(g.vertices):
        shape = "doublecircle" if vid in g.accepting else "circle"
        label = "{%s} | {%s}" % (" ".join(map(str, mask_states(S))),
                                 " ".join(map(str, mask_states(O))))
        lines.append(f'  v{vid} [shape={shape} label="{label}"];')
    lines.append(f"  init [shape=point]; init -> v{g.initial};")
    for vid, row in enumerate(g.edges):
        for x, dsts in zip(g.alphabet.letters, row):
            for dst in dsts:
                lines.append(f'  v{vid} -> v{dst} [label="{letter_text(x)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
