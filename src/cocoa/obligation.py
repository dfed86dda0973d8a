"""Breakpoint (Miyano-Hayashi) construction: weak alternating automaton to
nondeterministic Buchi graph whose vertices pair a state set with the subset
still owing an accepting visit.

Inside the breakpoint kernel a state set is a Python int with one bit per
state, so a subset test is ``k & s == k``; vertices become frozensets only
when an ``ObligationGraph`` is built.  The minimal models of a state set's
transition formulas are folded from those of each member state, one state
at a time, so no clause set is ever merged and searched as a whole.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass

from ._graph import cyclic_sccs, lasso_letters, reachable
from .awa import Awa
from .formula import Alphabet, LassoWord, letter_text

Vertex = tuple[frozenset[int], frozenset[int]]


@dataclass(frozen=True, eq=False)
class ObligationGraph:
    """NBW over (S, O) vertices with O subset of S; accepting iff O is empty.

    ``edges[vid][i]`` holds the successors of vertex ``vid`` on the i-th
    letter of the alphabet.
    """

    alphabet: Alphabet
    vertices: tuple[Vertex, ...]
    initial: int
    edges: tuple[tuple[tuple[int, ...], ...], ...]
    accepting: frozenset[int]

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @functools.cached_property
    def _letter_number(self) -> dict[frozenset[str], int]:
        return {x: i for i, x in enumerate(self.alphabet.letters)}

    def succ(self, vid: int, letter: frozenset[str]) -> tuple[int, ...]:
        return self.edges[vid][self._letter_number[letter]]

    def succ_graph(self) -> list[list[int]]:
        return [sorted({d for dsts in row for d in dsts}) for row in self.edges]


def state_mask(states) -> int:
    """The int mask with one bit per member of a state set."""
    m = 0
    for q in states:
        m |= 1 << q
    return m


def mask_states(m: int) -> tuple[int, ...]:
    """The members of a state mask, in increasing order."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return tuple(out)


def member_order(m: int) -> str:
    """A sort key that orders state masks as their sorted member tuples:
    character i is '0' for a member and '1' for a non-member below the
    largest member, so a shorter common prefix of members sorts first."""
    n = m.bit_length()
    return format(m ^ ((1 << n) - 1), f"0{n}b")[::-1] if m else ""


def minimal_masks(masks) -> tuple[int, ...]:
    """The inclusion-minimal members of a collection of masks, without
    duplicates, smallest first."""
    kept: list[int] = []
    for m in sorted(set(masks), key=int.bit_count):
        for k in kept:
            if k & m == k:
                break
        else:
            kept.append(m)
    return tuple(kept)


_MM_CACHE: dict[tuple[int, ...], tuple[int, ...]] = {}


def minimal_models(clauses) -> tuple[int, ...]:
    """Minimal hitting sets of a collection of clause masks (each clause
    non-empty), by size and then by sorted members.

    The empty conjunction has the single minimal model 0.  The models grow
    one clause at a time (Berge): a model that already hits the clause is
    kept, any other is extended by each state of the clause.
    """
    key = tuple(clauses)
    got = _MM_CACHE.get(key)
    if got is not None:
        return got
    models: tuple[int, ...] = (0,)
    for c in key:
        grown = set()
        for m in models:
            if m & c:
                grown.add(m)
            else:
                grown.update(m | 1 << q for q in mask_states(c))
        models = minimal_masks(grown)
    out = tuple(sorted(models, key=lambda m: (m.bit_count(), member_order(m))))
    if len(_MM_CACHE) > 400_000:
        _MM_CACHE.clear()
    _MM_CACHE[key] = out
    return out


class Breakpoint:
    """Breakpoint successors (Miyano and Hayashi, 1984) of (S, O) pairs of
    state masks.

    ``delta`` maps (state, letter) to the clause masks of the transition
    formula and ``accepting`` is the mask of accepting states.  A pair
    holding one of the ``bottoms`` (rejecting sinks) carries no accepted
    run and is dropped; the ``tops`` (accepting sinks, so never in O)
    impose nothing and are stripped from S.

    The minimal models of a conjunction are the minimal unions of one
    minimal model per conjunct.  So the models of a state set on a letter
    are folded state by state: those of the set without its lowest state,
    joined with those of that state.  Both are cached per instance, keyed
    by letter and mask; a single state's models come from
    ``minimal_models``.  Pairs are pruned packed into one int each.
    """

    def __init__(self, delta: dict[tuple[int, frozenset[str]], tuple[int, ...]],
                 accepting: int, tops: int, bottoms: int):
        self.delta = delta
        self.accepting = accepting
        self.tops = tops
        self.bottoms = bottoms
        # a pair (S, O) packs into one int, S << width | O, so that one
        # mask test decides componentwise inclusion
        self.width = max(q for q, _x in delta) + 1
        # per letter: state mask -> its minimal models
        self._models: dict[frozenset[str], dict[int, tuple[int, ...]]] = {}

    def models(self, states: int, x: frozenset[str]) -> tuple[int, ...]:
        """Minimal models of the members' transition formulas on x, taken
        together."""
        memo = self._models.get(x)
        if memo is None:
            memo = self._models[x] = {0: (0,)}
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
                mine = memo[low] = minimal_models(self.delta[(low.bit_length() - 1, x)])
            rest |= low
            got = memo[rest] = minimal_masks(r | m for r in got for m in mine)
        return got

    def successors(self, S: int, O: int, x: frozenset[str]) -> list[tuple[int, int]]:
        w = self.width
        free = ~self.accepting
        if not O:
            return self._pruned({sm << w | (sm & free) for sm in self.models(S, x)})
        # The new state set joins a minimal model of the obligations with
        # one of the other states; the new obligations are the former's
        # non-accepting states.  Pairing each model of the whole set with
        # each model of the obligations gives pairs that each contain one
        # of these, so the minimal pairs kept are the same.
        rest = self.models(S & ~O, x)
        return self._pruned({(so | sr) << w | (so & free)
                             for so in self.models(O, x) for sr in rest})

    def prune(self, pairs) -> list[tuple[int, int]]:
        """Apply the sinks, then keep the componentwise-minimal pairs (a
        smaller state set and obligation set accept every word the bigger
        pair does), sorted by their sorted members."""
        w = self.width
        return self._pruned({s << w | o for s, o in pairs})

    def _pruned(self, packed: set[int]) -> list[tuple[int, int]]:
        # ``prune`` on pairs packed as S << width | O
        w = self.width
        bottoms = self.bottoms << w
        keep = ~(self.tops << w)
        kept = minimal_masks(p & keep for p in packed if not p & bottoms)
        low = (1 << w) - 1
        out = [(p >> w, p & low) for p in kept]
        if len(out) > 1:
            out.sort(key=lambda v: (member_order(v[0]), member_order(v[1])))
        return out


def miyano_hayashi(a: Awa, prune_empty: bool = False) -> ObligationGraph:
    """Language-preserving NBW for the alternating automaton.

    With ``prune_empty`` (used by the emptiness check only) the accepting
    sink is stripped from vertex sets and successors containing the
    rejecting sink are dropped; neither carries an accepted run, so the
    language is unchanged while the graph shrinks.  Obligation graphs that
    feed the tracking machine keep every reachable vertex, dead or not.
    """
    acc = state_mask(a.accepting)
    kernel = Breakpoint({key: tuple(map(state_mask, p.clauses)) for key, p in a.delta.items()},
                        acc, 1 << a.top if prune_empty else 0,
                        1 << a.bottom if prune_empty else 0)
    init = 1 << a.initial
    v0 = (init, init & ~acc)
    ids: dict[tuple[int, int], int] = {v0: 0}
    pairs: list[tuple[int, int]] = [v0]
    edges: list[tuple[tuple[int, ...], ...]] = []
    frontier = deque([0])
    while frontier:
        S, O = pairs[frontier.popleft()]
        row = []
        for x in a.alphabet.letters:
            dsts = []
            for v in kernel.successors(S, O, x):
                nid = ids.get(v)
                if nid is None:
                    nid = len(pairs)
                    ids[v] = nid
                    pairs.append(v)
                    frontier.append(nid)
                dsts.append(nid)
            row.append(tuple(dsts))
        # vertices leave the queue in id order, so this is row ``vid``
        edges.append(tuple(row))
    vertices = tuple((frozenset(mask_states(s)), frozenset(mask_states(o))) for s, o in pairs)
    accepting = frozenset(i for i, (_s, o) in enumerate(pairs) if not o)
    return ObligationGraph(a.alphabet, vertices, 0, tuple(edges), accepting)


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
