"""Breakpoint (Miyano-Hayashi) construction: weak alternating automaton to
nondeterministic Buchi graph whose vertices pair a state set with the subset
still owing an accepting visit.

A state set is an int mask with one bit per state, as in the automaton's
transition formulas, so a subset test is ``k & s == k``; an
``ObligationGraph`` keeps the kernel's (S, O) mask pairs as its vertices.
The minimal models of a state set's transition formulas are folded from
the members' rows of the dual automaton, one state at a time, so no clause
set is ever merged and searched as a whole.

One explorer, ``BreakpointGraph``, interns the pairs and expands their
successor rows, sharing one tuple among equal successor entries.
``miyano_hayashi`` expands it over one kernel, whose breakpoint resets when
O is empty, and freezes it into an ``ObligationGraph``.  The tracking
machine's ``LanguageOracle`` expands it only as far as its emptiness
checks reach, over the disjoint union of an automaton and its dual: one
kernel per half, joined only by the reset.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterable

from ._graph import cyclic_sccs, lasso_letters, tarjan_sccs
from .awa import (
    Awa, cnf_and, cnf_or, finalize_pcnf, mask_states, member_order, minimal_masks,
    minimal_sets, state_mask,
)
from .formula import Alphabet, letter_text

Vertex = tuple[int, int]


class PairOrder(dict[int, str]):
    """The order of (S, O) pairs within a successor list, by the sorted
    members of S, then of O: ``key`` reads each mask's ``member_order``,
    computed once per mask met and kept here."""

    def __missing__(self, m: int) -> str:
        got = self[m] = member_order(m)
        return got

    def key(self, v: Vertex) -> tuple[str, str]:
        return self[v[0]], self[v[1]]


class ObligationGraph:
    """NBW over (S, O) vertices, pairs of state masks with O subset of S;
    vertex 0 is initial, and a vertex is accepting iff its O is empty.

    ``edges[vid][i]`` holds the successors of vertex ``vid`` on letter
    number i of the alphabet.
    """

    def __init__(self, alphabet: Alphabet, vertices: tuple[Vertex, ...],
                 edges: tuple[tuple[tuple[int, ...], ...], ...]):
        self.alphabet = alphabet
        self.vertices = vertices
        self.edges = edges

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @cached_property
    def core(self) -> tuple[int, ...]:
        """The component id of each vertex on a cycle through a vertex that
        owes nothing (O empty) inside its component, -1 for the rest
        (``_graph.cyclic_sccs``).  Every accepting cycle of a product with
        the graph projects into one such component."""
        succ = [sorted({d for dsts in row for d in dsts}) for row in self.edges]
        return tuple(cyclic_sccs(succ, (v for v, (_S, O) in enumerate(self.vertices) if not O)))


def minimal_models(clauses) -> tuple[int, ...]:
    """Minimal hitting sets of a collection of clause masks (each clause
    non-empty), by size and then by sorted members.

    The empty conjunction has the single minimal model 0.  The models grow
    one clause at a time (Berge): a model that already hits the clause is
    kept, any other is extended by each state of the clause.
    """
    grown = {0}
    for c in clauses:
        models, grown = minimal_masks(grown), set()
        for m in models:
            if m & c:
                grown.add(m)
            else:
                grown.update(m | 1 << q for q in mask_states(c))
    return minimal_sets(grown)


class Breakpoint:
    """Breakpoint successors (Miyano and Hayashi, 1984) of (S, O) pairs of
    state masks.

    The model table ``models[q][i]`` holds the minimal models of state q's
    formula on letter number i (``a.dual.delta`` for an automaton ``a``),
    and ``accepting`` is the mask of accepting states.  A pair holding one
    of the ``bottoms`` (rejecting sinks) carries no accepted run and is
    dropped; the ``tops`` (accepting sinks, so never in O) impose nothing
    and are stripped from S.

    The minimal models of a conjunction are the minimal unions of one
    minimal model per conjunct.  So the models of a state set on a letter
    are folded state by state: those of the set without its lowest state,
    joined with that state's row of the table (``awa.cnf_or``).  The folds
    are cached per instance, keyed by letter number and mask, and so is
    each mask's sort key.

    Successor pairs are pruned packed into one int each, except where
    nothing can be pruned: a reset on a kernel without sinks, whose
    distinct minimal models give pairwise incomparable pairs, and a carry
    with one model of O and one of S minus O, which gives one pair.
    """

    def __init__(self, models: tuple[tuple[tuple[int, ...], ...], ...],
                 accepting: int, tops: int, bottoms: int):
        self.table = models
        self.accepting = accepting
        self.tops = tops
        self.bottoms = bottoms
        self.sinkless = not (tops or bottoms)
        # a pair (S, O) packs into one int, S << width | O, so that one
        # mask test decides componentwise inclusion
        self.width = len(models)
        # per letter number: state mask -> its minimal models
        self._models: list[dict[int, tuple[int, ...]]] = [{0: (0,)} for _ in models[0]]
        self._order = PairOrder()

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
            mine = self.table[low.bit_length() - 1][i]
            rest |= low
            got = memo[rest] = cnf_or(got, mine)
        return got

    def successors(self, S: int, O: int, i: int, reset: bool) -> list[Vertex]:
        """The successors of (S, O) on letter number i, pruned and sorted.

        With ``reset`` the breakpoint is passed: each minimal model of S is
        a successor state set, and its non-accepting states the new
        obligations.  Otherwise the obligations O are carried on; an empty
        O has the single model 0, so its successors owe nothing.  A graph
        over one kernel resets when O is empty; a kernel for one half of a
        disjoint union resets when the O of every half is.
        """
        w = self.width
        free = ~self.accepting
        if reset:
            models = self.models(S, i)
            if not self.sinkless:
                return self._pruned({sm << w | (sm & free) for sm in models})
            # distinct minimal models differ in S, and no S is inside
            # another, so every pair is minimal
            out = [(sm, sm & free) for sm in models]
            if len(out) > 1:
                out.sort(key=self._order.key)
            return out
        # The new state set joins a minimal model of the obligations with
        # one of the other states; the new obligations are the former's
        # non-accepting states.  Pairing each model of the whole set with
        # each model of the obligations gives pairs that each contain one
        # of these, so the minimal pairs kept are the same.
        owed = self.models(O, i)
        rest = self.models(S & ~O, i)
        if len(owed) == 1 and len(rest) == 1:
            # one pair: only the sinks apply
            so = owed[0]
            s = so | rest[0]
            return [] if s & self.bottoms else [(s & ~self.tops, so & free)]
        return self._pruned({(so | sr) << w | (so & free) for so in owed for sr in rest})

    def row(self, S: int, O: int) -> list[list[Vertex]]:
        """The successors of (S, O) on each letter number, resetting when O
        is empty: the rows of a Miyano-Hayashi graph."""
        return [self.successors(S, O, i, not O) for i in range(len(self._models))]

    def _pruned(self, packed: set[int]) -> list[Vertex]:
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
            out.sort(key=self._order.key)
        return out


class BreakpointGraph:
    """The graph of breakpoint successors over (S, O) mask pairs, explored
    on demand.

    ``expand(S, O)`` gives a pair's successors, one list per letter number:
    the callable passed in (a kernel's ``Breakpoint.row`` for a
    Miyano-Hayashi graph), or a subclass's own method, which keeps the
    graph free of a reference to itself.  ``intern``
    numbers a pair on first sight.  ``row(vid)`` expands a vertex once,
    interning its successors per letter number and, within a letter, in
    the order given; a graph expanded in id order from vertex 0 is thus
    numbered breadth first.  Equal successor tuples, in any row, are one
    object, and so are equal rows.  ``nonempty_from`` settles an emptiness
    verdict per vertex, component by component, so repeated queries on one
    graph reuse each other's work, and keeps the lasso ``targets`` it
    meets; ``accepted_lasso`` reads a witness off them, spelled with
    ``letters``.
    """

    def __init__(self, expand: Callable[[int, int], Iterable[Iterable[Vertex]]] | None,
                 letters: tuple[frozenset[str], ...]):
        if expand is not None:
            self.expand = expand
        self.letters = letters
        self.ids: dict[tuple[int, int], int] = {}
        self.pairs: list[tuple[int, int]] = []
        # per vertex: the successor ids on each letter once expanded, all
        # of them sorted once an emptiness check walks the vertex, and
        # whether an accepted run starts there once settled
        self.rows: list[tuple[tuple[int, ...], ...] | None] = []
        self.succs: list[list[int] | None] = []
        self.verdict: list[bool | None] = []
        # each vertex owing nothing on a cycle, mapped to its component
        self.targets: dict[int, set[int]] = {}
        # the state sets of the vertices found empty
        self.empty_sets: set[int] = set()
        # one object per distinct successor tuple and per distinct row
        self.shared: dict[tuple, tuple] = {}

    def expand(self, S: int, O: int) -> Iterable[Iterable[Vertex]]:
        raise NotImplementedError("pass expand or override it")

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
            # entries (tuples of ids) and rows (non-empty tuples of
            # entries) never compare equal, so they share one dict
            shared, ids, intern = self.shared, self.ids, self.intern
            row = []
            for vs in self.expand(*self.pairs[vid]):
                t = tuple([d if (d := ids.get(v)) is not None else intern(v) for v in vs])
                row.append(shared.setdefault(t, t))
            got = tuple(row)
            got = self.rows[vid] = shared.setdefault(got, got)
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

        A vertex whose state set S is known to be empty counts as settled
        and empty, as a root and as a successor, unexpanded; so does one
        settled when it was interned, as the language oracle settles a
        vertex holding a state q and q's dual: no word is in L(q) and not
        in L(q), and all it reaches holds a state and its dual again, since
        any model of a formula meets any model of its dual.  For a weak
        automaton the language of (S, O) is the intersection of the
        languages of the members of S, whatever the O: every vertex met has
        O inside S minus the accepting states, and every branch of an
        accepted run of a weak automaton ends among accepting states, so
        the obligations of any such O are met.  Only empty verdicts are
        shared this way.  A nonempty one found without a search would have
        no explored path for ``accepted_lasso`` to walk, while an edge
        skipped into an empty vertex lies on no accepting cycle, so the
        search still finds every nonempty vertex.
        """
        verdict, pairs, empty = self.verdict, self.pairs, self.empty_sets

        def settled(v: int) -> bool:
            if verdict[v] is None:
                if pairs[v][0] not in empty:
                    return False
                verdict[v] = False
            return True

        for comp in tarjan_sccs(roots, self._succ, settled):
            members = set(comp)
            good = internal = False
            for w in comp:
                for s in self._succ(w):
                    if s in members:
                        internal = True
                    elif verdict[s]:
                        good = True
            if internal and any(not pairs[w][1] for w in comp):
                good = True
                self.targets.update((w, members) for w in comp if not pairs[w][1])
            for w in comp:
                verdict[w] = good
            if not good:
                empty.update(pairs[w][0] for w in comp)
        return any(verdict[r] for r in roots)

    def accepted_lasso(self, roots: list[int]) -> tuple[list, list]:
        """Prefix and cycle letters of an accepted lasso from a root that
        ``nonempty_from`` found nonempty.

        Only vertices with a true verdict are walked; all of them are
        expanded and settled.  A component shares one verdict, so every
        true one either is cyclic with a vertex owing nothing, one of the
        ``targets``, or leads to one that is; the nearest target closes
        the lasso inside its component.
        """
        root = next(r for r in roots if self.verdict[r])
        found = lasso_letters(root, self.targets, lambda v: (
            (x, d) for x, dsts in zip(self.letters, self.row(v)) for d in dsts
            if self.verdict[d]))
        if found is None:
            raise AssertionError("no accepted lasso from a nonempty root")
        return found


class IncompatibleAutomata(Exception):
    pass


class LanguageOracle(BreakpointGraph):
    """Emptiness of label differences, on the breakpoint graph over the
    disjoint union of an automaton and its dual; one per SLTM build.

    State q of the automaton is bit q of a vertex's masks, and state q of
    the dual bit n + q.  The two halves share no state, so a vertex's
    successors on a letter are the products of each half's successors: the
    minimal models, the sinks and the componentwise-minimal pairs all
    factor.  Only the breakpoint is joint: it resets both halves when
    neither owes an obligation.  Each half has its own kernel, the
    automaton's reading its models from the dual's rows and the dual's from
    the automaton's, and ``half_rows`` keeps every half's successors on all
    letters, keyed by (half, S part, O part, reset); a row is the product
    of two of them.

    The dual half's model memo also serves suffix steps: a state set's
    models on a letter are the CNF of its union's suffix language.

    The language of a vertex is the intersection of its member state
    languages, so per-vertex verdicts are a property of the graph and are
    shared by every query on it.

    A vertex holding a state q in both halves, ``S & S >> n`` nonzero,
    asks for L(q) and not L(q), so ``intern`` settles it empty and nothing
    expands it.  All it reaches is empty too: every model of q's formula
    on a letter meets every model of the dual formula, so each successor
    again holds some state in both halves, and that state is no sink, since
    a half strips its accepting sink and drops a pair holding its rejecting
    one, and each half's accepting sink is the other's rejecting one.
    """

    def __init__(self, a: Awa):
        super().__init__(None, a.alphabet.letters)
        self.a = a
        d = a.dual
        self.halves = (
            Breakpoint(d.delta, state_mask(a.accepting), 1 << a.top, 1 << a.bottom),
            Breakpoint(a.delta, state_mask(d.accepting), 1 << d.top, 1 << d.bottom))
        # per half, S part, O part and reset: the successors on each
        # letter number, the dual's already shifted into the high bits
        self.half_rows: dict[tuple[int, int, int, bool], list[list[Vertex]]] = {}
        # the minimal models of each positive side's unions, as masks
        self.label_models: dict[tuple[int, ...], tuple[int, ...]] = {}

    def intern(self, v: Vertex) -> int:
        got = self.ids.get(v)
        if got is None:
            got = super().intern(v)
            S = v[0]
            if S & S >> self.a.n_states:
                self.verdict[got] = False
        return got

    def _half_row(self, key: tuple[int, int, int, bool]) -> list[list[Vertex]]:
        got = self.half_rows.get(key)
        if got is None:
            half, S, O, reset = key
            k = self.halves[half]
            got = [k.successors(S, O, i, reset) for i in range(len(self.letters))]
            if half:
                n = self.a.n_states
                got = [[(s << n, o << n) for s, o in succ] for succ in got]
            self.half_rows[key] = got
        return got

    def expand(self, S: int, O: int) -> list[list[Vertex]]:
        n = self.a.n_states
        low = (1 << n) - 1
        reset = not O
        return [[(sl | sh, ol | oh) for sl, ol in los for sh, oh in his]
                for los, his in zip(self._half_row((0, S & low, O & low, reset)),
                                    self._half_row((1, S >> n, O >> n, reset)))]

    def _checked(self, unions: tuple[int, ...]) -> tuple[int, ...]:
        for u in unions:
            if u >> self.a.n_states:
                raise IncompatibleAutomata(
                    f"label references unknown state {u.bit_length() - 1}")
        return unions

    def suffix(self, unions: tuple[int, ...], i: int) -> tuple[int, ...]:
        """The CNF, sinks applied, of the unions' suffix language after letter i."""
        a, dual = self.a, self.halves[1]
        return finalize_pcnf(cnf_and(*(dual.models(u, i) for u in unions)), a.top, a.bottom)

    def difference_roots(self, pos: tuple[int, ...], neg: tuple[int, ...]) -> list[int]:
        """Initial vertices for the intersection of the ``pos`` unions minus
        that of the ``neg`` unions (each union a state mask, as in an SLTM
        label); raises IncompatibleAutomata when a union names a state the
        automaton does not have.

        The negated unions enter as fresh atoms in one extra clause, so the
        minimal models are those of pos's unions, each with one neg union;
        that union expands into its dual states.  The sinks apply per half:
        a rejecting one drops the pair, accepting ones are stripped from
        the state set.  A model m that meets the neg union u gives a vertex
        with a state in both halves, which is empty (see the class), so it
        is not built: once the sinks are applied, m & u is exactly the
        state shared.  A neg union holding a whole pos union meets every
        model, so it is dropped first, and with no neg union left the
        difference is empty without solving for the models.
        """
        negs, pos = self._checked(neg), self._checked(pos)
        n = self.a.n_states
        lo, hi = self.halves
        duals = [(u, (u & ~hi.tops) << n, (u & ~hi.accepting) << n) for u in negs
                 if not u & hi.bottoms and not any(p & u == p for p in pos)]
        if not duals:
            return []
        models = self.label_models.get(pos)
        if models is None:
            models = self.label_models[pos] = minimal_models(pos)
        roots = set()
        for m in models:
            if not m & lo.bottoms:
                s, o = m & ~lo.tops, m & ~lo.accepting
                for u, ds, do in duals:
                    if not m & u:
                        roots.add(self.intern((s | ds, o | do)))
        return sorted(roots)


def miyano_hayashi(a: Awa, checkpoint: Callable[[int], None] | None = None
                   ) -> ObligationGraph:
    """Language-preserving NBW for the alternating automaton: its breakpoint
    graph, expanded in id order from the initial pair.

    Every reachable vertex is kept, dead or not, since the tracking machine
    steps vertex sets of this graph.  ``checkpoint``, if given, is called
    with the number of vertices found before each vertex is expanded; it
    may raise to stop the expansion.
    """
    acc = state_mask(a.accepting)
    graph = BreakpointGraph(Breakpoint(a.dual.delta, acc, 0, 0).row, a.alphabet.letters)
    init = 1 << a.initial
    graph.intern((init, init & ~acc))
    vid = 0
    while vid < len(graph.pairs):
        if checkpoint is not None:
            checkpoint(len(graph.pairs))
        graph.row(vid)
        vid += 1
    return ObligationGraph(a.alphabet, tuple(graph.pairs), tuple(graph.rows))


def obligation_to_dot(g: ObligationGraph) -> str:
    lines = ["digraph obligation {", "  rankdir=LR;"]
    for vid, (S, O) in enumerate(g.vertices):
        shape = "circle" if O else "doublecircle"
        label = "{%s} | {%s}" % (" ".join(map(str, mask_states(S))),
                                 " ".join(map(str, mask_states(O))))
        lines.append(f'  v{vid} [shape={shape} label="{label}"];')
    lines.append("  init [shape=point]; init -> v0;")
    for vid, row in enumerate(g.edges):
        for x, dsts in zip(g.alphabet.letters, row):
            for dst in dsts:
                lines.append(f'  v{vid} -> v{dst} [label="{letter_text(x)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
