"""Floating automata over the SLTM.

A floating automaton has no initial states: a word is accepted when a run
may jump in at some moment, at a state labeled with the SLTM state reached
on the consumed prefix, and then run forever.  This module builds the
universal automaton, the per-level product with an obligation graph, the
subset-construction determinization, Moore minimization, lasso membership,
and emptiness.

Lasso membership runs on a packed suite (``formula.Lassos``: one int per
row, one bit per position of every lasso): run survival is a greatest and
reachability a least fixpoint with one row per state, so a few big-int
operations per automaton edge decide the whole suite.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from ._graph import cyclic_sccs
from .formula import Alphabet, LassoWord, Lassos, letter_text
from .obligation import ObligationGraph
from .sltm import Sltm

Payload = tuple[int | None, frozenset[int]]


@dataclass(frozen=True, eq=False)
class Nfw:
    """Nondeterministic floating automaton (product shape, cycle-pruned)."""

    alphabet: Alphabet
    n_states: int
    label: tuple[int, ...]
    trans: dict[tuple[int, frozenset[str]], tuple[int, ...]]
    origin: tuple[tuple[int, int], ...]
    prev_size: int
    graph_size: int
    level: int

    def succ(self, q: int, x: frozenset[str]) -> tuple[int, ...]:
        return self.trans.get((q, x), ())


@dataclass(frozen=True, eq=False)
class Dfw:
    """Deterministic floating automaton with a partial transition function."""

    alphabet: Alphabet
    n_states: int
    label: tuple[int, ...]
    trans: dict[tuple[int, frozenset[str]], int]
    origin: tuple[Payload, ...]

    def step(self, q: int, x: frozenset[str]) -> int | None:
        return self.trans.get((q, x))

    @cached_property
    def by_label(self) -> dict[int, tuple[int, ...]]:
        """The states carrying each SLTM state as label, in state order."""
        out: dict[int, list[int]] = {}
        for q in range(self.n_states):
            out.setdefault(self.label[q], []).append(q)
        return {s: tuple(qs) for s, qs in out.items()}


def _check_label_consistency(aut, m: Sltm) -> None:
    for (q, x), dst in aut.trans.items():
        dsts = dst if isinstance(dst, tuple) else (dst,)
        for q2 in dsts:
            if aut.label[q2] != m.delta[(aut.label[q], x)]:
                raise AssertionError(
                    f"transition {q} -{sorted(x)}-> {q2} disagrees with the SLTM labels")


def universal_dfw(m: Sltm) -> Dfw:
    """Minimal DFW for the universal language: the recurrent part of the
    SLTM itself, labeled by the identity."""
    trans = {(s, x): d for (s, x), d in m.delta.items()}
    d = Dfw(
        alphabet=m.alphabet,
        n_states=m.n_states,
        label=tuple(range(m.n_states)),
        trans=trans,
        origin=tuple((None, frozenset()) for _ in range(m.n_states)),
    )
    d = _strip_transient(d)
    d = minimize_dfw(d, m)
    _check_label_consistency(d, m)
    return d


def _strip_transient(d: Dfw) -> Dfw:
    succ: list[set[int]] = [set() for _ in range(d.n_states)]
    for (q, _x), dst in d.trans.items():
        succ[q].add(dst)
    comp = cyclic_sccs([sorted(s) for s in succ])
    keep = [q for q in range(d.n_states) if comp[q] >= 0]
    remap = {old: new for new, old in enumerate(keep)}
    trans = {}
    for (q, x), dst in d.trans.items():
        if comp[q] >= 0 and comp[q] == comp[dst]:
            trans[(remap[q], x)] = remap[dst]
    return Dfw(
        alphabet=d.alphabet,
        n_states=len(keep),
        label=tuple(d.label[q] for q in keep),
        trans=trans,
        origin=tuple(d.origin[q] for q in keep),
    )


def level_product(prev: Dfw, m: Sltm, ell: int, g_neg: ObligationGraph,
                  g_pos: ObligationGraph) -> Nfw:
    """Unabridged product of the previous level with the obligation graph of
    the level's polarity, then pruning: transient parts removed and only
    SCCs containing an accepting graph vertex kept."""
    if ell < 1:
        raise ValueError("levels start at 1")
    g = g_neg if ell % 2 == 1 else g_pos
    vsets = m.vertex_sets_neg if ell % 2 == 1 else m.vertex_sets_pos

    ids: dict[tuple[int, int], int] = {}
    states: list[tuple[int, int]] = []
    for p in range(prev.n_states):
        for v in sorted(vsets[prev.label[p]]):
            ids[(p, v)] = len(states)
            states.append((p, v))

    trans: dict[tuple[int, frozenset[str]], tuple[int, ...]] = {}
    for (p, v) in states:
        q = ids[(p, v)]
        for x in m.alphabet.letters:
            p2 = prev.step(p, x)
            if p2 is None:
                continue
            dsts = []
            for v2 in g.succ(v, x):
                if v2 not in vsets[prev.label[p2]]:
                    raise AssertionError("vertex outside successor state's set")
                dsts.append(ids[(p2, v2)])
            if dsts:
                trans[(q, x)] = tuple(sorted(dsts))

    n = len(states)
    succ: list[set[int]] = [set() for _ in range(n)]
    for (q, _x), dsts in trans.items():
        succ[q].update(dsts)
    comp = cyclic_sccs([sorted(s) for s in succ])
    accepting_comps = {comp[q] for q in range(n) if states[q][1] in g.accepting} - {-1}
    keep = [q for q in range(n) if comp[q] in accepting_comps]
    remap = {old: new for new, old in enumerate(keep)}
    ntrans: dict[tuple[int, frozenset[str]], tuple[int, ...]] = {}
    for (q, x), dsts in trans.items():
        if q not in remap:
            continue
        kept = tuple(remap[d] for d in dsts if comp[d] == comp[q])
        if kept:
            ntrans[(remap[q], x)] = kept

    nfw = Nfw(
        alphabet=m.alphabet,
        n_states=len(keep),
        label=tuple(prev.label[states[q][0]] for q in keep),
        trans=ntrans,
        origin=tuple(states[q] for q in keep),
        prev_size=prev.n_states,
        graph_size=g.n_vertices,
        level=ell,
    )
    _check_label_consistency(nfw, m)
    return nfw


def determinize(n: Nfw, m: Sltm) -> Dfw:
    """Per-state subset construction, with subsets collapsed to a previous
    DFW state plus a set of graph vertices, and duplicates shared."""
    ids: dict[tuple[int, frozenset[int]], int] = {}
    states: list[tuple[int, frozenset[int]]] = []
    trans: dict[tuple[int, frozenset[str]], int] = {}

    def intern(key: tuple[int, frozenset[int]]) -> int:
        got = ids.get(key)
        if got is None:
            got = len(states)
            ids[key] = got
            states.append(key)
            frontier.append(got)
        return got

    frontier: deque[int] = deque()
    members_of: dict[tuple[int, frozenset[int]], list[int]] = {}
    for q in range(n.n_states):
        p, v = n.origin[q]
        members_of.setdefault((p, frozenset({v})), []).append(q)
    for key in sorted(members_of, key=lambda k: (k[0], tuple(sorted(k[1])))):
        intern(key)

    nfw_by_pv = {n.origin[q]: q for q in range(n.n_states)}
    while frontier:
        did = frontier.popleft()
        p, vs = states[did]
        for x in m.alphabet.letters:
            p2 = None
            out: set[int] = set()
            for v in sorted(vs):
                q = nfw_by_pv[(p, v)]
                for q2 in n.succ(q, x):
                    p2b, v2 = n.origin[q2]
                    p2 = p2b
                    out.add(v2)
            if out:
                trans[(did, x)] = intern((p2, frozenset(out)))

    bound = n.prev_size ** 2 * (2 ** n.graph_size) * max(n.graph_size, 1)
    if len(states) > bound:
        raise AssertionError(f"determinization exceeded the size bound {bound}")

    d = Dfw(
        alphabet=m.alphabet,
        n_states=len(states),
        label=tuple(
            n.label[nfw_by_pv[(p, min(vs))]] if vs else 0 for (p, vs) in states),
        trans=trans,
        origin=tuple((p, vs) for (p, vs) in states),
    )
    _check_label_consistency(d, m)
    return d


def minimize_dfw(d: Dfw, m: Sltm) -> Dfw:
    """Moore partition refinement over the partial transition function,
    seeded by the SLTM label, then transient stripping."""
    if d.n_states == 0:
        return d
    block = list(d.label)

    def renumber(vals: list) -> list[int]:
        mapping: dict = {}
        out = []
        for v in vals:
            if v not in mapping:
                mapping[v] = len(mapping)
            out.append(mapping[v])
        return out

    block = renumber(block)
    while True:
        sigs = []
        for q in range(d.n_states):
            row = [block[q]]
            for x in d.alphabet.letters:
                dst = d.trans.get((q, x))
                row.append(-1 if dst is None else block[dst])
            sigs.append(tuple(row))
        nblock = renumber(sigs)
        if nblock == block:
            break
        block = nblock

    n_classes = max(block) + 1
    rep = [-1] * n_classes
    for q in range(d.n_states):
        if rep[block[q]] == -1:
            rep[block[q]] = q
    trans = {}
    for (q, x), dst in d.trans.items():
        trans[(block[q], x)] = block[dst]
    merged = Dfw(
        alphabet=d.alphabet,
        n_states=n_classes,
        label=tuple(d.label[rep[c]] for c in range(n_classes)),
        trans=trans,
        origin=tuple(d.origin[rep[c]] for c in range(n_classes)),
    )
    out = _strip_transient(merged)
    _check_label_consistency(out, m)
    return out


def is_empty_dfw(d: Dfw) -> bool:
    """Transient-free DFWs are empty exactly when no state remains: the SLTM
    reaches every state, so any surviving cycle yields an accepted word."""
    return d.n_states == 0


def _grouped(edges, lassos: Lassos) -> dict[int, dict[int, int]]:
    """``out[q][q2]``: the rows of the letters that lead from q to q2, joined,
    from ((state, letter), successors) pairs."""
    rows = lassos.rows
    out: dict[int, dict[int, int]] = {}
    for (q, x), dsts in edges:
        row = rows.get(x)
        if row:
            by_dst = out.setdefault(q, {})
            for q2 in dsts:
                by_dst[q2] = by_dst.get(q2, 0) | row
    return out


def survival_rows(trans: dict[tuple[int, frozenset[str]], int], lassos: Lassos) -> dict[int, int]:
    """Deterministic-run survival on a packed suite.

    Bit p of ``surv[q]`` is set when the partial deterministic transition
    function ``trans`` (keyed by (state, letter)) runs forever from q at the
    position of bit p: the greatest fixpoint of
    ``surv[q] = OR_x row_x & X surv[trans[q, x]]``, from all ones.  A
    worklist recomputes only the predecessors of a state whose row shrank;
    a state left out survives nowhere.
    """
    out = _grouped(((key, (q2,)) for key, q2 in trans.items()), lassos)
    preds: dict[int, list[int]] = {}
    for q, by_dst in out.items():
        for q2 in by_dst:
            preds.setdefault(q2, []).append(q)
    surv = dict.fromkeys(out, lassos.full)
    ahead = dict.fromkeys(out, lassos.full)  # X surv[q]; X keeps all ones
    todo = list(out)
    while todo:
        q = todo.pop()
        row = 0
        for q2, mask in out[q].items():
            row |= mask & ahead.get(q2, 0)
        if row != surv[q]:
            surv[q] = row
            ahead[q] = lassos.next(row)
            todo += preds.get(q, ())
    return surv


def reach_rows(initial: int, edges, lassos: Lassos) -> dict[int, int]:
    """The positions at which some run from ``initial`` at the start of a
    lasso can be in each state.

    ``edges`` gives ((state, letter), successors) pairs.  Bit p of
    ``reach[q]`` is set when a run is in q at the position of bit p: the
    least fixpoint from the start bits through ``Lassos.step``, with a
    worklist of the states whose row grew.
    """
    out = _grouped(edges, lassos)
    reach = {initial: lassos.starts}
    todo = [initial]
    while todo:
        q = todo.pop()
        here = reach[q]
        for q2, mask in out.get(q, {}).items():
            there = reach.get(q2, 0)
            grown = there | lassos.step(here & mask)
            if grown != there:
                reach[q2] = grown
                todo.append(q2)
    return reach


def dfw_accepts_lassos(d: Dfw, m: Sltm, lassos: Lassos) -> int:
    """Jump-in acceptance on a packed suite: the start bits of the lassos
    that the floating automaton accepts.

    A jump-in at some moment enters a DFW state labeled with the SLTM state
    at that moment, at the moment's lasso position, and is accepted when
    the DFW run from there survives (``survival_rows``).  ``reach_rows``
    over the SLTM gives the (SLTM state, position) pairs the word passes,
    so a lasso is accepted when F(reach & surv) holds at its start.
    """
    surv = survival_rows(d.trans, lassos)
    reach = reach_rows(m.initial, ((key, (s,)) for key, s in m.delta.items()), lassos)
    hit = 0
    for q, row in surv.items():
        hit |= row & reach.get(d.label[q], 0)
    return lassos.until(lassos.full, hit) & lassos.starts


def dfw_accepts_lasso(d: Dfw, m: Sltm, w: LassoWord) -> bool:
    """Jump-in acceptance of one lasso (``dfw_accepts_lassos`` on it alone)."""
    return bool(dfw_accepts_lassos(d, m, Lassos.of([w])))


def dfw_to_dot(d: Dfw, m: Sltm, name: str = "dfw") -> str:
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    for q in range(d.n_states):
        prev, vs = d.origin[q]
        label = f"q{q}\\nf=s{d.label[q]}\\n({prev},{sorted(vs)})"
        lines.append(f'  q{q} [shape=circle label="{label}"];')
    for (q, x), dst in sorted(d.trans.items(), key=lambda kv: (kv[0][0], tuple(sorted(kv[0][1])))):
        lines.append(f'  q{q} -> q{dst} [label="{letter_text(x)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
