"""Floating automata over the SLTM.

A floating automaton has no initial states: a word is accepted when a run
may jump in at some moment, at a state labeled with the SLTM state reached
on the consumed prefix, and then run forever.  This module builds the
universal automaton, the per-level product with an obligation graph, the
subset-construction determinization, Moore minimization, lasso membership,
and emptiness.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from ._graph import scc_ids, tarjan_sccs
from .formula import Alphabet, LassoWord, letter_text
from .obligation import ObligationGraph
from .sltm import Sltm, sltm_state_after

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
    sccs = tarjan_sccs(d.n_states, [sorted(s) for s in succ])
    comp = scc_ids(d.n_states, sccs)
    cyclic = [False] * len(sccs)
    for q in range(d.n_states):
        for s in succ[q]:
            if comp[s] == comp[q]:
                cyclic[comp[q]] = True
    keep = [q for q in range(d.n_states) if cyclic[comp[q]]]
    keepset = set(keep)
    remap = {old: new for new, old in enumerate(keep)}
    trans = {}
    for (q, x), dst in d.trans.items():
        if q in keepset and dst in keepset and comp[q] == comp[dst]:
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
    sccs = tarjan_sccs(n, [sorted(s) for s in succ])
    comp = scc_ids(n, sccs)
    cyclic = [False] * len(sccs)
    scc_accepting = [False] * len(sccs)
    for q in range(n):
        for s in succ[q]:
            if comp[s] == comp[q]:
                cyclic[comp[q]] = True
        if states[q][1] in g.accepting:
            scc_accepting[comp[q]] = True
    keep = [q for q in range(n) if cyclic[comp[q]] and scc_accepting[comp[q]]]
    keepset = set(keep)
    remap = {old: new for new, old in enumerate(keep)}
    ntrans: dict[tuple[int, frozenset[str]], tuple[int, ...]] = {}
    for (q, x), dsts in trans.items():
        if q not in keepset:
            continue
        kept = tuple(remap[d] for d in dsts if d in keepset and comp[d] == comp[q])
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


def run_survives(trans: dict, w: LassoWord):
    """Deterministic-run survival on the lasso's positions.

    Returns ``survives(q, j)``: whether the partial deterministic transition
    function ``trans`` (keyed by (state, letter)) runs forever from state q
    at lasso position j.  A run either dies or repeats a (state, position)
    pair, and every pair it passes shares its verdict, which is memoized.
    """
    letters, nxt = w.letters, w.next_positions
    memo: dict[tuple[int, int], bool] = {}

    def survives(q: int, j: int) -> bool:
        path = []
        while True:
            key = (q, j)
            val = memo.get(key)
            if val is not None:
                # a pair on the current path was entered as True: a cycle
                break
            memo[key] = True
            path.append(key)
            q = trans.get((q, letters[j]))
            if q is None:
                val = False
                break
            j = nxt[j]
        if not val:
            for key in path:
                memo[key] = False
        return val

    return survives


def dfw_accepts_lasso(d: Dfw, m: Sltm, w: LassoWord) -> bool:
    """Jump-in acceptance on a lasso.

    A jump-in at some moment enters a DFW state labeled with the SLTM state
    at that moment and at the moment's lasso position; whether it survives
    depends only on that (SLTM state, position) pair.  The pairs along the
    word follow a deterministic walk, so walking them until the first repeat
    visits every moment's pair.  Each jump-in runs the partial deterministic
    automaton (``run_survives``).
    """
    if d.n_states == 0:
        return False
    by_label = d.by_label
    survives = run_survives(d.trans, w)
    letters, nxt = w.letters, w.next_positions
    seen: set[tuple[int, int]] = set()
    s, j = m.initial, 0
    while (s, j) not in seen:
        seen.add((s, j))
        for q in by_label.get(s, ()):
            if survives(q, j):
                return True
        s = m.delta[(s, letters[j])]
        j = nxt[j]
    return False


def reachable_transitions(d: Dfw, m: Sltm, prefix) -> frozenset:
    """Transitions (q, x, q') reachable after reading the prefix: some run on
    prefix.x ends with the transition (jump-ins at every moment allowed)."""
    prefix = tuple(prefix)
    s = m.initial
    alive: set[int] = set(d.by_label.get(s, ()))
    for x in prefix:
        s = m.delta[(s, x)]
        alive = {d.trans[(q, x)] for q in alive if (q, x) in d.trans}
        alive.update(d.by_label.get(s, ()))
    out = set()
    for q in alive:
        for x in d.alphabet.letters:
            dst = d.trans.get((q, x))
            if dst is not None:
                out.add((q, x, dst))
    return frozenset(out)


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
