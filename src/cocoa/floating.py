"""Floating automata over the SLTM.

A floating automaton has no initial states: a word is accepted when a run
may jump in at some moment, at a state labeled with the SLTM state reached
on the consumed prefix, and then run forever.  This module builds the
universal automaton, the per-level product with an obligation graph, the
subset-construction determinization, Moore minimization and lasso
membership.  Transitions are rows indexed by letter number, as in the SLTM
and the obligation graphs.

Lasso membership runs on a packed suite (``formula.Lassos``: one int per
row, one bit per word): run survival is a greatest and backward
reachability a least fixpoint with one row per state, so a few big-int
operations per automaton edge decide the whole suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from ._graph import cyclic_sccs
from .formula import Alphabet, LassoWord, Lassos, letter_text
from .obligation import ObligationGraph
from .sltm import Sltm

Payload = tuple[int | None, frozenset[int]]


@dataclass(frozen=True, eq=False)
class Nfw:
    """Nondeterministic floating automaton (product shape, cycle-pruned);
    ``trans[q][i]`` holds the successors of q on letter number i."""

    alphabet: Alphabet
    n_states: int
    label: tuple[int, ...]
    trans: tuple[tuple[tuple[int, ...], ...], ...]
    origin: tuple[tuple[int, int], ...]


@dataclass(frozen=True, eq=False)
class Dfw:
    """Deterministic floating automaton with a partial transition function:
    ``trans[q][i]`` is the successor of q on letter number i, or None."""

    alphabet: Alphabet
    n_states: int
    label: tuple[int, ...]
    trans: tuple[tuple[int | None, ...], ...]
    origin: tuple[Payload, ...]

    @cached_property
    def by_label(self) -> dict[int, tuple[int, ...]]:
        """The states carrying each SLTM state as label, in state order."""
        out: dict[int, list[int]] = {}
        for q in range(self.n_states):
            out.setdefault(self.label[q], []).append(q)
        return {s: tuple(qs) for s, qs in out.items()}


def det_edges(rows) -> Iterator[tuple[int, int, int]]:
    """The (state, letter number, successor) triples of deterministic rows,
    in (state, letter number) order; None entries are skipped."""
    for q, row in enumerate(rows):
        for i, q2 in enumerate(row):
            if q2 is not None:
                yield q, i, q2


def _check_label_consistency(aut: Nfw | Dfw, m: Sltm) -> None:
    for q, row in enumerate(aut.trans):
        for i, (dst, s2) in enumerate(zip(row, m.delta[aut.label[q]])):
            dsts = dst if isinstance(dst, tuple) else () if dst is None else (dst,)
            for q2 in dsts:
                if aut.label[q2] != s2:
                    raise AssertionError(
                        f"transition {q} -{sorted(m.alphabet.letters[i])}-> {q2} "
                        "disagrees with the SLTM labels")


def universal_dfw(m: Sltm) -> Dfw:
    """Minimal DFW for the universal language: the recurrent part of the
    SLTM itself, labeled by the identity.  No two states share a label, so
    Moore refinement would merge none."""
    d = Dfw(
        alphabet=m.alphabet,
        n_states=m.n_states,
        label=tuple(range(m.n_states)),
        trans=m.delta,
        origin=tuple((None, frozenset()) for _ in range(m.n_states)),
    )
    d = _strip_transient(d)
    _check_label_consistency(d, m)
    return d


def _strip_transient(d: Dfw) -> Dfw:
    comp = cyclic_sccs([sorted({q2 for q2 in row if q2 is not None}) for row in d.trans])
    keep = [q for q in range(d.n_states) if comp[q] >= 0]
    remap = {old: new for new, old in enumerate(keep)}
    trans = tuple(
        tuple(remap[q2] if q2 is not None and comp[q2] == comp[q] else None
              for q2 in d.trans[q])
        for q in keep)
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

    # (p2, v2) has an id exactly when v2 is in the vertex set of p2's label
    trans: list[list[tuple[int, ...]]] = []
    for (p, v) in states:
        row = []
        for p2, vs2 in zip(prev.trans[p], g.edges[v]):
            dsts = []
            if p2 is not None:
                for v2 in vs2:
                    q2 = ids.get((p2, v2))
                    if q2 is None:
                        raise AssertionError("vertex outside successor state's set")
                    dsts.append(q2)
            row.append(tuple(sorted(dsts)))
        trans.append(row)

    comp = cyclic_sccs([sorted({d for dsts in row for d in dsts}) for row in trans])
    accepting_comps = {comp[q] for q in range(len(states))
                       if states[q][1] in g.accepting} - {-1}
    keep = [q for q in range(len(states)) if comp[q] in accepting_comps]
    remap = {old: new for new, old in enumerate(keep)}
    nfw = Nfw(
        alphabet=m.alphabet,
        n_states=len(keep),
        label=tuple(prev.label[states[q][0]] for q in keep),
        trans=tuple(
            tuple(tuple(remap[d] for d in dsts if comp[d] == comp[q]) for dsts in trans[q])
            for q in keep),
        origin=tuple(states[q] for q in keep),
    )
    _check_label_consistency(nfw, m)
    return nfw


def determinize(n: Nfw, m: Sltm) -> Dfw:
    """Per-state subset construction, with subsets collapsed to a previous
    DFW state plus a set of graph vertices, and duplicates shared.  States
    are numbered as they are found and expanded in id order, one row each."""
    ids: dict[tuple[int, frozenset[int]], int] = {}
    states: list[tuple[int, frozenset[int]]] = []
    trans: list[tuple[int | None, ...]] = []

    def intern(key: tuple[int, frozenset[int]]) -> int:
        got = ids.get(key)
        if got is None:
            got = len(states)
            ids[key] = got
            states.append(key)
        return got

    # the product numbers its (p, v) pairs by p, then by v, and pruning
    # keeps that order
    for p, v in n.origin:
        intern((p, frozenset({v})))

    nfw_by_pv = {n.origin[q]: q for q in range(n.n_states)}
    while len(trans) < len(states):
        p, vs = states[len(trans)]
        rows = [n.trans[nfw_by_pv[(p, v)]] for v in sorted(vs)]
        row = []
        for per_letter in zip(*rows):
            # the previous level is deterministic, so every successor
            # shares one previous state p2
            p2 = None
            out: set[int] = set()
            for dsts in per_letter:
                for q2 in dsts:
                    p2, v2 = n.origin[q2]
                    out.add(v2)
            row.append(intern((p2, frozenset(out))) if out else None)
        trans.append(tuple(row))

    d = Dfw(
        alphabet=m.alphabet,
        n_states=len(states),
        label=tuple(n.label[nfw_by_pv[(p, min(vs))]] for (p, vs) in states),
        trans=tuple(trans),
        origin=tuple((p, vs) for (p, vs) in states),
    )
    _check_label_consistency(d, m)
    return d


def minimize_dfw(d: Dfw, m: Sltm) -> Dfw:
    """Moore partition refinement over the partial transition function,
    seeded by the SLTM label, then transient stripping."""
    if d.n_states == 0:
        return d

    def renumber(vals) -> list[int]:
        mapping: dict = {}
        return [mapping.setdefault(v, len(mapping)) for v in vals]

    def moved(row) -> tuple:
        return tuple(None if dst is None else block[dst] for dst in row)

    block = renumber(d.label)
    while True:
        nblock = renumber((block[q],) + moved(row) for q, row in enumerate(d.trans))
        if nblock == block:
            break
        block = nblock

    # every member of a class moves to the same classes, so the first
    # member's row stands for the class
    n_classes = max(block) + 1
    rep = [-1] * n_classes
    for q in range(d.n_states):
        if rep[block[q]] == -1:
            rep[block[q]] = q
    merged = Dfw(
        alphabet=d.alphabet,
        n_states=n_classes,
        label=tuple(d.label[q] for q in rep),
        trans=tuple(moved(d.trans[q]) for q in rep),
        origin=tuple(d.origin[q] for q in rep),
    )
    out = _strip_transient(merged)
    _check_label_consistency(out, m)
    return out


def _grouped(edges, lassos: Lassos) -> dict[int, dict[int, int]]:
    """``out[q][q2]``: the rows of the letters that lead from q to q2, joined,
    from (state, letter number, successor) triples."""
    rows = lassos.rows
    out: dict[int, dict[int, int]] = {}
    for q, i, q2 in edges:
        row = rows[i]
        if row:
            by_dst = out.setdefault(q, {})
            by_dst[q2] = by_dst.get(q2, 0) | row
    return out


def _fixpoint(out: dict[int, dict[int, int]], lassos: Lassos, rows: dict[int, int],
              base: dict[int, int]) -> dict[int, int]:
    """Iterate ``rows[q] = base[q] | OR_(q2) out[q][q2] & X rows[q2]`` from
    the given rows until nothing changes.  A worklist recomputes only the
    predecessors of a state whose row changed."""
    preds: dict[int, list[int]] = {}
    for q, by_dst in out.items():
        for q2 in by_dst:
            preds.setdefault(q2, []).append(q)
    ahead = {q: lassos.next(row) for q, row in rows.items()}
    todo = list(out)
    while todo:
        q = todo.pop()
        row = base.get(q, 0)
        for q2, mask in out[q].items():
            row |= mask & ahead.get(q2, 0)
        if row != rows.get(q, 0):
            rows[q] = row
            ahead[q] = lassos.next(row)
            todo += preds.get(q, ())
    return rows


def survival_rows(edges, lassos: Lassos) -> dict[int, int]:
    """Deterministic-run survival on a packed suite.

    ``edges`` gives the (state, letter number, successor) triples of a
    partial deterministic transition function (``det_edges``).  Bit p of
    ``surv[q]`` is set when it runs forever from q on the word of bit p:
    the greatest fixpoint of ``surv[q] = OR_i row_i & X surv[trans[q][i]]``,
    from all ones.  A state left out survives nowhere.
    """
    out = _grouped(edges, lassos)
    return _fixpoint(out, lassos, dict.fromkeys(out, lassos.full), {})


def reach_back_rows(edges, lassos: Lassos, base: dict[int, int]) -> dict[int, int]:
    """The words from which some run reaches ``base``.

    ``edges`` gives (state, letter number, successor) triples.  Bit p of
    ``reach[q]`` is set when some run from q on the word of bit p is, after
    some number of letters, in a state q2 on a word whose bit is set in
    ``base[q2]``: the least fixpoint of
    ``reach[q] = base[q] | OR_i row_i & X reach[q2]`` over the edges
    (q, i, q2), from ``base``.
    """
    return _fixpoint(_grouped(edges, lassos), lassos, dict(base), base)


def dfw_accepts_lassos(d: Dfw, m: Sltm, lassos: Lassos) -> int:
    """Jump-in acceptance on a packed suite: the start bits of the lassos
    that the floating automaton accepts.

    A jump-in at some moment enters a DFW state labeled with the SLTM state
    at that moment, on the word left at that moment, and is accepted when
    the DFW run from there survives (``survival_rows``).  So ``hit[s]``,
    the words on which some DFW state labeled s survives, is the target,
    and acceptance is a backward fixpoint over the SLTM: ``acc[s]`` is the
    least fixpoint of ``acc[s] = hit[s] | OR_i row_i & X acc[delta(s, i)]``
    (``reach_back_rows``), and a lasso is accepted when its start bit is
    in ``acc[m.initial]``.  Every row is a set of words, not of positions
    along one lasso, so it stays exact where lassos share their suffixes.

    The suite's letter numbers must be the machine's: raises ValueError
    when the two alphabets list their letters differently.
    """
    if lassos.alphabet.letters != m.alphabet.letters:
        raise ValueError("the lassos and the machine number their letters differently")
    hit: dict[int, int] = {}
    for q, row in survival_rows(det_edges(d.trans), lassos).items():
        s = d.label[q]
        hit[s] = hit.get(s, 0) | row
    acc = reach_back_rows(det_edges(m.delta), lassos, hit)
    return acc.get(m.initial, 0) & lassos.starts


def dfw_accepts_lasso(d: Dfw, m: Sltm, w: LassoWord) -> bool:
    """Jump-in acceptance of one lasso (``dfw_accepts_lassos`` on it alone)."""
    return bool(dfw_accepts_lassos(d, m, Lassos.of([w])))


def dfw_to_dot(d: Dfw, m: Sltm, name: str = "dfw") -> str:
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    for q in range(d.n_states):
        prev, vs = d.origin[q]
        label = f"q{q}\\nf=s{d.label[q]}\\n({prev},{sorted(vs)})"
        lines.append(f'  q{q} [shape=circle label="{label}"];')
    letters = d.alphabet.letters
    for q, i, dst in det_edges(d.trans):
        lines.append(f'  q{q} -> q{dst} [label="{letter_text(letters[i])}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
