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

from functools import cached_property
from typing import Callable, Iterator

from ._graph import cyclic_sccs
from .formula import LassoWord, Lassos, letter_text
from .sltm import Sltm

Payload = tuple[int | None, frozenset[int]]


class Nfw:
    """Nondeterministic floating automaton (product shape, cycle-pruned);
    ``trans[q][i]`` holds the successors of q on letter number i."""

    __slots__ = ("label", "trans", "origin")

    def __init__(self, label: tuple[int, ...], trans: tuple[tuple[tuple[int, ...], ...], ...],
                 origin: tuple[tuple[int, int], ...]):
        self.label = label
        self.trans = trans
        self.origin = origin

    @property
    def n_states(self) -> int:
        return len(self.trans)


class Dfw:
    """Deterministic floating automaton with a partial transition function:
    ``trans[q][i]`` is the successor of q on letter number i, or None."""

    def __init__(self, label: tuple[int, ...], trans: tuple[tuple[int | None, ...], ...],
                 origin: tuple[Payload, ...]):
        self.label = label
        self.trans = trans
        self.origin = origin

    @property
    def n_states(self) -> int:
        return len(self.trans)

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
        label=tuple(d.label[q] for q in keep),
        trans=trans,
        origin=tuple(d.origin[q] for q in keep),
    )


def level_product(prev: Dfw, m: Sltm, ell: int) -> Nfw:
    """Product of the previous level with the obligation graph of the
    level's polarity (``Sltm.side``), pruned to the cyclic components that
    hold an accepting graph vertex.

    A kept component projects into one cyclic component of the graph that
    holds a vertex owing nothing, the graph's ``core``, since its cycles
    project to cycles of the graph.  So only the pairs (p, v) with v in the
    core and v in the vertex set of p's label are built, with only the
    edges that stay inside v's component: the kept components, their order
    and the NFW are those of the unabridged product.  The vertex sets are
    closed under the graph's edges (checked where the SLTM stage sweeps
    them), so every successor pair of a pair built here lies in the
    product; the edges built are checked again."""
    if ell < 1:
        raise ValueError("levels start at 1")
    g, vsets = m.side(ell)
    core = g.core

    ids: dict[tuple[int, int], int] = {}
    states: list[tuple[int, int]] = []
    for p in range(prev.n_states):
        for v in sorted(vsets[prev.label[p]]):
            if core[v] >= 0:
                ids[(p, v)] = len(states)
                states.append((p, v))

    # (p2, v2) has an id exactly when v2 is a core vertex in the vertex set
    # of p2's label
    trans: list[list[tuple[int, ...]]] = []
    for (p, v) in states:
        row = []
        c = core[v]
        for p2, vs2 in zip(prev.trans[p], g.edges[v]):
            dsts = []
            if p2 is not None:
                for v2 in vs2:
                    if core[v2] == c:
                        q2 = ids.get((p2, v2))
                        if q2 is None:
                            raise AssertionError("vertex outside successor state's set")
                        dsts.append(q2)
            row.append(tuple(sorted(dsts)))
        trans.append(row)

    comp = cyclic_sccs([sorted({d for dsts in row for d in dsts}) for row in trans],
                       (q for q, (_p, v) in enumerate(states) if not g.vertices[v][1]))
    keep = [q for q in range(len(states)) if comp[q] >= 0]
    remap = {old: new for new, old in enumerate(keep)}
    nfw = Nfw(
        label=tuple(prev.label[states[q][0]] for q in keep),
        trans=tuple(
            tuple(tuple(remap[d] for d in dsts if comp[d] == comp[q]) for dsts in trans[q])
            for q in keep),
        origin=tuple(states[q] for q in keep),
    )
    _check_label_consistency(nfw, m)
    return nfw


def determinize(n: Nfw, m: Sltm, checkpoint: Callable[[int], None] | None = None) -> Dfw:
    """Per-state subset construction: a DFW state is a set of NFW states,
    and its row is the union of its members' rows.  The previous level is
    deterministic, so the members share one previous state and the set
    stands for that state plus a set of graph vertices.  States are
    numbered as they are found, the singletons first in NFW order, and
    expanded in id order, one row each.  ``checkpoint``, if given, is
    called with the number of states found before each row is built; it
    may raise to stop the construction."""
    ids: dict[frozenset[int], int] = {}
    states: list[frozenset[int]] = []
    trans: list[tuple[int | None, ...]] = []

    def intern(key: frozenset[int]) -> int:
        got = ids.get(key)
        if got is None:
            got = len(states)
            ids[key] = got
            states.append(key)
        return got

    for q in range(n.n_states):
        intern(frozenset({q}))

    while len(trans) < len(states):
        if checkpoint is not None:
            checkpoint(len(states))
        row = []
        for per_letter in zip(*(n.trans[q] for q in states[len(trans)])):
            out = frozenset(q2 for dsts in per_letter for q2 in dsts)
            row.append(intern(out) if out else None)
        trans.append(tuple(row))

    d = Dfw(
        label=tuple(n.label[min(key)] for key in states),
        trans=tuple(trans),
        origin=tuple((n.origin[min(key)][0], frozenset(n.origin[q][1] for q in key))
                     for key in states),
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
    letters = m.alphabet.letters
    for q, i, dst in det_edges(d.trans):
        lines.append(f'  q{q} -> q{dst} [label="{letter_text(letters[i])}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
