"""Weak alternating Buchi automata with PCNF transition formulas.

Covers construction from LTL (one state per subformula, expansion laws),
dualization (complement), weakness checking, and acceptance of lassos by
the word-checking game.  Weakness lets the game be solved one rank group at
a time, sinks first (Muller, Saoudi and Schupp, 1986): an accepting group is
a greatest fixpoint and a rejecting group a least fixpoint, iterated on bit
rows with one bit per lasso position.  Emptiness is decided on the
breakpoint graph (``obligation.BreakpointGraph``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ._graph import tarjan_sccs
from .formula import (
    AND, ATOM, FALSE, FINALLY, GLOBALLY, NEXT, NOT, OR, RELEASE, TRUE, UNTIL,
    Alphabet, Formula, LassoWord, Lassos, letter_text, render, subformulas,
)


class NotNnf(Exception):
    pass


class NotWeak(Exception):
    """Some strongly connected component mixes accepting and rejecting states."""

    def __init__(self, scc):
        super().__init__(f"mixed SCC {sorted(scc)}")
        self.scc = frozenset(scc)


# --- clause-set (CNF) utilities -------------------------------------------
#
# A clause set is a frozenset of frozensets of state ids read as a
# conjunction of disjunctions; the empty set is TRUE and {frozenset()} is
# FALSE.  Subsumption keeps only minimal clauses, which also normalizes the
# constants.

CNF_TRUE: frozenset[frozenset[int]] = frozenset()
CNF_FALSE: frozenset[frozenset[int]] = frozenset({frozenset()})


def canon_key(s) -> tuple[int, tuple[int, ...]]:
    """The canonical order of state sets: by size, then by sorted members."""
    return (len(s), tuple(sorted(s)))


def minimal_sets(sets) -> tuple[frozenset[int], ...]:
    """The inclusion-minimal members of a collection of frozensets, without
    duplicates, in canonical order."""
    kept: list[frozenset[int]] = []
    for s in sorted(set(sets), key=canon_key):
        if not any(k <= s for k in kept):
            kept.append(s)
    return tuple(kept)


def cnf_subsume(clauses) -> frozenset[frozenset[int]]:
    return frozenset(minimal_sets(clauses))


def cnf_and(*parts) -> frozenset[frozenset[int]]:
    merged: set[frozenset[int]] = set()
    for p in parts:
        merged |= p
    return cnf_subsume(merged)


def cnf_or(a, b) -> frozenset[frozenset[int]]:
    return cnf_subsume({c1 | c2 for c1 in a for c2 in b})


@dataclass(frozen=True)
class Pcnf:
    """Positive CNF over state ids: non-empty clause list, no empty clause."""

    clauses: tuple[frozenset[int], ...]

    @staticmethod
    def make(clauses) -> "Pcnf":
        canon = minimal_sets(clauses)
        if not canon or frozenset() in canon:
            raise ValueError("PCNF cannot express true or false")
        return Pcnf(canon)

    def states(self) -> frozenset[int]:
        out: set[int] = set()
        for c in self.clauses:
            out |= c
        return frozenset(out)


def finalize_pcnf(cnf, top: int, bottom: int) -> Pcnf:
    """Map the clause-set constants onto the designated sink states."""
    if not cnf:
        return Pcnf.make([frozenset({top})])
    if frozenset() in cnf:
        return Pcnf.make([frozenset({bottom})])
    return Pcnf.make(cnf)


@dataclass(frozen=True, eq=False)
class Awa:
    """Weak alternating Buchi automaton.

    ``delta`` is total over states x letters; ``rank`` witnesses weakness
    (ranks never increase along transitions and rank-equal states agree on
    acceptance); ``top``/``bottom`` are the accepting/rejecting sinks used
    for constant transition formulas.  ``winning_state_positions`` solves
    its game one rank group at a time and is only correct when ``rank``
    meets this invariant, which ``validate`` checks.
    """

    alphabet: Alphabet
    n_states: int
    initial: int
    delta: dict[tuple[int, frozenset[str]], Pcnf]
    accepting: frozenset[int]
    rank: tuple[int, ...]
    top: int
    bottom: int
    state_names: tuple[str, ...]

    def validate(self) -> None:
        if self.top not in self.accepting or self.bottom in self.accepting:
            raise AssertionError("top must be accepting and bottom rejecting")
        for q in range(self.n_states):
            for x in self.alphabet.letters:
                for q2 in self.delta[(q, x)].states():
                    if self.rank[q2] > self.rank[q]:
                        raise AssertionError(f"rank increases along {q} -> {q2}")
        by_rank: dict[int, set[bool]] = {}
        for q in range(self.n_states):
            by_rank.setdefault(self.rank[q], set()).add(q in self.accepting)
        for r, flags in by_rank.items():
            if len(flags) > 1:
                raise AssertionError(f"rank {r} mixes accepting and rejecting states")


def _edge_lists(n_states, alphabet, delta) -> list[list[int]]:
    succ: list[list[int]] = [[] for _ in range(n_states)]
    for q in range(n_states):
        seen: set[int] = set()
        for x in alphabet.letters:
            seen |= delta[(q, x)].states()
        succ[q] = sorted(seen)
    return succ


def _scc_ranks(n_states, succ, accepting) -> list[int]:
    """Distinct rank per SCC, increasing against edge direction; homogeneity
    of each SCC is checked and violations reported via NotWeak."""
    rank = [0] * n_states
    for k, comp in enumerate(tarjan_sccs(range(n_states), succ.__getitem__)):
        flags = {q in accepting for q in comp}
        if len(flags) > 1:
            raise NotWeak(comp)
        for q in comp:
            rank[q] = k
    return rank


def from_ltl(f: Formula, alphabet: Alphabet) -> Awa:
    """Closure construction: one state per subformula, LTL expansion laws as
    transition formulas, constants routed through the sink states."""
    subs = subformulas(f)
    for g in subs:
        if g.kind == "implies":
            raise NotNnf("implication must be eliminated before construction")
        if g.kind == NOT and g.args[0].kind != ATOM:
            raise NotNnf("negation below non-atom; convert to NNF first")
    ids = {g: i for i, g in enumerate(subs)}
    n = len(subs)
    top, bottom = n, n + 1
    names = tuple(render(g) for g in subs) + ("TOP", "BOT")

    def exp(g: Formula, x: frozenset[str]):
        k = g.kind
        if k == ATOM:
            return CNF_TRUE if g.name in x else CNF_FALSE
        if k == NOT:
            return CNF_FALSE if g.args[0].name in x else CNF_TRUE
        if k == TRUE:
            return CNF_TRUE
        if k == FALSE:
            return CNF_FALSE
        if k == AND:
            return cnf_and(exp(g.args[0], x), exp(g.args[1], x))
        if k == OR:
            return cnf_or(exp(g.args[0], x), exp(g.args[1], x))
        if k == NEXT:
            return frozenset({frozenset({ids[g.args[0]]})})
        own = frozenset({frozenset({ids[g]})})
        if k == UNTIL:
            return cnf_or(exp(g.args[1], x), cnf_and(exp(g.args[0], x), own))
        if k == RELEASE:
            return cnf_and(exp(g.args[1], x), cnf_or(exp(g.args[0], x), own))
        if k == FINALLY:
            return cnf_or(exp(g.args[0], x), own)
        if k == GLOBALLY:
            return cnf_and(exp(g.args[0], x), own)
        raise ValueError(f"unexpected node kind {k!r}")

    delta: dict[tuple[int, frozenset[str]], Pcnf] = {}
    for g in subs:
        q = ids[g]
        for x in alphabet.letters:
            delta[(q, x)] = finalize_pcnf(exp(g, x), top, bottom)
    for x in alphabet.letters:
        delta[(top, x)] = Pcnf.make([frozenset({top})])
        delta[(bottom, x)] = Pcnf.make([frozenset({bottom})])

    accepting = frozenset(
        {ids[g] for g in subs if g.kind not in (UNTIL, FINALLY)} | {top})
    n_states = n + 2
    succ = _edge_lists(n_states, alphabet, delta)
    rank = tuple(_scc_ranks(n_states, succ, accepting))
    return Awa(alphabet, n_states, ids[f], delta, accepting, rank, top, bottom, names)


def _dual_pcnf(p: Pcnf) -> Pcnf:
    # swap and/or: fold the clauses as unit-clause conjunctions through OR
    acc = CNF_FALSE
    for clause in p.clauses:
        unit = frozenset({frozenset({q}) for q in clause})
        acc = cnf_or(acc, unit)
    return Pcnf.make(acc)


def dualize(a: Awa) -> Awa:
    """Complement: swap and/or in every transition formula, complement the
    accepting set, and swap the roles of the sinks."""
    delta = {key: _dual_pcnf(p) for key, p in a.delta.items()}
    accepting = frozenset(set(range(a.n_states)) - set(a.accepting))
    return Awa(a.alphabet, a.n_states, a.initial, delta, accepting, a.rank,
               a.bottom, a.top, a.state_names)


# --- word-checking game on lassos ------------------------------------------


def winning_state_positions(a: Awa, w: LassoWord) -> list[int]:
    """Solve the word-checking game on states x lasso positions.

    Returns one bit row per state: bit i is set when the acceptor wins from
    the state at lasso position i.  The rejector picks a clause of the
    transition formula, the acceptor a state inside it.  ``pre`` is the X
    shift of the lasso as a one-lasso ``Lassos`` suite.  Rank
    groups are solved in increasing order (sinks first), against the
    transitions: successors of a lower rank are already final.  A play that
    stays in one group forever is won exactly when the group is accepting,
    so an accepting group is a greatest fixpoint (from all ones) and a
    rejecting group a least fixpoint (from zero).
    """
    lassos = Lassos.of([w])
    full = lassos.full
    masks = lassos.rows
    groups: dict[int, list[int]] = {}
    for q in range(a.n_states):
        groups.setdefault(a.rank[q], []).append(q)

    win = [0] * a.n_states
    pre = [0] * a.n_states  # pre[q] bit i: q wins at the successor of i
    for r in sorted(groups):
        group = groups[r]
        start = full if group[0] in a.accepting else 0
        moves = []
        for q in group:
            win[q] = pre[q] = start
            moves.append((q, [(m, a.delta[(q, x)].clauses) for x, m in masks.items()]))
        changed = True
        while changed:
            changed = False
            for q, by_letter in moves:
                row = 0
                for m, clauses in by_letter:
                    for clause in clauses:
                        hit = 0
                        for q2 in clause:
                            hit |= pre[q2]
                        m &= hit
                        if not m:
                            break
                    row |= m
                if row != win[q]:
                    win[q] = row
                    pre[q] = lassos.next(row)
                    changed = True
    return win


def accepts_lasso(a: Awa, w: LassoWord, start: int | None = None) -> bool:
    """True iff the acceptor wins the word-checking game on the lasso."""
    q0 = a.initial if start is None else start
    return bool(winning_state_positions(a, w)[q0] & 1)


# --- DOT export -------------------------------------------------------------


def awa_to_dot(a: Awa) -> str:
    lines = ["digraph awa {", "  rankdir=LR;"]
    for q in range(a.n_states):
        shape = "doublecircle" if q in a.accepting else "circle"
        label = a.state_names[q].replace('"', "'")
        lines.append(f'  q{q} [shape={shape} label="{label}"];')
    lines.append(f"  init [shape=point]; init -> q{a.initial};")
    aux = 0
    for q in range(a.n_states):
        for x in a.alphabet.letters:
            p = a.delta[(q, x)]
            lab = letter_text(x).replace('"', "'")
            if len(p.clauses) == 1 and len(p.clauses[0]) == 1:
                (dst,) = p.clauses[0]
                lines.append(f'  q{q} -> q{dst} [label="{lab}"];')
                continue
            if len(p.clauses) == 1:
                srcs = [f"q{q}"]
            else:
                cnode = f"c{aux}"
                aux += 1
                lines.append(f'  {cnode} [shape=box label="&" width=0.15 height=0.15];')
                lines.append(f'  q{q} -> {cnode} [label="{lab}"];')
                srcs = []
                for clause in p.clauses:
                    if len(clause) == 1:
                        (dst,) = clause
                        lines.append(f"  {cnode} -> q{dst};")
                    else:
                        dnode = f"d{aux}"
                        aux += 1
                        lines.append(f'  {dnode} [shape=diamond label="" width=0.15 height=0.15];')
                        lines.append(f"  {cnode} -> {dnode};")
                        for dst in sorted(clause):
                            lines.append(f"  {dnode} -> q{dst};")
                continue
            # single non-unit clause
            dnode = f"d{aux}"
            aux += 1
            lines.append(f'  {dnode} [shape=diamond label="" width=0.15 height=0.15];')
            lines.append(f'  {srcs[0]} -> {dnode} [label="{lab}"];')
            for dst in sorted(p.clauses[0]):
                lines.append(f"  {dnode} -> q{dst};")
    lines.append("}")
    return "\n".join(lines) + "\n"
