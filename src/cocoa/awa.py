"""Weak alternating Buchi automata with positive CNF transition formulas.

Covers construction from LTL (one state per subformula, expansion laws),
dualization (complement), weakness checking, and acceptance of lassos by
the word-checking game.  Weakness lets the game be solved one rank group at
a time, sinks first (Muller, Saoudi and Schupp, 1986): an accepting group is
a greatest fixpoint and a rejecting group a least fixpoint, iterated on bit
rows with one bit per lasso position.  Emptiness is decided on the
breakpoint graph (``obligation.BreakpointGraph``).
"""

from __future__ import annotations

import functools
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


# --- state sets and CNF utilities -------------------------------------------
#
# A set of states is an int mask with one bit per state, so a subset test is
# ``k & s == k``.  A CNF is a tuple of clause masks read as a conjunction of
# disjunctions; the empty tuple is TRUE and (0,) is FALSE.  ``cnf_and`` and
# ``cnf_or`` keep only the minimal clauses, which also normalizes the
# constants.  A transition formula is a CNF in canonical order
# (``minimal_sets``) that is neither constant nor holds the empty clause.

CNF_TRUE: tuple[int, ...] = ()
CNF_FALSE: tuple[int, ...] = (0,)


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


def canon_key(m: int) -> tuple[int, str]:
    """The canonical order of state masks: by size, then by sorted members."""
    return (m.bit_count(), member_order(m))


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


def minimal_sets(masks) -> tuple[int, ...]:
    """The inclusion-minimal members of a collection of masks, without
    duplicates, in canonical order."""
    return tuple(sorted(minimal_masks(masks), key=canon_key))


def cnf_and(*parts) -> tuple[int, ...]:
    return minimal_masks(c for p in parts for c in p)


def cnf_or(a, b) -> tuple[int, ...]:
    return minimal_masks(c1 | c2 for c1 in a for c2 in b)


def finalize_pcnf(cnf, top: int, bottom: int) -> tuple[int, ...]:
    """Map the CNF constants onto the designated sink states."""
    if not cnf:
        return (1 << top,)
    if 0 in cnf:
        return (1 << bottom,)
    return minimal_sets(cnf)


@dataclass(frozen=True, eq=False)
class Awa:
    """Weak alternating Buchi automaton.

    ``delta[q][i]`` is the transition formula of state q on letter number i
    of the alphabet: a CNF of clause masks in canonical order, never
    constant.  ``rank`` witnesses weakness (ranks never increase along
    transitions and rank-equal states agree on acceptance); ``top``/
    ``bottom`` are the accepting/rejecting sinks that stand for the
    constant formulas.  ``winning_state_positions`` solves its game one
    rank group at a time and is only correct when ``rank`` meets this
    invariant, which ``validate`` checks.
    """

    alphabet: Alphabet
    n_states: int
    initial: int
    delta: tuple[tuple[tuple[int, ...], ...], ...]
    accepting: frozenset[int]
    rank: tuple[int, ...]
    top: int
    bottom: int
    state_names: tuple[str, ...]

    def validate(self) -> None:
        n, k = self.n_states, len(self.alphabet.letters)
        if len(self.delta) != n or any(len(row) != k for row in self.delta):
            raise AssertionError(f"delta needs {n} rows of {k} formulas, one per letter")
        if not all(0 <= q < n for q in (self.initial, self.top, self.bottom)):
            raise AssertionError(f"initial, top and bottom must be states below {n}")
        if len(self.rank) != n:
            raise AssertionError(f"{len(self.rank)} ranks for {n} states")
        if any(c >> n for row in self.delta for p in row for c in p):
            raise AssertionError(f"a clause names a state beyond the {n} states")
        if self.top not in self.accepting or self.bottom in self.accepting:
            raise AssertionError("top must be accepting and bottom rejecting")
        for q, row in enumerate(self.delta):
            if any(not p or 0 in p for p in row):
                raise AssertionError(f"state {q} has a constant transition formula")
            if any(p != minimal_sets(p) for p in row):
                raise AssertionError(f"state {q} has a transition formula out of canonical form")
        for q, succ in enumerate(_edge_lists(self.delta)):
            for q2 in succ:
                if self.rank[q2] > self.rank[q]:
                    raise AssertionError(f"rank increases along {q} -> {q2}")
        by_rank: dict[int, set[bool]] = {}
        for q in range(self.n_states):
            by_rank.setdefault(self.rank[q], set()).add(q in self.accepting)
        for r, flags in by_rank.items():
            if len(flags) > 1:
                raise AssertionError(f"rank {r} mixes accepting and rejecting states")

    @functools.cached_property
    def dual(self) -> "Awa":
        """The complement automaton, built once; ``a.dual.dual is a``."""
        return dualize(self)


def _edge_lists(delta) -> list[list[int]]:
    succ: list[list[int]] = []
    for row in delta:
        seen = 0
        for p in row:
            for c in p:
                seen |= c
        succ.append(list(mask_states(seen)))
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
            return (1 << ids[g.args[0]],)
        own = (1 << ids[g],)
        if k == UNTIL:
            return cnf_or(exp(g.args[1], x), cnf_and(exp(g.args[0], x), own))
        if k == RELEASE:
            return cnf_and(exp(g.args[1], x), cnf_or(exp(g.args[0], x), own))
        if k == FINALLY:
            return cnf_or(exp(g.args[0], x), own)
        if k == GLOBALLY:
            return cnf_and(exp(g.args[0], x), own)
        raise ValueError(f"unexpected node kind {k!r}")

    delta = tuple(tuple(finalize_pcnf(exp(g, x), top, bottom) for x in alphabet.letters)
                  for g in subs)
    delta += (((1 << top,),) * len(alphabet.letters),
              ((1 << bottom,),) * len(alphabet.letters))

    accepting = frozenset(
        {ids[g] for g in subs if g.kind not in (UNTIL, FINALLY)} | {top})
    rank = tuple(_scc_ranks(n + 2, _edge_lists(delta), accepting))
    return Awa(alphabet, n + 2, ids[f], delta, accepting, rank, top, bottom, names)


def dualize(a: Awa) -> Awa:
    """Complement: swap and/or in every transition formula, complement the
    accepting set, and swap the roles of the sinks.

    Read as a DNF, the clauses of a positive CNF have as CNF their minimal
    hitting sets: the swapped formula in canonical order, and the minimal
    models the breakpoint kernels read.  A canonical CNF H is an antichain,
    so Tr(Tr(H)) = H (Eiter and Gottlob, 1995): the result's ``dual`` is ``a``.
    """
    # looked up at call time, where the benchmark tracer hooks it
    from .obligation import minimal_models

    delta = tuple(tuple(minimal_models(p) for p in row) for row in a.delta)
    accepting = frozenset(set(range(a.n_states)) - set(a.accepting))
    d = Awa(a.alphabet, a.n_states, a.initial, delta, accepting, a.rank,
            a.bottom, a.top, a.state_names)
    d.__dict__["dual"] = a
    return d


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

    The lasso's letter numbers must be the automaton's: raises ValueError
    when the two alphabets list their letters differently.
    """
    if w.alphabet.letters != a.alphabet.letters:
        raise ValueError("the lasso and the automaton number their letters differently")
    lassos = Lassos.of([w])
    full = lassos.full
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
            moves.append((q, [(m, [mask_states(c) for c in p])
                              for p, m in zip(a.delta[q], lassos.rows) if m]))
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
        for x, p in zip(a.alphabet.letters, a.delta[q]):
            lab = letter_text(x).replace('"', "'")
            if len(p) == 1 and p[0].bit_count() == 1:
                lines.append(f'  q{q} -> q{p[0].bit_length() - 1} [label="{lab}"];')
                continue
            if len(p) == 1:
                # single non-unit clause
                dnode = f"d{aux}"
                aux += 1
                lines.append(f'  {dnode} [shape=diamond label="" width=0.15 height=0.15];')
                lines.append(f'  q{q} -> {dnode} [label="{lab}"];')
                for dst in mask_states(p[0]):
                    lines.append(f"  {dnode} -> q{dst};")
                continue
            cnode = f"c{aux}"
            aux += 1
            lines.append(f'  {cnode} [shape=box label="&" width=0.15 height=0.15];')
            lines.append(f'  q{q} -> {cnode} [label="{lab}"];')
            for clause in p:
                if clause.bit_count() == 1:
                    lines.append(f"  {cnode} -> q{clause.bit_length() - 1};")
                else:
                    dnode = f"d{aux}"
                    aux += 1
                    lines.append(f'  {dnode} [shape=diamond label="" width=0.15 height=0.15];')
                    lines.append(f"  {cnode} -> {dnode};")
                    for dst in mask_states(clause):
                        lines.append(f"  {dnode} -> q{dst};")
    lines.append("}")
    return "\n".join(lines) + "\n"
