"""Weak alternating Buchi automata with positive CNF transition formulas.

Covers construction from LTL (one state per subformula, expansion laws),
dualization (complement), weakness checking, and acceptance of lassos by
the word-checking game.  Weakness lets the game be solved one strongly
connected component at a time, sinks first (Muller, Saoudi and Schupp,
1986): an accepting component is a greatest fixpoint and a rejecting one a
least fixpoint, iterated on bit rows with one bit per lasso position.
Emptiness is decided on the breakpoint graph (``obligation.BreakpointGraph``).
"""

from __future__ import annotations

import functools
import weakref

from ._graph import tarjan_sccs
from .formula import (
    AND, ATOM, FALSE, FINALLY, GLOBALLY, IMPLIES, NEXT, NOT, OR, RELEASE, TRUE,
    UNTIL, Alphabet, Formula, Lassos, letter_text, program_texts,
)


class NotNnf(Exception):
    pass


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
    distinct = set(masks)
    if len(distinct) < 2:
        return tuple(distinct)
    kept: list[int] = []
    for m in sorted(distinct, key=int.bit_count):
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
    if len(a) == 1 and len(b) == 1:
        return (a[0] | b[0],)
    return minimal_masks(c1 | c2 for c1 in a for c2 in b)


def finalize_pcnf(cnf, top: int, bottom: int) -> tuple[int, ...]:
    """Map the CNF constants onto the designated sink states."""
    if not cnf:
        return (1 << top,)
    if 0 in cnf:
        return (1 << bottom,)
    return minimal_sets(cnf)


class Awa:
    """Weak alternating Buchi automaton.

    ``delta[q][i]`` is the transition formula of state q on letter number i
    of the alphabet: a CNF of clause masks in canonical order, never
    constant; the states are the rows.  ``top``/``bottom`` are the
    accepting/rejecting sinks that stand for the constant formulas.  The
    automaton is weak when no strongly connected component (``components``)
    mixes accepting and rejecting states, which ``validate`` checks and
    ``winning_state_positions`` relies on.
    """

    def __init__(self, alphabet: Alphabet, initial: int,
                 delta: tuple[tuple[tuple[int, ...], ...], ...], accepting: frozenset[int],
                 top: int, bottom: int, state_names: tuple[str, ...]):
        self.alphabet = alphabet
        self.initial = initial
        self.delta = delta
        self.accepting = accepting
        self.top = top
        self.bottom = bottom
        self.state_names = state_names
        # the dual, or for a dual a weak reference to its automaton
        self._dual: Awa | weakref.ref | None = None

    @property
    def n_states(self) -> int:
        return len(self.delta)

    def validate(self) -> None:
        n, k = self.n_states, len(self.alphabet.letters)
        if any(len(row) != k for row in self.delta):
            raise AssertionError(f"delta needs {n} rows of {k} formulas, one per letter")
        if not all(0 <= q < n for q in (self.initial, self.top, self.bottom)):
            raise AssertionError(f"initial, top and bottom must be states below {n}")
        if not all(0 <= q < n for q in self.accepting):
            raise AssertionError(f"accepting states must be states below {n}")
        if len(self.state_names) != n:
            raise AssertionError(f"{len(self.state_names)} state names for {n} states")
        if any(c >> n for row in self.delta for p in row for c in p):
            raise AssertionError(f"a clause names a state beyond the {n} states")
        if self.top not in self.accepting or self.bottom in self.accepting:
            raise AssertionError("top must be accepting and bottom rejecting")
        for s in (self.top, self.bottom):
            if any(p != (1 << s,) for p in self.delta[s]):
                raise AssertionError(f"sink {s} must move to itself on every letter")
        for q, row in enumerate(self.delta):
            if any(not p or 0 in p for p in row):
                raise AssertionError(f"state {q} has a constant transition formula")
            if any(p != minimal_sets(p) for p in set(row)):
                raise AssertionError(f"state {q} has a transition formula out of canonical form")
        for comp in self.components:
            if len({q in self.accepting for q in comp}) > 1:
                raise AssertionError(f"component {list(comp)} mixes accepting and rejecting states")

    @functools.cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """The strongly connected components of the state graph, each after
        every component it reaches (sinks first), members sorted."""
        succ = _edge_lists(self.delta)
        return tuple(tuple(c) for c in tarjan_sccs(range(self.n_states), succ.__getitem__))

    @functools.cached_property
    def clause_members(self) -> tuple[tuple[tuple[tuple[int, ...], ...], ...], ...]:
        """``clause_members[q][i]``: the members of each clause of
        ``delta[q][i]``, one tuple per clause, shared by equal formulas;
        the game solver's table."""
        members = {p: tuple(map(mask_states, p)) for p in {p for row in self.delta for p in row}}
        return tuple(tuple(members[p] for p in row) for row in self.delta)

    @property
    def dual(self) -> Awa:
        """The complement automaton, built once; ``a.dual.dual is a`` while
        ``a`` lives.  A dual holds its automaton by a weak reference, so
        the two form no reference cycle."""
        d = self._dual() if isinstance(self._dual, weakref.ref) else self._dual
        if d is None:
            d = self._dual = dualize(self)
        return d


def _edge_lists(delta) -> list[list[int]]:
    succ: list[list[int]] = []
    for row in delta:
        seen = 0
        for p in row:
            for c in p:
                seen |= c
        succ.append(list(mask_states(seen)))
    return succ


def from_ltl(f: Formula, alphabet: Alphabet) -> Awa:
    """Closure construction: one state per subformula, LTL expansion laws as
    transition formulas, constants routed through the sink states.  State q
    is entry q of ``f.program``, so the formula itself is the last before
    the sinks."""
    program = f.program
    letters = alphabet.letters
    n = len(program)
    top, bottom = n, n + 1
    names = tuple(program_texts(program)) + ("TOP", "BOT")
    # exps[q][i]: the expansion of entry q on letter number i, a CNF read
    # by q's parents; the children come before q
    exps: list[list[tuple[int, ...]]] = []
    for q, (k, kids, name) in enumerate(program):
        args = [exps[c] for c in kids]
        own = (1 << q,)
        if k == ATOM:
            row = [CNF_TRUE if name in x else CNF_FALSE for x in letters]
        elif k == NOT:
            if program[kids[0]][0] != ATOM:
                raise NotNnf("negation below non-atom; convert to NNF first")
            row = [CNF_FALSE if c == CNF_TRUE else CNF_TRUE for c in args[0]]
        elif k == IMPLIES:
            raise NotNnf("implication must be eliminated before construction")
        elif k in (TRUE, FALSE):
            row = [CNF_TRUE if k == TRUE else CNF_FALSE] * len(letters)
        elif k == AND:
            row = list(map(cnf_and, *args))
        elif k == OR:
            row = list(map(cnf_or, *args))
        elif k == NEXT:
            row = [(1 << kids[0],)] * len(letters)
        elif k == UNTIL:
            row = [cnf_or(y, cnf_and(x, own)) for x, y in zip(*args)]
        elif k == RELEASE:
            row = [cnf_and(y, cnf_or(x, own)) for x, y in zip(*args)]
        elif k == FINALLY:
            row = [cnf_or(x, own) for x in args[0]]
        elif k == GLOBALLY:
            row = [cnf_and(x, own) for x in args[0]]
        else:
            raise ValueError(f"unexpected node kind {k!r}")
        exps.append(row)

    delta = tuple(tuple(finalize_pcnf(p, top, bottom) for p in row) for row in exps)
    delta += (((1 << top,),) * len(letters), ((1 << bottom,),) * len(letters))

    accepting = frozenset(
        {q for q, (k, _kids, _name) in enumerate(program) if k not in (UNTIL, FINALLY)} | {top})
    return Awa(alphabet, n - 1, delta, accepting, top, bottom, names)


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

    # many letters and states share a formula: one call per distinct one
    models = {p: minimal_models(p) for p in {p for row in a.delta for p in row}}
    delta = tuple(tuple(models[p] for p in row) for row in a.delta)
    accepting = frozenset(set(range(a.n_states)) - set(a.accepting))
    d = Awa(a.alphabet, a.initial, delta, accepting, a.bottom, a.top, a.state_names)
    d._dual = weakref.ref(a)
    return d


# --- word-checking game on lassos ------------------------------------------


def winning_state_positions(a: Awa, lassos: Lassos) -> list[int]:
    """Solve the word-checking game on states x the bits of a packed lasso
    suite.

    Returns one bit row per state: bit p is set when the acceptor wins
    from the state at the word of bit p, so the start bits of a row are the
    suite's lassos in the state's language.  One lasso is the suite
    ``Lassos.of([w])``, its positions its bits.  The rejector picks a
    clause of the transition formula, the acceptor a state inside it.
    ``pre`` is the X shift of the rows (``Lassos.next``).  The components
    are solved in ``Awa.components`` order (sinks first), against the
    transitions: successors outside a component are already final.  A play
    that stays in one component forever is won exactly when the component
    is accepting, so an accepting component is a greatest fixpoint (from
    all ones) and a rejecting one a least fixpoint (from zero).  Every bit
    of a suite is a word whose suffix is another bit, so every bit is
    decided exactly.

    The suite's letter numbers must be the automaton's: raises ValueError
    when the two alphabets list their letters differently.
    """
    if lassos.alphabet.letters != a.alphabet.letters:
        raise ValueError("the lassos and the automaton number their letters differently")
    full = lassos.full
    win = [0] * a.n_states
    pre = [0] * a.n_states  # pre[q] bit p: q wins at the suffix of p
    for comp in a.components:
        start = full if comp[0] in a.accepting else 0
        moves = []
        for q in comp:
            win[q] = pre[q] = start
            moves.append((q, [(m, clauses)
                              for clauses, m in zip(a.clause_members[q], lassos.rows) if m]))
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
