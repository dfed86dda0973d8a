"""Shared fixtures: the worked-example automaton, random formula corpus,
the lasso position helpers, the test-only lasso membership checks of an
AWA, a label, an NFW and an HD-NCW, the reference lasso evaluator, the
per-lasso reference verifier, the reference game solver, the reference
lasso enumeration, the string packer and the forward DFW acceptance that
``Lassos.of`` and ``dfw_accepts_lassos`` replaced, the frozenset references
for subsumption, dualization and the breakpoint kernel, the eager
reference emptiness check, and the two-pass reference for accepted
lassos."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import strategies as st

from cocoa import (
    Alphabet, Formula, LassoWord, Lassos, always, atom, conj, disj,
    enumerate_lassos, eventually, neg, nxt, release, until,
)
from cocoa.formula import (
    AND, ATOM, FALSE, FINALLY, GLOBALLY, IMPLIES, NEXT, NOT, OR, RELEASE, TRUE,
    UNTIL,
)
from cocoa._graph import cyclic_sccs, lasso_letters, tarjan_sccs
from cocoa.awa import (
    Awa, _edge_lists, _scc_ranks, mask_states, minimal_sets, state_mask,
    winning_state_positions,
)
from cocoa.chain import Cocoa, HdNcw, VerifyReport
from cocoa.floating import Dfw, Nfw, det_edges, reach_back_rows, survival_rows
from cocoa.obligation import BreakpointGraph, ObligationGraph, miyano_hayashi
from cocoa.sltm import Label, Sltm, _holds, _initial_winners


def random_nnf(rng: random.Random, size: int, aps):
    """Random formula in negation normal form with at most `size` nodes."""
    if size <= 1:
        name = rng.choice(aps)
        return atom(name) if rng.random() < 0.5 else neg(atom(name))
    kind = rng.choice(["X", "F", "G", "U", "R", "&", "|"])
    if kind in "XFG":
        child = random_nnf(rng, size - 1, aps)
        return {"X": nxt, "F": eventually, "G": always}[kind](child)
    left_size = rng.randint(1, size - 2) if size > 2 else 1
    left = random_nnf(rng, left_size, aps)
    right = random_nnf(rng, size - 1 - left_size, aps)
    return {"U": until, "R": release, "&": conj, "|": disj}[kind](left, right)


def formula_corpus(count: int, seed: int = 20240601, max_size: int = 6):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        aps = ["a", "b"][: rng.choice([1, 2])]
        out.append((random_nnf(rng, rng.randint(2, max_size), aps), aps))
    return out


def build_fig1() -> Awa:
    """The two-branch weak alternating automaton for FG a or GF b: a
    nondeterministic chain checking FG a on the left, a universal spawner
    checking GF b on the right."""
    alphabet = Alphabet.from_aps(["a", "b"])
    I0, F0, F1, F2, G0, G1, G2, TOP, BOT = range(9)

    def c(*clauses):
        return minimal_sets(state_mask(cl) for cl in clauses)

    def row(formula):
        # one transition formula per letter, from whether a and b hold
        return tuple(formula("a" in x, "b" in x) for x in alphabet.letters)

    delta = (
        row(lambda a, b: c({F0, G0})),                    # I0
        row(lambda a, b: c({F0, F1})),                    # F0
        row(lambda a, b: c({F1, F2}) if a else c({F2})),  # F1
        row(lambda a, b: c({F2})),                        # F2
        row(lambda a, b: c({G0}, {G1})),                  # G0
        row(lambda a, b: c({G2}) if b else c({G1})),      # G1
        row(lambda a, b: c({G2})),                        # G2
        row(lambda a, b: c({TOP})),                       # TOP
        row(lambda a, b: c({BOT})),                       # BOT
    )
    accepting = frozenset({F1, G0, G2, TOP})
    succ = _edge_lists(delta)
    rank = tuple(_scc_ranks(9, succ, accepting))
    names = ("i0", "f0", "f1", "f2", "g0", "g1", "g2", "TOP", "BOT")
    a = Awa(alphabet, 9, I0, delta, accepting, rank, TOP, BOT, names)
    a.validate()  # no constant formula
    return a


@pytest.fixture(scope="session")
def fig1() -> Awa:
    return build_fig1()


@pytest.fixture(scope="session")
def ab_alphabet() -> Alphabet:
    return Alphabet.from_aps(["a", "b"])


@pytest.fixture(scope="session")
def a_alphabet() -> Alphabet:
    return Alphabet.from_aps(["a"])


AB = Alphabet.from_aps(["a", "b"])
_ab_letters = st.sampled_from(AB.letters)
# random lassos over {a, b} for the hypothesis properties
ab_lassos = st.builds(
    lambda u, v: LassoWord(AB, tuple(u), tuple(v)),
    st.lists(_ab_letters, max_size=4), st.lists(_ab_letters, min_size=1, max_size=5))


def letters(w: LassoWord) -> tuple[frozenset[str], ...]:
    """The letter at each of the |u|+|v| distinct positions of a lasso."""
    return w.prefix + w.period


def cut(w: LassoWord) -> int:
    """The position the last position of a lasso steps back to."""
    return len(w.prefix)


def n_positions(w: LassoWord) -> int:
    return len(w.prefix) + len(w.period)


def next_positions(w: LassoWord) -> tuple[int, ...]:
    """The successor of each position, the last one looping back to the cut."""
    return tuple(range(1, n_positions(w))) + (cut(w),)


def letter_at(w: LassoWord, i: int) -> frozenset[str]:
    """The letter at any position of the unrolled lasso."""
    if i < cut(w):
        return w.prefix[i]
    return w.period[(i - cut(w)) % len(w.period)]


def next_pos(w: LassoWord, i: int) -> int:
    return i + 1 if i + 1 < n_positions(w) else cut(w)


def lassos_up_to(alphabet: Alphabet, prefix_bound=2, period_bound=3):
    return enumerate_lassos(alphabet, prefix_bound, period_bound)


def canonical_lasso(prefix, period) -> tuple[tuple, tuple]:
    """Normal form of u.v^omega: primitive period, rolled back into the prefix."""
    period = tuple(period)
    k = len(period)
    for d in range(1, k + 1):
        if k % d == 0 and period == period[:d] * (k // d):
            period = period[:d]
            break
    prefix = list(prefix)
    while prefix and prefix[-1] == period[-1]:
        prefix.pop()
        period = (period[-1],) + period[:-1]
    return tuple(prefix), tuple(period)


def reference_enumerate_lassos(alphabet: Alphabet, prefix_bound: int, period_bound: int):
    """Every (u, v) within the bounds folded to its normal form, first
    occurrence kept: the reference for ``enumerate_lassos``."""
    seen = set()
    out = []
    for plen in range(prefix_bound + 1):
        for pref in itertools.product(alphabet.letters, repeat=plen):
            for vlen in range(1, period_bound + 1):
                for per in itertools.product(alphabet.letters, repeat=vlen):
                    c = canonical_lasso(pref, per)
                    if c not in seen:
                        seen.add(c)
                        out.append(LassoWord(alphabet, c[0], c[1]))
    return out


def prefixes_up_to(alphabet: Alphabet, max_len: int):
    for n in range(max_len + 1):
        yield from itertools.product(alphabet.letters, repeat=n)


def prepend(w: LassoWord, prefix) -> LassoWord:
    return LassoWord(w.alphabet, tuple(prefix) + w.prefix, w.period)


def sltm_state_after(m: Sltm, word) -> int:
    state = m.initial
    for x in word:
        state = m.delta[state][m.alphabet.number[x]]
    return state


def accepts_lasso(a: Awa, w: LassoWord, start: int | None = None) -> bool:
    """True iff the acceptor wins the word-checking game on the lasso."""
    q0 = a.initial if start is None else start
    return bool(winning_state_positions(a, w)[q0] & 1)


def label_accepts_lasso(label: Label, a: Awa, w: LassoWord) -> bool:
    """Membership of a lasso in the label's language."""
    return _holds(label, _initial_winners(a, w))


def ncw_accepts_lasso(c: HdNcw, w: LassoWord) -> bool:
    """Co-Buchi lasso membership: a reachable product node from which the
    deterministic accepting sub-relation runs forever."""
    lassos = Lassos.of([w])
    rejecting = ((q, i, q2) for q, row in enumerate(c.rej)
                 for i, dsts in enumerate(row) for q2 in dsts)
    surv = survival_rows(det_edges(c.acc), lassos)
    reach = reach_back_rows(itertools.chain(rejecting, det_edges(c.acc)), lassos, surv)
    return bool(reach.get(c.initial, 0) & lassos.starts)


def nfw_accepts_lasso(n: Nfw, m: Sltm, w: LassoWord) -> bool:
    """Direct NFW lasso membership, used only as a determinization oracle.

    A node (state, lasso position) survives when some successor survives;
    the word is accepted when a jump-in hits a surviving node."""
    number = w.alphabet.number
    nodes = {(q, j) for q in range(n.n_states) for j in range(n_positions(w))}
    changed = True
    while changed:
        changed = False
        for (q, j) in sorted(nodes):
            nxt_j = next_pos(w, j)
            if not any((q2, nxt_j) in nodes for q2 in n.trans[q][number[letter_at(w, j)]]):
                nodes.discard((q, j))
                changed = True
    horizon = cut(w) + (m.n_states + 1) * len(w.period)
    s = m.initial
    for i in range(horizon):
        j = i if i < n_positions(w) else cut(w) + (i - cut(w)) % len(w.period)
        for q in range(n.n_states):
            if n.label[q] == s and (q, j) in nodes:
                return True
        s = m.delta[s][number[letter_at(w, j)]]
    return False


def reference_eval_lasso(f: Formula, w: LassoWord) -> bool:
    """Per-position LTL semantics on the lasso, the reference for
    ``eval_lasso``.

    Truth tables are computed per subformula over the |u|+|v| distinct
    positions and memoized by subformula; U/F are least fixpoints, R/G
    greatest fixpoints on the loop.
    """
    n = n_positions(w)
    nxt_pos = next_positions(w)
    at = letters(w)
    memo: dict[Formula, list[bool]] = {}

    def fix(init: bool, step) -> list[bool]:
        row = [init] * n
        changed = True
        while changed:
            changed = False
            for i in range(n - 1, -1, -1):
                v = step(i, row)
                if v != row[i]:
                    row[i] = v
                    changed = True
        return row

    def ev(g: Formula) -> list[bool]:
        got = memo.get(g)
        if got is not None:
            return got
        k = g.kind
        if k == ATOM:
            row = [g.name in at[i] for i in range(n)]
        elif k == TRUE:
            row = [True] * n
        elif k == FALSE:
            row = [False] * n
        elif k == NOT:
            a = ev(g.args[0])
            row = [not x for x in a]
        elif k == AND:
            a, b = ev(g.args[0]), ev(g.args[1])
            row = [x and y for x, y in zip(a, b)]
        elif k == OR:
            a, b = ev(g.args[0]), ev(g.args[1])
            row = [x or y for x, y in zip(a, b)]
        elif k == IMPLIES:
            a, b = ev(g.args[0]), ev(g.args[1])
            row = [(not x) or y for x, y in zip(a, b)]
        elif k == NEXT:
            a = ev(g.args[0])
            row = [a[nxt_pos[i]] for i in range(n)]
        elif k == UNTIL:
            a, b = ev(g.args[0]), ev(g.args[1])
            row = fix(False, lambda i, r: b[i] or (a[i] and r[nxt_pos[i]]))
        elif k == RELEASE:
            a, b = ev(g.args[0]), ev(g.args[1])
            row = fix(True, lambda i, r: b[i] and (a[i] or r[nxt_pos[i]]))
        elif k == FINALLY:
            a = ev(g.args[0])
            row = fix(False, lambda i, r: a[i] or r[nxt_pos[i]])
        elif k == GLOBALLY:
            a = ev(g.args[0])
            row = fix(True, lambda i, r: a[i] and r[nxt_pos[i]])
        else:
            raise ValueError(f"unknown node kind {k!r}")
        memo[g] = row
        return row

    return ev(f)[0]


def reference_run_survives(trans, w: LassoWord):
    """Deterministic-run survival on the lasso's positions, the reference
    for ``floating.survival_rows``.

    Returns ``survives(q, j)``: whether the partial deterministic transition
    function ``trans`` (``trans[q][i]`` a state or None, by the letter
    numbers of the lasso's alphabet) runs forever from state q at lasso
    position j.  A run either dies or repeats a (state, position) pair, and
    every pair it passes shares its verdict, which is memoized.
    """
    at = [w.alphabet.number[x] for x in letters(w)]
    nxt = next_positions(w)
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
            q = trans[q][at[j]]
            if q is None:
                val = False
                break
            j = nxt[j]
        if not val:
            for key in path:
                memo[key] = False
        return val

    return survives


def reference_dfw_accepts_lasso(d: Dfw, m: Sltm, w: LassoWord) -> bool:
    """Jump-in acceptance on one lasso, the reference for
    ``floating.dfw_accepts_lassos``: the (SLTM state, position) pairs along
    the word follow a deterministic walk, so walking them until the first
    repeat visits every moment's pair, and each jump-in runs the DFW."""
    if d.n_states == 0:
        return False
    survives = reference_run_survives(d.trans, w)
    at = [w.alphabet.number[x] for x in letters(w)]
    nxt = next_positions(w)
    seen: set[tuple[int, int]] = set()
    s, j = m.initial, 0
    while (s, j) not in seen:
        seen.add((s, j))
        for q in d.by_label.get(s, ()):
            if survives(q, j):
                return True
        s = m.delta[s][at[j]]
        j = nxt[j]
    return False


def reference_pack(words: list[LassoWord]) -> tuple:
    """The string packer that ``Lassos.of`` replaced, the reference for its
    fields: (full, rows, starts, inner, moves).  Each lasso's letters are
    spelled backwards as ``chr(i)`` for letter number i, and a row is read
    off with ``str.translate`` and ``int(..., 2)``."""
    number = words[0].alphabet.number
    n = len(words[0].alphabet.letters)

    def bits(backwards: str, size: int, k: int) -> int:
        return int(backwards.translate("0" * k + "1" + "0" * (size - k - 1)) or "0", 2)

    def spell(xs) -> str:
        return "".join(chr(number[x]) for x in xs)

    spelled = [(spell(w.prefix), spell(w.period)) for w in words]
    backwards = "".join(itertools.chain.from_iterable(spelled))[::-1]
    full = (1 << len(backwards)) - 1
    rows = tuple(bits(backwards, n, k) if chr(k) in backwards else 0 for k in range(n))
    periods = sorted({len(v) for _u, v in spelled})
    # chr(v) at the cut of a lasso whose period has length v, chr(0) elsewhere
    cuts = "".join("\0" * len(u) + chr(len(v)) + "\0" * (len(v) - 1) for u, v in spelled)[::-1]
    moves = tuple((bits(cuts, periods[-1] + 1, v), v - 1) for v in periods)
    last = 0
    for cut, shift in moves:
        last |= cut << shift
    return full, rows, ((last << 1) | 1) & full, full ^ last, moves


def reference_dfw_accepts_lassos(d: Dfw, m: Sltm, lassos: Lassos) -> int:
    """Jump-in acceptance the forward way, the reference for
    ``floating.dfw_accepts_lassos`` on suites packed by ``Lassos.of``.

    The positions at which the SLTM run from the start of each lasso is in
    each state are a least fixpoint from the start bits through the step
    to the next position; a lasso is accepted when F(reach & surv) holds at
    its start.  This needs every lasso on positions of its own: on a suite
    that shares suffixes, one bit would hold the runs of several lassos."""
    def step(row: int) -> int:
        out = (row & lassos.inner) << 1
        for cut, shift in lassos.moves:
            out |= (row & (cut << shift)) >> shift
        return out

    reach = {m.initial: lassos.starts}
    todo = [m.initial]
    while todo:
        s = todo.pop()
        for s2, letter in zip(m.delta[s], lassos.rows):
            if s2 is None:
                continue
            there = reach.get(s2, 0)
            grown = there | step(reach[s] & letter)
            if grown != there:
                reach[s2] = grown
                todo.append(s2)
    hit = 0
    for q, row in survival_rows(det_edges(d.trans), lassos).items():
        hit |= row & reach.get(d.label[q], 0)
    return lassos.until(lassos.full, hit) & lassos.starts


def reference_verify_chain(chain: Cocoa, f: Formula, prefix_bound: int,
                           period_bound: int) -> VerifyReport:
    """``verify_chain`` one lasso at a time, the reference for the packed
    verifier: the natural color from the per-lasso DFW acceptance, the
    oracle from ``reference_eval_lasso``."""
    report = VerifyReport(str(f), prefix_bound, period_bound)
    for w in reference_enumerate_lassos(chain.alphabet, prefix_bound, period_bound):
        report.lassos += 1
        accept_vector = [reference_dfw_accepts_lasso(d, chain.sltm, w) for d, _ in chain.levels]
        color = 0
        for i, acc in enumerate(accept_vector, start=1):
            if acc:
                color = i
        for i in range(1, len(accept_vector)):
            if accept_vector[i] and not accept_vector[i - 1]:
                report.monotonicity_ok = False
        member = reference_eval_lasso(f, w)
        if (color % 2 == 0) != member:
            report.counterexamples += 1
            if report.first_counterexample is None:
                report.first_counterexample = {
                    "lasso": w.text(),
                    "natural_color": color,
                    "oracle_member": member,
                }
    return report


def row_pairs(rows: list[int]) -> set[tuple[int, int]]:
    """The (state, position) pairs of the bit rows that
    ``winning_state_positions`` returns, comparable with the reference."""
    return {(q, i) for q, row in enumerate(rows) for i in range(row.bit_length())
            if row >> i & 1}


def reference_winning_state_positions(a: Awa, w: LassoWord) -> set[tuple[int, int]]:
    """Attractor solution of the Buchi word-checking game, the reference for
    ``winning_state_positions``.

    The game graph has a rejector node per (state, position) and an acceptor
    node per (clause, position).  Weakness makes "eventually only accepting"
    coincide with "accepting infinitely often", so the classical
    recurrence/attractor fixpoint applies.
    """
    n = n_positions(w)
    at = [w.alphabet.number[x] for x in letters(w)]
    nxt = next_positions(w)

    # node ids: state nodes q*n + i (rejector to move), then clause nodes
    n_snodes = a.n_states * n
    clause_ids: dict[tuple[int, int], int] = {}
    succs: list[list[int]] = [[] for _ in range(n_snodes)]
    owner_acceptor: list[bool] = [False] * n_snodes

    for q in range(a.n_states):
        for i in range(n):
            outs = []
            for clause in a.delta[q][at[i]]:
                key = (clause, i)
                cid = clause_ids.get(key)
                if cid is None:
                    cid = n_snodes + len(clause_ids)
                    clause_ids[key] = cid
                    succs.append([q2 * n + nxt[i] for q2 in range(a.n_states)
                                  if clause >> q2 & 1])
                    owner_acceptor.append(True)
                outs.append(cid)
            succs[q * n + i] = outs

    total = len(succs)
    target = {q * n + i for q in a.accepting for i in range(n)}

    def attractor(for_acceptor: bool, base: set[int], alive: set[int]) -> set[int]:
        attr = set(base) & alive
        changed = True
        while changed:
            changed = False
            for nd in alive:
                if nd in attr:
                    continue
                alive_succ = [s for s in succs[nd] if s in alive]
                if owner_acceptor[nd] == for_acceptor:
                    hit = any(s in attr for s in alive_succ)
                else:
                    hit = all(s in attr for s in alive_succ)
                if hit:
                    attr.add(nd)
                    changed = True
        return attr

    alive = set(range(total))
    while True:
        reach = attractor(True, target & alive, alive)
        dead = alive - reach
        if not dead:
            break
        alive -= attractor(False, dead, alive)
        if not alive:
            break
    return {(nd // n, nd % n) for nd in alive if nd < n_snodes}


def reference_minimal_sets(sets) -> tuple[frozenset[int], ...]:
    """The inclusion-minimal members of a collection of frozensets, without
    duplicates, by size and then by sorted members; the reference for
    ``awa.minimal_sets``."""
    kept: list[frozenset[int]] = []
    for s in sorted(set(sets), key=lambda s: (len(s), sorted(s))):
        if not any(k <= s for k in kept):
            kept.append(s)
    return tuple(kept)


def reference_dual(formula) -> tuple[int, ...]:
    """The dual of a positive CNF of clause masks, in canonical order: the
    clauses, each read as a conjunction of unit clauses, folded through OR
    on frozensets; the reference for ``awa.dualize``."""
    acc: set[frozenset[int]] = {frozenset()}  # FALSE, the empty clause
    for clause in formula:
        acc = set(reference_minimal_sets(c | {q} for c in acc for q in mask_states(clause)))
    return tuple(state_mask(c) for c in reference_minimal_sets(acc))


def reference_minimal_models(clauses) -> tuple[frozenset[int], ...]:
    """Minimal hitting sets of frozenset clauses by branching on the states
    of the first clause left unhit, in canonical order; the reference for
    ``obligation.minimal_models``."""
    results: set[frozenset[int]] = set()

    def rec(remaining: tuple, chosen: tuple) -> None:
        if not remaining:
            results.add(frozenset(chosen))
            return
        for x in sorted(remaining[0]):
            rec(tuple(c for c in remaining[1:] if x not in c), chosen + (x,))

    rec(reference_minimal_sets(clauses), ())
    return reference_minimal_sets(results)


class ReferenceBreakpoint:
    """Breakpoint successors on frozensets, the reference for
    ``obligation.Breakpoint``: the clauses of a state set are merged and
    their minimal hitting sets taken whole.

    It takes the kernel's arguments, state masks, and works on frozensets
    from there on."""

    def __init__(self, delta, accepting: int, tops: int, bottoms: int):
        def states(m: int) -> frozenset[int]:
            return frozenset(mask_states(m))

        self.delta = [[[states(c) for c in p] for p in row] for row in delta]
        self.accepting = states(accepting)
        self.tops = states(tops)
        self.bottoms = states(bottoms)

    def _models(self, states: frozenset[int], i: int) -> tuple[frozenset[int], ...]:
        merged: set[frozenset[int]] = set()
        for q in states:
            merged.update(self.delta[q][i])
        return reference_minimal_models(merged)

    def successors(self, S: frozenset[int], O: frozenset[int], i: int):
        acc = self.accepting
        ms = self._models(S, i)
        if not O:
            return self.prune({(sm, sm - acc) for sm in ms})
        mo = self._models(O, i)
        return self.prune({(sm | so, so - acc) for sm in ms for so in mo})

    def prune(self, pairs):
        out = set()
        for (s, o) in pairs:
            if s & self.bottoms:
                continue
            out.add((s - self.tops, o))
        kept = []
        for (s, o) in sorted(out, key=lambda v: len(v[0]) + len(v[1])):
            if not any(s2 <= s and o2 <= o for (s2, o2) in kept):
                kept.append((s, o))
        return sorted(kept, key=lambda v: (tuple(sorted(v[0])), tuple(sorted(v[1]))))


def succ_lists(g: ObligationGraph) -> list[list[int]]:
    """The successors of every vertex over all letters, sorted."""
    return [sorted({d for dsts in row for d in dsts}) for row in g.edges]


def reference_nonempty_witness(g: ObligationGraph) -> LassoWord | None:
    """An accepted lasso if the language is non-empty, else None: cyclic
    components of the whole graph, then a lasso through the least accepting
    vertex on a cycle.  The reference for the lazy emptiness check of
    ``obligation.BreakpointGraph``."""
    comp = cyclic_sccs(succ_lists(g))
    targets = sorted(v for v in g.accepting if comp[v] >= 0)
    if not targets:
        return None
    target = targets[0]
    members = {v for v in range(g.n_vertices) if comp[v] == comp[target]}
    found = lasso_letters(
        g.initial, {target: members},
        lambda vid: ((x, v2) for x, dsts in zip(g.alphabet.letters, g.edges[vid])
                     for v2 in dsts))
    if found is None:
        raise AssertionError("no lasso through an accepting cyclic vertex")
    return LassoWord(g.alphabet, tuple(found[0]), tuple(found[1]))


def reference_accepted_lasso(graph: BreakpointGraph, roots: list[int]) -> tuple[list, list]:
    """Prefix and cycle letters of an accepted lasso from the first root
    that ``nonempty_from`` found nonempty, from a second search of its own:
    the components of the vertices with a true verdict reachable from that
    root, and in each cyclic one the vertices owing nothing as targets.
    The reference for ``obligation.BreakpointGraph.accepted_lasso``."""
    def good_succ(v: int) -> list[int]:
        return [s for s in graph._succ(v) if graph.verdict[s]]

    root = next(r for r in roots if graph.verdict[r])
    targets: dict[int, set[int]] = {}
    for comp in tarjan_sccs([root], good_succ):
        inside = set(comp)
        if any(s in inside for w in comp for s in good_succ(w)):
            targets.update((w, inside) for w in comp if not graph.pairs[w][1])
    found = lasso_letters(root, targets, lambda v: (
        (x, d) for x, dsts in zip(graph.letters, graph.row(v)) for d in dsts
        if graph.verdict[d]))
    if found is None:
        raise AssertionError("no accepted lasso from a nonempty root")
    return found


def reference_is_empty(a: Awa) -> bool:
    """Language emptiness on the fully built breakpoint graph."""
    return reference_nonempty_witness(miyano_hayashi(a)) is None
