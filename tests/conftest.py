"""Shared fixtures: the copy of an object with some of its ``__init__``
parameters replaced, the worked-example automaton, random formula corpus,
the hand-written constant folding that ``to_nnf``'s law tables replaced,
the tree-walk list of subformulas, random weak automata, the SLTM builder
over both obligation graphs, the lasso position helpers, the test-only
lasso membership checks of an AWA, a label, an NFW and an HD-NCW, the
reference lasso evaluator, the per-lasso reference verifier, the natural
colours of the Muller fragment, the reference game solver, the reference
lasso enumeration, the string packer and the forward DFW acceptance that
``Lassos.of`` and ``dfw_accepts_lassos`` replaced, the frozenset
references for subsumption, dualization and the breakpoint kernel, the
one-kernel reference for the language oracle's rows, the fold over
transition rows that ``sltm.suffix_label`` replaced, the eager reference
emptiness check, the unshared reference for the oracle's verdicts, the
two-pass reference for accepted lassos, and the unabridged level
product."""

from __future__ import annotations

import inspect
import itertools
import random

import pytest
from hypothesis import strategies as st

from cocoa import (
    Alphabet, Formula, LassoWord, Lassos, always, atom, conj, disj,
    enumerate_lassos, eval_lasso, eventually, neg, nxt, release, until,
)
from cocoa.formula import (
    AND, ATOM, FALSE, FINALLY, GLOBALLY, IMPLIES, NEXT, NOT, OR, RELEASE, TRUE,
    UNTIL,
)
from cocoa._graph import cyclic_sccs, lasso_letters, tarjan_sccs
from cocoa.awa import (
    CNF_FALSE, CNF_TRUE, Awa, cnf_and, cnf_or, finalize_pcnf, mask_states, minimal_sets,
    state_mask, winning_state_positions,
)
from cocoa.chain import Cocoa, HdNcw, VerifyReport
from cocoa.floating import Dfw, Nfw, det_edges, reach_back_rows, survival_rows
from cocoa.obligation import Breakpoint, BreakpointGraph, ObligationGraph, miyano_hayashi
from cocoa.sltm import (
    Label, LanguageOracle, Sltm, _holds, _initial_winners, build_canonical_sltm,
)


def init_names(cls) -> list[str]:
    """The names of the parameters of ``cls.__init__``, each also the name
    of the attribute that keeps it."""
    return list(inspect.signature(cls).parameters)


def replaced(obj, **changes):
    """A new object of ``obj``'s class, built by its ``__init__`` from
    ``obj``'s attributes with ``changes`` in place of some; an unknown name
    raises TypeError."""
    kwargs = {name: getattr(obj, name) for name in init_names(type(obj))}
    return type(obj)(**{**kwargs, **changes})


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


def reference_to_nnf(f: Formula) -> Formula:
    """The negation normal form with one hand-written constant folding per
    operator family: the reference for ``to_nnf``'s law tables."""
    dual = {AND: OR, OR: AND, FINALLY: GLOBALLY, GLOBALLY: FINALLY, UNTIL: RELEASE,
            RELEASE: UNTIL, TRUE: FALSE, FALSE: TRUE, NEXT: NEXT}

    def s_and(a, b):
        if a.kind == FALSE or b.kind == FALSE:
            return Formula(FALSE)
        if a.kind == TRUE:
            return b
        if b.kind == TRUE:
            return a
        return Formula(AND, (a, b))

    def s_or(a, b):
        if a.kind == TRUE or b.kind == TRUE:
            return Formula(TRUE)
        if a.kind == FALSE:
            return b
        if b.kind == FALSE:
            return a
        return Formula(OR, (a, b))

    def s_until(a, b):
        if b.kind in (TRUE, FALSE):
            return b
        if a.kind == FALSE:
            return b
        if a.kind == TRUE:
            return Formula(FINALLY, (b,))
        return Formula(UNTIL, (a, b))

    def s_release(a, b):
        if b.kind in (TRUE, FALSE):
            return b
        if a.kind == TRUE:
            return b
        if a.kind == FALSE:
            return Formula(GLOBALLY, (b,))
        return Formula(RELEASE, (a, b))

    fold_binary = {AND: s_and, OR: s_or, UNTIL: s_until, RELEASE: s_release}

    def go(g: Formula, negd: bool) -> Formula:
        k = g.kind
        if k == ATOM:
            return Formula(NOT, (g,)) if negd else g
        if k == NOT:
            return go(g.args[0], not negd)
        if k == IMPLIES:
            a, b = g.args
            return go(Formula(OR, (Formula(NOT, (a,)), b)), negd)
        if negd:
            k = dual[k]
        args = [go(x, negd) for x in g.args]
        if not args:
            return Formula(k)
        if len(args) == 1:
            return args[0] if args[0].kind in (TRUE, FALSE) else Formula(k, (args[0],))
        return fold_binary[k](*args)

    return go(f, False)


def subformulas(f: Formula) -> list[Formula]:
    """All distinct subformulas, children before parents, in syntax order:
    the tree-walk reference for the numbering of ``Formula.program``, and
    so of the states of ``awa.from_ltl``."""
    seen: set[Formula] = set()
    out: list[Formula] = []

    def walk(g: Formula) -> None:
        for c in g.args:
            walk(c)
        if g not in seen:
            seen.add(g)
            out.append(g)

    walk(f)
    return out


def formula_size(f: Formula) -> int:
    """The number of nodes of the syntax tree, shared subtrees counted at
    each use."""
    return 1 + sum(formula_size(a) for a in f.args)


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
    names = ("i0", "f0", "f1", "f2", "g0", "g1", "g2", "TOP", "BOT")
    a = Awa(alphabet, I0, delta, accepting, TOP, BOT, names)
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


@st.composite
def weak_awas(draw) -> Awa:
    """Random weak automata over 1-2 propositions: 2-5 states in ordered
    blocks of one acceptance flag each, moving only inside their own block,
    to an earlier block or to the sinks, so that components may hold
    several states and never mix acceptance.  The last state is initial,
    since it may reach every block."""
    alphabet = Alphabet.from_aps(["a", "b"][:draw(st.integers(1, 2))])
    n = draw(st.integers(2, 5))
    top, bottom = n, n + 1
    starts = [True] + draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    flags = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    accepting, block_end = {top}, [n] * n
    for q in range(n):
        first = max(p for p in range(q + 1) if starts[p])
        if flags[first]:
            accepting.add(q)
        block_end[q] = next((p for p in range(q + 1, n) if starts[p]), n)
    delta = []
    for q in range(n):
        targets = list(range(block_end[q])) + [top, bottom]
        clauses = st.lists(st.frozensets(st.sampled_from(targets), min_size=1, max_size=3),
                           min_size=1, max_size=3)
        delta.append(tuple(minimal_sets(map(state_mask, draw(clauses)))
                           for _ in alphabet.letters))
    delta += [((1 << s,),) * len(alphabet.letters) for s in (top, bottom)]
    names = tuple(f"q{q}" for q in range(n)) + ("TOP", "BOT")
    return Awa(alphabet, n - 1, tuple(delta), frozenset(accepting), top, bottom, names)


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


def build_sltm(a: Awa, **kw) -> Sltm:
    """The canonical SLTM of an automaton over both its obligation graphs."""
    return build_canonical_sltm(a, miyano_hayashi(a.dual), miyano_hayashi(a), **kw)


def accepts_lasso(a: Awa, w: LassoWord, start: int | None = None) -> bool:
    """True iff the acceptor wins the word-checking game on the lasso."""
    q0 = a.initial if start is None else start
    return bool(winning_state_positions(a, Lassos.of([w]))[q0] & 1)


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
    lassos = counterexamples = 0
    first_counterexample = None
    monotonicity_ok = True
    for w in reference_enumerate_lassos(chain.alphabet, prefix_bound, period_bound):
        lassos += 1
        accept_vector = [reference_dfw_accepts_lasso(d, chain.sltm, w) for d, _ in chain.levels]
        color = 0
        for i, acc in enumerate(accept_vector, start=1):
            if acc:
                color = i
        for i in range(1, len(accept_vector)):
            if accept_vector[i] and not accept_vector[i - 1]:
                monotonicity_ok = False
        member = reference_eval_lasso(f, w)
        if (color % 2 == 0) != member:
            counterexamples += 1
            if first_counterexample is None:
                first_counterexample = {
                    "lasso": w.text(),
                    "natural_color": color,
                    "oracle_member": member,
                }
    return VerifyReport(str(f), prefix_bound, period_bound, lassos, counterexamples,
                        first_counterexample, monotonicity_ok)


def infinite_literals(w: LassoWord) -> frozenset[str]:
    """X(w): the literals, p or !p, true at some letter of the period."""
    return frozenset(p if p in x else "!" + p for x in w.period for p in w.alphabet.aps)


def muller_colors(f: Formula, aps) -> dict[frozenset[str], int]:
    """The natural colour of each literal set X, for a Boolean combination
    f of GF l and FG l over literals l, whose truth on w depends on X(w)
    alone.  The period of two letters, one with p wherever p is in X and
    one without p wherever !p is in X, has X(w) = X.  D_1 is the
    down-closure of the rejected sets and D_(i+1) that of the sets of D_i
    that disagree with i's parity: accepted for odd i, rejected for even
    i.  The colour of X is the largest i with X in D_i, 0 if none: the
    Wagner hierarchy's chain count for a Muller condition (Casares,
    Colcombet and Fijalkow, ICALP 2021), read in the chain form of Ehlers
    and Schewe (FSTTCS 2022)."""
    alphabet = Alphabet.from_aps(aps)
    accepted = {}
    for parts in itertools.product(*[({p}, {"!" + p}, {p, "!" + p}) for p in aps]):
        x = frozenset().union(*parts)
        period = (frozenset(p for p in aps if p in x), frozenset(p for p in aps if "!" + p not in x))
        accepted[x] = eval_lasso(f, LassoWord(alphabet, (), period))
    color = dict.fromkeys(accepted, 0)
    tops = [x for x, ok in accepted.items() if not ok]
    i = 1
    while tops:
        down = [x for x in accepted if any(x <= t for t in tops)]
        for x in down:
            color[x] = i
        tops = [x for x in down if accepted[x] == (i % 2 == 1)]
        i += 1
    return color


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

    def successors(self, S: frozenset[int], O: frozenset[int], i: int,
                   reset: bool | None = None):
        # the reset is taken when O is empty, unless given
        acc = self.accepting
        ms = self._models(S, i)
        if not O if reset is None else reset:
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


def reference_oracle_kernel(a: Awa) -> Breakpoint:
    """One breakpoint kernel over the disjoint union of an automaton and its
    dual, the reference for the rows of ``sltm.LanguageOracle``: dual
    state q is bit n + q, and its model row is the automaton's row q
    shifted by n.  A row of the oracle is its successors with the reset
    taken when O is empty."""
    n = a.n_states
    d = a.dual
    shifted = tuple(tuple(tuple(m << n for m in p) for p in row) for row in a.delta)
    return Breakpoint(
        d.delta + shifted,
        accepting=state_mask(a.accepting) | state_mask(d.accepting) << n,
        tops=1 << a.top | 1 << (n + d.top),
        bottoms=1 << a.bottom | 1 << (n + d.bottom))


def reference_suffix_label(label: Label, i: int, a: Awa) -> Label:
    """The label of the suffix of a label's language after letter number
    i, folded from the automaton's transition rows: the reference for
    ``sltm.suffix_label``, which reads the language oracle's kernel."""
    cnf = CNF_TRUE
    for u in label.unions:
        part = CNF_FALSE
        for q in mask_states(u):
            part = cnf_or(part, a.delta[q][i])
        cnf = cnf_and(cnf, part)
    return Label(finalize_pcnf(cnf, a.top, a.bottom))


def succ_lists(g: ObligationGraph) -> list[list[int]]:
    """The successors of every vertex over all letters, sorted."""
    return [sorted({d for dsts in row for d in dsts}) for row in g.edges]


def reference_nonempty_witness(g: ObligationGraph) -> LassoWord | None:
    """An accepted lasso if the language is non-empty, else None: cyclic
    components of the whole graph, then a lasso through the least accepting
    vertex on a cycle.  The reference for the lazy emptiness check of
    ``obligation.BreakpointGraph``."""
    comp = cyclic_sccs(succ_lists(g))
    targets = [v for v, (_s, o) in enumerate(g.vertices) if not o and comp[v] >= 0]
    if not targets:
        return None
    target = targets[0]
    members = {v for v in range(g.n_vertices) if comp[v] == comp[target]}
    found = lasso_letters(
        0, {target: members},
        lambda vid: ((x, v2) for x, dsts in zip(g.alphabet.letters, g.edges[vid])
                     for v2 in dsts))
    if found is None:
        raise AssertionError("no lasso through an accepting cyclic vertex")
    return LassoWord(g.alphabet, tuple(found[0]), tuple(found[1]))


def reference_nonempty(a: Awa, pairs) -> dict[tuple[int, int], bool]:
    """Whether an accepted run starts at each (S, O) pair reachable from the
    given ones in the language oracle over the automaton and its dual: one
    plain Tarjan search on a fresh oracle, every vertex expanded and no
    verdict shared between vertices.  The reference for
    ``obligation.BreakpointGraph.nonempty_from``."""
    g = LanguageOracle(a)
    roots = [g.intern(p) for p in pairs]
    good: dict[int, bool] = {}
    for comp in tarjan_sccs(roots, g._succ):
        inside = set(comp)
        succ = {s for w in comp for s in g._succ(w)}
        cyclic = any(not g.pairs[w][1] for w in comp) and bool(succ & inside)
        verdict = cyclic or any(good[s] for s in succ - inside)
        good.update((w, verdict) for w in comp)
    return {g.pairs[v]: verdict for v, verdict in good.items()}


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


def reference_level_product(prev: Dfw, m: Sltm, ell: int) -> Nfw:
    """The level product built whole, the reference for
    ``floating.level_product``: every pair (p, v) with v in the vertex set
    of p's label, with a full letter row each, then only the cyclic
    components holding an accepting graph vertex kept.  Raises
    AssertionError when a successor vertex lies outside the vertex set of
    the successor state's label."""
    g, vsets = m.side(ell)
    ids: dict[tuple[int, int], int] = {}
    states: list[tuple[int, int]] = []
    for p in range(prev.n_states):
        for v in sorted(vsets[prev.label[p]]):
            ids[(p, v)] = len(states)
            states.append((p, v))
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
    comp = cyclic_sccs([sorted({d for dsts in row for d in dsts}) for row in trans],
                       (q for q, (_p, v) in enumerate(states) if not g.vertices[v][1]))
    keep = [q for q in range(len(states)) if comp[q] >= 0]
    remap = {old: new for new, old in enumerate(keep)}
    return Nfw(
        label=tuple(prev.label[states[q][0]] for q in keep),
        trans=tuple(
            tuple(tuple(remap[d] for d in dsts if comp[d] == comp[q]) for dsts in trans[q])
            for q in keep),
        origin=tuple(states[q] for q in keep),
    )
