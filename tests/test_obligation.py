"""Breakpoint construction: language preservation, vertex invariants, the
mask kernel against its frozenset reference, and the lazy emptiness check
against the eager one."""

from hypothesis import given, settings
from hypothesis import strategies as st

import cocoa.obligation
from cocoa import (
    Alphabet, LassoWord, dualize, enumerate_lassos, eval_lasso,
    from_ltl, lower_bound_alphabet, lower_bound_family, miyano_hayashi,
    parse_ltl, to_nnf,
)
from cocoa._graph import cyclic_sccs
from cocoa.awa import Awa, mask_states, member_order, state_mask
from cocoa.obligation import (
    Breakpoint, BreakpointGraph, ObligationGraph, minimal_models, obligation_to_dot,
)

from conftest import (
    ReferenceBreakpoint, accepts_lasso, formula_corpus, lassos_up_to, letter_at, n_positions,
    next_pos, reference_minimal_models, reference_nonempty_witness, succ_lists, weak_awas,
)
from test_sltm import build_oracle, query_single_states
from test_tracing_hooks import counting_calls


def reachable(succ, starts) -> set[int]:
    seen = set(starts)
    todo = sorted(seen)
    while todo:
        v = todo.pop()
        for w in succ[v]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def nbw_accepts_lasso(g: ObligationGraph, w: LassoWord) -> bool:
    """Buchi lasso membership on the product with the lasso positions."""
    n = n_positions(w)

    def node(vid: int, i: int) -> int:
        return vid * n + i

    total = g.n_vertices * n
    at = [g.alphabet.number[letter_at(w, i)] for i in range(n)]
    succ: list[list[int]] = [[] for _ in range(total)]
    for vid in range(g.n_vertices):
        for i in range(n):
            succ[node(vid, i)] = [node(v2, next_pos(w, i)) for v2 in g.edges[vid][at[i]]]
    reach = reachable(succ, [node(0, 0)])
    comp = cyclic_sccs(succ)
    return any(comp[nd] >= 0 and not g.vertices[nd // n][1] for nd in reach)


def sink_explorer(b: Awa) -> BreakpointGraph:
    """The breakpoint graph of b with the sinks applied (pairs holding the
    rejecting sink dropped, the accepting sink stripped from state sets),
    unexpanded, its initial pair interned as vertex 0."""
    acc = state_mask(b.accepting)
    kernel = Breakpoint(b.dual.delta, acc, 1 << b.top, 1 << b.bottom)
    g = BreakpointGraph(kernel.row, b.alphabet.letters)
    init = 1 << b.initial
    g.intern((init, init & ~acc))
    return g


def expanded(g: BreakpointGraph, alphabet: Alphabet) -> ObligationGraph:
    """Every vertex reachable from vertex 0 expanded in id order, frozen
    into an obligation graph."""
    vid = 0
    while vid < len(g.pairs):
        g.row(vid)
        vid += 1
    return ObligationGraph(alphabet, tuple(g.pairs), tuple(g.rows))


def test_minimal_models_basic():
    c = state_mask
    assert minimal_models([c({1, 2}), c({2})]) == (c({2}),)
    assert minimal_models([c({1}), c({2})]) == (c({1, 2}),)
    assert minimal_models([]) == (0,)
    assert set(minimal_models([c({1, 2})])) == {c({1}), c({2})}


_clause_sets = st.lists(st.frozensets(st.integers(0, 9), min_size=1, max_size=4), max_size=7)


@settings(max_examples=300, deadline=None, database=None)
@given(_clause_sets)
def test_minimal_models_match_reference(clauses):
    got = minimal_models([state_mask(c) for c in clauses])
    assert tuple(frozenset(mask_states(m)) for m in got) == reference_minimal_models(clauses)


@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(st.frozensets(st.integers(0, 70), max_size=12), max_size=8))
def test_member_order_sorts_by_sorted_members(sets):
    masks = [state_mask(s) for s in sets]
    assert sorted(masks, key=member_order) == sorted(masks, key=mask_states)


def as_sets(pairs) -> list[tuple[frozenset[int], frozenset[int]]]:
    return [(frozenset(mask_states(s)), frozenset(mask_states(o))) for s, o in pairs]


def kernel_with_paths(b: Awa, sinks: bool, paths: set) -> tuple[Breakpoint, ReferenceBreakpoint]:
    """The kernel of b, with or without the sinks, and its reference; each
    call of the kernel's successors adds (sinks, reset, whether it pruned)
    to paths."""
    args = (state_mask(b.accepting), 1 << b.top if sinks else 0, 1 << b.bottom if sinks else 0)
    kernel = Breakpoint(b.dual.delta, *args)
    successors, pruned = kernel.successors, kernel._pruned
    calls = []

    def counted_pruned(packed):
        calls.append(1)
        return pruned(packed)

    def traced(S, O, i, reset):
        before = len(calls)
        got = successors(S, O, i, reset)
        paths.add((sinks, reset, len(calls) > before))
        return got

    kernel._pruned, kernel.successors = counted_pruned, traced
    return kernel, ReferenceBreakpoint(b.delta, *args)


def successors_match_reference(a: Awa, paths: set) -> int:
    """Check the kernel of a and of its dual, with and without the sinks,
    against the reference on every reachable vertex and letter, and with
    the reset withheld where O is empty (a half of the language oracle
    whose other half owes); the graph's own edges must name the reference
    successors in order.  The number of successor lists checked."""
    checked = 0
    for b in (a, a.dual):
        for sinks in (False, True):
            kernel, ref = kernel_with_paths(b, sinks, paths)
            g = expanded(sink_explorer(b), b.alphabet) if sinks else miyano_hayashi(b)
            sets = as_sets(g.vertices)
            for vid, (S, O) in enumerate(g.vertices):
                for i, dsts in enumerate(g.edges[vid]):
                    want = ref.successors(*sets[vid], i)
                    assert as_sets(kernel.successors(S, O, i, not O)) == want, (S, O, i)
                    assert [sets[d] for d in dsts] == want
                    checked += 1
                    if not O:
                        assert as_sets(kernel.successors(S, O, i, False)) == \
                            ref.successors(*sets[vid], i, reset=False), (S, O, i)
    return checked


def test_breakpoint_successors_match_reference():
    # both fast paths (a reset without sinks, a carry with one model of O
    # and one of the rest) and the pruned path, with and without sinks
    inputs = [(to_nnf(f), Alphabet.from_aps(aps)) for f, aps in formula_corpus(12, seed=22)]
    inputs.append((to_nnf(lower_bound_family(1)), lower_bound_alphabet(1, restricted=True)))
    paths: set[tuple[bool, bool, bool]] = set()
    assert sum(successors_match_reference(from_ltl(f, alpha), paths)
               for f, alpha in inputs) > 2000
    # a reset prunes exactly when the kernel has sinks
    assert paths == {(sinks, reset, pruned) for sinks in (False, True)
                     for reset in (False, True) for pruned in (False, True)
                     if not reset or pruned == sinks}


@settings(max_examples=40, deadline=None, database=None)
@given(weak_awas())
def test_breakpoint_successors_match_reference_on_weak_automata(a):
    assert successors_match_reference(a, set())


def test_oracle_half_successors_match_reference():
    # every half row a build and the single-state queries asked the
    # language oracle for, the reset joint: a half owing nothing is carried
    # while the other half owes (the builds alone ask for 19 such rows,
    # since no vertex holding a state and its dual is expanded)
    inputs = [(to_nnf(f), Alphabet.from_aps(aps)) for f, aps in formula_corpus(12, seed=22)]
    inputs.append((to_nnf(lower_bound_family(1)), lower_bound_alphabet(1, restricted=True)))
    paths: set[tuple[bool, bool, bool]] = set()
    withheld = 0
    for f, alpha in inputs:
        a = from_ltl(f, alpha)
        oracle = build_oracle(a)
        query_single_states(oracle)
        kernels = [kernel_with_paths(b, True, paths) for b in (a, a.dual)]
        for half, S, O, reset in oracle.half_rows:
            kernel, ref = kernels[half]
            S_O = as_sets([(S, O)])[0]
            for i in range(len(alpha.letters)):
                assert as_sets(kernel.successors(S, O, i, reset)) == \
                    ref.successors(*S_O, i, reset=reset), (half, S, O, reset, i)
            withheld += reset != (not O)
    assert withheld > 20
    assert paths == {(True, False, False), (True, False, True), (True, True, True)}


def test_equal_successor_entries_are_one_object():
    # the rows of a graph hold one tuple per distinct successor entry, and
    # equal rows built afresh from the kernel, entry by entry
    inputs = [(to_nnf(f), Alphabet.from_aps(aps)) for f, aps in formula_corpus(12, seed=22)]
    inputs.append((to_nnf(lower_bound_family(1)), lower_bound_alphabet(1, restricted=True)))
    shared = 0
    for f, alpha in inputs:
        a = from_ltl(f, alpha)
        for b in (a, a.dual):
            g = miyano_hayashi(b)
            entries = [dsts for row in g.edges for dsts in row]
            assert len({id(dsts) for dsts in entries}) == len(set(entries)), f
            shared += len(entries) - len(set(entries))
            ids = {v: vid for vid, v in enumerate(g.vertices)}
            kernel = Breakpoint(b.dual.delta, state_mask(b.accepting), 0, 0)
            assert g.edges == tuple(tuple(tuple(ids[v] for v in vs) for vs in kernel.row(S, O))
                                    for S, O in g.vertices), f
    assert shared > 1000


def test_breakpoint_kernels_read_the_dual_rows():
    # once an automaton's dual exists, neither graph solves a clause list
    inputs = [(to_nnf(f), Alphabet.from_aps(aps)) for f, aps in formula_corpus(12, seed=22)]
    inputs.append((to_nnf(lower_bound_family(1)), lower_bound_alphabet(1, restricted=True)))
    for f, alpha in inputs:
        a = from_ltl(f, alpha)
        a.dual  # dualizing is where the minimal models are solved
        with counting_calls({"minimal_models": cocoa.obligation.minimal_models}) as calls:
            miyano_hayashi(a)
            miyano_hayashi(a.dual)
        assert calls == {"minimal_models": 0}, f


def test_vertices_pair_invariants(fig1):
    g = miyano_hayashi(fig1)
    for (S, O) in g.vertices:
        assert O & S == O
        assert S  # never empty
    init = 1 << fig1.initial
    assert g.vertices[0] == (init, init & ~state_mask(fig1.accepting))


def test_vertex_count_bound(fig1):
    g = miyano_hayashi(fig1)
    assert g.n_vertices <= 3 ** fig1.n_states


def test_tautology_dual_has_no_accepting_cycle():
    alpha = Alphabet.from_aps(["a"])
    a = from_ltl(to_nnf(parse_ltl("a | !a", ["a"])), alpha)
    g = miyano_hayashi(dualize(a))
    succ = succ_lists(g)
    # no accepting vertex reachable from itself
    for v in (v for v, (_s, o) in enumerate(g.vertices) if not o):
        seen, todo = set(), [v]
        while todo:
            u = todo.pop()
            for w in succ[u]:
                if w == v:
                    raise AssertionError("accepting cycle in the empty graph")
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
    for w in lassos_up_to(alpha, 2, 2):
        assert nbw_accepts_lasso(g, w) is False


def test_fg_a_language_preserved():
    alpha = Alphabet.from_aps(["a"])
    f = to_nnf(parse_ltl("FG a", ["a"]))
    g = miyano_hayashi(from_ltl(f, alpha))
    for w in lassos_up_to(alpha, 2, 3):
        assert nbw_accepts_lasso(g, w) == eval_lasso(f, w)


def test_fg_a_members_and_non_members():
    alpha = Alphabet.from_aps(["a"])
    from cocoa import parse_lasso

    g = miyano_hayashi(from_ltl(to_nnf(parse_ltl("FG a", ["a"])), alpha))
    assert nbw_accepts_lasso(g, parse_lasso(";{a}", alpha)) is True
    assert nbw_accepts_lasso(g, parse_lasso(";{a}{}", alpha)) is False


def test_purely_nondeterministic_keeps_singletons():
    alpha = Alphabet.from_aps(["a"])
    a = from_ltl(to_nnf(parse_ltl("F a", ["a"])), alpha)
    for row in a.delta:
        assert len(row) == len(alpha.letters)
        for p in row:
            assert len(p) == 1
    g = miyano_hayashi(a)
    for (S, _O) in g.vertices:
        assert S.bit_count() == 1


def test_language_preservation_on_corpus():
    for f, aps in formula_corpus(40, seed=21):
        alpha = Alphabet.from_aps(aps)
        nnf = to_nnf(f)
        a = from_ltl(nnf, alpha)
        g = miyano_hayashi(a)
        gd = miyano_hayashi(dualize(a))
        for w in lassos_up_to(alpha, 2, 3):
            member = accepts_lasso(a, w)
            assert nbw_accepts_lasso(g, w) == member, (f, w.text())
            assert nbw_accepts_lasso(gd, w) == (not member), (f, w.text())


def test_obligation_escape_pattern():
    # a conjunctive guard used to starve the obligation escape: the graph
    # must still accept words that satisfy the nested eventuality
    alpha = Alphabet.from_aps(["b"])
    f = to_nnf(parse_ltl("G X F X b", ["b"]))
    g = miyano_hayashi(from_ltl(f, alpha))
    for w in lassos_up_to(alpha, 2, 3):
        assert nbw_accepts_lasso(g, w) == eval_lasso(f, w), w.text()


def test_dot_export(fig1):
    dot = obligation_to_dot(miyano_hayashi(fig1))
    assert "doublecircle" in dot and " | " in dot


def test_sink_pruning_keeps_the_language():
    # the emptiness check's graph drops vertices holding the rejecting sink
    # and strips the accepting one; both must leave the language unchanged
    shrunk = 0
    for f, aps in formula_corpus(12, seed=22):
        alpha = Alphabet.from_aps(aps)
        a = from_ltl(to_nnf(f), alpha)
        for b in (a, dualize(a)):
            full = miyano_hayashi(b)
            pruned = expanded(sink_explorer(b), alpha)
            sinks = 1 << b.top | 1 << b.bottom
            assert all(not S & sinks for S, _O in pruned.vertices)
            shrunk += pruned.n_vertices < full.n_vertices
            for w in enumerate_lassos(alpha, 2, 2):
                assert nbw_accepts_lasso(pruned, w) == nbw_accepts_lasso(full, w), \
                    (f, w.text())
    assert shrunk


def test_lazy_emptiness_matches_reference():
    # the lazy check settles a verdict per component as it explores; the
    # reference runs over the whole graph without the sinks applied
    nonempty = 0
    for f, aps in formula_corpus(25, seed=12):
        a = from_ltl(to_nnf(f), Alphabet.from_aps(aps))
        for b in (a, dualize(a)):
            g = sink_explorer(b)
            got = g.nonempty_from([0])
            assert got == (reference_nonempty_witness(miyano_hayashi(b)) is not None), f
            if got:
                nonempty += 1
                prefix, cycle = g.accepted_lasso([0])
                assert accepts_lasso(b, LassoWord(b.alphabet, tuple(prefix), tuple(cycle))), f
    assert 0 < nonempty < 50
