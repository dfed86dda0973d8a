"""Breakpoint construction: language preservation and vertex invariants."""

from cocoa import (
    Alphabet, accepts_lasso, dualize, enumerate_lassos, eval_lasso, from_ltl,
    miyano_hayashi, nbw_accepts_lasso, parse_ltl, to_nnf,
)
from cocoa.obligation import minimal_models, obligation_to_dot

from conftest import formula_corpus, lassos_up_to


def test_minimal_models_basic():
    c = lambda *xs: frozenset(xs)
    assert minimal_models([c(1, 2), c(2)]) == (c(2),)
    assert minimal_models([c(1), c(2)]) == (c(1, 2),)
    assert minimal_models([]) == (frozenset(),)
    assert set(minimal_models([c(1, 2)])) == {c(1), c(2)}


def test_vertices_pair_invariants(fig1):
    g = miyano_hayashi(fig1)
    for (S, O) in g.vertices:
        assert O <= S
        assert S  # never empty
    assert g.vertices[g.initial] == (frozenset({fig1.initial}),
                                     frozenset({fig1.initial}) - fig1.accepting)
    assert g.accepting == frozenset(
        i for i, (_s, o) in enumerate(g.vertices) if not o)


def test_vertex_count_bound(fig1):
    g = miyano_hayashi(fig1)
    assert g.n_vertices <= 3 ** fig1.n_states


def test_tautology_dual_has_no_accepting_cycle():
    alpha = Alphabet.from_aps(["a"])
    a = from_ltl(to_nnf(parse_ltl("a | !a", ["a"])), alpha)
    g = miyano_hayashi(dualize(a))
    succ = g.succ_graph()
    # no accepting vertex reachable from itself
    for v in g.accepting:
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
    for q in range(a.n_states):
        for x in alpha.letters:
            assert len(a.delta[(q, x)].clauses) == 1
    g = miyano_hayashi(a)
    for (S, _O) in g.vertices:
        assert len(S) == 1


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
            pruned = miyano_hayashi(b, prune_empty=True)
            assert all(b.top not in S and b.bottom not in S for S, _O in pruned.vertices)
            shrunk += pruned.n_vertices < full.n_vertices
            for w in enumerate_lassos(alpha, 2, 2):
                assert nbw_accepts_lasso(pruned, w) == nbw_accepts_lasso(full, w), \
                    (f, w.text())
    assert shrunk
