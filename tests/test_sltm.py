"""Canonical suffix-language tracking machine: labels, equivalence,
minimality, and the P1-P4 structural properties."""

import itertools
from collections import deque

import pytest

from cocoa import (
    Alphabet, LassoWord, dualize, enumerate_lassos, eval_lasso, from_ltl,
    label_of, labels_equivalent, lower_bound_alphabet,
    lower_bound_family, miyano_hayashi, parse_ltl, to_nnf,
)
import cocoa.sltm
from cocoa.awa import (
    Awa, CNF_FALSE, _edge_lists, _scc_ranks, cnf_and, finalize_pcnf,
    mask_states, minimal_masks, minimal_sets, state_mask,
)
from cocoa.sltm import (
    IncompatibleAutomata, Label, LanguageOracle, build_canonical_sltm,
    distinguishing_lasso, sltm_from_json, sltm_to_dot, sltm_to_json,
    suffix_label,
)

from conftest import (
    formula_corpus, label_accepts_lasso, lassos_up_to, prefixes_up_to, prepend,
    reference_is_empty, sltm_state_after,
)


def build(text, aps, **kw):
    alpha = Alphabet.from_aps(aps)
    a = from_ltl(to_nnf(parse_ltl(text, aps)), alpha)
    return a, build_canonical_sltm(a, **kw)


def test_label_canonical_form():
    l = Label.make([state_mask({1, 2}), state_mask({1}), state_mask({3})])
    assert l.unions == (state_mask({1}), state_mask({3}))
    with pytest.raises(ValueError):
        Label.make([0])


def test_label_of_merges_shared_state_sets(fig1):
    g = miyano_hayashi(dualize(fig1))
    # two forged vertices sharing the state set give a single union
    ids = [i for i, (s, _o) in enumerate(g.vertices)][:1]
    l1 = label_of(ids, g)
    assert len(l1.unions) == 1
    with pytest.raises(ValueError):
        label_of([], g)


def test_labels_equivalent_reflexive(fig1):
    oracle = LanguageOracle(fig1, dualize(fig1))
    l = Label.make([state_mask({1, 2})])
    assert labels_equivalent(l, l, oracle) is True


def test_labels_equivalent_fig1_branch_states(fig1):
    oracle = LanguageOracle(fig1, dualize(fig1))
    f1_label = Label.make([1 << 2])   # G a branch state
    f2_label = Label.make([1 << 3])   # empty-language state
    assert labels_equivalent(f1_label, f2_label, oracle) is False
    universal = Label.make([])
    g2_label = Label.make([1 << 6])
    assert labels_equivalent(universal, g2_label, oracle) is True


def test_labels_equivalent_rejects_foreign_states(fig1):
    oracle = LanguageOracle(fig1, dualize(fig1))
    with pytest.raises(IncompatibleAutomata):
        labels_equivalent(Label.make([1 << 99]), Label.make([]), oracle)


EPS_AP = "<eps>"


def difference_automaton(pos: Label, neg: Label, a: Awa, a_dual: Awa) -> Awa:
    """Weak alternating automaton for eps . (pos and not neg): the one-shot
    reference encoding for ``labels_equivalent``.

    A fresh initial state reads a fresh letter whose transition formula
    plugs together states of the automaton (for the positive side) and of
    its dual (for the negated side); each union of the negated label becomes
    one auxiliary conjunction state over dual states.
    """
    n = a.n_states
    iota = 0
    off_a = 1
    off_d = 1 + n
    t_base = 1 + 2 * n
    t_ids = {i: t_base + i for i in range(len(neg.unions))}
    n_states = t_base + len(neg.unions)

    eps = frozenset({EPS_AP})
    alphabet = Alphabet(a.alphabet.aps + (EPS_AP,), a.alphabet.letters + (eps,))

    def sh_a(clauses):
        return [c << off_a for c in clauses]

    def sh_d(clauses):
        return [c << off_d for c in clauses]

    top = off_a + a.top
    bottom = off_a + a.bottom
    d_bottom = off_d + a_dual.bottom

    # one row per state, over the letters of a's alphabet and then eps
    delta: list[tuple[tuple[int, ...], ...]] = [()] * n_states
    for q in range(n):
        delta[off_a + q] = tuple(minimal_sets(sh_a(p)) for p in a.delta[q]) \
            + (((1 << top if q == a.top else 1 << bottom),),)
        delta[off_d + q] = tuple(minimal_sets(sh_d(p)) for p in a_dual.delta[q]) \
            + ((1 << d_bottom,),)
    for k, u in enumerate(neg.unions):
        row = []
        for i in range(len(a.alphabet.letters)):
            merged: set[int] = set()
            for q in mask_states(u):
                merged.update(sh_d(a_dual.delta[q][i]))
            row.append(minimal_sets(merged))
        delta[t_ids[k]] = tuple(row) + ((1 << d_bottom,),)

    # iota: the difference formula on eps, dead otherwise
    cnf = cnf_and(
        minimal_masks({u << off_a for u in pos.unions}),
        CNF_FALSE if not neg.unions else minimal_masks({state_mask(t_ids.values())}),
    )
    delta[iota] = ((1 << bottom,),) * len(a.alphabet.letters) \
        + (finalize_pcnf(cnf, top, bottom),)
    delta = tuple(delta)

    accepting = frozenset(
        {off_a + q for q in a.accepting} | {off_d + q for q in a_dual.accepting})
    succ = _edge_lists(delta)
    rank = tuple(_scc_ranks(n_states, succ, accepting))
    names = ("iota",) + a.state_names + tuple("~" + s for s in a_dual.state_names) \
        + tuple(f"t{k}" for k in range(len(neg.unions)))
    out = Awa(alphabet, n_states, iota, delta, accepting, rank, top, bottom, names)
    out.validate()  # no constant formula
    return out


def test_labels_equivalent_matches_reference_encoding(fig1):
    # the shared-oracle decision agrees with the one-shot alternating
    # automaton encoding of each difference half
    d = dualize(fig1)
    candidates = [
        Label.make([]),
        Label.make([1 << 2]),
        Label.make([1 << 3]),
        Label.make([state_mask({2, 6})]),
        Label.make([1 << 1, 1 << 4]),
        Label.make([1 << 0]),
    ]
    oracle = LanguageOracle(fig1, d)
    for l1, l2 in itertools.combinations(candidates, 2):
        ref = (reference_is_empty(difference_automaton(l1, l2, fig1, d))
               and reference_is_empty(difference_automaton(l2, l1, fig1, d)))
        assert labels_equivalent(l1, l2, oracle) == ref


def test_label_membership_helper(fig1, ab_alphabet):
    ga = to_nnf(parse_ltl("G a", ["a", "b"]))
    l = Label.make([1 << 2])  # f1 state
    for w in lassos_up_to(ab_alphabet, 1, 2):
        assert label_accepts_lasso(l, fig1, w) == eval_lasso(ga, w)


def test_suffix_label_semantics(fig1, ab_alphabet):
    # suffix of L(f1) = G a after reading a letter with a is G a again,
    # after a letter without a it is empty
    l = Label.make([1 << 2])
    oracle = LanguageOracle(fig1, dualize(fig1))
    number = fig1.alphabet.number
    with_a = suffix_label(l, number[frozenset({"a"})], fig1)
    without_a = suffix_label(l, number[frozenset()], fig1)
    assert labels_equivalent(with_a, l, oracle) is True
    assert labels_equivalent(without_a, Label.make([1 << 3]), oracle) is True


def test_sltm_fg_a_single_state():
    _a, m = build("FG a", ["a"])
    assert m.n_states == 1
    assert m.delta[0][m.alphabet.number[frozenset()]] == 0


def test_sltm_prefix_independent_disjunction():
    _a, m = build("FG a | GF b", ["a", "b"])
    assert m.n_states == 1


def test_sltm_g_a_two_states():
    # suffix-language count oracle: distinct membership vectors over
    # appended bounded lassos, for all prefixes of length <= 3
    aps = ["a"]
    alpha = Alphabet.from_aps(aps)
    ga = to_nnf(parse_ltl("G a", aps))
    lassos = lassos_up_to(alpha, 1, 2)
    vectors = set()
    for p in prefixes_up_to(alpha, 3):
        vec = tuple(eval_lasso(ga, prepend(w, p)) for w in lassos)
        vectors.add(vec)
    assert len(vectors) == 2

    a, m = build("G a", aps)
    assert m.n_states == 2
    s_empty = sltm_state_after(m, [frozenset()])
    s_live = m.initial
    assert s_empty != s_live
    # labels denote G a and the empty language
    for w in lassos:
        assert label_accepts_lasso(m.labels[s_live], a, w) == eval_lasso(ga, w)
        assert label_accepts_lasso(m.labels[s_empty], a, w) is False


def test_sltm_state_after():
    a, m = build("G a", ["a"])
    assert sltm_state_after(m, []) == m.initial
    _a2, m2 = build("FG a", ["a"])
    for p in prefixes_up_to(m2.alphabet, 2):
        assert sltm_state_after(m2, p) == m2.initial


def test_sltm_p3_pairwise_nonequivalent():
    for text, aps in [("G a", ["a"]), ("GF a -> GF b", ["a", "b"]),
                      ("a U b", ["a", "b"]), ("X a | G b", ["a", "b"])]:
        a, m = build(text, aps)
        oracle = LanguageOracle(a, dualize(a))
        for s1 in range(m.n_states):
            for s2 in range(s1 + 1, m.n_states):
                assert labels_equivalent(m.labels[s1], m.labels[s2], oracle) is False


def test_sltm_p1_eq1_witness_replay():
    # replay the joint subset construction over both graphs with witness
    # prefixes: every vertex of every canonical state, in either graph, is
    # reached by a prefix that lands in the state
    for text, aps in [("G a", ["a"]), ("a U b", ["a", "b"]),
                      ("GF a -> GF b", ["a", "b"]), ("X a | G b", ["a", "b"]),
                      ("GF a -> (GF b & FG c)", ["a", "b", "c"])]:
        a, m = build(text, aps)
        graphs = (m.g_neg, m.g_pos)
        start = tuple(frozenset({g.initial}) for g in graphs)
        witness = {start: ()}
        frontier = deque([start])
        while frontier:
            vsets = frontier.popleft()
            for i, x in enumerate(m.alphabet.letters):
                nxt = tuple(frozenset(d for v in vs for d in g.edges[v][i])
                            for g, vs in zip(graphs, vsets))
                if nxt not in witness:
                    witness[nxt] = witness[vsets] + (x,)
                    frontier.append(nxt)
        for side, state_sets in enumerate((m.vertex_sets_neg, m.vertex_sets_pos)):
            seen_sets: dict[int, set] = {s: set() for s in range(m.n_states)}
            for vsets, p in witness.items():
                s = sltm_state_after(m, p)
                assert vsets[side] <= state_sets[s]  # P2 at the subset level
                seen_sets[s] |= vsets[side]
            for s in range(m.n_states):
                assert seen_sets[s] == state_sets[s]  # Eq. (1) both ways


def test_sltm_p2_prefix_images_contained():
    for text, aps in [("G a", ["a"]), ("GF a -> GF b", ["a", "b"])]:
        a, m = build(text, aps)
        for graph, vsets in ((m.g_neg, m.vertex_sets_neg),
                             (m.g_pos, m.vertex_sets_pos)):
            for p in prefixes_up_to(m.alphabet, 3):
                vs = {graph.initial}
                for x in p:
                    vs = {d for v in vs for d in graph.edges[v][m.alphabet.number[x]]}
                s = sltm_state_after(m, p)
                assert vs <= vsets[s]


def test_sltm_p4_vertex_set_step():
    for text, aps in [("G a", ["a"]), ("a U b", ["a", "b"])]:
        a, m = build(text, aps)
        for s in range(m.n_states):
            for p in prefixes_up_to(m.alphabet, 3):
                target = s
                vs = set(m.vertex_sets_neg[s])
                for x in p:
                    i = m.alphabet.number[x]
                    target = m.delta[target][i]
                    vs = {d for v in vs for d in m.g_neg.edges[v][i]}
                assert vs <= m.vertex_sets_neg[target]


def test_sltm_moore_property():
    # prefixes landing in the same state have the same continuations
    for text, aps in [("G a", ["a"]), ("a U b", ["a", "b"])]:
        a, m = build(text, aps)
        nnf = to_nnf(parse_ltl(text, aps))
        lassos = lassos_up_to(m.alphabet, 1, 2)
        by_state: dict[int, list] = {}
        for p in prefixes_up_to(m.alphabet, 3):
            by_state.setdefault(sltm_state_after(m, p), []).append(p)
        for _s, group in by_state.items():
            rep = group[0]
            rep_vec = [eval_lasso(nnf, prepend(w, rep)) for w in lassos]
            for p in group[1:]:
                vec = [eval_lasso(nnf, prepend(w, p)) for w in lassos]
                assert vec == rep_vec


def test_sltm_single_step_check_runs_on_corpus():
    for f, aps in formula_corpus(12, seed=31):
        alpha = Alphabet.from_aps(aps)
        a = from_ltl(to_nnf(f), alpha)
        build_canonical_sltm(a, check_single_step=True)


def test_sltm_json_roundtrip():
    _a, m = build("GF a -> GF b", ["a", "b"])
    data = sltm_to_json(m)
    again = sltm_from_json(data)
    assert again.n_states == m.n_states
    assert again.initial == m.initial
    assert again.delta == m.delta
    assert again.labels == m.labels
    assert again.vertex_sets_neg == m.vertex_sets_neg
    assert sltm_to_json(again) == data


def test_sltm_dot():
    _a, m = build("G a", ["a"])
    assert sltm_to_dot(m).startswith("digraph")


def _member_labels_by_state(m):
    """The label of every vertex set that the subset construction over the
    complement graph reaches, grouped by the SLTM state it reaches with,
    together with that state's own label."""
    g = m.g_neg
    start = (frozenset({g.initial}), m.initial)
    seen = {start}
    todo = [start]
    while todo:
        vs, s = todo.pop()
        for i in range(len(m.alphabet.letters)):
            nxt = (frozenset(d for v in vs for d in g.edges[v][i]), m.delta[s][i])
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    groups = {s: {m.labels[s]} for s in range(m.n_states)}
    for vs, s in seen:
        groups[s].add(label_of(vs, g))
    return groups


def _corpus_labels():
    """Per formula of a small corpus: the automaton, an equivalence oracle
    over it and its dual, the member labels grouped by SLTM state, and all
    those labels in a fixed order."""
    for f, aps in formula_corpus(8, seed=3):
        alpha = Alphabet.from_aps(aps)
        a = from_ltl(to_nnf(f), alpha)
        m = build_canonical_sltm(a)
        groups = _member_labels_by_state(m)
        labels = sorted(set().union(*groups.values()), key=lambda l: repr(l.unions))
        yield f, a, LanguageOracle(a, a.dual), groups, labels


def test_labels_equivalent_agrees_with_lasso_membership():
    # lasso membership comes from the game solver, not the breakpoint
    # kernel: labels told apart by a lasso are inequivalent, labels merged
    # into one SLTM state are equivalent
    told_apart = merged = 0
    for f, a, oracle, groups, labels in _corpus_labels():
        battery = enumerate_lassos(a.alphabet, 1, 2)
        member = {l: [label_accepts_lasso(l, a, w) for w in battery] for l in labels}
        for l1, l2 in itertools.combinations(labels, 2):
            if member[l1] != member[l2]:
                told_apart += 1
                assert labels_equivalent(l1, l2, oracle) is False, (f, l1, l2)
        for group in groups.values():
            for l1, l2 in itertools.combinations(sorted(group, key=lambda l: repr(l.unions)), 2):
                merged += 1
                assert labels_equivalent(l1, l2, oracle) is True, (f, l1, l2)
    assert told_apart and merged


@pytest.fixture(scope="module")
def lower_bound_queries():
    """Every ``labels_equivalent`` query, with the build's oracle and the
    result, made while the SLTM of lower_bound_family(1) is built with the
    benchmark settings, and the machine built."""
    a = from_ltl(to_nnf(lower_bound_family(1)), lower_bound_alphabet(1, restricted=True))
    queries = []
    original = cocoa.sltm.labels_equivalent

    def recording(l1, l2, oracle):
        got = original(l1, l2, oracle)
        queries.append((oracle, l1, l2, got))
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cocoa.sltm, "labels_equivalent", recording)
        m = build_canonical_sltm(a, check_single_step=False)
    return queries, m


def test_distinguishing_lasso_separates_labels(lower_bound_queries):
    # membership comes from the game solver, which does not use the
    # breakpoint oracle the lasso is read from
    pairs = [(oracle, l1, l2, labels_equivalent(l1, l2, oracle))
             for _f, _a, oracle, _groups, labels in _corpus_labels()
             for l1, l2 in itertools.combinations(labels, 2)]
    queries, _m = lower_bound_queries
    pairs += queries
    separated = raised = 0
    for oracle, l1, l2, equivalent in pairs:
        if equivalent:
            with pytest.raises(ValueError):
                distinguishing_lasso(l1, l2, oracle)
            raised += 1
        else:
            w = distinguishing_lasso(l1, l2, oracle)
            a = oracle.a
            assert label_accepts_lasso(l1, a, w) != label_accepts_lasso(l2, a, w), (l1, l2, w)
            separated += 1
    assert separated and raised


def test_lower_bound_sltm_makes_few_false_equivalence_queries(lower_bound_queries):
    # each rejected candidate adds a lasso that splits the signatures, so
    # rejections stay near the number of states (a fixed battery of 64
    # lassos left 95 of them)
    queries, m = lower_bound_queries
    assert m.n_states == 13
    assert sum(not got for *_pair, got in queries) <= 20
