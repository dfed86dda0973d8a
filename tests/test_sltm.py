"""Canonical suffix-language tracking machine: labels, equivalence,
minimality, and the P1-P4 structural properties."""

import itertools

import pytest

from cocoa import (
    Alphabet, LassoWord, dualize, eval_lasso, from_ltl, is_empty,
    label_accepts_lasso, label_of, labels_equivalent, miyano_hayashi,
    parse_ltl, sltm_state_after, to_nnf,
)
import cocoa.sltm
from cocoa.awa import (
    Awa, CNF_FALSE, Pcnf, _edge_lists, _scc_ranks, cnf_and, cnf_subsume,
    finalize_pcnf,
)
from cocoa.sltm import (
    IncompatibleAutomata, Label, _LanguageOracle, _oracle_for,
    build_canonical_sltm, sltm_from_json, sltm_to_dot, sltm_to_json,
    suffix_label,
)

from conftest import (
    formula_corpus, lassos_up_to, prefixes_up_to, prepend,
)


def build(text, aps, **kw):
    alpha = Alphabet.from_aps(aps)
    a = from_ltl(to_nnf(parse_ltl(text, aps)), alpha)
    return a, build_canonical_sltm(a, **kw)


def test_label_canonical_form():
    l = Label.make([frozenset({1, 2}), frozenset({1}), frozenset({3})])
    assert l.unions == (frozenset({1}), frozenset({3}))
    with pytest.raises(ValueError):
        Label.make([frozenset()])


def test_label_of_merges_shared_state_sets(fig1):
    g = miyano_hayashi(dualize(fig1))
    # two forged vertices sharing the state set give a single union
    ids = [i for i, (s, _o) in enumerate(g.vertices)][:1]
    l1 = label_of(ids, g)
    assert len(l1.unions) == 1
    with pytest.raises(ValueError):
        label_of([], g)


def test_labels_equivalent_reflexive(fig1):
    d = dualize(fig1)
    l = Label.make([frozenset({1, 2})])
    assert labels_equivalent(l, l, fig1, d) is True


def test_labels_equivalent_fig1_branch_states(fig1):
    d = dualize(fig1)
    f1_label = Label.make([frozenset({2})])   # G a branch state
    f2_label = Label.make([frozenset({3})])   # empty-language state
    assert labels_equivalent(f1_label, f2_label, fig1, d) is False
    universal = Label.make([])
    g2_label = Label.make([frozenset({6})])
    assert labels_equivalent(universal, g2_label, fig1, d) is True


def test_labels_equivalent_rejects_foreign_states(fig1):
    d = dualize(fig1)
    with pytest.raises(IncompatibleAutomata):
        labels_equivalent(Label.make([frozenset({99})]), Label.make([]), fig1, d)


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
        return [frozenset(off_a + q for q in c) for c in clauses]

    def sh_d(clauses):
        return [frozenset(off_d + q for q in c) for c in clauses]

    top = off_a + a.top
    bottom = off_a + a.bottom
    d_bottom = off_d + a_dual.bottom

    delta: dict[tuple[int, frozenset[str]], Pcnf] = {}
    for q in range(n):
        for x in a.alphabet.letters:
            delta[(off_a + q, x)] = Pcnf.make(sh_a(a.delta[(q, x)].clauses))
            delta[(off_d + q, x)] = Pcnf.make(sh_d(a_dual.delta[(q, x)].clauses))
        if q == a.top:
            delta[(off_a + q, eps)] = Pcnf.make([frozenset({top})])
        else:
            delta[(off_a + q, eps)] = Pcnf.make([frozenset({bottom})])
        delta[(off_d + q, eps)] = Pcnf.make([frozenset({d_bottom})])
    for k, u in enumerate(neg.unions):
        for x in a.alphabet.letters:
            merged: set[frozenset[int]] = set()
            for q in sorted(u):
                merged.update(sh_d(a_dual.delta[(q, x)].clauses))
            delta[(t_ids[k], x)] = Pcnf.make(cnf_subsume(merged))
        delta[(t_ids[k], eps)] = Pcnf.make([frozenset({d_bottom})])

    # iota: the difference formula on eps, dead otherwise
    cnf = cnf_and(
        cnf_subsume({frozenset(off_a + q for q in u) for u in pos.unions}),
        CNF_FALSE if not neg.unions else cnf_subsume({frozenset(t_ids.values())}),
    )
    delta[(iota, eps)] = finalize_pcnf(cnf, top, bottom)
    for x in a.alphabet.letters:
        delta[(iota, x)] = Pcnf.make([frozenset({bottom})])

    accepting = frozenset(
        {off_a + q for q in a.accepting} | {off_d + q for q in a_dual.accepting})
    succ = _edge_lists(n_states, alphabet, delta)
    rank = tuple(_scc_ranks(n_states, succ, accepting))
    names = ("iota",) + a.state_names + tuple("~" + s for s in a_dual.state_names) \
        + tuple(f"t{k}" for k in range(len(neg.unions)))
    return Awa(alphabet, n_states, iota, delta, accepting, rank, top, bottom, names)


def test_labels_equivalent_matches_reference_encoding(fig1):
    # the shared-oracle decision agrees with the one-shot alternating
    # automaton encoding of each difference half
    d = dualize(fig1)
    candidates = [
        Label.make([]),
        Label.make([frozenset({2})]),
        Label.make([frozenset({3})]),
        Label.make([frozenset({2, 6})]),
        Label.make([frozenset({1}), frozenset({4})]),
        Label.make([frozenset({0})]),
    ]
    for l1, l2 in itertools.combinations(candidates, 2):
        ref = (is_empty(difference_automaton(l1, l2, fig1, d))
               and is_empty(difference_automaton(l2, l1, fig1, d)))
        assert labels_equivalent(l1, l2, fig1, d) == ref


def test_oracle_cache_ignores_reused_ids(fig1, monkeypatch):
    # an entry left by other automata whose ids were reused
    a, a_dual = fig1, dualize(fig1)
    other = from_ltl(to_nnf(parse_ltl("G a", ["a"])), Alphabet.from_aps(["a"]))
    other_dual = dualize(other)
    planted = _LanguageOracle(other, other_dual)
    monkeypatch.setattr(cocoa.sltm, "_ORACLES",
                        {(id(a), id(a_dual)): (other, other_dual, planted)})
    got = _oracle_for(a, a_dual)
    assert got is not planted
    assert got.n == a.n_states
    assert _oracle_for(a, a_dual) is got


def test_label_membership_helper(fig1, ab_alphabet):
    ga = to_nnf(parse_ltl("G a", ["a", "b"]))
    l = Label.make([frozenset({2})])  # f1 state
    for w in lassos_up_to(ab_alphabet, 1, 2):
        assert label_accepts_lasso(l, fig1, w) == eval_lasso(ga, w)


def test_suffix_label_semantics(fig1, ab_alphabet):
    # suffix of L(f1) = G a after reading a letter with a is G a again,
    # after a letter without a it is empty
    l = Label.make([frozenset({2})])
    d = dualize(fig1)
    with_a = suffix_label(l, frozenset({"a"}), fig1)
    without_a = suffix_label(l, frozenset(), fig1)
    assert labels_equivalent(with_a, l, fig1, d) is True
    assert labels_equivalent(without_a, Label.make([frozenset({3})]), fig1, d) is True


def test_sltm_fg_a_single_state():
    _a, m = build("FG a", ["a"])
    assert m.n_states == 1
    assert m.delta[(0, frozenset())] == 0


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
        d = dualize(a)
        for s1 in range(m.n_states):
            for s2 in range(s1 + 1, m.n_states):
                assert labels_equivalent(m.labels[s1], m.labels[s2], a, d) is False


def test_sltm_p1_eq1_witness_replay():
    # replay the naive construction with witness prefixes: every vertex of
    # every canonical state is reached by a prefix that lands in the state
    for text, aps in [("G a", ["a"]), ("a U b", ["a", "b"]),
                      ("GF a -> GF b", ["a", "b"])]:
        a, m = build(text, aps)
        g = m.g_neg
        start = frozenset({g.initial})
        witness = {start: ()}
        frontier = [start]
        while frontier:
            vn = frontier.pop(0)
            for x in m.alphabet.letters:
                nn = frozenset(d for v in vn for d in g.succ(v, x))
                if nn not in witness:
                    witness[nn] = witness[vn] + (x,)
                    frontier.append(nn)
        seen_sets: dict[int, set] = {s: set() for s in range(m.n_states)}
        for vn, p in witness.items():
            s = sltm_state_after(m, p)
            assert vn <= m.vertex_sets_neg[s]  # P2 at the subset level
            seen_sets[s] |= vn
        for s in range(m.n_states):
            assert seen_sets[s] == m.vertex_sets_neg[s]  # Eq. (1) both ways


def test_sltm_p2_prefix_images_contained():
    for text, aps in [("G a", ["a"]), ("GF a -> GF b", ["a", "b"])]:
        a, m = build(text, aps)
        for graph, vsets in ((m.g_neg, m.vertex_sets_neg),
                             (m.g_pos, m.vertex_sets_pos)):
            for p in prefixes_up_to(m.alphabet, 3):
                vs = {graph.initial}
                for x in p:
                    vs = {d for v in vs for d in graph.succ(v, x)}
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
                    target = m.delta[(target, x)]
                    vs = {d for v in vs for d in m.g_neg.succ(v, x)}
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
