"""Canonical suffix-language tracking machine: labels, equivalence,
minimality, and the P1-P4 structural properties."""

import gc
import itertools
import weakref
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocoa import (
    Alphabet, LassoWord, build_chain_for_formula, dualize, enumerate_lassos, eval_lasso, from_ltl,
    label_of, labels_equivalent, lower_bound_alphabet,
    lower_bound_family, miyano_hayashi, parse_ltl, to_nnf, winning_state_positions,
)
import cocoa.obligation
import cocoa.sltm
from cocoa.awa import (
    Awa, CNF_FALSE, cnf_and, finalize_pcnf,
    mask_states, minimal_masks, minimal_sets, state_mask,
)
from cocoa.obligation import IncompatibleAutomata
from cocoa.sltm import (
    Label, LanguageOracle, build_canonical_sltm,
    distinguishing_lasso, label_bits, sink_normal, sltm_from_json, sltm_to_dot,
    sltm_to_json, suffix_label,
)

from conftest import (
    build_sltm, formula_corpus, label_accepts_lasso, lassos_up_to,
    prefixes_up_to, prepend, reference_accepted_lasso, reference_is_empty,
    reference_nonempty, reference_oracle_kernel, reference_suffix_label, sltm_state_after,
    weak_awas,
)
from test_chain_bytes import workloads
from test_tracing_hooks import counting_calls


def build(text, aps, **kw):
    alpha = Alphabet.from_aps(aps)
    a = from_ltl(to_nnf(parse_ltl(text, aps)), alpha)
    return a, build_sltm(a, **kw)


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


def syntactic_subset(l1: Label, l2: Label) -> bool:
    # every union of l2 weakens some union of l1, hence [[l1]] within [[l2]]
    return all(any(u1 & u2 == u1 for u1 in l1.unions) for u2 in l2.unions)


_unions = st.lists(st.integers(1, 31), max_size=4)


@settings(max_examples=300, deadline=None, database=None)
@given(_unions, _unions, _unions, st.lists(st.integers(0, 31), max_size=4))
def test_mutual_syntactic_containment_is_equality(base, extra1, extra2, widen):
    # the unions of a label form an antichain, so containment both ways,
    # once a shortcut of labels_equivalent, holds only for equal labels;
    # widened copies of shared unions make many pairs equal
    l1 = Label.make(base + extra1)
    l2 = Label.make(base + [u | w for u, w in zip(base, widen)] + extra2)
    assert (syntactic_subset(l1, l2) and syntactic_subset(l2, l1)) == (l1 == l2)


def test_labels_equivalent_reflexive(fig1):
    oracle = LanguageOracle(fig1)
    l = Label.make([state_mask({1, 2})])
    assert labels_equivalent(l, l, oracle) is True


def test_labels_equivalent_fig1_branch_states(fig1):
    oracle = LanguageOracle(fig1)
    f1_label = Label.make([1 << 2])   # G a branch state
    f2_label = Label.make([1 << 3])   # empty-language state
    assert labels_equivalent(f1_label, f2_label, oracle) is False
    universal = Label.make([])
    g2_label = Label.make([1 << 6])
    assert labels_equivalent(universal, g2_label, oracle) is True


def test_labels_equivalent_rejects_foreign_states(fig1):
    oracle = LanguageOracle(fig1)
    with pytest.raises(IncompatibleAutomata):
        labels_equivalent(Label.make([1 << 99]), Label.make([]), oracle)


def test_oracle_rejects_labels_over_dual_states():
    # bit n + 1 is a dual state inside the oracle's own masks; a label
    # naming it, on either side of a difference or on both sides of an
    # equivalence, is foreign to the automaton
    alpha = Alphabet.from_aps(["a"])
    a = from_ltl(to_nnf(parse_ltl("FG a", ["a"])), alpha)
    assert a.n_states == 5
    oracle = LanguageOracle(a)
    foreign, own = Label.make([1 << 6]), Label.make([1])
    for pos, neg in ((foreign, own), (own, foreign), (foreign, foreign)):
        with pytest.raises(IncompatibleAutomata, match="unknown state 6"):
            oracle.difference_roots(pos.unions, neg.unions)
    for l1, l2 in ((foreign, foreign), (own, foreign)):
        with pytest.raises(IncompatibleAutomata):
            labels_equivalent(l1, l2, oracle)
        with pytest.raises(IncompatibleAutomata):
            distinguishing_lasso(l1, l2, oracle)
    assert oracle.pairs == []


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
    names = ("iota",) + a.state_names + tuple("~" + s for s in a_dual.state_names) \
        + tuple(f"t{k}" for k in range(len(neg.unions)))
    out = Awa(alphabet, iota, delta, accepting, top, bottom, names)
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
    oracle = LanguageOracle(fig1)
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
    oracle = LanguageOracle(fig1)
    number = fig1.alphabet.number
    with_a = suffix_label(l, number[frozenset({"a"})], oracle)
    without_a = suffix_label(l, number[frozenset()], oracle)
    assert labels_equivalent(with_a, l, oracle) is True
    assert labels_equivalent(without_a, Label.make([1 << 3]), oracle) is True


@settings(max_examples=60, deadline=None, database=None)
@given(weak_awas())
def test_suffix_label_matches_the_row_fold(a):
    # single states, unions with each sink and with the next state, and
    # two-union labels: each steps as the fold over the transition rows,
    # on a fresh oracle and on one whose rows equivalence queries expanded
    n = a.n_states
    unions = [1 << q for q in range(n)]
    unions += [1 << q | 1 << s for q in range(n) for s in (a.top, a.bottom, (q + 1) % n)]
    labels = [Label.make([u]) for u in unions]
    labels += [Label.make([1 << q, 1 << (q + 1) % n]) for q in range(n)]
    letters = range(len(a.alphabet.letters))
    for l in labels:
        oracle = LanguageOracle(a)
        assert [suffix_label(l, i, oracle) for i in letters] == [
            reference_suffix_label(l, i, a) for i in letters]
    oracle = LanguageOracle(a)
    for l1, l2 in itertools.combinations(labels[:n], 2):
        labels_equivalent(l1, l2, oracle)
    assert any(row is not None for row in oracle.rows)
    for l in labels:
        for i in letters:
            assert suffix_label(l, i, oracle) == reference_suffix_label(l, i, a)


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
        oracle = LanguageOracle(a)
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
        start = (frozenset({0}), frozenset({0}))
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
                vs = {0}
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
        build_sltm(a, check_single_step=True)


def test_single_step_check_fires(monkeypatch):
    # a suffix label naming the empty language, on a transition whose
    # successor's language is not empty, classifies as another state
    a, m = build("G a", ["a"])
    s, i = m.initial, m.alphabet.number[frozenset({"a"})]
    succ = m.delta[s][i]
    assert any(label_accepts_lasso(m.labels[succ], a, w) for w in lassos_up_to(m.alphabet, 1, 1))
    original = cocoa.sltm.suffix_label

    def wrong(label, j, b):
        if (label, j) == (m.labels[s], i):
            return Label.make([1 << b.a.bottom])
        return original(label, j, b)

    monkeypatch.setattr(cocoa.sltm, "suffix_label", wrong)
    with pytest.raises(AssertionError, match="single-step condition violated"):
        build_sltm(a, check_single_step=True)


def test_checkpoints_run_inside_the_stages():
    # a cap can stop each stage mid-way: the graphs call the checkpoint
    # once per vertex expanded, with the vertices found so far, and the
    # machine first once per row explored, with the states found so far
    a = from_ltl(to_nnf(lower_bound_family(1)), lower_bound_alphabet(1, restricted=True))
    counts = {"g_neg": [], "g_pos": [], "sltm": []}
    g_neg = miyano_hayashi(a.dual, counts["g_neg"].append)
    g_pos = miyano_hayashi(a, counts["g_pos"].append)
    m = build_canonical_sltm(a, g_neg, g_pos, checkpoint=counts["sltm"].append)
    for seen, size in ((counts["g_neg"], g_neg.n_vertices),
                       (counts["g_pos"], g_pos.n_vertices),
                       (counts["sltm"][:m.n_states], m.n_states)):
        assert len(seen) == size == seen[-1]
        assert seen == sorted(seen)


@pytest.mark.parametrize("check_single_step", [False, True])
def test_checkpoints_reach_the_sltm_tail(check_single_step):
    # after the last row explored, each vertex-set sweep calls the
    # checkpoint once per state in its closure check (and once per 1,024
    # steps), and the single-step check once per row, so a cap can stop
    # the stage's tail too
    a = from_ltl(to_nnf(lower_bound_family(1)), lower_bound_alphabet(1, restricted=True))
    seen = []
    m = build_sltm(a, check_single_step=check_single_step, checkpoint=seen.append)
    n = m.n_states
    tail = seen[n:]
    assert len(tail) >= (3 if check_single_step else 2) * n
    assert set(tail) == {n}


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


def test_sltm_from_json_checks_the_alphabet():
    # FG a has a one-state machine; without letters its rows are empty,
    # and an alphabet with no letter indexes nothing
    _a, m = build("FG a", ["a"])
    data = sltm_to_json(m)
    assert data["states"] == 1
    data["letters"], data["delta"] = [], [[]]
    with pytest.raises(ValueError, match="at least one letter"):
        sltm_from_json(data)
    # letters written as strings would split into the same two letters
    data = sltm_to_json(m)
    data["letters"] = ["", "a"]
    with pytest.raises(ValueError, match="lists of names"):
        sltm_from_json(data)


def test_sltm_dot():
    _a, m = build("G a", ["a"])
    assert sltm_to_dot(m).startswith("digraph")


def _member_labels_by_state(m):
    """The label of every vertex set that the subset construction over the
    complement graph reaches, grouped by the SLTM state it reaches with,
    together with that state's own label."""
    g = m.g_neg
    start = (frozenset({0}), m.initial)
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
        m = build_sltm(a)
        groups = _member_labels_by_state(m)
        labels = sorted(set().union(*groups.values()), key=lambda l: repr(l.unions))
        yield f, a, LanguageOracle(a), groups, labels


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
        m = build_sltm(a, check_single_step=False)
    return queries, m


@pytest.fixture(scope="module")
def label_pairs(lower_bound_queries):
    """Every pair of corpus labels with its oracle and verdict, then the
    queries of the lower_bound_family(1) build."""
    pairs = [(oracle, l1, l2, labels_equivalent(l1, l2, oracle))
             for _f, _a, oracle, _groups, labels in _corpus_labels()
             for l1, l2 in itertools.combinations(labels, 2)]
    queries, _m = lower_bound_queries
    return pairs + queries


def test_distinguishing_lasso_separates_labels(label_pairs):
    # membership comes from the game solver, which does not use the
    # breakpoint oracle the lasso is read from
    separated = raised = 0
    for oracle, l1, l2, equivalent in label_pairs:
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


def test_seeded_signatures_split_only_inequivalent_labels(label_pairs):
    # a label's signature starts as its membership of the suite of words
    # x^omega and x.y^omega, from one game solve: labels the oracle calls
    # equivalent share it, so labels with different signatures are never
    # equivalent, and the build need not ask about them
    rows = {}
    split = merged = 0
    for oracle, l1, l2, equivalent in label_pairs:
        a = oracle.a
        if a not in rows:
            rows[a] = winning_state_positions(a, enumerate_lassos(a.alphabet, 1, 1))
        same = label_bits(l1, rows[a]) == label_bits(l2, rows[a])
        assert same or not equivalent, (l1, l2)
        split += not same
        merged += equivalent
    assert split and merged


def game_bits(a: Awa):
    """The words of ``enumerate_lassos(alphabet, 2, 2)`` in the language of
    a label's unions, as ``label_bits`` of every state's row over the game
    positions (all of them for no unions)."""
    lassos = enumerate_lassos(a.alphabet, 2, 2)
    rows = winning_state_positions(a, lassos)
    return lambda unions: label_bits(Label(unions), rows) & lassos.full


def test_sink_normal_form_keeps_the_language_of_built_labels(label_pairs):
    # the labels of the corpus machines and the queries of the n=1 build;
    # membership comes from the game solver, not the oracle
    bits = {}
    changed = 0
    for oracle, l1, l2, _equivalent in label_pairs:
        a = oracle.a
        if a not in bits:
            bits[a] = game_bits(a)
        for label in (l1, l2):
            form = sink_normal(label, a)
            assert bits[a](form) == bits[a](label.unions), (label, form)
            changed += form != label.unions
    assert changed


@settings(max_examples=60, deadline=None, database=None)
@given(st.data())
def test_sink_normal_form_keeps_the_language_on_weak_automata(data):
    # unions over every state, the sinks included; a union left empty once
    # the rejecting sink is removed makes the form the empty language
    a = data.draw(weak_awas())
    unions = st.frozensets(st.sampled_from(range(a.n_states)), min_size=1, max_size=3)
    label = Label.make(map(state_mask, data.draw(st.lists(unions, max_size=4))))
    bits = game_bits(a)
    assert bits(sink_normal(label, a)) == bits(label.unions)


def test_accepted_lasso_matches_two_pass_reference(lower_bound_queries):
    # the lasso read off the targets the emptiness check kept is the one a
    # second search over the true verdicts finds, on every nonempty
    # difference half of the corpus label pairs and of the inequivalent
    # pairs met while lower_bound_family(1) is built
    pairs = [(oracle, l1, l2)
             for _f, _a, oracle, _groups, labels in _corpus_labels()
             for l1, l2 in itertools.combinations(labels, 2)]
    queries, _m = lower_bound_queries
    pairs += [(oracle, l1, l2) for oracle, l1, l2, equivalent in queries if not equivalent]
    compared = 0
    for oracle, l1, l2 in pairs:
        for pos, neg in ((l1, l2), (l2, l1)):
            roots = oracle.difference_roots(pos.unions, neg.unions)
            if oracle.nonempty_from(roots):
                assert oracle.accepted_lasso(roots) == reference_accepted_lasso(oracle, roots)
                compared += 1
    assert compared > 50


def test_lower_bound_sltm_makes_few_false_equivalence_queries(lower_bound_queries):
    # the signatures start from the words x^omega and x.y^omega (20 bits)
    # and each rejected candidate adds a lasso that splits them, so
    # rejections stay few (an empty starting battery left 9, a fixed battery of 64 lassos
    # 95); labels keyed by their sink-normal form merge 14 of the 23
    # equivalent pairs without a query, so the build makes 15 queries in
    # all (29 keyed by label), and a change to the classification that
    # asks the oracle more fails here
    queries, m = lower_bound_queries
    assert m.n_states == 13
    assert len(queries) <= 15
    assert sum(not got for *_pair, got in queries) <= 6


def test_corpus_sltm_equivalence_queries(monkeypatch):
    # the benchmark corpus with the translate settings: one map from
    # labels to states answers every label met before, in the exploration
    # and in the single-step check, which asked 425 queries when vertex
    # sets and label pairs were looked up apart; signatures seeded with the
    # words x^omega and x.y^omega leave few candidates to reject, where an
    # empty starting battery asked 359 queries, 193 of them False; keying
    # the map by sink-normal forms, not labels, took it from 169 to 112
    queries = []
    original = cocoa.sltm.labels_equivalent

    def counting(l1, l2, oracle):
        got = original(l1, l2, oracle)
        queries.append(got)
        return got

    monkeypatch.setattr(cocoa.sltm, "labels_equivalent", counting)
    items = workloads.corpus_items(workloads.CORPUS_SEED)
    assert len(items) == 154
    for item in items:
        alpha = Alphabet.from_aps(item["aps"])
        build_sltm(from_ltl(to_nnf(parse_ltl(item["text"], item["aps"])), alpha),
                   check_single_step=True)
    assert len(queries) <= 112
    assert queries.count(False) <= 3


def build_oracle(a: Awa, oracle_class: type[LanguageOracle] = LanguageOracle,
                 **kw) -> LanguageOracle:
    """The language oracle of the automaton's SLTM build (``build_sltm``
    with the keywords given), as the build left it, made as an
    ``oracle_class``."""
    made = []

    class Recording(oracle_class):
        def __init__(self, a: Awa):
            super().__init__(a)
            made.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cocoa.sltm, "LanguageOracle", Recording)
        build_sltm(a, **kw)
    (oracle,) = made
    return oracle


def query_single_states(oracle: LanguageOracle) -> None:
    """Ask the oracle, beyond its build's queries, whether each two labels
    of one state are equivalent, so that difference roots hold
    obligations in both halves."""
    singles = [Label.make([1 << q]) for q in range(oracle.a.n_states)]
    for l1, l2 in itertools.combinations(singles, 2):
        labels_equivalent(l1, l2, oracle)


def test_oracles_die_with_their_builds():
    # an oracle holds no reference to itself, so each build's oracle (its
    # rows, half rows and models) is freed when the build returns, without
    # waiting for a cyclic collection
    made = []

    class Watched(LanguageOracle):
        def __init__(self, a: Awa):
            super().__init__(a)
            made.append(weakref.ref(self))

    inputs = [(f, Alphabet.from_aps(aps)) for f, aps in formula_corpus(10, seed=3)]
    inputs.append((lower_bound_family(1), lower_bound_alphabet(1, restricted=True)))
    gc.disable()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cocoa.sltm, "LanguageOracle", Watched)
            for f, alpha in inputs:
                build_chain_for_formula(f, alpha)
                assert made[-1]() is None, f
    finally:
        gc.enable()
    assert len(made) == len(inputs)


def rows_match_reference(oracle: LanguageOracle) -> int:
    """Check every row the oracle expanded against the one kernel over
    both halves, letter by letter, as sets: the order within a row numbers
    only oracle vertices, which nothing dumps; the number of rows checked."""
    kernel = reference_oracle_kernel(oracle.a)
    checked = 0
    for vid, row in enumerate(oracle.rows):
        if row is not None:
            S, O = oracle.pairs[vid]
            for i, dsts in enumerate(row):
                want = kernel.successors(S, O, i, not O)
                assert len(dsts) == len(want) and {oracle.pairs[d] for d in dsts} == set(want), \
                    (vid, S, O, i)
            checked += 1
    return checked


STREETT_2 = ("(GF a1 -> GF b1) & (GF a2 -> GF b2)", ["a1", "b1", "a2", "b2"])


def test_oracle_rows_match_one_kernel_over_both_halves():
    # the factored rows (each half's successors from its own kernel, joined
    # by the reset) name the successors of one kernel over the disjoint
    # union on every vertex the builds expand, and on the corpus and Rabin
    # automata on every vertex the single-state queries expand too (the
    # builds alone expand 766 rows, since no vertex holding a state and its
    # dual is expanded)
    inputs = [(to_nnf(f), Alphabet.from_aps(aps)) for f, aps in formula_corpus(60, seed=5)]
    inputs += [(to_nnf(parse_ltl(text, aps)), Alphabet.from_aps(aps))
               for text, aps in workloads.RABIN_FORMULAS + [STREETT_2]]
    checked = 0
    for f, alpha in inputs:
        oracle = build_oracle(from_ltl(f, alpha))
        query_single_states(oracle)
        checked += rows_match_reference(oracle)
    for n in (1, 2):
        a = from_ltl(to_nnf(lower_bound_family(n)), lower_bound_alphabet(n, restricted=True))
        checked += rows_match_reference(build_oracle(a))
    assert checked > 2000


@settings(max_examples=40, deadline=None, database=None)
@given(weak_awas())
def test_oracle_rows_match_one_kernel_on_weak_automata(a):
    # besides the build's queries, one per pair of single states
    oracle = build_oracle(a)
    query_single_states(oracle)
    assert rows_match_reference(oracle)


def verdicts_match_reference(oracle: LanguageOracle) -> int:
    """Check every verdict the oracle settled, the empty ones shared by
    state set, against a search without sharing on a fresh oracle, in which
    vertices with equal state sets have equal verdicts; the number of
    verdicts checked."""
    settled = [v for v, got in enumerate(oracle.verdict) if got is not None]
    expected = reference_nonempty(oracle.a, [oracle.pairs[v] for v in settled])
    for v in settled:
        assert oracle.verdict[v] == expected[oracle.pairs[v]], (v, oracle.pairs[v])
    by_set: dict[int, set[bool]] = {}
    for (S, _O), verdict in expected.items():
        by_set.setdefault(S, set()).add(verdict)
    assert all(len(verdicts) == 1 for verdicts in by_set.values())
    return len(settled)


def test_shared_verdicts_match_unshared_search():
    # the verdicts left by each build, with every vertex found empty
    # settling the others of its state set
    inputs = [(to_nnf(f), Alphabet.from_aps(aps)) for f, aps in formula_corpus(40, seed=7)]
    inputs += [(to_nnf(parse_ltl(text, aps)), Alphabet.from_aps(aps))
               for text, aps in workloads.RABIN_FORMULAS]
    inputs.append((to_nnf(lower_bound_family(1)), lower_bound_alphabet(1, restricted=True)))
    checked = 0
    for f, alpha in inputs:
        checked += verdicts_match_reference(build_oracle(from_ltl(f, alpha)))
    assert checked > 1000


@settings(max_examples=40, deadline=None, database=None)
@given(weak_awas())
def test_shared_verdicts_match_unshared_search_on_weak_automata(a):
    # besides the build's queries, one per pair of single states
    oracle = build_oracle(a)
    query_single_states(oracle)
    assert verdicts_match_reference(oracle)


def test_lower_bound_oracle_reuses_half_rows():
    # the n=1 build computes each half row's kernel successors once, as
    # many as the distinct rows of each half its oracle vertices need
    calls = []

    class Counting(LanguageOracle):
        def __init__(self, a: Awa):
            super().__init__(a)
            for half, kernel in enumerate(self.halves):
                def successors(S, O, i, reset, half=half, computed=kernel.successors):
                    calls.append((half, S, O, reset, i))
                    return computed(S, O, i, reset)

                kernel.successors = successors

    a = from_ltl(to_nnf(lower_bound_family(1)), lower_bound_alphabet(1, restricted=True))
    oracle = build_oracle(a, Counting, check_single_step=False)
    assert len(set(calls)) == len(calls)
    assert set(calls) == {(*key, i) for key in oracle.half_rows
                          for i in range(len(a.alphabet.letters))}
    expanded = sum(row is not None for row in oracle.rows)
    assert 0 < len(oracle.half_rows) < expanded
    assert len(oracle.half_rows) <= 110


def test_lower_bound_oracle_expands_no_vertex_holding_a_state_and_its_dual():
    # the n=1 build interned 759 oracle vertices and expanded 539 while it
    # still built and expanded the vertices holding a state in both halves
    a = from_ltl(to_nnf(lower_bound_family(1)), lower_bound_alphabet(1, restricted=True))
    oracle = build_oracle(a, check_single_step=False)
    n = a.n_states
    assert len(oracle.pairs) <= 211
    assert sum(row is not None for row in oracle.rows) <= 99
    assert not any(S & S >> n for (S, _O), row in zip(oracle.pairs, oracle.rows)
                   if row is not None)


@settings(max_examples=40, deadline=None, database=None)
@given(weak_awas())
def test_vertices_holding_a_state_and_its_dual_are_empty(a):
    # the vertices with a state in both halves that a build and the
    # single-state queries interned, and each state paired with its dual:
    # the oracle settled the former empty unexpanded, and a search that
    # expands them finds each empty, and each successor under the one
    # kernel over both halves again holding a state in both halves
    n = a.n_states
    oracle = build_oracle(a)
    query_single_states(oracle)
    pairs = []
    for v, (S, O) in enumerate(oracle.pairs):
        if S & S >> n:
            assert oracle.verdict[v] is False and oracle.rows[v] is None, (S, O)
            pairs.append((S, O))
    kernel = reference_oracle_kernel(a)
    for q in range(n):
        if q not in (a.top, a.bottom):
            S = 1 << q | 1 << (n + q)
            pairs.append((S, S & ~kernel.accepting))
    verdicts = reference_nonempty(a, pairs)
    for (S, O), nonempty in verdicts.items():
        assert S & S >> n and not nonempty, (S, O)
        for i in range(len(a.alphabet.letters)):
            assert all(s & s >> n for s, _o in kernel.successors(S, O, i, not O)), (S, O, i)


def test_difference_roots_of_a_label_and_a_wider_one_are_none():
    # a difference whose every negated union holds a positive union (the
    # same label, each union widened by a state, or the universal label) is
    # empty, found without solving for the positive side's models or
    # interning a vertex
    automata = [from_ltl(to_nnf(f), Alphabet.from_aps(aps)) for f, aps in formula_corpus(8, seed=3)]
    automata.append(from_ltl(to_nnf(lower_bound_family(1)),
                             lower_bound_alphabet(1, restricted=True)))
    asked = 0
    for a in automata:
        labels = build_sltm(a).labels
        oracle = LanguageOracle(a)
        with counting_calls({"minimal_models": cocoa.obligation.minimal_models}) as calls:
            for label in labels:
                wider = [Label.make([u | 1 << q for u in label.unions]) for q in range(a.n_states)]
                for neg in [label, Label.make([])] + wider:
                    assert oracle.difference_roots(label.unions, neg.unions) == [], (label, neg)
                    asked += 1
        assert calls == {"minimal_models": 0}
        assert oracle.pairs == []
    assert asked > 100
