"""Weak alternating automata: construction, dualization, game acceptance."""

import gc
import os
import subprocess
import sys
import textwrap
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocoa import (
    Alphabet, LassoWord, Lassos, build_chain, build_chain_for_formula, dualize,
    enumerate_lassos, eval_lasso, from_ltl, lower_bound_alphabet, lower_bound_family,
    miyano_hayashi, neg, parse_lasso, parse_ltl, to_nnf, winning_state_positions,
)
import cocoa
from cocoa.awa import (
    CNF_FALSE, CNF_TRUE, Awa, NotNnf, awa_to_dot, finalize_pcnf, from_ltl as _from_ltl,
    mask_states, minimal_sets, state_mask,
)
from cocoa.formula import (
    AND, FINALLY, GLOBALLY, LFALSE, LTRUE, NEXT, OR, RELEASE, UNTIL, Formula,
    atom,
)
from cocoa.obligation import minimal_models

from conftest import (
    AB, ab_lassos, accepts_lasso, build_fig1, formula_corpus, init_names, lassos_up_to,
    letter_at, reference_dual, reference_is_empty, reference_minimal_sets,
    reference_nonempty_witness, reference_winning_state_positions, replaced, row_pairs,
    subformulas, weak_awas,
)


def test_pcnf_canonical_form():
    p = finalize_pcnf([state_mask({1, 2}), state_mask({1}), state_mask({2, 1})], 5, 6)
    assert p == (state_mask({1}),)  # superset clauses pruned
    # the constants, which no transition formula may be, go to the sinks
    assert finalize_pcnf(CNF_TRUE, 5, 6) == (1 << 5,)
    assert finalize_pcnf(CNF_FALSE, 5, 6) == (1 << 6,)
    assert finalize_pcnf([state_mask({1}), 0], 5, 6) == (1 << 6,)


def test_validate_rejects_constant_formulas(fig1):
    # TRUE (no clause) and any CNF holding the empty clause are constants
    for constant in (CNF_TRUE, CNF_FALSE, (0, state_mask({1}))):
        delta = list(fig1.delta)
        delta[1] = (constant,) + delta[1][1:]
        with pytest.raises(AssertionError):
            replaced(fig1, delta=tuple(delta)).validate()


def test_validate_rejects_bad_shapes(fig1):
    # a row one letter short, an initial state that does not exist, a
    # clause naming state 9 of 9, an accepting state -1 and one state name
    # short: each failed only later with IndexError or ValueError; then a
    # rejecting top and an accepting bottom
    short = list(fig1.delta)
    short[1] = short[1][:-1]
    beyond = list(fig1.delta)
    beyond[1] = ((fig1.delta[1][0][0] | 1 << fig1.n_states,),) + beyond[1][1:]
    for bad in (replaced(fig1, delta=tuple(short)),
                replaced(fig1, initial=42),
                replaced(fig1, delta=tuple(beyond)),
                replaced(fig1, accepting=fig1.accepting | {-1}),
                replaced(fig1, state_names=fig1.state_names[:-1]),
                replaced(fig1, accepting=fig1.accepting - {fig1.top}),
                replaced(fig1, accepting=fig1.accepting | {fig1.bottom})):
        with pytest.raises(AssertionError):
            bad.validate()
        with pytest.raises(AssertionError):
            build_chain(bad)


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.frozensets(st.integers(0, 7)), max_size=10))
def test_minimal_sets_match_reference(family):
    # mask subsumption and the canonical order, read back as frozensets
    got = minimal_sets(map(state_mask, family))
    assert tuple(frozenset(mask_states(m)) for m in got) == reference_minimal_sets(family)


def test_from_ltl_state_count_fig1_formula(ab_alphabet):
    f = to_nnf(parse_ltl("FG a | GF b", ["a", "b"]))
    expected = len(subformulas(f)) + 2  # closure plus the two sinks
    a = from_ltl(f, ab_alphabet)
    assert a.n_states == expected
    assert a.n_states <= 9


def test_from_ltl_atom_first_letter(a_alphabet):
    a = from_ltl(to_nnf(parse_ltl("a", ["a"])), a_alphabet)
    for w in lassos_up_to(a_alphabet, 1, 2):
        assert accepts_lasso(a, w) == ("a" in letter_at(w, 0))


def test_from_ltl_requires_nnf(ab_alphabet):
    with pytest.raises(NotNnf):
        from_ltl(parse_ltl("GF a -> GF b", ["a", "b"]), ab_alphabet)
    with pytest.raises(NotNnf):
        from_ltl(neg(parse_ltl("G a", ["a", "b"])), ab_alphabet)


def test_from_ltl_agrees_with_fig1(fig1, ab_alphabet):
    f = to_nnf(parse_ltl("FG a | GF b", ["a", "b"]))
    a = from_ltl(f, ab_alphabet)
    for w in lassos_up_to(ab_alphabet, 2, 3):
        assert accepts_lasso(a, w) == accepts_lasso(fig1, w)


def test_fig1_golden_lassos(fig1, ab_alphabet):
    assert accepts_lasso(fig1, parse_lasso(";{a}", ab_alphabet)) is True
    assert accepts_lasso(fig1, parse_lasso(";{}", ab_alphabet)) is False
    assert accepts_lasso(fig1, parse_lasso(";{b}{}", ab_alphabet)) is True


def test_fig1_branch_languages(fig1, ab_alphabet):
    f1_lang = to_nnf(parse_ltl("G a", ["a", "b"]))
    f0_lang = to_nnf(parse_ltl("FG a", ["a", "b"]))
    g1_lang = to_nnf(parse_ltl("F b", ["a", "b"]))
    for w in lassos_up_to(ab_alphabet, 1, 2):
        assert accepts_lasso(fig1, w, start=2) == eval_lasso(f1_lang, w)
        assert accepts_lasso(fig1, w, start=1) == eval_lasso(f0_lang, w)
        assert accepts_lasso(fig1, w, start=5) == eval_lasso(g1_lang, w)
        assert accepts_lasso(fig1, w, start=3) is False  # f2 is empty
        assert accepts_lasso(fig1, w, start=6) is True   # g2 is universal


def component_index(a: Awa) -> dict[int, int]:
    """The position of each state's component in ``a.components``."""
    return {q: k for k, comp in enumerate(a.components) for q in comp}


def test_check_weak_fig1_ranks(fig1):
    # sinks first: each component comes after every component it reaches
    order = component_index(fig1)
    assert order[3] < order[2] < order[1] < order[0]  # f2 < f1 < f0 < i0
    assert order[6] < order[5] < order[4]             # g2 < g1 < g0


def test_check_weak_rejects_mixed_scc(fig1):
    # a two-state cycle through f0 (rejecting) and f1 (accepting)
    delta = list(fig1.delta)
    delta[1] = ((1 << 2,),) * len(fig1.alphabet.letters)
    delta[2] = ((1 << 1,),) * len(fig1.alphabet.letters)
    broken = replaced(fig1, delta=tuple(delta))
    assert (1, 2) in broken.components
    with pytest.raises(AssertionError, match="mixes accepting and rejecting"):
        broken.validate()
    with pytest.raises(AssertionError, match="mixes accepting and rejecting"):
        build_chain(broken)


def test_validate_rejects_bad_ranks(fig1):
    # a rank order exists exactly when no component mixes acceptance: an
    # edge from g2 back up to i0 closes the cycle i0 -> g0 -> g1 -> g2 -> i0
    # through rejecting i0 and g1 and accepting g0 and g2
    i0, g1, g2 = 0, 5, 6
    delta = list(fig1.delta)
    delta[g2] = ((1 << i0,),) * len(fig1.alphabet.letters)
    rising = replaced(fig1, delta=tuple(delta))
    assert (0, 4, 5, 6) in rising.components
    # the same cycle with every member accepting is weak again ...
    uniform = replaced(rising, accepting=rising.accepting | {i0, g1})
    uniform.validate()
    # ... until one member leaves the accepting set
    mixed = replaced(uniform, accepting=uniform.accepting - {g1})
    for bad in (rising, mixed):
        with pytest.raises(AssertionError, match="mixes accepting and rejecting"):
            bad.validate()
        with pytest.raises(AssertionError, match="mixes accepting and rejecting"):
            build_chain(bad)


def test_check_weak_single_accepting_loop(a_alphabet):
    a = from_ltl(to_nnf(parse_ltl("G a", ["a"])), a_alphabet)
    assert sorted(a.components) == [(q,) for q in range(a.n_states)]


def test_check_weak_never_errors_on_corpus():
    for f, aps in formula_corpus(30, seed=8):
        alpha = Alphabet.from_aps(aps)
        from_ltl(to_nnf(f), alpha).validate()


def test_from_ltl_components_are_singletons():
    # every transition of from_ltl goes to the state itself or to a strict
    # subformula, so no component can mix accepting and rejecting states
    inputs = [from_ltl(to_nnf(f), Alphabet.from_aps(aps))
              for f, aps in formula_corpus(100, seed=17, max_size=8)]
    inputs += [from_ltl(to_nnf(lower_bound_family(n)), lower_bound_alphabet(n))
               for n in (1, 2, 3)]
    for a in inputs:
        for b in (a, a.dual):
            assert all(len(comp) == 1 for comp in b.components), b.state_names[b.initial]
            assert sorted(q for (q,) in b.components) == list(range(b.n_states))


def duality_inputs() -> list[Awa]:
    """Automata from a formula corpus, the lower-bound family at n=1,2 over
    both alphabets, and the hand-built fig1."""
    inputs = [from_ltl(to_nnf(f), Alphabet.from_aps(aps))
              for f, aps in formula_corpus(40, seed=16)]
    inputs += [from_ltl(to_nnf(lower_bound_family(n)), lower_bound_alphabet(n, restricted=r))
               for n in (1, 2) for r in (True, False)]
    return inputs + [build_fig1()]


def test_dualize_involution():
    # a dual built twice is the automaton again, field by field, and the
    # cached dual of the dual is the automaton itself
    for a in duality_inputs():
        dd = dualize(dualize(a))
        for name in init_names(Awa):
            assert getattr(dd, name) == getattr(a, name), name
        assert a.dual.dual is a
        assert dualize(a).dual is a


def test_automata_die_with_their_chains():
    # a dual refers back to its automaton weakly, so a chain's automaton
    # and its dual are freed when the chain is dropped, without waiting
    # for a cyclic collection
    gc.disable()
    try:
        chain = build_chain_for_formula(parse_ltl("G (a -> F b)", ["a", "b"]))
        assert chain.awa.dual.dual is chain.awa
        a, d = weakref.ref(chain.awa), weakref.ref(chain.awa.dual)
        del chain
        assert a() is None and d() is None
    finally:
        gc.enable()


def test_dual_rebuilds_its_automaton_once_it_is_gone():
    # a dual that outlives its automaton builds a new one, kept from then on
    d = from_ltl(to_nnf(parse_ltl("G (a -> F b)", ["a", "b"])), AB).dual
    assert d.dual is d.dual
    for name in init_names(Awa):
        assert getattr(d.dual, name) == getattr(dualize(d), name), name


def test_dual_rows_are_minimal_models():
    # the breakpoint kernels read the dual's rows as the minimal models of
    # the automaton's formulas, and the automaton's rows as those of the
    # dual's
    for a in duality_inputs():
        for row, dual_row in zip(a.delta, a.dual.delta):
            for p, dp in zip(row, dual_row):
                assert dp == minimal_models(p)
                assert minimal_models(dp) == p


def test_dualize_matches_frozenset_fold():
    for a in duality_inputs():
        assert dualize(a).delta == tuple(tuple(reference_dual(p) for p in row)
                                         for row in a.delta), a.state_names[a.initial]


def test_dualize_complements_on_lassos(ab_alphabet):
    f = parse_ltl("FG a | GF b", ["a", "b"])
    a = from_ltl(to_nnf(f), ab_alphabet)
    d = dualize(a)
    negated = to_nnf(neg(f))
    for w in lassos_up_to(ab_alphabet, 2, 3):
        assert accepts_lasso(d, w) == eval_lasso(negated, w)


def test_dualize_of_tautology_rejects_everything(a_alphabet):
    a = from_ltl(to_nnf(parse_ltl("a | !a", ["a"])), a_alphabet)
    d = dualize(a)
    for w in lassos_up_to(a_alphabet, 2, 2):
        assert accepts_lasso(d, w) is False


def test_game_complement_property():
    for f, aps in formula_corpus(20, seed=9):
        alpha = Alphabet.from_aps(aps)
        a = from_ltl(to_nnf(f), alpha)
        d = dualize(a)
        for w in lassos_up_to(alpha, 1, 2):
            assert accepts_lasso(d, w) == (not accepts_lasso(a, w))


def test_game_agrees_with_oracle_on_corpus():
    for f, aps in formula_corpus(40, seed=10):
        alpha = Alphabet.from_aps(aps)
        nnf = to_nnf(f)
        a = from_ltl(nnf, alpha)
        for w in lassos_up_to(alpha, 2, 3):
            assert accepts_lasso(a, w) == eval_lasso(nnf, w), (f, w.text())


def test_every_state_language_is_its_subformula():
    # state q of from_ltl is entry q of the formula's program: the q-th
    # subformula of the tree walk, by name and by language
    inputs = [(to_nnf(f), Alphabet.from_aps(aps)) for f, aps in formula_corpus(40)]
    inputs.append((to_nnf(lower_bound_family(1)), lower_bound_alphabet(1)))
    for f, alpha in inputs:
        a = from_ltl(f, alpha)
        subs = subformulas(f)
        assert a.state_names[:-2] == tuple(str(g) for g in subs)
        for w in lassos_up_to(alpha, 1, 2):
            win = winning_state_positions(a, Lassos.of([w]))
            for q, g in enumerate(subs):
                assert bool(win[q] & 1) == eval_lasso(g, w), (str(g), w.text())


def test_winning_positions_match_reference_on_corpus():
    for f, aps in formula_corpus(10, seed=14):
        alpha = Alphabet.from_aps(aps)
        a = from_ltl(to_nnf(f), alpha)
        for b in (a, dualize(a)):
            for w in enumerate_lassos(alpha, 2, 3):
                assert row_pairs(winning_state_positions(b, Lassos.of([w]))) == \
                    reference_winning_state_positions(b, w), (f, w.text())


def test_winning_positions_match_reference_on_lower_bound_battery():
    a = from_ltl(to_nnf(lower_bound_family(1)), lower_bound_alphabet(1))
    for b in (a, dualize(a)):
        for w in enumerate_lassos(b.alphabet, 1, 2):
            assert row_pairs(winning_state_positions(b, Lassos.of([w]))) == \
                reference_winning_state_positions(b, w), w.text()


def test_winning_positions_reject_renumbered_letters(fig1):
    # the lasso's letter numbers index the transition rows
    w = parse_lasso(";{a}", fig1.alphabet)
    renumbered = Alphabet(fig1.alphabet.aps, fig1.alphabet.letters[::-1])
    winning_state_positions(fig1, Lassos.of([w]))
    with pytest.raises(ValueError):
        winning_state_positions(fig1, Lassos.of([LassoWord(renumbered, w.prefix, w.period)]))


def assert_suite_bits_match_single_lassos(a: Awa) -> None:
    # each bit of the packed suite x^omega, x.y^omega is its own word, so
    # one solve over all of them gives each word's verdict alone
    suite = enumerate_lassos(a.alphabet, 1, 1)
    rows = winning_state_positions(a, suite)
    for off, w in zip(suite.offsets, suite):
        alone = winning_state_positions(a, Lassos.of([w]))
        assert [row >> off & 1 for row in rows] == [row & 1 for row in alone], w.text()


def test_suite_solve_matches_single_lassos_on_corpus():
    for f, aps in formula_corpus(40, seed=3):
        a = from_ltl(to_nnf(f), Alphabet.from_aps(aps))
        assert_suite_bits_match_single_lassos(a)
        assert_suite_bits_match_single_lassos(a.dual)


@settings(max_examples=60, deadline=None, database=None)
@given(weak_awas())
def test_suite_solve_matches_single_lassos_on_weak_automata(a):
    assert_suite_bits_match_single_lassos(a)
    assert_suite_bits_match_single_lassos(a.dual)


def test_winning_positions_of_fig1_match_reference(fig1):
    for b in (fig1, dualize(fig1)):
        for w in lassos_up_to(fig1.alphabet, 1, 3):
            assert row_pairs(winning_state_positions(b, Lassos.of([w]))) == \
                reference_winning_state_positions(b, w)


_nnf_formulas = st.recursive(
    st.sampled_from([atom("a"), atom("b"), neg(atom("a")), neg(atom("b")), LTRUE, LFALSE]),
    lambda sub: st.one_of(
        st.builds(lambda k, x: Formula(k, (x,)),
                  st.sampled_from([NEXT, FINALLY, GLOBALLY]), sub),
        st.builds(lambda k, x, y: Formula(k, (x, y)),
                  st.sampled_from([AND, OR, UNTIL, RELEASE]), sub, sub),
    ),
    max_leaves=8,
)


@settings(max_examples=200, deadline=None, database=None)
@given(_nnf_formulas, ab_lassos)
def test_winning_positions_match_reference_on_random_inputs(f, w):
    a = from_ltl(f, AB)
    for b in (a, dualize(a)):
        assert row_pairs(winning_state_positions(b, Lassos.of([w]))) == \
            reference_winning_state_positions(b, w)


@settings(max_examples=60, deadline=None, database=None)
@given(weak_awas())
def test_winning_positions_match_reference_on_weak_automata(a):
    # components of several states, each solved as one fixpoint
    for b in (a, a.dual):
        for w in lassos_up_to(a.alphabet, 1, 2):
            assert row_pairs(winning_state_positions(b, Lassos.of([w]))) == \
                reference_winning_state_positions(b, w), w.text()


def test_is_empty_contradiction(a_alphabet):
    a = from_ltl(to_nnf(parse_ltl("a & !a", ["a"])), a_alphabet)
    assert reference_is_empty(a) is True


def test_is_empty_fig1(fig1):
    assert reference_is_empty(fig1) is False


def test_is_empty_g_and_eventually_not(a_alphabet):
    f = to_nnf(parse_ltl("G a & F !a", ["a"]))
    # oracle: no bounded lasso satisfies the formula
    for w in lassos_up_to(a_alphabet, 2, 2):
        assert eval_lasso(f, w) is False
    assert reference_is_empty(from_ltl(f, a_alphabet)) is True


def test_nonempty_witness_is_accepted():
    for f, aps in formula_corpus(25, seed=12):
        alpha = Alphabet.from_aps(aps)
        a = from_ltl(to_nnf(f), alpha)
        witness = reference_nonempty_witness(miyano_hayashi(a))
        if witness is None:
            for w in lassos_up_to(alpha, 2, 2):
                assert accepts_lasso(a, w) is False
        else:
            assert accepts_lasso(a, witness) is True


def test_validate_invariants_on_corpus():
    for f, aps in formula_corpus(15, seed=13):
        alpha = Alphabet.from_aps(aps)
        a = from_ltl(to_nnf(f), alpha)
        a.validate()
        dualize(a).validate()


SINK_FORMULAS = ("G a | F b", "FG a | GF b", "a U G b", "G (a | X b)")


def moved_sinks() -> list[Awa]:
    """Automata of SINK_FORMULAS with ``top`` moved to another accepting
    state or ``bottom`` to another rejecting state, none of them a sink."""
    out = []
    for text in SINK_FORMULAS:
        a = from_ltl(to_nnf(parse_ltl(text, ["a", "b"])), AB)
        out += [replaced(a, top=q) for q in sorted(a.accepting - {a.top})]
        out += [replaced(a, bottom=q) for q in range(a.n_states)
                if q not in a.accepting and q != a.bottom]
    return out


def test_validate_rejects_tops_and_bottoms_that_are_not_sinks():
    # the language oracle strips tops from its state sets and drops the
    # pairs that hold a bottom, which is sound only for real sinks
    bad = moved_sinks()
    assert len(bad) == 21
    for b in bad:
        with pytest.raises(AssertionError, match="sink"):
            b.validate()
        with pytest.raises(AssertionError, match="sink"):
            build_chain(b)


def test_validate_rejects_formulas_out_of_canonical_form(fig1):
    # dualizing is an involution only on canonical formulas: a subsumed
    # clause added to i0's formula on the first letter, and g0's two
    # clauses swapped
    i0, g0 = 0, 4
    subsumed = fig1.delta[i0][0] + (fig1.delta[i0][0][0] | 1 << 2,)
    swapped = fig1.delta[g0][0][::-1]
    assert minimal_sets(subsumed) != subsumed and minimal_sets(swapped) != swapped
    for q, p in ((i0, subsumed), (g0, swapped)):
        delta = list(fig1.delta)
        delta[q] = (p,) + delta[q][1:]
        bad = replaced(fig1, delta=tuple(delta))
        with pytest.raises(AssertionError, match="canonical form"):
            bad.validate()
        with pytest.raises(AssertionError, match="canonical form"):
            build_chain(bad)


def test_validate_fires_under_optimize():
    # `python -O` strips assert statements; the weakness check must not be one
    code = textwrap.dedent("""
        import sys
        from cocoa import Alphabet, from_ltl, parse_ltl, to_nnf
        from conftest import replaced

        if sys.flags.optimize != 1:
            sys.exit(2)
        a = from_ltl(to_nnf(parse_ltl("F G a", ["a"])), Alphabet.from_aps(["a"]))
        # G a (accepting) moves back to F G a (rejecting) on every letter
        names = a.state_names
        delta = list(a.delta)
        delta[names.index("G a")] = ((1 << names.index("F G a"),),) * len(delta[0])
        bad = replaced(a, delta=tuple(delta))
        try:
            bad.validate()
        except AssertionError as exc:
            sys.exit(0 if "mixes accepting and rejecting" in str(exc) else 3)
        sys.exit(1)
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cocoa.__file__)))
    tests = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((src, tests)))
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_dot_export_mentions_structure(fig1):
    dot = awa_to_dot(fig1)
    assert dot.startswith("digraph")
    assert "doublecircle" in dot
