"""Weak alternating automata: construction, dualization, game acceptance."""

import dataclasses
import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocoa import (
    Alphabet, LassoWord, build_chain, dualize, enumerate_lassos, eval_lasso, from_ltl,
    lower_bound_alphabet, lower_bound_family, miyano_hayashi, neg, parse_lasso,
    parse_ltl, to_nnf, winning_state_positions,
)
import cocoa
from cocoa.awa import (
    CNF_FALSE, CNF_TRUE, Awa, NotNnf, NotWeak, _edge_lists, _scc_ranks,
    awa_to_dot, finalize_pcnf, from_ltl as _from_ltl, mask_states,
    minimal_sets, state_mask,
)
from cocoa.formula import (
    AND, FINALLY, GLOBALLY, LFALSE, LTRUE, NEXT, OR, RELEASE, UNTIL, Formula,
    atom, subformulas,
)
from cocoa.obligation import minimal_models

from conftest import (
    AB, ab_lassos, accepts_lasso, build_fig1, formula_corpus, lassos_up_to, letter_at,
    reference_dual, reference_is_empty, reference_minimal_sets, reference_nonempty_witness,
    reference_winning_state_positions, row_pairs,
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
            dataclasses.replace(fig1, delta=tuple(delta)).validate()


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


def check_weak(a: Awa) -> dict[int, int]:
    """Recompute the weakness witness; raises NotWeak on a mixed SCC."""
    succ = _edge_lists(a.delta)
    ranks = _scc_ranks(a.n_states, succ, a.accepting)
    return dict(enumerate(ranks))


def test_check_weak_fig1_ranks(fig1):
    ranks = check_weak(fig1)
    assert ranks[3] < ranks[2] < ranks[1] < ranks[0]  # f2 < f1 < f0 < i0
    assert ranks[6] < ranks[5] < ranks[4]             # g2 < g1 < g0


def test_check_weak_rejects_mixed_scc(ab_alphabet):
    fig = build_fig1()
    # force a two-state cycle with one accepting and one rejecting state
    delta = list(fig.delta)
    delta[1] = ((1 << 2,),) * len(ab_alphabet.letters)
    delta[2] = ((1 << 1,),) * len(ab_alphabet.letters)
    delta = tuple(delta)
    broken = Awa(fig.alphabet, fig.n_states, fig.initial, delta, fig.accepting,
                 fig.rank, fig.top, fig.bottom, fig.state_names)
    with pytest.raises(NotWeak):
        check_weak(broken)


def test_check_weak_single_accepting_loop(a_alphabet):
    a = from_ltl(to_nnf(parse_ltl("G a", ["a"])), a_alphabet)
    ranks = check_weak(a)
    assert set(ranks) == set(range(a.n_states))


def test_check_weak_never_errors_on_corpus():
    for f, aps in formula_corpus(30, seed=8):
        alpha = Alphabet.from_aps(aps)
        check_weak(from_ltl(to_nnf(f), alpha))


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
        for field in dataclasses.fields(Awa):
            assert getattr(dd, field.name) == getattr(a, field.name), field.name
        assert a.dual.dual is a
        assert dualize(a).dual is a


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


def test_winning_positions_match_reference_on_corpus():
    for f, aps in formula_corpus(10, seed=14):
        alpha = Alphabet.from_aps(aps)
        a = from_ltl(to_nnf(f), alpha)
        for b in (a, dualize(a)):
            for w in enumerate_lassos(alpha, 2, 3):
                assert row_pairs(winning_state_positions(b, w)) == \
                    reference_winning_state_positions(b, w), (f, w.text())


def test_winning_positions_match_reference_on_lower_bound_battery():
    a = from_ltl(to_nnf(lower_bound_family(1)), lower_bound_alphabet(1))
    for b in (a, dualize(a)):
        for w in enumerate_lassos(b.alphabet, 1, 2):
            assert row_pairs(winning_state_positions(b, w)) == \
                reference_winning_state_positions(b, w), w.text()


def test_winning_positions_reject_renumbered_letters(fig1):
    # the lasso's letter numbers index the transition rows
    w = parse_lasso(";{a}", fig1.alphabet)
    renumbered = Alphabet(fig1.alphabet.aps, fig1.alphabet.letters[::-1])
    winning_state_positions(fig1, w)
    with pytest.raises(ValueError):
        winning_state_positions(fig1, LassoWord(renumbered, w.prefix, w.period))


def test_winning_positions_of_fig1_match_reference(fig1):
    for b in (fig1, dualize(fig1)):
        for w in lassos_up_to(fig1.alphabet, 1, 3):
            assert row_pairs(winning_state_positions(b, w)) == \
                reference_winning_state_positions(b, w)


def coarse_rank(a):
    """A valid weakness witness with fewer groups than one per SCC: 2 * (the
    most acceptance changes on a path from the state) + acceptance."""
    succ = _edge_lists(a.delta)
    groups: dict[int, list[int]] = {}
    for q in range(a.n_states):
        groups.setdefault(a.rank[q], []).append(q)
    level = [0] * a.n_states
    for r in sorted(groups):
        acc = groups[r][0] in a.accepting
        deepest = max((level[q2] + (acc != (q2 in a.accepting))
                       for q in groups[r] for q2 in succ[q] if a.rank[q2] < r),
                      default=0)
        for q in groups[r]:
            level[q] = deepest
    return tuple(2 * level[q] + (q in a.accepting) for q in range(a.n_states))


def test_winning_positions_with_coarse_rank_groups():
    # a rank group may hold several SCCs; only the weakness invariant counts
    merged = 0
    for f, aps in formula_corpus(25, seed=15):
        alpha = Alphabet.from_aps(aps)
        a = from_ltl(to_nnf(f), alpha)
        for b in (a, dualize(a)):
            coarse = dataclasses.replace(b, rank=coarse_rank(b))
            coarse.validate()
            merged += len(set(coarse.rank)) < len(set(b.rank))
            for w in lassos_up_to(alpha, 1, 3):
                assert winning_state_positions(coarse, w) == winning_state_positions(b, w)
    assert merged


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
        assert row_pairs(winning_state_positions(b, w)) == reference_winning_state_positions(b, w)


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


def test_validate_rejects_bad_ranks(fig1):
    rising = list(fig1.rank)
    rising[0] = min(rising) - 1  # below the states it moves to
    mixed = [0] * fig1.n_states  # accepting and rejecting states share rank 0
    for rank in (rising, mixed):
        bad = dataclasses.replace(fig1, rank=tuple(rank))
        with pytest.raises(AssertionError):
            bad.validate()
        with pytest.raises(AssertionError):
            build_chain(bad)


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
        bad = dataclasses.replace(fig1, delta=tuple(delta))
        with pytest.raises(AssertionError, match="canonical form"):
            bad.validate()
        with pytest.raises(AssertionError, match="canonical form"):
            build_chain(bad)


def test_validate_fires_under_optimize():
    # `python -O` strips assert statements; the rank check must not be one
    code = textwrap.dedent("""
        import dataclasses
        import sys
        from cocoa import Alphabet, from_ltl, parse_ltl, to_nnf

        if sys.flags.optimize != 1:
            sys.exit(2)
        a = from_ltl(to_nnf(parse_ltl("F G a", ["a"])), Alphabet.from_aps(["a"]))
        bad = dataclasses.replace(a, rank=(0,) * a.n_states)
        try:
            bad.validate()
        except AssertionError:
            sys.exit(0)
        sys.exit(1)
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cocoa.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_dot_export_mentions_structure(fig1):
    dot = awa_to_dot(fig1)
    assert dot.startswith("digraph")
    assert "doublecircle" in dot
