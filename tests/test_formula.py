"""Parser, normal form, lasso semantics, and the benchmark family."""

import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocoa import (
    Alphabet, Formula, InvalidParameter, LassoWord, Lassos, ParseError,
    UnknownAtom, atom, enumerate_lassos, eval_lasso, eval_lassos,
    lower_bound_alphabet, lower_bound_family, neg, parse_lasso, parse_ltl,
    to_nnf,
)
from cocoa.formula import (
    AND, ATOM, FALSE, FINALLY, GLOBALLY, IMPLIES, LFALSE, LTRUE, NEXT, NOT, OR,
    RELEASE, TRUE, UNTIL, _DUAL, _LEFT_UNIT, _ZERO, atom_names, scan_aps,
)

from conftest import (
    AB, ab_lassos, canonical_lasso, formula_corpus, lassos_up_to, letter_at,
    formula_size, reference_enumerate_lassos, reference_eval_lasso, reference_pack,
    reference_to_nnf, subformulas,
)


def is_nnf(f: Formula) -> bool:
    for g in subformulas(f):
        if g.kind == IMPLIES:
            return False
        if g.kind == NOT and g.args[0].kind != ATOM:
            return False
        if g.kind in (TRUE, FALSE) and g is not f:
            return False
    return True


def test_parse_single_operator():
    f = parse_ltl("G a", ["a"])
    assert f.kind == GLOBALLY and f.args[0].kind == ATOM and f.args[0].name == "a"


def test_parse_precedence():
    f = parse_ltl("GF a -> GF b", ["a", "b"])
    assert f.kind == IMPLIES
    left, right = f.args
    assert left.kind == GLOBALLY and left.args[0].kind == FINALLY
    assert right.kind == GLOBALLY and str(right.args[0].args[0]) == "b"


def test_parse_until_right_assoc():
    f = parse_ltl("a U b U a", ["a", "b"])
    assert f.kind == UNTIL and f.args[1].kind == UNTIL


def test_parse_and_binds_tighter_than_or():
    f = parse_ltl("a & b | a", ["a", "b"])
    assert f.kind == "or" and f.args[0].kind == "and"


def test_parse_truncated_input():
    with pytest.raises(ParseError):
        parse_ltl("a U", ["a"])


def test_parse_unknown_atom():
    with pytest.raises(UnknownAtom):
        parse_ltl("G c", ["a", "b"])


def test_parse_roundtrip_through_render():
    for f, aps in formula_corpus(25, seed=11):
        again = parse_ltl(str(f), aps)
        assert again == f


@pytest.mark.parametrize("text,aps,position,message", [
    ("G a $", ["a"], 4, "unexpected character '$'"),
    ("U a", ["a"], 0, "operator 'U' in atom position"),
    ("a b", ["a", "b"], 2, "trailing input 'b'"),
    ("(a", ["a"], 2, "expected ')', found 'end of input'"),
    ("a & | b", ["a", "b"], 4, "expected a formula, found '|'"),
])
def test_parse_error_positions_and_messages(text, aps, position, message):
    with pytest.raises(ParseError) as caught:
        parse_ltl(text, aps)
    assert type(caught.value) is ParseError
    assert (caught.value.position, caught.value.message) == (position, message)


def test_parse_needs_propositions():
    with pytest.raises(InvalidParameter):
        parse_ltl("a", [])


@pytest.mark.parametrize("name", ["X", "F", "G", "U", "R", "true", "false"])
def test_propositions_named_like_keywords_are_rejected(name):
    # the parser reads these words as operators, never as the proposition
    with pytest.raises(InvalidParameter, match=repr(name)):
        parse_ltl(f"G {name}", ["a", name])
    with pytest.raises(InvalidParameter, match=repr(name)):
        parse_ltl("a", [name, "a"])


def test_declared_stacked_operator_names_are_atoms():
    assert parse_ltl("G FG", ["FG"]) == Formula(GLOBALLY, (atom("FG"),))


@pytest.mark.parametrize("name", ["", "a b", "#\t", "(p", "p)", "!p", "p&q", "p|q", "p->q"])
def test_propositions_that_cannot_be_read_are_rejected(name):
    with pytest.raises(InvalidParameter, match=re.escape(repr(name))):
        parse_ltl("a", ["a", name])


def test_declared_non_identifier_propositions_parse():
    # matched literally, longest first, around the operators they border
    aps = ["#", "##", "$1", "a.b", "-"]
    assert parse_ltl("##&#|X$1->a.b U -", aps) == parse_ltl(
        "((## & #) | X $1) -> (a.b U -)", aps)
    with pytest.raises(ParseError, match="unexpected character '#'"):
        parse_ltl("G #", ["a"])


def test_parse_binding_levels_and_grouping():
    # -> loosest, then |, &, and U tightest among the binary operators;
    # -> and U group to the right; unary operators bind tighter still
    for text, want in (("a -> b -> a | b & a U b U a", "(a -> (b -> (a | (b & (a U (b U a))))))"),
                       ("!a U X b -> false", "((!a U X b) -> false)")):
        assert str(parse_ltl(text, ["a", "b"])) == want


ALL_KINDS = {ATOM, TRUE, FALSE, NOT, NEXT, FINALLY, GLOBALLY, AND, OR, IMPLIES, UNTIL, RELEASE}


def test_render_parses_back_to_every_formula():
    # the guard of the operator tables: a kind that the renderer or the
    # parser does not spell breaks the round trip; each formula is also
    # negated, so that ! meets every kind
    roots = set()

    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(_formulas)
    def roundtrip(f):
        roots.add(f.kind)
        for g in (f, neg(f)):
            assert parse_ltl(str(g), ["a", "b"]) == g

    roundtrip()
    assert roots == ALL_KINDS


def test_nnf_globally_duality():
    f = to_nnf(neg(parse_ltl("G a", ["a"])))
    assert f == parse_ltl("F !a", ["a"])


def test_nnf_until_duality():
    f = to_nnf(neg(parse_ltl("a U b", ["a", "b"])))
    assert f.kind == RELEASE
    assert f.args[0].kind == NOT and f.args[1].kind == NOT


def test_nnf_idempotent_on_nnf_input():
    f = parse_ltl("F !a", ["a"])
    assert to_nnf(f) == f


def test_nnf_folds_constants():
    for text, want in (("true U a", "F a"), ("false R a", "G a"), ("a U false", "false"),
                       ("X true", "true"), ("false | a", "a"), ("!true", "false"),
                       ("a & false", "false"), ("true & a", "a"), ("a & true", "a"),
                       ("a | true", "true"), ("a | false", "a"), ("false U a", "a"),
                       ("a R true", "true"), ("true R a", "a"), ("!(a U false)", "true"),
                       ("G !false", "true"), ("F false", "false")):
        assert to_nnf(parse_ltl(text, ["a"])) == parse_ltl(want, ["a"]), text


def test_scan_aps_skips_keywords_and_stacked_operators():
    text = "GF a -> (b U XX c_1) & FGX true | d R false"
    assert scan_aps(text) == ["a", "b", "c_1", "d"]
    assert atom_names(parse_ltl(text, scan_aps(text))) == scan_aps(text)


def test_nnf_invariants_on_corpus():
    for f, aps in formula_corpus(40, seed=5):
        assert is_nnf(to_nnf(neg(f)))
        assert is_nnf(to_nnf(f))


def test_eval_fg_eventually_always():
    alpha = Alphabet.from_aps(["a"])
    w = LassoWord(alpha, (frozenset(),), (frozenset({"a"}),))
    assert eval_lasso(parse_ltl("FG a", ["a"]), w) is True


def test_eval_gf_never():
    alpha = Alphabet.from_aps(["b"])
    w = LassoWord(alpha, (), (frozenset(),))
    assert eval_lasso(parse_ltl("GF b", ["b"]), w) is False


def test_eval_implication_counterexample():
    alpha = Alphabet.from_aps(["a", "b"])
    w = LassoWord(alpha, (), (frozenset({"a"}),))
    assert eval_lasso(parse_ltl("GF a -> GF b", ["a", "b"]), w) is False


def test_eval_negation_consistency():
    rng = random.Random(77)
    for f, aps in formula_corpus(30, seed=42):
        alpha = Alphabet.from_aps(aps)
        lassos = enumerate_lassos(alpha, 1, 2)
        nnf_neg = to_nnf(neg(f))
        for w in rng.sample(lassos, min(8, len(lassos))):
            assert eval_lasso(f, w) == (not eval_lasso(nnf_neg, w))


def test_eval_unrolling_invariance():
    for f, aps in formula_corpus(20, seed=43):
        alpha = Alphabet.from_aps(aps)
        for w in itertools.islice(lassos_up_to(alpha, 1, 2), 20):
            unrolled = LassoWord(alpha, w.prefix + w.period, w.period)
            assert eval_lasso(f, w) == eval_lasso(f, unrolled)


def test_nnf_preserves_semantics():
    for f, aps in formula_corpus(30, seed=44):
        alpha = Alphabet.from_aps(aps)
        nnf = to_nnf(f)
        for w in lassos_up_to(alpha, 1, 2):
            assert eval_lasso(f, w) == eval_lasso(nnf, w)


def test_eval_matches_reference_on_corpus():
    for f, aps in formula_corpus(15, seed=45):
        alpha = Alphabet.from_aps(aps)
        for g in (f, neg(f), to_nnf(neg(f))):
            for w in enumerate_lassos(alpha, 2, 3):
                assert eval_lasso(g, w) == reference_eval_lasso(g, w), (g, w.text())


def test_eval_matches_reference_on_lower_bound_family():
    f = lower_bound_family(1)
    lassos = enumerate_lassos(lower_bound_alphabet(1), 2, 3)
    for g in (f, neg(f)):
        for w in lassos:
            assert eval_lasso(g, w) == reference_eval_lasso(g, w), (g, w.text())


_formulas = st.recursive(
    st.sampled_from([atom("a"), atom("b"), LTRUE, LFALSE]),
    lambda sub: st.one_of(
        st.builds(lambda k, x: Formula(k, (x,)),
                  st.sampled_from([NOT, NEXT, FINALLY, GLOBALLY]), sub),
        st.builds(lambda k, x, y: Formula(k, (x, y)),
                  st.sampled_from([AND, OR, IMPLIES, UNTIL, RELEASE]), sub, sub),
    ),
    max_leaves=10,
)


@settings(max_examples=300, deadline=None, database=None)
@given(_formulas, ab_lassos)
def test_eval_matches_reference_on_random_inputs(f, w):
    assert eval_lasso(f, w) == reference_eval_lasso(f, w)


_AB_SUITE = enumerate_lassos(AB, 2, 3)


@settings(max_examples=300, deadline=None, database=None)
@given(_formulas)
def test_nnf_of_formulas_with_constants(f):
    # constants fold away unless the whole formula is one, and the
    # language stays the same
    nnf = to_nnf(f)
    assert is_nnf(nnf)
    assert eval_lassos(nnf, _AB_SUITE) == eval_lassos(f, _AB_SUITE)


def test_nnf_folds_as_the_hand_written_reference():
    kinds = set()

    @settings(max_examples=500, deadline=None, database=None, derandomize=True)
    @given(_formulas)
    def same(f):
        kinds.update(g.kind for g in subformulas(f))
        for g in (f, neg(f)):
            assert str(to_nnf(g)) == str(reference_to_nnf(g))
            assert to_nnf(g) == reference_to_nnf(g)

    same()
    assert kinds == ALL_KINDS


def test_law_tables_map_onto_their_duals():
    # a law added for one operator and not for its dual fails here
    assert all(_DUAL[_DUAL[k]] == k for k in _DUAL)
    for k, zero in _ZERO.items():
        assert _ZERO[_DUAL[k]] == _DUAL[zero]
    for k, laws in _LEFT_UNIT.items():
        assert _LEFT_UNIT[_DUAL[k]] == tuple(_DUAL[x] for x in laws)


# batches that mix period lengths 1-3, so that the per-length wraps meet
_short_lassos = st.builds(
    lambda u, v: LassoWord(AB, tuple(u), tuple(v)),
    st.lists(st.sampled_from(AB.letters), max_size=3),
    st.lists(st.sampled_from(AB.letters), min_size=1, max_size=3))


@settings(max_examples=200, deadline=None, database=None)
@given(_formulas, st.lists(_short_lassos, min_size=1, max_size=8))
def test_eval_lassos_matches_reference_bit_for_bit(f, words):
    lassos = Lassos.of(words)
    got = eval_lassos(f, lassos)
    want = sum(1 << off for off, w in zip(lassos.offsets, words) if reference_eval_lasso(f, w))
    assert got == want
    assert [lassos[i] for i in range(len(words))] == words


@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(_short_lassos, min_size=1, max_size=8))
def test_lassos_of_packs_like_the_string_packer(words):
    lassos = Lassos.of(words)
    assert (lassos.full, lassos.rows, lassos.starts, lassos.inner, lassos.moves) == \
        reference_pack(words)


# one letter (a restricted alphabet), two letters and four letters
_SUITE_ALPHABETS = [Alphabet.restricted(["a"], [{"a"}]), Alphabet.from_aps(["a"]), AB]


def suffix_of(w: LassoWord) -> tuple[tuple, tuple]:
    """The normal form of the word after the first letter of a lasso."""
    if w.prefix:
        return canonical_lasso(w.prefix[1:], w.period)
    return canonical_lasso((), w.period[1:] + w.period[:1])


@settings(max_examples=40, deadline=None, database=None)
@given(st.sampled_from(_SUITE_ALPHABETS), st.integers(0, 3), st.integers(1, 3), _formulas,
       st.randoms(use_true_random=False))
def test_enumerated_suite_shares_suffixes(alpha, prefix_bound, period_bound, f, rng):
    lassos = enumerate_lassos(alpha, prefix_bound, period_bound)
    words = list(lassos)
    offsets = lassos.offsets
    assert len(lassos) == len(words) == len(offsets) == len(set(offsets))
    assert lassos.starts == sum(1 << off for off in offsets)
    at = {(w.prefix, w.period): off for w, off in zip(words, offsets)}
    for w, off in zip(words, offsets):
        assert lassos.next(1 << at[suffix_of(w)]) >> off & 1, w.text()
    # the same lassos each on their own bits, in the layout that
    # test_eval_lassos_matches_reference_bit_for_bit checks
    alone = Lassos.of(words)
    got, want = eval_lassos(f, lassos), eval_lassos(f, alone)
    assert [got >> off & 1 for off in offsets] == [want >> off & 1 for off in alone.offsets]
    assert got & ~lassos.starts == 0
    for i in rng.sample(range(len(words)), min(20, len(words))):
        assert bool(got >> offsets[i] & 1) == reference_eval_lasso(f, words[i])
    chosen = rng.sample(range(len(words)), min(3, len(words)))
    assert lassos.first(sum(1 << offsets[i] for i in chosen)) == \
        (offsets[min(chosen)], words[min(chosen)])
    with pytest.raises(ValueError):
        lassos.first(lassos.full ^ lassos.starts)


def test_enumerated_suite_size():
    # one bit per lasso plus the non-normal x.v^omega kept for uniform copies
    assert enumerate_lassos(AB, 2, 3).full.bit_length() <= 1596
    assert enumerate_lassos(Alphabet.from_aps(["a", "b", "c"]), 2, 3).full.bit_length() <= 41464


def test_repeated_propositions_are_rejected():
    with pytest.raises(ValueError, match="listed twice"):
        Alphabet.from_aps(["a", "a"])
    with pytest.raises(ValueError, match="listed twice"):
        Alphabet.restricted(["a", "b", "a"], [frozenset({"a"})])


def test_alphabet_rules_hold_however_it_is_made():
    # made directly, as the dump loaders make it, or through restricted
    a, b = frozenset({"a"}), frozenset({"b"})
    for aps, letters, message in ((("a", "a"), (a,), "proposition is listed twice"),
                                  (("a",), (), "at least one letter"),
                                  (("a",), (a, a), "letter is listed twice"),
                                  (("a",), (a, b), "undeclared propositions"),
                                  *(((p,), (frozenset(),), "cannot be spelled")
                                    for p in ('a"', "a\\", "a{", "a}", "a;", "a b", "a\t", ""))):
        with pytest.raises(ValueError, match=message):
            Alphabet(aps, letters)
    with pytest.raises(ValueError, match="at least one letter"):
        Alphabet.restricted(["a"], [])
    with pytest.raises(ValueError, match="undeclared propositions"):
        Alphabet.restricted(["a"], [a, b])
    assert Alphabet.restricted(["a"], [a, a, frozenset()]) == Alphabet.from_aps(["a"])
    assert Alphabet.from_aps(["b", "a"]).letters == (frozenset(), a, frozenset("ab"), b)


def test_lassos_take_int_indices_only():
    lassos = enumerate_lassos(Alphabet.from_aps(["a"]), 1, 2)
    for bad in (slice(0, 2), slice(0, 3)):
        with pytest.raises(TypeError):
            lassos[bad]
    assert lassos[-1] == lassos[len(lassos) - 1] == list(lassos)[-1]


def test_enumerate_lassos_rejects_out_of_range_bounds():
    alpha = Alphabet.from_aps(["a"])
    for bounds in ((1, 0), (-1, 2), (0, -1)):
        with pytest.raises(ValueError, match="lasso bounds"):
            enumerate_lassos(alpha, *bounds)
    assert len(enumerate_lassos(alpha, 0, 1)) == 2


def test_lasso_parse_and_text():
    alpha = Alphabet.from_aps(["a", "b"])
    w = parse_lasso("{a b}{};{a}", alpha)
    assert w.prefix == (frozenset({"a", "b"}), frozenset())
    assert w.period == (frozenset({"a"}),)
    assert parse_lasso(w.text(), alpha) == w
    assert parse_lasso("{a} {b};{a}", alpha).text() == "{a}{b};{a}"


def test_lasso_parse_errors():
    alpha = Alphabet.from_aps(["a"])
    with pytest.raises(ParseError):
        parse_lasso("{a}", alpha)  # no separator
    with pytest.raises(ParseError):
        parse_lasso("{a};", alpha)  # empty period
    with pytest.raises(UnknownAtom):
        parse_lasso("{c};{a}", alpha)


@pytest.mark.parametrize("text,position,message", [
    ("a;{a}", 0, "expected '{', found 'a'"),
    ("{a;{a}", 0, "unterminated letter"),
    ("{a}};{a}", 3, "expected '{', found '}'"),
])
def test_lasso_parse_error_positions_and_messages(text, position, message):
    with pytest.raises(ParseError) as caught:
        parse_lasso(text, AB)
    assert type(caught.value) is ParseError
    assert (caught.value.position, caught.value.message) == (position, message)


def test_lasso_period_required():
    alpha = Alphabet.from_aps(["a"])
    with pytest.raises(ValueError):
        LassoWord(alpha, (), ())


def test_lasso_letters_must_be_in_the_alphabet():
    # the restricted alphabet has the singletons only: {} and {a1 b1} are
    # over declared propositions but are no letters
    alpha = lower_bound_alphabet(1, restricted=True)
    with pytest.raises(ValueError, match="not in the alphabet"):
        parse_lasso(";{}", alpha)
    with pytest.raises(ValueError, match="not in the alphabet"):
        LassoWord(alpha, (frozenset({"a1", "b1"}),), (frozenset({"#"}),))
    assert parse_lasso("{a1};{#}", alpha).period == (frozenset({"#"}),)


def test_canonical_lasso_folds_duplicates():
    a = frozenset({"a"})
    b = frozenset()
    # u.v^w with the period rotated back into the prefix
    assert canonical_lasso((a,), (b, a)) == canonical_lasso((), (a, b))
    # powers of a shorter period collapse
    assert canonical_lasso((), (a, b, a, b)) == canonical_lasso((), (a, b))


def test_enumerate_lassos_distinct_words():
    alpha = Alphabet.from_aps(["a"])
    lassos = enumerate_lassos(alpha, 2, 2)
    seen = set()
    for w in lassos:
        key = tuple(letter_at(w, i) for i in range(8))  # long unrolling
        assert key not in seen
        seen.add(key)


@pytest.mark.parametrize("bounds", [(1, 2), (2, 2), (2, 3), (3, 3), (0, 4)])
def test_enumerate_lassos_matches_reference(bounds):
    alphabets = [Alphabet.from_aps(["a"]), Alphabet.from_aps(["a", "b"]),
                 lower_bound_alphabet(1)]
    if bounds[0] <= 2 and bounds[1] <= 2:
        alphabets.append(Alphabet.from_aps(["a", "b", "c"]))
    for alpha in alphabets:
        assert list(enumerate_lassos(alpha, *bounds)) == reference_enumerate_lassos(alpha, *bounds)


def test_lower_bound_family_size_linear():
    sizes = [formula_size(lower_bound_family(n)) for n in (1, 2, 3, 4)]
    diffs = {b - a for a, b in zip(sizes, sizes[1:])}
    assert len(diffs) == 1  # constant increment
    assert sizes[0] <= 120


def test_lower_bound_family_shape():
    f = lower_bound_family(1)
    assert f.kind == NOT
    alpha = lower_bound_alphabet(1)
    assert set(alpha.aps) == {"a1", "b1", "#", "$"}
    assert len(alpha.letters) == 4  # restricted to singletons
    for n in (1, 2, 3):
        assert atom_names(lower_bound_family(n)) == sorted(lower_bound_alphabet(n).aps)


def test_lower_bound_family_membership():
    # a well-formed word: one block, separator, the same block, marker tail
    alpha = lower_bound_alphabet(1)
    h, d, a1, b1 = (frozenset({p}) for p in ("#", "$", "a1", "b1"))
    psi = neg(lower_bound_family(1))
    good = LassoWord(alpha, (h, a1, d, a1), (h,))
    copy_violation = LassoWord(alpha, (h, a1, d, b1), (h,))
    no_separator = LassoWord(alpha, (h, a1), (h,))
    assert eval_lasso(psi, good) is True
    assert eval_lasso(psi, copy_violation) is False
    assert eval_lasso(psi, no_separator) is False
    two_blocks = LassoWord(alpha, (h, b1, h, a1, d, b1), (h,))
    assert eval_lasso(psi, two_blocks) is True


def test_lower_bound_family_rejects_bad_n():
    with pytest.raises(InvalidParameter):
        lower_bound_family(0)
    with pytest.raises(InvalidParameter):
        lower_bound_alphabet(0)
