"""Golden chains for the worked examples, co-Buchi conversion, natural
colors, differential verification, and the serialization round-trips."""

import json
import random

import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st

import cocoa.awa
import cocoa.floating
import cocoa.formula
from cocoa import (
    Alphabet, ChainConfig, Cocoa, LassoWord, Lassos, ResourceLimit, build_chain,
    build_chain_for_formula, chain_from_json, chain_to_json, det_edges,
    dfw_accepts_lasso, dfw_accepts_lassos, dfw_to_hd_ncw,
    drop_accepting_transition, enumerate_lassos, eval_lassos, from_ltl, level_to_hoa,
    lower_bound_alphabet, lower_bound_family, natural_color, parse_lasso,
    parse_ltl, to_nnf, verify_chain,
)
from cocoa.awa import Awa, mask_states, minimal_sets, state_mask
from cocoa.formula import LFALSE
from cocoa.sltm import sltm_from_json

from conftest import (
    accepts_lasso, formula_corpus, lassos_up_to, ncw_accepts_lasso,
    reference_dfw_accepts_lassos, reference_verify_chain, weak_awas,
)
from test_chain_bytes import workloads
from test_tracing_hooks import counting_calls

# the four worked examples with their per-level languages; the second level
# of the implication example is pinned to the variant the lasso oracle
# confirms (the example's opening statement; its closing remark contradicts
# it and loses against the oracle)
GOLDEN = [
    ("G a", ["a"], ["F !a"]),
    ("FG a", ["a"], ["true", "FG a"]),
    ("GF a -> GF b", ["a", "b"], ["FG !b", "FG !a & FG !b"]),
    ("GF a -> (GF b & FG c)", ["a", "b", "c"],
     ["true", "FG !a | FG c", "FG c & FG !b", "FG c & FG !b & FG !a"]),
]


def build(text, aps, **cfg):
    f = parse_ltl(text, aps)
    alpha = Alphabet.from_aps(aps)
    a = from_ltl(to_nnf(f), alpha)
    return build_chain(a, formula=f, config=ChainConfig(**cfg) if cfg else None), f


@pytest.fixture(scope="module")
def golden_chains():
    return {text: build(text, aps) for text, aps, _ in GOLDEN}


def test_chain_lengths(golden_chains):
    lengths = [golden_chains[text][0].k for text, _, _ in GOLDEN]
    assert lengths == [1, 2, 2, 4]


def test_level_languages_match_stated_formulas(golden_chains):
    for text, aps, level_texts in GOLDEN:
        chain, _f = golden_chains[text]
        lassos = lassos_up_to(chain.alphabet, 2, 3)
        for ell, lf_text in enumerate(level_texts, start=1):
            oracle = to_nnf(parse_ltl(lf_text, aps))
            d = chain.levels[ell - 1][0]
            assert dfw_accepts_lassos(d, chain.sltm, lassos) == eval_lassos(oracle, lassos), \
                (text, ell)


def test_chain_strictness(golden_chains):
    # every consecutive level pair is separated by some bounded lasso
    for text, _aps, _levels in GOLDEN:
        chain, _f = golden_chains[text]
        lassos = lassos_up_to(chain.alphabet, 2, 3)
        for ell in range(1, chain.k):
            upper = chain.levels[ell - 1][0]
            lower = chain.levels[ell][0]
            assert any(
                dfw_accepts_lasso(upper, chain.sltm, w)
                and not dfw_accepts_lasso(lower, chain.sltm, w)
                for w in lassos), (text, ell)


def test_trivial_language_chains():
    chain, _f = build("true", ["a"])
    assert chain.k == 0
    chain, _f = build("a & !a", ["a"])
    assert chain.k == 1
    # every word has odd color, so nothing is accepted
    for w in lassos_up_to(chain.alphabet, 2, 2):
        assert natural_color(chain, w) == 1


def test_dfw_accepts_lassos_rejects_other_letter_numbers(golden_chains):
    # the same letters listed in another order would read every row wrongly
    chain, _f = golden_chains["GF a -> GF b"]
    d = chain.levels[0][0]
    alpha = chain.alphabet
    reordered = Alphabet(alpha.aps, alpha.letters[::-1])
    lassos = lassos_up_to(reordered, 1, 2)
    with pytest.raises(ValueError, match="number their letters differently"):
        dfw_accepts_lassos(d, chain.sltm, lassos)
    same = lassos_up_to(Alphabet(alpha.aps, alpha.letters), 1, 2)
    assert dfw_accepts_lassos(d, chain.sltm, same) == \
        dfw_accepts_lassos(d, chain.sltm, lassos_up_to(alpha, 1, 2))


def golden_and_mutants(golden_chains):
    for text, _aps, _levels in GOLDEN:
        chain, _f = golden_chains[text]
        yield text, chain
        yield text + " (mutant)", drop_accepting_transition(chain)


def test_dfw_accepts_lassos_matches_forward_reference(golden_chains):
    # on suites where each lasso has positions of its own, the backward
    # fixpoint agrees with the forward walk it replaced
    rng = random.Random(5)
    for text, chain in golden_and_mutants(golden_chains):
        words = list(lassos_up_to(chain.alphabet, 1, 2))
        for lassos in [Lassos.of(words)] + [Lassos.of(rng.choices(words, k=12))
                                             for _ in range(4)]:
            for d, _ in chain.levels:
                assert dfw_accepts_lassos(d, chain.sltm, lassos) == \
                    reference_dfw_accepts_lassos(d, chain.sltm, lassos), text


def test_dfw_accepts_lassos_on_shared_suffixes(golden_chains):
    # every lasso of an enumerated suite, whose bits share suffixes, is
    # accepted exactly when it is accepted on its own
    for text, chain in golden_and_mutants(golden_chains):
        bounds = (2, 3) if len(chain.alphabet.letters) <= 4 else (1, 2)
        lassos = enumerate_lassos(chain.alphabet, *bounds)
        for d, _ in chain.levels:
            got = dfw_accepts_lassos(d, chain.sltm, lassos)
            assert [bool(got >> off & 1) for off in lassos.offsets] == \
                [dfw_accepts_lasso(d, chain.sltm, w) for w in lassos], text


def test_hdncw_structure(golden_chains):
    chain, _f = golden_chains["FG a"]
    for d, c in chain.levels:
        assert len(list(det_edges(c.acc))) == len(list(det_edges(d.trans)))
        # accepting sub-relation is deterministic by type; check the keys
        # mirror the DFW transitions exactly
        off = chain.sltm.n_states
        assert {(q - off, i) for q, i, _ in det_edges(c.acc)} == \
            {(q, i) for q, i, _ in det_edges(d.trans)}
        assert c.initial == chain.sltm.initial


def test_hdncw_empty_dfw():
    chain, _f = build("a & !a", ["a"])
    m = chain.sltm
    from cocoa.floating import Dfw

    empty = Dfw(label=(), trans=(), origin=())
    c = dfw_to_hd_ncw(empty, m)
    assert c.n_states == m.n_states and not any(det_edges(c.acc))
    for w in lassos_up_to(chain.alphabet, 1, 2):
        assert ncw_accepts_lasso(c, w) is False


def test_hdncw_agrees_with_dfw(golden_chains):
    for text, _aps, _levels in GOLDEN:
        chain, _f = golden_chains[text]
        lassos = lassos_up_to(chain.alphabet, 2, 2)
        for d, c in chain.levels:
            for w in lassos:
                assert ncw_accepts_lasso(c, w) == dfw_accepts_lasso(d, chain.sltm, w)


def test_hdncw_g_a_level_one(golden_chains):
    chain, _f = golden_chains["G a"]
    _d, c = chain.levels[0]
    assert ncw_accepts_lasso(c, parse_lasso(";{}", chain.alphabet)) is True
    assert ncw_accepts_lasso(c, parse_lasso(";{a}", chain.alphabet)) is False


def test_natural_colors_examples(golden_chains):
    ga, _ = golden_chains["G a"]
    assert natural_color(ga, parse_lasso(";{a}", ga.alphabet)) == 0
    fga, _ = golden_chains["FG a"]
    assert natural_color(fga, parse_lasso("{a};{a}", fga.alphabet)) == 2
    assert natural_color(fga, parse_lasso(";{a}{}", fga.alphabet)) == 1
    assert natural_color(fga, parse_lasso(";{a}", fga.alphabet)) == 2


def test_verify_chain_examples(golden_chains):
    for text, _aps, _levels in GOLDEN:
        chain, f = golden_chains[text]
        report = verify_chain(chain, f, 2, 3)
        assert report.ok, (text, report.first_counterexample)
        assert report.lassos > 0


def test_verify_chain_rejects_out_of_range_bounds(golden_chains):
    chain, f = golden_chains["FG a"]
    for bounds in ((2, 0), (-1, 3)):
        with pytest.raises(ValueError, match="lasso bounds"):
            verify_chain(chain, f, *bounds)


def test_verify_chain_true():
    chain, f = build("true", ["a"])
    report = verify_chain(chain, f, 2, 2)
    assert report.ok and report.counterexamples == 0


def test_verify_catches_injected_fault(golden_chains):
    chain, f = golden_chains["FG a"]
    mutated = drop_accepting_transition(chain)
    report = verify_chain(mutated, f, 2, 3)
    assert report.counterexamples >= 1
    assert report.first_counterexample is not None


def assert_verify_matches_reference(chain, f, prefix_bound, period_bound) -> dict:
    """``verify_chain`` and the per-lasso reference give the same report,
    elapsed time aside; returns it."""
    got = verify_chain(chain, f, prefix_bound, period_bound).to_json()
    want = reference_verify_chain(chain, f, prefix_bound, period_bound).to_json()
    del got["elapsed_s"], want["elapsed_s"]
    assert got == want
    return got


def test_verify_matches_reference_on_corpus_and_mutants():
    caught = 0
    for f, aps in formula_corpus(30, seed=31):
        chain, _f = build(str(f), aps)
        assert assert_verify_matches_reference(chain, f, 2, 3)["ok"], f
        if chain.k and any(det_edges(chain.levels[-1][0].trans)):
            report = assert_verify_matches_reference(drop_accepting_transition(chain), f, 2, 3)
            caught += report["counterexamples"] > 0
    assert caught >= 3


def test_verify_matches_reference_on_lower_bound_family():
    f = lower_bound_family(1)
    a = from_ltl(to_nnf(f), lower_bound_alphabet(1, restricted=True))
    chain = build_chain(a, formula=f, config=ChainConfig(check_single_step=False))
    assert assert_verify_matches_reference(chain, f, 2, 3)["ok"]


def test_verify_matches_reference_on_rabin_formulas():
    depths = []
    for text, aps in workloads.RABIN_FORMULAS:
        chain, f = build(text, aps)
        # the bounds of the benchmark's rabin workload
        assert assert_verify_matches_reference(chain, f, 1, 2)["ok"], text
        depths.append(chain.k)
    assert max(depths) == 5


def test_verify_matches_reference_on_swapped_levels(golden_chains):
    chain, f = golden_chains["GF a -> (GF b & FG c)"]
    first, second, *rest = chain.levels
    swapped = Cocoa(sltm=chain.sltm, levels=(second, first, *rest), formula=chain.formula)
    report = assert_verify_matches_reference(swapped, f, 2, 2)
    assert report["monotonicity_ok"] is False
    assert report["counterexamples"] > 0


def test_verify_chain_builds_no_words_but_its_counterexample():
    fns = {"LassoWord": LassoWord.__init__,
           "eval_lasso": cocoa.formula.eval_lasso,
           "dfw_accepts_lasso": cocoa.floating.dfw_accepts_lasso,
           "to_nnf": cocoa.formula.to_nnf}
    for f, aps in formula_corpus(10, seed=31):
        chain, _f = build(str(f), aps)
        if not chain.k:
            continue
        with counting_calls(fns) as calls:
            report = verify_chain(chain, f, 2, 3)
        assert report.ok
        assert calls == {"LassoWord": 0, "eval_lasso": 0, "dfw_accepts_lasso": 0,
                         "to_nnf": 0}
        with counting_calls(fns) as calls:
            report = verify_chain(drop_accepting_transition(chain), f, 2, 3)
        if report.counterexamples:
            assert calls == {"LassoWord": 1, "eval_lasso": 0, "dfw_accepts_lasso": 0,
                             "to_nnf": 0}
            return
    raise AssertionError("no mutant of the corpus had a counterexample")


def test_build_chain_dualizes_once():
    # g_neg and the SLTM's equivalence oracle share the automaton's dual
    f = parse_ltl("GF a -> GF b", ["a", "b"])
    a = from_ltl(to_nnf(f), Alphabet.from_aps(["a", "b"]))
    with counting_calls({"dualize": cocoa.awa.dualize}) as calls:
        build_chain(a, formula=f)
    assert calls == {"dualize": 1}


def test_resource_limit_raises():
    f = parse_ltl("GF a -> (GF b & FG c)", ["a", "b", "c"])
    alpha = Alphabet.from_aps(["a", "b", "c"])
    a = from_ltl(to_nnf(f), alpha)
    with pytest.raises(ResourceLimit):
        build_chain(a, config=ChainConfig(max_states=3))


def test_build_chain_for_formula_infers_alphabet():
    chain = build_chain_for_formula(parse_ltl("G a", ["a"]))
    assert chain.k == 1 and chain.alphabet.aps == ("a",)


def test_chain_json_roundtrip(golden_chains):
    for text, _aps, _levels in GOLDEN[:3]:
        chain, _f = golden_chains[text]
        blob = json.dumps(chain_to_json(chain), sort_keys=True)
        loaded = chain_from_json(json.loads(blob))
        assert loaded.k == chain.k
        assert json.dumps(chain_to_json(loaded), sort_keys=True) == blob
        for w in lassos_up_to(chain.alphabet, 1, 2):
            assert natural_color(loaded, w) == natural_color(chain, w)


def _set(path, value):
    """An edit of a chain dump: the entry at ``path`` (keys and indices)
    set to ``value``."""
    def edit(data):
        *head, last = path
        for key in head:
            data = data[key]
        data[last] = value
    return edit


# edits of the FG a dump that number a state or letter out of range: its
# SLTM has 1 state, 2 letters; level 1 has 2 states
BAD_NUMBERS = {
    "level transition letter -1": _set(("levels", 0, "delta", 0), [0, -1, 0]),
    "level transition letter 2": _set(("levels", 0, "delta", 0), [0, 2, 0]),
    "level transition successor 7": _set(("levels", 0, "delta", 0), [0, 0, 7]),
    "level transition successor -1": _set(("levels", 0, "delta", 0), [0, 0, -1]),
    "level transition source 2": _set(("levels", 0, "delta", 0), [2, 0, 0]),
    "level label -1": _set(("levels", 0, "f"), [0, -1]),
    "level label 1": _set(("levels", 0, "f"), [0, 1]),
    "level labels short": _set(("levels", 0, "f"), [0]),
    "SLTM successor -1": _set(("sltm", "delta", 0), [-1, 0]),
    "SLTM successor 1": _set(("sltm", "delta", 0), [0, 1]),
    "SLTM row short": _set(("sltm", "delta", 0), [0]),
    "SLTM rows extra": _set(("sltm", "delta"), [[0, 0], [0, 0]]),
    "SLTM initial 1": _set(("sltm", "initial"), 1),
    "SLTM initial -1": _set(("sltm", "initial"), -1),
}


def assert_edit_rejected(chain, edit):
    """The chain's dump loads, and raises ValueError once edited."""
    data = chain_to_json(chain)
    chain_from_json(json.loads(json.dumps(data)))
    edit(data)
    with pytest.raises(ValueError):
        chain_from_json(data)


@pytest.mark.parametrize("edit", BAD_NUMBERS.values(), ids=BAD_NUMBERS)
def test_chain_from_json_rejects_numbers_out_of_range(golden_chains, edit):
    assert_edit_rejected(golden_chains["FG a"][0], edit)


def _drop(path):
    """An edit of a chain dump: the entry at ``path`` removed."""
    def edit(data):
        *head, last = path
        for key in head:
            data = data[key]
        del data[last]
    return edit


def _both(*edits):
    """The edits of a chain dump, one after another."""
    def edit(data):
        for e in edits:
            e(data)
    return edit


# malformed edits of the FG a dump: its SLTM has 1 state and the letters
# [] and [a]; level 1 has the transitions [0, 0, 0], [1, 0, 1], [1, 1, 1]
BAD_DUMPS = {
    "level transition given twice": _set(("levels", 0, "delta"),
                                         [[0, 0, 0], [0, 0, 1], [1, 0, 1], [1, 1, 1]]),
    "SLTM aps differ": _set(("sltm", "aps"), ["a", "b"]),
    "SLTM letters differ": _set(("sltm", "letters"), [["a"], []]),
    "duplicate letters": _both(_set(("letters",), [[], []]),
                               _set(("sltm", "letters"), [[], []])),
    "duplicate aps": _both(_set(("aps",), ["a", "a"]), _set(("sltm", "aps"), ["a", "a"])),
    "undeclared letter": _both(_set(("letters",), [[], ["b"]]),
                               _set(("sltm", "letters"), [[], ["b"]])),
    # each would split into characters, the same alphabet as the dump's
    "letters as strings": _both(_set(("letters",), ["", "a"]),
                                _set(("sltm", "letters"), ["", "a"])),
    "aps as a string": _both(_set(("aps",), "a"), _set(("sltm", "aps"), "a")),
    "SLTM labels short": _set(("sltm", "labels"), []),
    "SLTM labels extra": _set(("sltm", "labels"), [[[1]], [[1]]]),
    "SLTM vertex_sets_neg empty": _set(("sltm", "vertex_sets_neg"), []),
    "SLTM vertex_sets_pos extra": _set(("sltm", "vertex_sets_pos"), [[0, 1, 2], [0]]),
    "k 1": _set(("k",), 1),
    "k 3": _set(("k",), 3),
    "no format": _drop(("format",)),
    "no aps": _drop(("aps",)),
    "no sltm": _drop(("sltm",)),
    "no k": _drop(("k",)),
    "no SLTM labels": _drop(("sltm", "labels")),
    "no level delta": _drop(("levels", 0, "delta")),
    "formula cut short": _set(("formula",), "G a &"),
    "formula with an undeclared atom": _set(("formula",), "G c"),
    "formula with an open parenthesis": _set(("formula",), "G (a"),
    # entries of the wrong type
    "levels a number": _set(("levels",), 5),
    "level a number": _set(("levels", 0), 5),
    "SLTM rows as numbers": _set(("sltm", "delta"), [0]),
    "SLTM initial a string": _set(("sltm", "initial"), "0"),
    "SLTM label member a string": _set(("sltm", "labels"), [[["x"]]]),
    "level labels as floats": _set(("levels", 0, "f"), [0.0, 0.0]),
    "formula a number": _set(("formula",), 5),
    # on G a, whose SLTM successors are 1, 0, 1 and 1: true would load as 1
    "G a: boolean state numbers": _set(("sltm", "delta"), [[True, 0], [True, True]]),
}


@pytest.mark.parametrize("name,edit", BAD_DUMPS.items(), ids=BAD_DUMPS)
def test_chain_from_json_rejects_malformed_dumps(golden_chains, name, edit):
    text = "G a" if name.startswith("G a:") else "FG a"
    assert_edit_rejected(golden_chains[text][0], edit)


# edits that keep every number in range but contradict the SLTM: G a has
# SLTM states 0 (live) and 1 (empty) with vertex sets [0] and [1] in both
# graphs, and one level-1 state labelled 1 with origin [1, [1]]; the second
# level of FG a reads the positive graph, whose one vertex set is [0, 1, 2]
# against [0, 1, 2, 3] in the complement graph
BAD_LEVELS = {
    "G a level label 0": ("G a", _set(("levels", 0, "f"), [0])),
    "G a origin [99, [1234]]": ("G a", _set(("levels", 0, "origin", 0), [99, [1234]])),
    "G a origin of another label": ("G a", _set(("levels", 0, "origin", 0), [0, [1]])),
    "G a origin without vertices": ("G a", _set(("levels", 0, "origin", 0), [1, []])),
    "G a origin vertex of another label": ("G a", _set(("levels", 0, "origin", 0), [1, [0]])),
    "G a origins short": ("G a", _set(("levels", 0, "origin"), [])),
    "FG a level 2 origin vertex of the complement graph":
        ("FG a", _set(("levels", 1, "origin", 0), [1, [3]])),
}


@pytest.mark.parametrize("text,edit", BAD_LEVELS.values(), ids=BAD_LEVELS)
def test_chain_from_json_rejects_levels_that_contradict_the_sltm(golden_chains, text, edit):
    assert_edit_rejected(golden_chains[text][0], edit)


@pytest.mark.parametrize("data", [[], "x", None, 5], ids=repr)
def test_loaders_reject_dumps_that_are_not_dicts(data):
    # a chain dump as a whole, and an SLTM dump, of another JSON type
    with pytest.raises(ValueError, match="not of type dict"):
        chain_from_json(data)
    with pytest.raises(ValueError, match="not of type dict"):
        sltm_from_json(data)


def test_chain_from_json_accepts_built_chains():
    # every level origin the construction writes passes the load checks
    inputs = [(str(f), aps) for f, aps in formula_corpus(20, seed=35)]
    origins = 0
    for text, aps in inputs + workloads.RABIN_FORMULAS:
        chain, _f = build(text, aps)
        blob = json.dumps(chain_to_json(chain), sort_keys=True)
        assert json.dumps(chain_to_json(chain_from_json(json.loads(blob))), sort_keys=True) == blob
        origins += sum(d.n_states for d, _c in chain.levels)
    assert origins > 50


@pytest.mark.parametrize("n", [1, 2])
def test_lower_bound_chains_load_back(n):
    # the family declares the propositions "#" and "$", which no identifier
    # spells: the formula's text parses back to it, and a dump loads back
    # to the same bytes
    f, aps = lower_bound_family(n), cocoa.formula.lower_bound_aps(n)
    assert str(f).startswith("!((# & X (a1 | b1)) & ")
    assert parse_ltl(str(f), aps) == f
    a = from_ltl(to_nnf(f), lower_bound_alphabet(n))
    chain = build_chain(a, formula=f, config=ChainConfig(check_single_step=False))
    blob = json.dumps(chain_to_json(chain))
    assert json.dumps(chain_to_json(chain_from_json(json.loads(blob)))) == blob


@settings(max_examples=200, deadline=None, database=None)
@given(weak_awas())
def test_chains_of_random_weak_automata(a):
    # hand-built automata, with components of several states: the chain is
    # max-even sound against the automaton's game and monotone, and its
    # dump loads back unchanged
    a.validate()
    chain = build_chain(a)
    target(chain.k)
    for w in lassos_up_to(a.alphabet, 1, 3):
        acc = [dfw_accepts_lasso(d, chain.sltm, w) for d, _ in chain.levels]
        assert acc == sorted(acc, reverse=True), w.text()
        assert (sum(acc) % 2 == 0) == accepts_lasso(a, w), w.text()
    blob = json.dumps(chain_to_json(chain), sort_keys=True)
    assert json.dumps(chain_to_json(chain_from_json(json.loads(blob))), sort_keys=True) == blob


def renumbered(a: Awa, perm: list[int]) -> Awa:
    """The automaton with state q renamed ``perm[q]``, its transition
    formulas kept canonical."""
    def moved(p):
        return minimal_sets(state_mask(perm[s] for s in mask_states(c)) for c in p)

    delta, names = [None] * a.n_states, [None] * a.n_states
    for q, row in enumerate(a.delta):
        delta[perm[q]] = tuple(map(moved, row))
        names[perm[q]] = a.state_names[q]
    return Awa(a.alphabet, perm[a.initial], tuple(delta),
               frozenset(perm[q] for q in a.accepting), perm[a.top], perm[a.bottom],
               tuple(names))


def _corpus_awa(item):
    f, aps = item
    return from_ltl(to_nnf(f), Alphabet.from_aps(aps))


@settings(max_examples=200, deadline=None, database=None)
@given(st.one_of(weak_awas(), st.sampled_from(formula_corpus(40, seed=47)).map(_corpus_awa)),
       st.data())
def test_chains_do_not_depend_on_state_numbering(a, data):
    # the chain is canonical: renaming the states of the automaton changes
    # no size and no level's language
    b = renumbered(a, data.draw(st.permutations(range(a.n_states))))
    b.validate()
    ca, cb = build_chain(a), build_chain(b)
    assert (cb.sltm.n_states, cb.k) == (ca.sltm.n_states, ca.k)
    assert [d.n_states for d, _ in cb.levels] == [d.n_states for d, _ in ca.levels]
    lassos = enumerate_lassos(a.alphabet, 2, 2)
    assert [dfw_accepts_lassos(d, cb.sltm, lassos) for d, _ in cb.levels] == \
        [dfw_accepts_lassos(d, ca.sltm, lassos) for d, _ in ca.levels]


def test_hoa_roundtrips_through_json(golden_chains):
    for text, _aps, _levels in GOLDEN:
        chain, _f = golden_chains[text]
        loaded = chain_from_json(json.loads(json.dumps(chain_to_json(chain))))
        for ell in range(1, chain.k + 1):
            assert level_to_hoa(loaded, ell) == level_to_hoa(chain, ell)


def test_hoa_shape(golden_chains):
    chain, _f = golden_chains["G a"]
    hoa = level_to_hoa(chain, 1)
    assert "acc-name: co-Buchi" in hoa
    assert "Acceptance: 1 Fin(0)" in hoa
    assert hoa.count("State:") == chain.levels[0][1].n_states
    assert "{0}" in hoa  # rejecting transitions are marked


def test_hoa_over_no_propositions():
    # the one letter of an empty proposition set is the label t
    chain = build_chain_for_formula(LFALSE, Alphabet.from_aps([]))
    assert chain.k == 1
    body = level_to_hoa(chain, 1).split("--BODY--\n")[1]
    assert body == ("State: 0\n[t] 0 {0}\n[t] 1 {0}\n"
                    "State: 1\n[t] 1\n[t] 1 {0}\n--END--\n")


def test_hoa_rejects_levels_outside_the_chain(golden_chains):
    chain, _f = golden_chains["G a"]
    for level in (0, -1, chain.k + 1):
        with pytest.raises(ValueError, match="not one of the chain's levels"):
            level_to_hoa(chain, level)


def test_bench_family_smoke():
    f = lower_bound_family(1)
    alpha = lower_bound_alphabet(1)
    a = from_ltl(to_nnf(f), alpha)
    chain = build_chain(a, formula=f, config=ChainConfig(check_single_step=False))
    assert chain.k == 1
    assert chain.sltm.n_states >= 4
