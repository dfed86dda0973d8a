"""Floating automata: universal base, level products, determinization,
minimization, jump-in acceptance."""

import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings

import cocoa
from cocoa import (
    Alphabet, ChainConfig, build_chain, det_edges, determinize, dfw_accepts_lasso,
    eval_lasso, from_ltl, level_product, lower_bound_alphabet, lower_bound_family,
    miyano_hayashi, minimize_dfw, parse_ltl, to_nnf, universal_dfw,
)
from cocoa._graph import cyclic_sccs

from conftest import (
    build_fig1, build_sltm, formula_corpus, lassos_up_to, nfw_accepts_lasso, prefixes_up_to,
    reference_level_product, replaced, sltm_state_after, weak_awas,
)
from test_chain_bytes import STREETT_3, workloads
from test_sltm import STREETT_2


def setup_pipeline(text, aps):
    alpha = Alphabet.from_aps(aps)
    a = from_ltl(to_nnf(parse_ltl(text, aps)), alpha)
    m = build_sltm(a)
    return a, m


def levels_with_intermediates(m, count):
    prev = universal_dfw(m)
    out = []
    for ell in range(1, count + 1):
        nfw = level_product(prev, m, ell)
        det = determinize(nfw, m)
        mind = minimize_dfw(det, m)
        out.append((nfw, det, mind))
        if mind.n_states == 0:
            break
        prev = mind
    return out


def test_universal_single_state_sltm():
    _a, m = setup_pipeline("FG a", ["a"])
    f0 = universal_dfw(m)
    assert f0.n_states == 1
    assert len(list(det_edges(f0.trans))) == len(m.alphabet.letters)  # total self-loops


def test_universal_accepts_everything():
    for text, aps in [("FG a", ["a"]), ("G a", ["a"]), ("a U b", ["a", "b"])]:
        _a, m = setup_pipeline(text, aps)
        f0 = universal_dfw(m)
        for w in lassos_up_to(m.alphabet, 2, 3):
            assert dfw_accepts_lasso(f0, m, w) is True


def test_label_consistency_everywhere():
    for text, aps in [("G a", ["a"]), ("GF a -> GF b", ["a", "b"])]:
        _a, m = setup_pipeline(text, aps)
        for nfw, det, mind in levels_with_intermediates(m, 4):
            for q, row in enumerate(nfw.trans):
                for i, dsts in enumerate(row):
                    for q2 in dsts:
                        assert nfw.label[q2] == m.delta[nfw.label[q]][i]
            for d in (det, mind):
                for q, i, q2 in det_edges(d.trans):
                    assert d.label[q2] == m.delta[d.label[q]][i]


def test_nfw_transient_free():
    for text, aps in [("G a", ["a"]), ("GF a -> GF b", ["a", "b"]),
                      ("FG a", ["a"])]:
        _a, m = setup_pipeline(text, aps)
        for nfw, _det, _mind in levels_with_intermediates(m, 4):
            succ = [sorted({d for dsts in row for d in dsts}) for row in nfw.trans]
            # every state lies on a cycle, and every transition stays
            # inside one component
            comp = cyclic_sccs(succ)
            for q in range(nfw.n_states):
                assert comp[q] >= 0
                for s in succ[q]:
                    assert comp[s] == comp[q]


def test_cyclic_sccs_keeps_marked_components():
    # 0 -> 1 -> 0 and the self-loop 3 are cyclic, 2 and 4 transient; the
    # components are numbered sinks first: {4}, {3}, {2}, {0, 1}
    succ = [[1], [0, 2], [3], [3, 4], []]
    assert cyclic_sccs(succ) == [3, 3, -1, 1, -1]
    assert cyclic_sccs(succ, [3]) == [-1, -1, -1, 1, -1]
    assert cyclic_sccs(succ, [1, 4]) == [3, 3, -1, -1, -1]
    assert cyclic_sccs(succ, []) == [-1] * 5


def test_level_one_languages_from_examples():
    # the first level of a safety property is the co-safety complement;
    # for a prefix-independent one it is universal
    a, m = setup_pipeline("G a", ["a"])
    nfw = level_product(universal_dfw(m), m, 1)
    d = minimize_dfw(determinize(nfw, m), m)
    oracle = to_nnf(parse_ltl("F !a", ["a"]))
    for w in lassos_up_to(m.alphabet, 2, 3):
        assert dfw_accepts_lasso(d, m, w) == eval_lasso(oracle, w)

    _a2, m2 = setup_pipeline("FG a", ["a"])
    nfw2 = level_product(universal_dfw(m2), m2, 1)
    d2 = minimize_dfw(determinize(nfw2, m2), m2)
    for w in lassos_up_to(m2.alphabet, 2, 3):
        assert dfw_accepts_lasso(d2, m2, w) is True


def test_level_one_empty_for_tautology():
    _a, m = setup_pipeline("a | !a", ["a"])
    nfw = level_product(universal_dfw(m), m, 1)
    assert nfw.n_states == 0
    assert minimize_dfw(determinize(nfw, m), m).n_states == 0


def test_determinize_preserves_language():
    for text, aps in [("FG a", ["a"]), ("G a", ["a"]), ("GF a -> GF b", ["a", "b"])]:
        _a, m = setup_pipeline(text, aps)
        for nfw, det, _mind in levels_with_intermediates(m, 4):
            for w in lassos_up_to(m.alphabet, 2, 3):
                assert dfw_accepts_lasso(det, m, w) == nfw_accepts_lasso(nfw, m, w)


def test_determinize_empty_is_empty():
    _a, m = setup_pipeline("a | !a", ["a"])
    nfw = level_product(universal_dfw(m), m, 1)
    det = determinize(nfw, m)
    assert det.n_states == 0


def test_determinize_size_bound():
    # a DFW state is a previous state p with a set V of the level graph's
    # vertices, all inside the vertex set of p's SLTM state; so the keys,
    # and with them the states, are bounded
    for text, aps in [("FG a", ["a"]), ("GF a -> GF b", ["a", "b"])]:
        _a, m = setup_pipeline(text, aps)
        prev = universal_dfw(m)
        for ell, (_nfw, det, mind) in enumerate(levels_with_intermediates(m, 4), start=1):
            g, vsets = (m.g_neg, m.vertex_sets_neg) if ell % 2 else (m.g_pos, m.vertex_sets_pos)
            for p, vs in det.origin:
                assert vs and vs <= vsets[prev.label[p]]
            bound = prev.n_states ** 2 * 2 ** g.n_vertices * max(g.n_vertices, 1)
            assert det.n_states <= bound
            prev = mind


def test_minimize_idempotent_and_preserving():
    for text, aps in [("FG a", ["a"]), ("GF a -> GF b", ["a", "b"])]:
        _a, m = setup_pipeline(text, aps)
        for _nfw, det, mind in levels_with_intermediates(m, 4):
            again = minimize_dfw(mind, m)
            assert again.n_states == mind.n_states
            assert mind.n_states <= max(det.n_states, 1) or det.n_states == 0
            for w in lassos_up_to(m.alphabet, 2, 3):
                assert dfw_accepts_lasso(mind, m, w) == dfw_accepts_lasso(det, m, w)


def test_minimize_universal_one_state_sltm():
    _a, m = setup_pipeline("FG a", ["a"])
    f0 = universal_dfw(m)
    assert minimize_dfw(f0, m).n_states == 1


def test_dfw_accepts_examples():
    _a, m = setup_pipeline("FG a", ["a"])
    f0 = universal_dfw(m)
    lassos = {w.text(): w for w in lassos_up_to(m.alphabet, 1, 2)}
    assert dfw_accepts_lasso(f0, m, lassos[";{a}{}"]) is True
    levels = levels_with_intermediates(m, 2)
    level2 = levels[1][2]
    assert dfw_accepts_lasso(level2, m, lassos[";{a}"]) is True
    assert dfw_accepts_lasso(level2, m, lassos[";{a}{}"]) is False


def test_empty_dfw_rejects():
    _a, m = setup_pipeline("a | !a", ["a"])
    nfw = level_product(universal_dfw(m), m, 1)
    d = minimize_dfw(determinize(nfw, m), m)
    assert d.n_states == 0
    for w in lassos_up_to(m.alphabet, 1, 2):
        assert dfw_accepts_lasso(d, m, w) is False


def test_monotone_levels_on_corpus():
    for f, aps in formula_corpus(15, seed=61):
        alpha = Alphabet.from_aps(aps)
        a = from_ltl(to_nnf(f), alpha)
        m = build_sltm(a)
        chain = []
        prev = universal_dfw(m)
        for ell in range(1, 7):
            d = minimize_dfw(determinize(level_product(prev, m, ell), m), m)
            if d.n_states == 0:
                break
            chain.append(d)
            prev = d
        for w in lassos_up_to(alpha, 2, 2):
            acc = [dfw_accepts_lasso(d, m, w) for d in chain]
            assert acc == sorted(acc, reverse=True)  # downward closed


def reachable_transitions(d, m, prefix) -> frozenset:
    """Transitions (q, x, q') reachable after reading the prefix: some run on
    prefix.x ends with the transition (jump-ins at every moment allowed)."""
    s = m.initial
    alive: set[int] = set(d.by_label.get(s, ()))
    for x in prefix:
        i = m.alphabet.number[x]
        s = m.delta[s][i]
        alive = {d.trans[q][i] for q in alive if d.trans[q][i] is not None}
        alive.update(d.by_label.get(s, ()))
    out = set()
    for q in alive:
        for i, dst in enumerate(d.trans[q]):
            if dst is not None:
                out.add((q, i, dst))
    return frozenset(out)


def test_reachable_transitions_depend_only_on_sltm_state():
    for text, aps in [("G a", ["a"]), ("GF a -> GF b", ["a", "b"]),
                      ("a U b", ["a", "b"])]:
        _a, m = setup_pipeline(text, aps)
        for _nfw, _det, mind in levels_with_intermediates(m, 3):
            groups: dict[int, list] = {}
            for p in prefixes_up_to(m.alphabet, 3):
                groups.setdefault(sltm_state_after(m, p), []).append(p)
            for _s, group in groups.items():
                rep = reachable_transitions(mind, m, group[0])
                for p in group[1:]:
                    assert reachable_transitions(mind, m, p) == rep


def test_label_check_fires_under_optimize():
    # `python -O` strips assert statements; the invariant check must not be one
    code = textwrap.dedent("""
        import sys
        from cocoa import Alphabet, from_ltl, parse_ltl, to_nnf
        from cocoa.floating import Dfw, _check_label_consistency
        from conftest import build_sltm

        if sys.flags.optimize != 1:
            sys.exit(2)
        alpha = Alphabet.from_aps(["a"])
        m = build_sltm(from_ltl(to_nnf(parse_ltl("G a", ["a"])), alpha))
        # one state labeled with the initial SLTM state, looping on every
        # letter, although the letter {} leaves that SLTM state
        loops = ((0,) * len(alpha.letters),)
        bad = Dfw((m.initial,), loops, ((None, frozenset()),))
        try:
            _check_label_consistency(bad, m)
        except AssertionError:
            sys.exit(0)
        sys.exit(1)
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cocoa.__file__)))
    tests = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((src, tests)))
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def bench_chain(text: str, aps: list[str]):
    f = parse_ltl(text, aps)
    return build_chain(from_ltl(to_nnf(f), Alphabet.from_aps(aps)),
                       config=ChainConfig(check_single_step=False), formula=f)


def products_match_reference(chain) -> int:
    """Compare every level's product, the empty one after the last level
    included, with the unabridged product; the number of product states
    compared."""
    m = chain.sltm
    prevs = [universal_dfw(m)] + [d for d, _c in chain.levels]
    compared = 0
    for ell, prev in enumerate(prevs, start=1):
        got = level_product(prev, m, ell)
        want = reference_level_product(prev, m, ell)
        assert (got.label, got.trans, got.origin) == (want.label, want.trans, want.origin), ell
        compared += got.n_states
    return compared


def test_core_product_matches_unabridged_product():
    chains = [bench_chain(item["text"], item["aps"])
              for item in workloads.corpus_items(workloads.CORPUS_SEED)]
    chains += [bench_chain(text, aps) for text, aps in workloads.RABIN_FORMULAS + [STREETT_2]]
    for n in (1, 2):
        f = lower_bound_family(n)
        chains.append(build_chain(from_ltl(to_nnf(f), lower_bound_alphabet(n, restricted=True)),
                                  config=ChainConfig(check_single_step=False), formula=f))
    assert sum(map(products_match_reference, chains)) > 300


@settings(max_examples=40, deadline=None, database=None)
@given(weak_awas())
def test_core_product_matches_unabridged_product_on_weak_automata(a):
    products_match_reference(build_chain(a, config=ChainConfig(check_single_step=False)))


def assert_core_is_cycles_through_owing_nothing(g) -> None:
    # v is in the core when some vertex owing nothing (maybe v itself) and
    # v reach each other by non-empty paths; two core vertices share an id
    # exactly when they reach each other
    succ = [sorted({d for dsts in row for d in dsts}) for row in g.edges]

    def reach(v: int) -> set[int]:
        seen: set[int] = set()
        todo = list(succ[v])
        while todo:
            w = todo.pop()
            if w not in seen:
                seen.add(w)
                todo += succ[w]
        return seen

    after = [reach(v) for v in range(g.n_vertices)]
    owing_nothing = [u for u, (_S, O) in enumerate(g.vertices) if not O]
    core = g.core
    for v in range(g.n_vertices):
        on_cycle = any(u in after[v] and v in after[u] for u in owing_nothing)
        assert (core[v] >= 0) == on_cycle, v
        for w in range(g.n_vertices):
            if core[v] >= 0 and core[w] >= 0:
                assert (core[v] == core[w]) == (v == w or (w in after[v] and v in after[w]))


def test_core_is_cycles_through_vertices_owing_nothing():
    automata = [build_fig1()] + [from_ltl(to_nnf(f), Alphabet.from_aps(aps))
                           for f, aps in formula_corpus(20, seed=31)]
    kept = 0
    for a in automata:
        for b in (a, a.dual):
            g = miyano_hayashi(b)
            assert_core_is_cycles_through_owing_nothing(g)
            kept += sum(c >= 0 for c in g.core)
    assert kept > 20


@settings(max_examples=40, deadline=None, database=None)
@given(weak_awas())
def test_core_is_cycles_through_vertices_owing_nothing_on_weak_automata(a):
    for b in (a, a.dual):
        assert_core_is_cycles_through_owing_nothing(miyano_hayashi(b))


def test_product_rejects_a_core_successor_outside_its_set():
    m = build_sltm(from_ltl(to_nnf(parse_ltl(*STREETT_2)), Alphabet.from_aps(STREETT_2[1])))
    g, vsets = m.side(1)
    core = g.core
    # a core edge leaving a vertex for another one of its component
    s, v, i, v2 = next((s, v, i, v2) for s, vs in enumerate(vsets) for v in sorted(vs)
                       if core[v] >= 0 for i, dsts in enumerate(g.edges[v])
                       for v2 in dsts if v2 != v and core[v2] == core[v])
    s2 = m.delta[s][i]
    cut = list(vsets)
    cut[s2] = vsets[s2] - {v2}
    broken = replaced(m, vertex_sets_neg=tuple(cut))
    with pytest.raises(AssertionError, match="outside successor state's set"):
        level_product(universal_dfw(broken), broken, 1)


class Stop(Exception):
    pass


def test_checkpoint_stops_determinization():
    chain = bench_chain(*STREETT_3)
    assert [d.n_states for d, _c in chain.levels] == [6, 21, 24, 12, 6, 1]
    m = chain.sltm
    nfw = level_product(chain.levels[1][0], m, 3)
    seen: list[int] = []
    whole = determinize(nfw, m, seen.append)
    # called once per row, with the states found so far (the NFW's
    # singletons first)
    assert len(seen) == whole.n_states > 20
    assert seen == sorted(seen) and seen[-1] == whole.n_states

    def stop_at_five(n: int) -> None:
        calls.append(n)
        if len(calls) == 5:
            raise Stop

    calls: list[int] = []
    with pytest.raises(Stop):
        determinize(nfw, m, stop_at_five)
    # stopped after four of the rows
    assert calls == seen[:5]
