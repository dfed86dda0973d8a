"""Floating automata: universal base, level products, determinization,
minimization, jump-in acceptance."""

import os
import subprocess
import sys
import textwrap

import cocoa
from cocoa import (
    Alphabet, det_edges, determinize, dfw_accepts_lasso, eval_lasso, from_ltl,
    level_product, minimize_dfw, parse_ltl, to_nnf, universal_dfw,
)
from cocoa.sltm import build_canonical_sltm

from conftest import (
    formula_corpus, lassos_up_to, nfw_accepts_lasso, prefixes_up_to,
    sltm_state_after,
)


def setup_pipeline(text, aps):
    alpha = Alphabet.from_aps(aps)
    a = from_ltl(to_nnf(parse_ltl(text, aps)), alpha)
    m = build_canonical_sltm(a)
    return a, m


def levels_with_intermediates(m, count):
    prev = universal_dfw(m)
    out = []
    for ell in range(1, count + 1):
        nfw = level_product(prev, m, ell, m.g_neg, m.g_pos)
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
            succ = [set() for _ in range(nfw.n_states)]
            for q, row in enumerate(nfw.trans):
                for dsts in row:
                    succ[q].update(dsts)
            # every state lies on a cycle: nonempty successor chain that
            # revisits, and every transition stays inside one component
            from cocoa._graph import scc_ids, tarjan_sccs

            sccs = tarjan_sccs(range(nfw.n_states), [sorted(s) for s in succ].__getitem__)
            comp = scc_ids(nfw.n_states, sccs)
            cyclic = set()
            for q in range(nfw.n_states):
                for s in succ[q]:
                    assert comp[s] == comp[q]
                    cyclic.add(comp[q])
            for q in range(nfw.n_states):
                assert comp[q] in cyclic


def test_level_one_languages_from_examples():
    # the first level of a safety property is the co-safety complement;
    # for a prefix-independent one it is universal
    a, m = setup_pipeline("G a", ["a"])
    nfw = level_product(universal_dfw(m), m, 1, m.g_neg, m.g_pos)
    d = minimize_dfw(determinize(nfw, m), m)
    oracle = to_nnf(parse_ltl("F !a", ["a"]))
    for w in lassos_up_to(m.alphabet, 2, 3):
        assert dfw_accepts_lasso(d, m, w) == eval_lasso(oracle, w)

    _a2, m2 = setup_pipeline("FG a", ["a"])
    nfw2 = level_product(universal_dfw(m2), m2, 1, m2.g_neg, m2.g_pos)
    d2 = minimize_dfw(determinize(nfw2, m2), m2)
    for w in lassos_up_to(m2.alphabet, 2, 3):
        assert dfw_accepts_lasso(d2, m2, w) is True


def test_level_one_empty_for_tautology():
    _a, m = setup_pipeline("a | !a", ["a"])
    nfw = level_product(universal_dfw(m), m, 1, m.g_neg, m.g_pos)
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
    nfw = level_product(universal_dfw(m), m, 1, m.g_neg, m.g_pos)
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
    nfw = level_product(universal_dfw(m), m, 1, m.g_neg, m.g_pos)
    d = minimize_dfw(determinize(nfw, m), m)
    assert d.n_states == 0
    for w in lassos_up_to(m.alphabet, 1, 2):
        assert dfw_accepts_lasso(d, m, w) is False


def test_monotone_levels_on_corpus():
    for f, aps in formula_corpus(15, seed=61):
        alpha = Alphabet.from_aps(aps)
        a = from_ltl(to_nnf(f), alpha)
        m = build_canonical_sltm(a)
        chain = []
        prev = universal_dfw(m)
        for ell in range(1, 7):
            d = minimize_dfw(determinize(level_product(prev, m, ell, m.g_neg, m.g_pos), m), m)
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
        from cocoa.sltm import build_canonical_sltm

        if sys.flags.optimize != 1:
            sys.exit(2)
        alpha = Alphabet.from_aps(["a"])
        m = build_canonical_sltm(from_ltl(to_nnf(parse_ltl("G a", ["a"])), alpha))
        # one state labeled with the initial SLTM state, looping on every
        # letter, although the letter {} leaves that SLTM state
        loops = ((0,) * len(alpha.letters),)
        bad = Dfw(alpha, 1, (m.initial,), loops, ((None, frozenset()),))
        try:
            _check_label_consistency(bad, m)
        except AssertionError:
            sys.exit(0)
        sys.exit(1)
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cocoa.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
