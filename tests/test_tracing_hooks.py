"""The benchmark tracer wraps library functions at the names their callers
look up; a refactor that binds one of them elsewhere would bypass the
wrapper silently.  This installs the tracer and checks that the hooks still
see the calls."""

import contextlib
import importlib
import sys
from pathlib import Path

import cocoa.awa
import cocoa.chain
import cocoa.obligation
import cocoa.sltm
from cocoa import Alphabet, ChainConfig, parse_ltl, to_nnf
from cocoa.sltm import Label, LanguageOracle

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@contextlib.contextmanager
def counting_calls(fns: dict):
    """Count every call of the given functions, however it is reached."""
    names = {fn.__code__: name for name, fn in fns.items()}
    counts = dict.fromkeys(fns, 0)

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code in names:
            counts[names[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        yield counts
    finally:
        sys.setprofile(None)


def installed_tracer(monkeypatch):
    """The benchmark's tracer, installed until the end of the test."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import WRAPPED, Tracer

    for module, attr, _name, _is_span in WRAPPED:
        mod = importlib.import_module(module)
        assert callable(getattr(mod, attr, None)), f"{module}.{attr} no longer resolves"
        # registers the original so that it is put back after the test
        monkeypatch.setattr(mod, attr, getattr(mod, attr))
    tracer = Tracer()
    tracer.install()
    return tracer


def test_tracer_hooks_see_the_calls(monkeypatch):
    originals = {"obligation.minimal_models": cocoa.obligation.minimal_models,
                 "sltm.labels_equivalent": cocoa.sltm.labels_equivalent,
                 "sltm.suffix_label": cocoa.sltm.suffix_label}
    automata = []
    # labels that share a sink-normal form need no query, so few formulas
    # still query the oracle in the single-step check: the first one does
    for text in ("X (a U F (a R !a))", "GF a -> GF b"):
        f = parse_ltl(text, ["a", "b"])
        automata.append((cocoa.awa.from_ltl(to_nnf(f), Alphabet.from_aps(["a", "b"])), f))
    with counting_calls(originals) as unchecked:
        for a, f in automata:
            cocoa.chain.build_chain(a, config=ChainConfig(check_single_step=False), formula=f)
    tracer = installed_tracer(monkeypatch)

    # a direct query on a fresh oracle, besides those of the builds
    b = cocoa.awa.from_ltl(to_nnf(parse_ltl("F a", ["a"])), Alphabet.from_aps(["a"]))
    with counting_calls(originals) as actual:
        for a, f in automata:
            cocoa.chain.build_chain(a, config=ChainConfig(check_single_step=True), formula=f)
        assert cocoa.sltm.labels_equivalent(
            Label.make([1 << b.initial]), Label.make([1 << b.top]),
            LanguageOracle(b)) is False
    traced = {name: tracer.calls[name][0] for name in originals}
    assert traced["obligation.minimal_models"] > 0
    # the single-step check queries the oracle beyond the exploration
    assert traced["sltm.labels_equivalent"] > unchecked["sltm.labels_equivalent"] + 1
    assert traced["sltm.suffix_label"] > 0
    assert tracer.calls["awa.winning_state_positions"][0] > 0
    assert traced == actual


def test_tracer_sees_one_suite_per_verify(monkeypatch):
    # formula.enumerate_lassos_s reads the suite build at the name
    # cocoa.chain.enumerate_lassos, below the chain.verify_chain span
    f = parse_ltl("GF a -> GF b", ["a", "b"])
    a = cocoa.awa.from_ltl(to_nnf(f), Alphabet.from_aps(["a", "b"]))
    chain = cocoa.chain.build_chain(a, formula=f)
    tracer = installed_tracer(monkeypatch)
    assert cocoa.chain.verify_chain(chain, f, 2, 3).ok
    assert tracer.calls["formula.enumerate_lassos"][0] == 1
    names = [span[0] for span in tracer.spans]
    assert names.count("chain.verify_chain") == 1
    suite = tracer.spans[names.index("formula.enumerate_lassos")]
    assert tracer.spans[suite[3]][0] == "chain.verify_chain"
