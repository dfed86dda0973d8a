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
from cocoa import Alphabet, parse_ltl, to_nnf
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


def test_tracer_hooks_see_the_calls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import WRAPPED, Tracer

    for module, attr, _name, _is_span in WRAPPED:
        mod = importlib.import_module(module)
        assert callable(getattr(mod, attr, None)), f"{module}.{attr} no longer resolves"
        # registers the original so that it is put back after the test
        monkeypatch.setattr(mod, attr, getattr(mod, attr))
    originals = {"obligation.minimal_models": cocoa.obligation.minimal_models,
                 "sltm.labels_equivalent": cocoa.sltm.labels_equivalent}
    tracer = Tracer()
    tracer.install()

    f = parse_ltl("G (a -> F b)", ["a", "b"])
    a = cocoa.awa.from_ltl(to_nnf(f), Alphabet.from_aps(["a", "b"]))
    # a direct query on a fresh oracle, besides those of the build
    b = cocoa.awa.from_ltl(to_nnf(parse_ltl("F a", ["a"])), Alphabet.from_aps(["a"]))
    with counting_calls(originals) as actual:
        cocoa.chain.build_chain(a, formula=f)
        assert cocoa.sltm.labels_equivalent(
            Label.make([1 << b.initial]), Label.make([1 << b.top]),
            LanguageOracle(b)) is False
    traced = {name: tracer.calls[name][0] for name in originals}
    assert traced["obligation.minimal_models"] > 0
    assert traced["sltm.labels_equivalent"] > 1
    assert tracer.calls["awa.winning_state_positions"][0] > 0
    assert traced == actual
