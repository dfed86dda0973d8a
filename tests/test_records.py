"""The library's record classes are plain classes: importing ``cocoa``
loads no code generator, value types compare and hash by their fields,
automata and chains by identity, and the reports keep their output."""

import json
import os
import re
import subprocess
import sys
import textwrap

import pytest

import cocoa
from cocoa import (
    Alphabet, ChainConfig, build_chain_for_formula, parse_lasso, parse_ltl,
    verify_chain,
)
from cocoa.cli import _parser, main
from cocoa.sltm import Label

from conftest import AB, replaced


def test_import_loads_no_dataclasses_or_inspect():
    # compared with the modules loaded before the import, so that a site
    # that preloads modules does not count
    code = textwrap.dedent("""
        import sys
        before = set(sys.modules)
        import cocoa
        print(" ".join(sorted(set(sys.modules) - before)))
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cocoa.__file__)))
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "cocoa" in loaded
    assert not loaded & {"dataclasses", "inspect"}, sorted(loaded)


def equal_pairs():
    """Pairs of distinct but equal objects of each value type."""
    f = "G (a -> F b)"
    w = ";{a}"
    return [
        (parse_ltl(f, ["a", "b"]), parse_ltl(f, ["a", "b"])),
        (Alphabet.from_aps(["a", "b"]), Alphabet.from_aps(["a", "b"])),
        (parse_lasso(w, AB), parse_lasso(w, Alphabet.from_aps(["a", "b"]))),
        (Label.make([3, 5]), Label.make([5, 3])),
        (ChainConfig(), ChainConfig(10 ** 6, 300.0, True)),
    ]


@pytest.mark.parametrize("x, y", equal_pairs())
def test_value_types_compare_and_hash_by_fields(x, y):
    assert x is not y
    assert x == y and not x != y
    assert hash(x) == hash(y)
    assert len({x, y}) == 1
    assert replaced(x) == x


def test_value_types_differ_in_any_field():
    f = parse_ltl("G a", ["a"])
    assert f != parse_ltl("F a", ["a"]) and f != parse_ltl("G b", ["b"])
    assert Alphabet.from_aps(["a"]) != Alphabet.from_aps(["b"])
    assert parse_lasso(";{a}", AB) != parse_lasso("{a};{a}", AB)
    assert Label.make([3]) != Label.make([5])
    assert ChainConfig() != ChainConfig(check_single_step=False)


def test_identity_types_are_unequal_to_their_copies():
    chain = build_chain_for_formula(parse_ltl("G (a -> F b)", ["a", "b"]))
    m = chain.sltm
    d, c = chain.levels[0]
    for x in (chain.awa, m.g_neg, d, c, chain, m):
        copy = replaced(x)
        assert copy is not x and copy != x and x == x
        assert len({x, copy}) == 2


def test_formula_keeps_its_text():
    f = parse_ltl("G (a -> F b)", ["a", "b"])
    assert str(f) == repr(f) == "G (a -> F b)"


def test_cli_cap_defaults_are_chain_config_defaults():
    args = _parser().parse_args(["translate", "G a"])
    assert (args.max_states, args.timeout_s) == (ChainConfig().max_states,
                                                 ChainConfig().timeout_s)
    assert (args.max_states, args.timeout_s) == (10 ** 6, 300.0)


def test_verify_report_keys():
    chain = build_chain_for_formula(parse_ltl("G a", ["a"]))
    assert list(verify_chain(chain, chain.formula, 1, 1).to_json()) == [
        "formula", "prefix_bound", "period_bound", "lassos", "counterexamples",
        "first_counterexample", "monotonicity_ok", "elapsed_s", "ok"]


# the output of `cocoa verify --json` before the record classes were plain
# classes, with the elapsed time written as 0.0
VERIFY_JSON = {
    ("G (a -> F b)",): """{
  "counterexamples": 0,
  "elapsed_s": 0.0,
  "first_counterexample": null,
  "formula": "G (a -> F b)",
  "k": 1,
  "lassos": 1216,
  "monotonicity_ok": true,
  "mutated": false,
  "ok": true,
  "period_bound": 3,
  "prefix_bound": 2
}
""",
    ("FG a", "--mutate", "drop-accepting"): """{
  "counterexamples": 4,
  "elapsed_s": 0.0,
  "first_counterexample": {
    "lasso": ";{a}",
    "natural_color": 1,
    "oracle_member": true
  },
  "formula": "F G a",
  "k": 2,
  "lassos": 40,
  "monotonicity_ok": true,
  "mutated": true,
  "ok": false,
  "period_bound": 3,
  "prefix_bound": 2
}
""",
}


@pytest.mark.parametrize("argv", list(VERIFY_JSON))
def test_verify_json_bytes(argv, capsys):
    code = main(["verify", *argv, "--json"])
    out = capsys.readouterr().out
    assert code == (json.loads(out)["counterexamples"] > 0)
    assert re.sub(r'"elapsed_s": [0-9.e-]+', '"elapsed_s": 0.0', out) == VERIFY_JSON[argv]
