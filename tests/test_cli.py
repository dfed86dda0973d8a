"""Command-line behavior: exit codes, artifacts, determinism."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cocoa
import cocoa.chain
from cocoa import build_chain_for_formula, parse_ltl
from cocoa.cli import main

SRC = Path(cocoa.__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_translate_g_a(tmp_path, capsys):
    code, out, _err = run(capsys, "translate", "G a", "--out", str(tmp_path))
    assert code == 0
    assert "k=1" in out
    assert (tmp_path / "chain.json").exists()


def test_translate_example_four(tmp_path, capsys):
    code, out, _err = run(capsys, "translate", "GF a -> (GF b & FG c)",
                          "--out", str(tmp_path), "--json")
    assert code == 0
    assert json.loads(out)["k"] == 4


def test_translate_and_library_pick_one_alphabet(tmp_path, capsys):
    # the negation normal form folds "b | true" away; both still build over
    # every proposition the formula names
    text = "a & (b | true)"
    code, _out, _err = run(capsys, "translate", text, "--out", str(tmp_path))
    assert code == 0
    data = json.loads((tmp_path / "chain.json").read_text())
    chain = build_chain_for_formula(parse_ltl(text, ["a", "b"]))
    assert data["aps"] == list(chain.alphabet.aps) == ["a", "b"]
    assert len(data["letters"]) == len(chain.alphabet.letters) == 4


def test_translate_parse_error(tmp_path, capsys):
    code, _out, err = run(capsys, "translate", "a U", "--out", str(tmp_path))
    assert code == 2
    assert "error" in err


def test_repeated_aps(tmp_path, capsys):
    code, _out, err = run(capsys, "translate", "G a", "--aps", "a,a", "--out", str(tmp_path))
    assert code == 2 and "listed twice" in err
    assert not (tmp_path / "chain.json").exists()
    code, _out, err = run(capsys, "verify", "FG a", "--aps", "a,a")
    assert code == 2 and "listed twice" in err


def test_keyword_aps(tmp_path, capsys):
    # --aps takes any name; the parser rejects one spelled like an operator
    code, _out, err = run(capsys, "translate", "G F", "--aps", "F", "--out", str(tmp_path))
    assert code == 2 and "proposition 'F'" in err
    assert not (tmp_path / "chain.json").exists()
    code, _out, err = run(capsys, "verify", "G a", "--aps", "a,true")
    assert code == 2 and "proposition 'true'" in err


def test_translate_resource_cap(tmp_path, capsys):
    code, _out, err = run(capsys, "translate", "GF a -> GF b",
                          "--out", str(tmp_path), "--max-states", "2")
    assert code == 3
    assert "resource cap" in err


def test_translate_hoa_and_dot(tmp_path, capsys):
    code, _out, _err = run(capsys, "translate", "FG a", "--format", "hoa",
                           "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "level-1.hoa").exists()
    assert (tmp_path / "level-2.hoa").exists()
    code, _out, _err = run(capsys, "translate", "FG a", "--format", "dot",
                           "--out", str(tmp_path))
    assert code == 0
    for name in ("awa.dot", "obligation-neg.dot", "obligation-pos.dot",
                 "sltm.dot", "level-1-dfw.dot"):
        assert (tmp_path / name).exists()


def test_translate_deterministic_artifacts(tmp_path, capsys):
    out1 = tmp_path / "one"
    out2 = tmp_path / "two"
    for out in (out1, out2):
        code, _o, _e = run(capsys, "translate", "GF a -> GF b", "--out", str(out))
        assert code == 0
        code, _o, _e = run(capsys, "translate", "GF a -> GF b", "--format",
                           "hoa", "--out", str(out))
        assert code == 0
    assert (out1 / "chain.json").read_bytes() == (out2 / "chain.json").read_bytes()
    assert (out1 / "level-1.hoa").read_bytes() == (out2 / "level-1.hoa").read_bytes()
    assert (out1 / "level-2.hoa").read_bytes() == (out2 / "level-2.hoa").read_bytes()


def test_color_fg_a(capsys):
    code, out, _err = run(capsys, "color", "FG a", "--word", "{a};{a}")
    assert code == 0
    assert "natural_color=2" in out and "member=true" in out
    code, out, _err = run(capsys, "color", "FG a", "--word", ";{a}{}")
    assert code == 0
    assert "natural_color=1" in out and "member=false" in out
    code, out, _err = run(capsys, "color", "G a", "--word", ";{a}")
    assert code == 0
    assert "natural_color=0" in out and "member=true" in out


def test_color_malformed_word(capsys):
    code, _out, err = run(capsys, "color", "G a", "--word", "{a}")
    assert code == 2 and "error" in err


def test_verify_examples(capsys):
    code, out, _err = run(capsys, "verify", "GF a -> GF b",
                          "--prefix", "2", "--period", "3")
    assert code == 0
    assert "counterexamples=0" in out
    code, _out, _err = run(capsys, "verify", "FG a | GF b",
                           "--prefix", "2", "--period", "3")
    assert code == 0


def test_verify_mutation_caught(capsys):
    code, out, _err = run(capsys, "verify", "FG a", "--mutate", "drop-accepting")
    assert code == 1
    assert "counterexamples=0" not in out


def test_verify_json_report(capsys):
    code, out, _err = run(capsys, "verify", "G a", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True and data["k"] == 1


def test_bench_n1(capsys):
    code, out, _err = run(capsys, "bench", "--n", "1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["k"] == 1
    assert data["sltm_states"] >= 4
    assert data["checks"] == {"sltm_at_least_4": True, "single_level": True}


def test_bench_n1_text(capsys):
    code, out, _err = run(capsys, "bench", "--n", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("n=1 k=1 sltm_states=13 elapsed_s=")
    assert lines[1:] == ["level 1: dfw_states=1 hdncw_states=14",
                         "check sltm_at_least_4: PASS", "check single_level: PASS"]


def test_color_json(capsys):
    code, out, _err = run(capsys, "color", "FG a", "--word", "{a} ; {a}", "--json")
    assert code == 0
    assert json.loads(out) == {"word": "{a};{a}", "natural_color": 2, "member": True}
    code, out, _err = run(capsys, "color", "GF a -> (GF b & FG c)", "--word", ";{a}{b}", "--json")
    assert code == 0
    assert json.loads(out) == {"word": ";{a}{b}", "natural_color": 1, "member": False}


@pytest.mark.parametrize("cap", [("--timeout-s", "0.5"), ("--max-states", "1000")])
def test_caps_stop_a_stage_mid_way(capsys, cap):
    # the n=3 complement graph takes about 2 s and 61,899 vertices; a cap
    # checked only between stages let it finish first.  The time cap is
    # one the graph cannot meet, so that it fires inside the graph even on
    # a fast machine
    start = time.monotonic()
    code, _out, err = run(capsys, "bench", "--n", "3", *cap)
    assert code == 3 and "complement obligation graph" in err
    assert time.monotonic() - start < 3.5


def test_level_cap_reports_the_levels_completed(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cocoa.chain, "MAX_LEVELS", 1)
    code, _out, err = run(capsys, "translate", "FG a", "--out", str(tmp_path / "out"))
    assert code == 3
    assert err.splitlines() == ["resource cap: more than 1 levels",
                                "partial progress: 1 levels completed"]
    assert not (tmp_path / "out").exists()


DEPTH = 2000


@pytest.mark.parametrize("text,shallow,same_labels", [
    (" & ".join(["a"] * DEPTH), "a", False),
    (" -> ".join(["a"] * DEPTH), "true", False),  # a -> a is true
    (" U ".join(["a"] * DEPTH), "a", False),  # a U a is a
    ("!" * DEPTH + "a", "a", True),
    ("(" * DEPTH + "a" + ")" * DEPTH, "a", True),
], ids=["conjuncts", "implications", "untils", "negations", "parentheses"])
def test_deeply_nested_formulas_build_as_their_shallow_equivalents(
        tmp_path, capsys, text, shallow, same_labels):
    # deeper than Python's recursion limit of 1,000 frames
    chains = []
    for i, formula in enumerate((text, shallow)):
        folder = tmp_path / str(i)
        code, _out, err = run(capsys, "translate", formula, "--aps", "a", "--out", str(folder))
        assert code == 0 and not err
        chains.append(json.loads((folder / "chain.json").read_text()))
        code, out, err = run(capsys, "verify", formula, "--aps", "a", "--json")
        assert code == 0 and not err and json.loads(out)["ok"]
    deep, flat = chains
    del deep["formula"], flat["formula"]
    if not same_labels:
        # the labels name the automaton's states, one per subformula
        assert deep["sltm"].pop("labels") != flat["sltm"].pop("labels")
    assert deep == flat


def test_bench_bad_n(capsys):
    code, _out, err = run(capsys, "bench", "--n", "0")
    assert code == 2 and "error" in err


def test_bad_bounds(capsys):
    code, _out, err = run(capsys, "verify", "G a", "--prefix", "0")
    assert code == 2


def test_nonpositive_caps(capsys):
    for flag, value in (("--max-states", "0"), ("--timeout-s", "0"), ("--timeout-s", "nan")):
        code, _out, err = run(capsys, "verify", "G a", flag, value)
        assert code == 2 and "resource caps must be positive" in err


def run_to_closed_stdout(*argv, unbuffered=False):
    """Run the command in a new process whose standard output is a pipe
    with no reader left."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    r, w = os.pipe()
    os.close(r)
    try:
        return subprocess.run([sys.executable, "-m", "cocoa.cli", *argv],
                              stdout=w, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(w)


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_exits_141_quietly(unbuffered):
    # the reader of standard output is gone before the command prints:
    # unbuffered, print itself fails; buffered, the flush does
    done = run_to_closed_stdout("bench", "--n", "1", unbuffered=unbuffered)
    assert (done.returncode, done.stderr) == (141, b"")


def test_translate_to_closed_stdout_still_exits_141(tmp_path):
    # the files are written; only the report has no reader
    done = run_to_closed_stdout("translate", "G a", "--out", str(tmp_path), unbuffered=True)
    assert (done.returncode, done.stderr) == (141, b"")
    assert (tmp_path / "chain.json").exists()


def test_unwritable_out_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    (tmp_path / "dir" / "chain.json").mkdir(parents=True)
    for out in (taken, taken / "sub", tmp_path / "dir"):
        code, out_text, err = run(capsys, "translate", "G a", "--out", str(out))
        assert code == 2 and err.startswith("error: cannot write ") and not out_text
    assert taken.read_text() == "kept\n"
    assert [p.name for p in (tmp_path / "dir").iterdir()] == ["chain.json"]


@pytest.mark.parametrize("argv", [
    ("translate", 'G F a"b', "--aps", 'a"b', "--format", "hoa"),
    ("translate", "G F a;b", "--aps", "a;b"),
    ("color", "G F a}", "--aps", "a}", "--word", "{a}};{a}}"),
])
def test_names_the_outputs_cannot_spell_exit_2(tmp_path, monkeypatch, capsys, argv):
    # translate would write to the default --out, cocoa-out
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 2 and "cannot be spelled" in err and not out
    assert not any(tmp_path.iterdir())
