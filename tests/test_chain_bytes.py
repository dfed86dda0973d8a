"""`chain_to_json` bytes stay fixed: a sample of the benchmark items is
rebuilt the way the benchmark worker builds them and each digest is
compared with the one stored in `perfbench/expected.json`."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from cocoa import (
    Alphabet, ChainConfig, build_chain, chain_to_json, from_ltl,
    lower_bound_alphabet, lower_bound_family, parse_ltl, to_nnf,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# loaded from its file, so that perfbench/ stays off sys.path
_spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

EXPECTED = json.loads((PERFBENCH / "expected.json").read_text())

SAMPLE = (
    [("lowerbound", item) for item in workloads.items("lowerbound", 0)]
    + [("rabin", item) for item in workloads.items("rabin", 0)[:4]]
    + [("corpus", item) for item in
       workloads.corpus_items(workloads.CORPUS_SEED)[::workloads.CORPUS_PER_CELL]]
)


def chain_digest(item: dict) -> str:
    """The sha256 the benchmark worker records for one item."""
    if item["family"] is not None:
        f = lower_bound_family(item["family"])
        alphabet = lower_bound_alphabet(item["family"], restricted=True)
    else:
        f = parse_ltl(item["text"], item["aps"])
        alphabet = Alphabet.from_aps(item["aps"])
    config = ChainConfig(check_single_step=item["settings"] != workloads.BENCH)
    chain = build_chain(from_ltl(to_nnf(f), alphabet), config=config, formula=f)
    return hashlib.sha256(json.dumps(chain_to_json(chain), sort_keys=True).encode()).hexdigest()


def test_sample_covers_every_workload_cell():
    assert len(SAMPLE) == 19
    assert len({item["key"] for _w, item in SAMPLE}) == 19


@pytest.mark.parametrize("workload,item", SAMPLE, ids=[item["key"] for _w, item in SAMPLE])
def test_chain_bytes_match_benchmark_digest(workload, item):
    assert chain_digest(item) == EXPECTED[workload][item["key"]]["sha256"]


@pytest.mark.parametrize("check_single_step", [False, True])
def test_lower_bound_n2_chain_is_pinned(check_single_step):
    # the n=2 member of the lower-bound family, built as `cocoa bench --n 2`
    # builds it and, with the single-step check, as `cocoa translate` does;
    # its digest was measured before the breakpoint kernel moved to bit masks
    f = lower_bound_family(2)
    a = from_ltl(to_nnf(f), lower_bound_alphabet(2, restricted=True))
    chain = build_chain(a, config=ChainConfig(check_single_step=check_single_step), formula=f)
    assert chain.k == 1
    assert chain.sltm.n_states == 83
    assert chain.sltm.g_neg.n_vertices == 3244
    assert chain.sltm.g_pos.n_vertices == 831
    assert [d.n_states for d, _c in chain.levels] == [1]
    digest = hashlib.sha256(json.dumps(chain_to_json(chain), sort_keys=True).encode()).hexdigest()
    assert digest == "2006494e430e6e2c5a86e8b475c795349920bcbf74d3b9bef553a04a73c74ce4"


STREETT_3 = ("(GF a1 -> GF b1) & (GF a2 -> GF b2) & (GF a3 -> GF b3)",
             ["a1", "b1", "a2", "b2", "a3", "b3"])


def test_streett_3_chain_is_pinned():
    # a chain whose level loop does real work: six levels over 64 letters;
    # its digest was measured before the level products were cut to the
    # graph's core
    text, aps = STREETT_3
    f = parse_ltl(text, aps)
    a = from_ltl(to_nnf(f), Alphabet.from_aps(aps))
    chain = build_chain(a, config=ChainConfig(check_single_step=False), formula=f)
    assert chain.k == 6
    assert [d.n_states for d, _c in chain.levels] == [6, 21, 24, 12, 6, 1]
    digest = hashlib.sha256(json.dumps(chain_to_json(chain), sort_keys=True).encode()).hexdigest()
    assert digest == "4f210f3f898ed76ddf480945089ab0dfffec5cbdab938aba29ce52bd01d9afa3"
