"""The benchmark's view of the library: its worker process, run as the
benchmark runs it, builds every ``lowerbound`` item and every item of both
stored corpora to the pinned chain and, traced, still sees the SLTM
stage's calls.  A refactor that breaks
what the worker unpacks (``chain.levels`` pairs, ``chain.sltm.g_neg``,
``report.lassos``) or rebinds a traced name fails here."""

import json
import subprocess
import sys

from test_chain_bytes import EXPECTED, PERFBENCH, workloads


def worker_lines(*args: str) -> list[dict]:
    done = subprocess.run([sys.executable, str(PERFBENCH / "worker.py"), *args],
                          capture_output=True, text=True, timeout=120, check=True)
    return [json.loads(line) for line in done.stdout.splitlines()]


def test_worker_builds_the_pinned_lowerbound_chains():
    items = workloads.items("lowerbound", 0)
    expected = EXPECTED["lowerbound"]
    for trace in ("0", "1"):
        lines = worker_lines("--workload", "lowerbound", "--trace", trace)
        assert "ready" in lines[0] and lines[-1]["done"] is True
        results = lines[1:-1]
        assert [r["item"] for r in results] == list(range(len(items)))
        for item, result in zip(items, results):
            assert result["ok"] is True, result
            assert result["lassos"] > 0
            want = expected[item["key"]]
            assert {key: result[key] for key in want} == want, item["key"]
        exported = lines[-1]["trace"]
        if trace == "1":
            assert exported["calls"]["sltm.labels_equivalent"][0] > 0
            assert exported["calls"]["obligation.minimal_models"][0] > 0
        else:
            assert exported is None


def test_worker_builds_every_pinned_corpus_chain():
    expected = EXPECTED["corpus"]
    seen = set()
    for corpus_seed in (workloads.CORPUS_SEED, workloads.CORPUS_CHECK_SEED):
        items = workloads.items("corpus", 0, corpus_seed)
        lines = worker_lines("--workload", "corpus", "--corpus-seed", str(corpus_seed))
        assert "ready" in lines[0] and lines[-1]["done"] is True
        results = lines[1:-1]
        assert [r["item"] for r in results] == list(range(len(items)))
        for item, result in zip(items, results):
            assert result["ok"] is True, result
            want = expected[item["key"]]
            assert {key: result[key] for key in ("k", "sltm_states", "dfw_states", "sha256")} \
                == want, item["key"]
            seen.add(item["key"])
    assert seen == set(expected)
