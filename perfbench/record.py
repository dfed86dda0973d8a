"""Write perfbench/expected.json: the canonical sizes and chain_to_json
digest of every item, taken from the current program.

    python3 perfbench/record.py

Only for adding items to the benchmark.  The corpus is run in two orders
and both must agree, so a result that depends on what ran before it in the
same process cannot be recorded; every item must also pass the verifier.
"""

from __future__ import annotations

import json
import sys
import time

from run import EXPECTED, GATED, run_worker
import workloads


def record(workload: str, seed: int, corpus_seed: int) -> dict:
    args = ["--workload", workload, "--seed", str(seed), "--corpus-seed", str(corpus_seed)]
    r = run_worker(args, time.monotonic() + 600)
    plan = workloads.items(workload, seed, corpus_seed)
    if not r["complete"] or len(r["items"]) != len(plan):
        sys.exit(f"{workload}: pass did not complete: {r['error']}")
    out = {}
    for item, got in zip(plan, r["items"]):
        if "error" in got or not got["ok"]:
            sys.exit(f"{workload}: {item['key']} failed: {got.get('error', 'verify')}")
        out[item["key"]] = {field: got[field] for field in GATED}
    return out


def main() -> int:
    expected = {
        "lowerbound": record("lowerbound", 0, workloads.CORPUS_SEED),
        "rabin": record("rabin", 0, workloads.CORPUS_SEED),
        "corpus": {},
    }
    for corpus_seed in (workloads.CORPUS_SEED, workloads.CORPUS_CHECK_SEED):
        first = record("corpus", 0, corpus_seed)
        if record("corpus", 1, corpus_seed) != first:
            sys.exit(f"corpus {corpus_seed}: results depend on the item order")
        expected["corpus"].update(first)
    with open(EXPECTED, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {EXPECTED}: " + ", ".join(f"{w} {len(v)}" for w, v in expected.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
