"""One fresh benchmark process: import cocoa, then run one pass of items.

Prints one JSON object per line on standard output: first {"ready": t}
with the monotonic time at which `import cocoa` returned, then one object
per finished item, then {"done": ...} with the peak RSS and, when traced,
the tracer's spans and aggregates.  Run by perfbench/run.py, which enforces
the wall caps from outside this process.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import cocoa  # noqa: E402

READY = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def run_item(item: dict) -> dict:
    """Build and verify one item the way the matching CLI command does."""
    start = time.perf_counter()
    if item["family"] is not None:
        f = cocoa.lower_bound_family(item["family"])
        alphabet = cocoa.lower_bound_alphabet(item["family"], restricted=True)
    else:
        f = cocoa.parse_ltl(item["text"], item["aps"])
        alphabet = cocoa.Alphabet.from_aps(item["aps"])
    config = cocoa.ChainConfig(check_single_step=item["settings"] != workloads.BENCH)
    # module attributes are read at call time so that the tracer's wrappers apply
    a = cocoa.awa.from_ltl(cocoa.to_nnf(f), alphabet)
    t0 = time.perf_counter()
    chain = cocoa.chain.build_chain(a, config=config, formula=f)
    t1 = time.perf_counter()
    report = cocoa.chain.verify_chain(chain, f, item["prefix"], item["period"])
    t2 = time.perf_counter()
    digest = hashlib.sha256(json.dumps(cocoa.chain_to_json(chain), sort_keys=True).encode())
    return {
        "ok": report.ok,
        "wall_s": time.perf_counter() - start,
        "build_s": t1 - t0,
        "verify_s": t2 - t1,
        "lassos": report.lassos,
        "k": chain.k,
        "sltm_states": chain.sltm.n_states,
        "dfw_states": [d.n_states for d, _ in chain.levels],
        "sha256": digest.hexdigest(),
        "awa_states": a.n_states,
        "g_neg_vertices": chain.sltm.g_neg.n_vertices,
        "g_pos_vertices": chain.sltm.g_pos.n_vertices,
    }


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--corpus-seed", type=int, default=workloads.CORPUS_SEED)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()
    emit({"ready": READY})
    if args.setup_only:
        return 0
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    for i, item in enumerate(workloads.items(args.workload, args.seed, args.corpus_seed)):
        try:
            if tracer is None:
                result = run_item(item)
            else:
                with tracer.item(item["key"]):
                    result = run_item(item)
        except Exception as exc:  # one failed item must not stop the pass
            traceback.print_exc()
            result = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        emit({"item": i, **result})
    emit({
        "done": True,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": None if tracer is None else tracer.export(),
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
