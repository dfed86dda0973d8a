"""COCOA benchmark: build and verify chains, time them, check every result.

    python3 perfbench/run.py --workload {lowerbound,rabin,corpus} --seed N \
        --seconds S --trace {0,1}

One client runs passes over the workload's items in a closed loop, one
fresh worker process per pass, until `--seconds` have elapsed (at least one
pass).  `--trace 0` reports the end-to-end metrics of BENCHMARK.json,
`--trace 1` the per-layer ones from traced passes, alternated with untraced
passes to measure the tracing overhead.  Times are medians over passes,
scaled to a fixed machine speed by a reference loop run between workers
(see REF_S).  Every item goes through the
correctness gate: the verifier must report ok and the canonical sizes and
chain_to_json digest must equal perfbench/expected.json.  The last line of
standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
EXPECTED = os.path.join(HERE, "expected.json")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

sys.path.insert(0, HERE)
import workloads  # noqa: E402

# wall caps enforced from this process: the SLTM stage ignores the
# library's own timeout, so a blow-up would otherwise hang the benchmark
ITEM_CAP_S = 60.0
RUN_CAP_S = 150.0
SETUP_PROBES = 7
GATED = ("k", "sltm_states", "dfw_states", "sha256")


# Machine-speed correction.  On the shared 2-vCPU VM the benchmark was
# written on, other tenants slow everything down by up to 1.5x, in stretches
# of seconds to minutes, long enough to cover a whole run.  So every worker
# is bracketed by runs of reference_s(), a fixed loop that does not use
# cocoa, and each time the worker measured is multiplied by its scale,
# REF_S over the mean of the two reference times: the time it would have
# taken at the speed at which the loop takes REF_S.  A change to the
# library moves the scaled times as it moves the measured ones.
REF_S = 0.2


def reference_s() -> float:
    """Time of a fixed pure-Python loop doing the library's kind of work:
    building frozensets, looking them up in a dict, sorting."""
    rng = random.Random(1)
    start = time.perf_counter()
    seen: dict[frozenset, int] = {}
    for _ in range(20000):
        key = frozenset(rng.randrange(200) for _ in range(6))
        seen[key] = seen.get(key, 0) + 1
    sorted(seen.items(), key=lambda kv: (kv[1], sorted(kv[0])))
    return time.perf_counter() - start


class Capped(Exception):
    pass


def _messages(proc: subprocess.Popen, hard_deadline: float):
    """JSON lines of a worker; raises Capped when no line arrives within
    ITEM_CAP_S or the run's hard deadline passes."""
    fd = proc.stdout.fileno()
    buf = b""
    deadline = min(time.monotonic() + ITEM_CAP_S, hard_deadline)
    while True:
        if b"\n" in buf:
            line, buf = buf.split(b"\n", 1)
            deadline = min(time.monotonic() + ITEM_CAP_S, hard_deadline)
            yield time.monotonic(), json.loads(line)
            continue
        timeout = deadline - time.monotonic()
        if timeout <= 0:
            raise Capped
        ready, _, _ = select.select([fd], [], [], timeout)
        if ready:
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return
            buf += chunk


def run_worker(args: list[str], hard_deadline: float) -> dict:
    """One fresh worker process.  Returns its setup time, the items it
    finished, and, if it completed, its wall time, peak RSS and trace."""
    out: dict = {"items": [], "complete": False, "error": None}
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, WORKER, *args], cwd=ROOT,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
    try:
        for received, msg in _messages(proc, hard_deadline):
            if "ready" in msg:
                out["setup_s"] = msg["ready"] - spawned
            elif "item" in msg:
                out["items"].append(msg)
            elif msg.get("done"):
                out.update(complete=True, wall_s=received - spawned,
                           rss_mb=msg["rss_kb"] / 1024, trace=msg["trace"])
        if not out["complete"]:
            out["error"] = "worker exited before finishing the pass"
    except Capped:
        out["error"] = "wall cap exceeded"
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    return out


def run_scaled(args: list[str], hard_deadline: float, before: float) -> tuple[dict, float]:
    """run_worker followed by a reference loop.  Returns the worker's result
    with its speed scale, and the reference time that opens the next one."""
    r = run_worker(args, hard_deadline)
    after = reference_s()
    r["scale"] = REF_S / ((before + after) / 2)
    return r, after


def gate(item: dict, got: dict | None, expected: dict) -> str | None:
    """Why an item failed, or None if it passed."""
    if got is None:
        return "no result (worker capped or died)"
    if "error" in got:
        return got["error"]
    if not got["ok"]:
        return "verify_chain reported a counterexample or a monotonicity break"
    want = expected.get(item["key"])
    if want is None:
        return "no expected values stored for this item"
    for field in GATED:
        if got[field] != want[field]:
            return f"{field} is {got[field]!r}, expected {want[field]!r}"
    return None


def _sum(items: list[dict], field: str) -> float:
    return sum(it[field] for it in items)


def e2e_metrics(passes: list[dict], setups: list[float]) -> dict:
    """Medians over the run's complete passes of each pass's scaled times;
    setup_s is the median scaled start of every worker of the run.  Medians
    over passes repeat from run to run about twice as closely as the
    fastest pass does, which depends on whether a run happened to catch a
    short quiet stretch of the shared machine."""
    done = [p for p in passes
            if p["complete"] and all("build_s" in it for it in p["items"])]
    if not done:
        return {}
    med = statistics.median
    return {
        "setup_s": med(setups),
        "wall_s": med(p["wall_s"] * p["scale"] for p in done),
        "build_s": med(_sum(p["items"], "build_s") * p["scale"] for p in done),
        "verify_lassos_per_s": med(_sum(p["items"], "lassos")
                                   / (_sum(p["items"], "verify_s") * p["scale"]) for p in done),
        "peak_rss_mb": med(p["rss_mb"] for p in done),
    }


def unscaled(passes: list[dict]) -> str:
    """The measured medians behind the scaled times, for the log."""
    done = [p for p in passes if p["complete"]]
    if not done:
        return "no complete pass"
    med = statistics.median
    return (f"unscaled medians over {len(done)} passes: wall_s "
            f"{med(p['wall_s'] for p in done):.4f} s, setup_s "
            f"{med(p['setup_s'] for p in done):.4f} s; reference loop "
            f"{med(REF_S / p['scale'] for p in done):.4f} s (REF_S {REF_S} s)")


def layer_metrics(p: dict) -> dict:
    """Per-layer metrics of one complete traced pass; sizes are summed over
    the pass's items, times are scaled like the end-to-end ones."""
    t, items = p["trace"], p["items"]
    calls = t["calls"]
    m = {}
    for name in ("sltm.labels_equivalent", "obligation.minimal_models",
                 "awa.winning_state_positions", "formula.eval_lasso",
                 "floating.dfw_accepts_lasso"):
        m[name + "_calls"] = calls[name][0]
        m[name + "_s"] = calls[name][1]
    m["sltm.label_of_calls"] = calls["sltm.label_of"][0]
    m["sltm.suffix_label_calls"] = calls["sltm.suffix_label"][0]
    equiv = calls["sltm.labels_equivalent"][0]
    m["sltm.equiv_true_frac"] = t["counts"]["sltm.labels_equivalent_true"] / equiv if equiv else 0.0
    m["sltm.build_s"] = calls["sltm.build_canonical_sltm"][1]
    m["sltm.self_s"] = calls["sltm.build_canonical_sltm"][2]
    for name in ("formula.enumerate_lassos", "floating.level_product", "floating.determinize",
                 "floating.minimize_dfw", "chain.dfw_to_hd_ncw", "awa.from_ltl",
                 "obligation.miyano_hayashi"):
        m[name + "_s"] = calls[name][1]
    for name in ("floating.nfw_states", "floating.dfw_states_det", "floating.dfw_states",
                 "chain.hdncw_states"):
        m[name] = t["counts"][name]
    m["chain.verify_lassos"] = _sum(items, "lassos")
    m["chain.k"] = _sum(items, "k")
    m["awa.states"] = _sum(items, "awa_states")
    m["obligation.g_neg_vertices"] = _sum(items, "g_neg_vertices")
    m["obligation.g_pos_vertices"] = _sum(items, "g_pos_vertices")
    build = calls["chain.build_chain"][1]
    verify = calls["chain.verify_chain"][1]
    m["chain.build_s"] = build
    m["chain.verify_s"] = verify
    m["sltm.build_share"] = m["sltm.build_s"] / build
    m["sltm.labels_equivalent_share"] = m["sltm.labels_equivalent_s"] / build
    m["chain.verify_share"] = verify / (build + verify)
    m["trace.wall_s"] = p["wall_s"]
    return {name: v * p["scale"] if name.endswith("_s") else v for name, v in m.items()}


def trace_metrics(traced: list[dict], untraced: list[dict]) -> dict:
    rows = [layer_metrics(p) for p in traced if p["complete"]]
    if not rows:
        return {}
    out = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    walls = [p["wall_s"] * p["scale"] for p in untraced if p["complete"]]
    if walls:
        out["trace.untraced_wall_s"] = statistics.median(walls)
        out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    return out


def print_self_times(trace: dict) -> None:
    print("self times of one traced pass (calls, total s, self s):")
    for name, (n, total, own) in sorted(trace["calls"].items(), key=lambda kv: -kv[1][2]):
        print(f"  {name:34s} {n:9d} {total:10.4f} {own:10.4f}")
    zero = [name for name, c in trace["calls"].items() if c[0] == 0]
    print(f"  wrapped names with no call on this workload: {', '.join(zero) or 'none'}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0, help="orders the corpus items")
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--corpus-seed", type=int, default=workloads.CORPUS_SEED,
                    help="generator seed of the corpus content")
    args = ap.parse_args(argv)

    bench_file = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "cocoa", "__init__.py")):
        print(f"error: no cocoa sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(bench_file) as fh:
        spec = json.load(fh)
    with open(EXPECTED) as fh:
        expected = json.load(fh)[args.workload]

    # turn a termination request into SystemExit so that the running worker
    # is killed and reaped on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    start = time.monotonic()
    hard_deadline = start + RUN_CAP_S
    worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--corpus-seed", str(args.corpus_seed)]
    plan = workloads.items(args.workload, args.seed, args.corpus_seed)

    reference_s()  # warm-up
    ref = reference_s()
    setups: list[float] = []
    if not args.trace:
        # the first start may compile bytecode, which users pay only once
        for probe in range(SETUP_PROBES + 1):
            r, ref = run_scaled(["--setup-only"], hard_deadline, ref)
            if probe and "setup_s" in r:
                setups.append(r["setup_s"] * r["scale"])

    # a traced run alternates untraced and traced passes, at least one each
    passes: list[dict] = []
    traced: list[dict] = []
    untraced: list[dict] = []
    deadline = time.monotonic() + args.seconds
    while time.monotonic() < hard_deadline:
        enough = traced and untraced if args.trace else passes
        if enough and time.monotonic() >= deadline:
            break
        with_trace = bool(args.trace) and len(traced) < len(untraced)
        r, ref = run_scaled(worker_args + ["--trace", str(int(with_trace))], hard_deadline, ref)
        if "setup_s" in r:
            setups.append(r["setup_s"] * r["scale"])
        passes.append(r)
        (traced if with_trace else untraced).append(r)

    attempted = failed = 0
    for n, r in enumerate(passes):
        got = {msg["item"]: msg for msg in r["items"]}
        for i, item in enumerate(plan):
            attempted += 1
            why = gate(item, got.get(i), expected)
            if why is not None:
                failed += 1
                print(f"FAILED pass {n} item {i} [{item['key']}]: {why}")
        if r["error"]:
            print(f"pass {n}: {r['error']}")

    if args.trace:
        values = trace_metrics(traced, untraced)
        declared = spec["per_layer"]
    else:
        values = e2e_metrics(passes, setups)
        values["ok_frac"] = (attempted - failed) / attempted
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in declared}

    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes "
          f"({len(traced)} traced), {attempted} items, {failed} failed, "
          f"{time.monotonic() - start:.1f} s")
    print(unscaled(passes))
    if args.trace and values:
        first = next(p for p in traced if p["complete"])
        print_self_times(first["trace"])
        print(f"shares (median over traced passes): sltm.build_s / chain.build_s = "
              f"{values['sltm.build_share']:.4f}, sltm.labels_equivalent_s / chain.build_s = "
              f"{values['sltm.labels_equivalent_share']:.4f}, chain.verify_s / (build + verify) = "
              f"{values['chain.verify_share']:.4f}; base chain.build_s = "
              f"{values['chain.build_s']:.4f} s, chain.verify_s = {values['chain.verify_s']:.4f} s")
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump([p["trace"] for p in traced if p["complete"]], fh)
        print(f"spans written to {os.path.relpath(path, ROOT)}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
