"""In-memory tracer that wraps library functions from the outside.

Each wrapper replaces a module attribute at the name its caller looks up
(for example ``cocoa.chain.build_canonical_sltm``, which ``build_chain``
reads from its own module globals).  Stage functions record a span (name,
start, end, parent); hot leaf functions only add to per-name aggregates.
Every wrapped call also charges its duration to the enclosing wrapped call,
so self time is a call's duration minus the time its wrapped callees took.
"""

from __future__ import annotations

import contextlib
import importlib
import time

# (module, attribute, traced name, records a span)
WRAPPED = [
    ("cocoa.awa", "from_ltl", "awa.from_ltl", True),
    ("cocoa.chain", "build_chain", "chain.build_chain", True),
    ("cocoa.chain", "miyano_hayashi", "obligation.miyano_hayashi", True),
    ("cocoa.chain", "build_canonical_sltm", "sltm.build_canonical_sltm", True),
    ("cocoa.chain", "level_product", "floating.level_product", True),
    ("cocoa.chain", "determinize", "floating.determinize", True),
    ("cocoa.chain", "minimize_dfw", "floating.minimize_dfw", True),
    ("cocoa.chain", "dfw_to_hd_ncw", "chain.dfw_to_hd_ncw", True),
    ("cocoa.chain", "verify_chain", "chain.verify_chain", True),
    ("cocoa.chain", "enumerate_lassos", "formula.enumerate_lassos", True),
    ("cocoa.sltm", "labels_equivalent", "sltm.labels_equivalent", False),
    ("cocoa.sltm", "winning_state_positions", "awa.winning_state_positions", False),
    ("cocoa.sltm", "label_of", "sltm.label_of", False),
    ("cocoa.sltm", "suffix_label", "sltm.suffix_label", False),
    # sltm imports minimal_models at call time from cocoa.obligation, and
    # miyano_hayashi reads it from the same module globals
    ("cocoa.obligation", "minimal_models", "obligation.minimal_models", False),
    ("cocoa.chain", "eval_lasso", "formula.eval_lasso", False),
    ("cocoa.chain", "dfw_accepts_lasso", "floating.dfw_accepts_lasso", False),
]

# traced name -> (counter, amount one result adds to it)
RESULT_COUNTS = {
    "floating.level_product": ("floating.nfw_states", lambda r: r.n_states),
    "floating.determinize": ("floating.dfw_states_det", lambda r: r.n_states),
    "floating.minimize_dfw": ("floating.dfw_states", lambda r: r.n_states),
    "chain.dfw_to_hd_ncw": ("chain.hdncw_states", lambda r: r.n_states),
    "sltm.labels_equivalent": ("sltm.labels_equivalent_true", int),
}


class Tracer:
    """Collects spans, per-name aggregates and result counters in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []        # [name, start, end, parent index]
        self.calls: dict[str, list] = {}   # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self._open_spans: list[int] = []
        self._frames: list[list[float]] = []  # time spent in wrapped callees

    def install(self) -> None:
        for module, attr, name, is_span in WRAPPED:
            mod = importlib.import_module(module)
            setattr(mod, attr, self._wrap(getattr(mod, attr), name, is_span))

    def _wrap(self, fn, name: str, is_span: bool):
        calls = self.calls.setdefault(name, [0, 0.0, 0.0])
        counted = RESULT_COUNTS.get(name)
        if counted is not None:
            self.counts.setdefault(counted[0], 0)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if is_span:
                index = self._open_span(name)
            frame = [0.0]
            self._frames.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._frames.pop()
                duration = end - start
                if self._frames:
                    self._frames[-1][0] += duration
                calls[0] += 1
                calls[1] += duration
                calls[2] += duration - frame[0]
                if is_span:
                    self._close_span(index, start, end)
            if counted is not None:
                self.counts[counted[0]] += counted[1](result)
            return result

        return wrapper

    def _open_span(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open_spans[-1] if self._open_spans else -1
        self.spans.append([name, 0.0, 0.0, parent])
        self._open_spans.append(index)
        return index

    def _close_span(self, index: int, start: float, end: float) -> None:
        self._open_spans.pop()
        self.spans[index][1] = start
        self.spans[index][2] = end

    @contextlib.contextmanager
    def item(self, key: str):
        """Root span of one work item; the stage spans of the item hang below
        it, so they share its index as their request identifier."""
        index = self._open_span("item " + key)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close_span(index, start, time.perf_counter())

    def export(self) -> dict:
        return {"spans": self.spans, "calls": self.calls, "counts": self.counts}
