"""Work items of the three benchmark workloads.

Items are plain data (formula text, propositions, settings) so that the
orchestrator can list and check them without importing ``cocoa``; the
worker process parses and builds them.  Nothing here imports ``cocoa``.
"""

from __future__ import annotations

import random

# settings of the CLI commands the workloads imitate: `cocoa bench` skips the
# single-step check, `cocoa translate` and `cocoa verify` keep it
BENCH = "bench"
TRANSLATE = "translate"

# the four worked examples of tests/test_chain.py, then two Rabin-style
# formulas over four propositions (16 letters, the deepest chains)
RABIN_FORMULAS = [
    ("G a", ["a"]),
    ("FG a", ["a"]),
    ("GF a -> GF b", ["a", "b"]),
    ("GF a -> (GF b & FG c)", ["a", "b", "c"]),
    ("(FG a | GF b) & (FG c | GF d)", ["a", "b", "c", "d"]),
    ("(GF a & FG b) | (GF c & FG d)", ["a", "b", "c", "d"]),
]

# corpus content is fixed by this generator seed; `--seed` only orders it
CORPUS_SEED = 20240601
# a second corpus whose expected values are also stored, to show that the
# correctness gate is not tied to one generated corpus
CORPUS_CHECK_SEED = 7
CORPUS_SIZES = range(2, 9)
CORPUS_PER_CELL = 11


def random_nnf_text(rng: random.Random, size: int, aps: list[str]) -> str:
    """Random NNF formula with at most `size` nodes, rendered in the parser's
    grammar.  Same grammar and same draws as the tests' `random_nnf`, so a
    seed gives the same formulas in both."""
    if size <= 1:
        name = rng.choice(aps)
        return name if rng.random() < 0.5 else "!" + name
    kind = rng.choice(["X", "F", "G", "U", "R", "&", "|"])
    if kind in "XFG":
        return f"{kind} {random_nnf_text(rng, size - 1, aps)}"
    left_size = rng.randint(1, size - 2) if size > 2 else 1
    left = random_nnf_text(rng, left_size, aps)
    right = random_nnf_text(rng, size - 1 - left_size, aps)
    return f"({left} {kind} {right})"


def _item(text: str, aps: list[str], settings: str, prefix: int, period: int,
          family: int | None = None) -> dict:
    return {
        "key": f"{text} @ {','.join(aps)}",
        "text": text,
        "aps": aps,
        "settings": settings,
        "family": family,
        "prefix": prefix,
        "period": period,
    }


def corpus_items(corpus_seed: int) -> list[dict]:
    """Stratified corpus: the same number of formulas for every (number of
    propositions, size) cell, which keeps the cost of a corpus steady."""
    rng = random.Random(corpus_seed)
    items = []
    for n_aps in (1, 2):
        aps = ["a", "b"][:n_aps]
        for size in CORPUS_SIZES:
            for _ in range(CORPUS_PER_CELL):
                items.append(_item(random_nnf_text(rng, size, aps), aps, TRANSLATE, 2, 3))
    return items


def items(workload: str, seed: int, corpus_seed: int = CORPUS_SEED) -> list[dict]:
    """The items one pass of `workload` runs, in order.  Only the corpus
    order depends on `seed`; the other two workloads have fixed inputs."""
    if workload == "lowerbound":
        # the worker builds lower_bound_family(1) on its restricted alphabet;
        # the text is only the item's key
        return [_item("lower_bound_family(1)", ["a1", "b1", "#", "$"], BENCH, 2, 3,
                      family=1)]
    if workload == "rabin":
        return [_item(text, aps, TRANSLATE, 1, 2) for text, aps in RABIN_FORMULAS]
    if workload == "corpus":
        out = corpus_items(corpus_seed)
        random.Random(seed).shuffle(out)
        return out
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("lowerbound", "rabin", "corpus")
