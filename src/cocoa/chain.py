"""Chain construction and verification.

Drives the level loop (product, determinize, minimize, convert) until the
next level comes out empty, converts each level DFW into a
history-deterministic co-Buchi automaton, evaluates natural colors, and
differentially verifies the whole chain against the brute-force LTL oracle
on bounded lassos.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from .awa import Awa, from_ltl
from .floating import (
    Dfw, det_edges, determinize, dfw_accepts_lassos, level_product,
    minimize_dfw, universal_dfw,
)
from .formula import (
    Alphabet, Formula, InvalidParameter, LassoWord, Lassos, ParseError, atom_names,
    enumerate_lassos, eval_lassos, parse_ltl, to_nnf,
)
# verify_chain and natural_color decide packed suites; perfbench/tracing.py
# still wraps the one-lasso oracles at these names
from .floating import dfw_accepts_lasso  # noqa: F401
from .formula import eval_lasso  # noqa: F401
from .obligation import miyano_hayashi
from .sltm import (
    Sltm, alphabet_from_json, alphabet_to_json, build_canonical_sltm, checked, require_keys,
    sltm_from_json, sltm_to_json,
)


# a guard against a level loop that never comes out empty
MAX_LEVELS = 64


class ResourceLimit(Exception):
    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class ChainConfig(NamedTuple):
    max_states: int = 10 ** 6
    timeout_s: float = 300.0
    check_single_step: bool = True


class HdNcw:
    """Transition-based co-Buchi automaton; SLTM states come first, the
    level's DFW states after.  Accepting transitions are exactly the DFW
    transitions, hence deterministic; everything else is rejecting.

    Both tables have one row per state: ``acc[q][i]`` is the accepting
    successor of q on letter number i or None, and ``rej[q][i]`` the
    rejecting successors."""

    __slots__ = ("initial", "acc", "rej")

    def __init__(self, initial: int, acc: tuple[tuple[int | None, ...], ...],
                 rej: tuple[tuple[tuple[int, ...], ...], ...]):
        self.initial = initial
        self.acc = acc
        self.rej = rej

    @property
    def n_states(self) -> int:
        return len(self.acc)


class Cocoa:
    """The chain: shared SLTM plus one (DFW, HD-NCW) pair per level."""

    __slots__ = ("sltm", "levels", "formula", "awa")

    def __init__(self, sltm: Sltm, levels: tuple[tuple[Dfw, HdNcw], ...],
                 formula: Formula | None = None, awa: Awa | None = None):
        self.sltm = sltm
        self.levels = levels
        self.formula = formula
        self.awa = awa

    @property
    def alphabet(self) -> Alphabet:
        return self.sltm.alphabet

    @property
    def k(self) -> int:
        return len(self.levels)


def dfw_to_hd_ncw(d: Dfw, m: Sltm) -> HdNcw:
    """All DFW transitions become accepting; the SLTM is glued in as the
    rejecting skeleton that lets runs wait before committing."""
    off = m.n_states
    # the DFW states a run may commit to on entering each SLTM state
    committed = {s: tuple(off + q for q in qs) for s, qs in d.by_label.items()}
    waiting = (None,) * len(m.alphabet.letters)
    return HdNcw(
        initial=m.initial,
        acc=(waiting,) * off + tuple(
            tuple(None if dst is None else off + dst for dst in row) for row in d.trans),
        rej=tuple(tuple((s2,) + committed.get(s2, ()) for s2 in row) for row in m.delta)
        + tuple(tuple(committed.get(s2, ()) for s2 in m.delta[s]) for s in d.label),
    )


def build_chain(a: Awa, config: ChainConfig | None = None,
                formula: Formula | None = None) -> Cocoa:
    """Run the whole pipeline: obligation graphs, canonical SLTM, universal
    automaton, then per-level product/determinize/minimize/convert until a
    level comes out empty.  Raises AssertionError when the automaton fails
    ``Awa.validate``."""
    a.validate()
    cfg = config or ChainConfig()
    t0 = time.monotonic()

    def checkpoint(n_states: int, what: str, partial=None) -> None:
        if n_states > cfg.max_states:
            raise ResourceLimit(f"{what} exceeded {cfg.max_states} states", partial)
        if time.monotonic() - t0 > cfg.timeout_s:
            raise ResourceLimit(f"timed out after {cfg.timeout_s}s during {what}", partial)

    # the graphs are checked once per vertex expanded, the machine once per
    # row and once more after its vertex sets and single-step check, each
    # level's product once and its determinization once per row
    g_neg = miyano_hayashi(a.dual, lambda n: checkpoint(n, "complement obligation graph"))
    g_pos = miyano_hayashi(a, lambda n: checkpoint(n, "obligation graph"))
    sltm_stage = "suffix-language tracking machine"
    m = build_canonical_sltm(a, g_neg, g_pos, check_single_step=cfg.check_single_step,
                             checkpoint=lambda n: checkpoint(n, sltm_stage))
    checkpoint(m.n_states, sltm_stage)

    levels: list[tuple[Dfw, HdNcw]] = []
    prev = universal_dfw(m)
    ell = 1
    while True:
        if ell > MAX_LEVELS:
            raise ResourceLimit(f"more than {MAX_LEVELS} levels", levels)
        nfw = level_product(prev, m, ell)
        checkpoint(nfw.n_states, f"level {ell} product", levels)
        stage = f"level {ell} determinization"
        d = determinize(nfw, m, lambda n: checkpoint(n, stage, levels))
        d = minimize_dfw(d, m)
        # a minimized DFW has no transient state, and the SLTM reaches every
        # state, so it is empty exactly when no state is left
        if d.n_states == 0:
            break
        levels.append((d, dfw_to_hd_ncw(d, m)))
        prev = d
        ell += 1
    return Cocoa(sltm=m, levels=tuple(levels), formula=formula, awa=a)


def build_chain_for_formula(f: Formula, alphabet: Alphabet | None = None,
                            config: ChainConfig | None = None) -> Cocoa:
    if alphabet is None:
        alphabet = Alphabet.from_aps(atom_names(f) or ["a"])
    return build_chain(from_ltl(to_nnf(f), alphabet), config=config, formula=f)


def _accepted(chain: Cocoa, lassos: Lassos) -> list[int]:
    """The start bits each level's DFW accepts, level 1 first."""
    return [dfw_accepts_lassos(d, chain.sltm, lassos) for d, _ in chain.levels]


def _color(accepted: list[int], bit: int) -> int:
    """The natural color at a start bit: the last level whose mask has it,
    0 if none."""
    return max((i for i, a in enumerate(accepted, start=1) if a & bit), default=0)


def natural_color(chain: Cocoa, w: LassoWord) -> int:
    """Maximal level accepting the word, 0 if none (evaluated on the DFWs,
    with the word packed once)."""
    lassos = Lassos.of([w])
    return _color(_accepted(chain, lassos), lassos.starts)


class VerifyReport:
    __slots__ = ("formula", "prefix_bound", "period_bound", "lassos", "counterexamples",
                 "first_counterexample", "monotonicity_ok", "elapsed_s")

    def __init__(self, formula: str, prefix_bound: int, period_bound: int, lassos: int = 0,
                 counterexamples: int = 0, first_counterexample: dict | None = None,
                 monotonicity_ok: bool = True, elapsed_s: float = 0.0):
        self.formula = formula
        self.prefix_bound = prefix_bound
        self.period_bound = period_bound
        self.lassos = lassos
        self.counterexamples = counterexamples
        self.first_counterexample = first_counterexample
        self.monotonicity_ok = monotonicity_ok
        self.elapsed_s = elapsed_s

    @property
    def ok(self) -> bool:
        return self.counterexamples == 0 and self.monotonicity_ok

    def to_json(self) -> dict:
        return {**{k: getattr(self, k) for k in self.__slots__},
                "elapsed_s": round(self.elapsed_s, 3), "ok": self.ok}


def verify_chain(chain: Cocoa, f: Formula, prefix_bound: int,
                 period_bound: int) -> VerifyReport:
    """Check max-even soundness against the lasso oracle: a word belongs to
    the language exactly when its natural color is even.  Also checks that
    level acceptance is downward closed (chain monotonicity).

    The bounded lassos form one packed suite (``formula.Lassos``), and every
    check runs on masks with one bit per lasso, at its start bit: the
    oracle's members, and each level's accepted words ``A_i``.  The parity
    of the natural color is folded level by level, the last accepting level
    deciding; monotonicity fails where ``A_(i+1) & ~A_i`` is set.  Only the
    first counterexample in suite order is built as a word.
    """
    t0 = time.monotonic()
    lassos = enumerate_lassos(chain.alphabet, prefix_bound, period_bound)
    member = eval_lassos(f, lassos)
    accepted = _accepted(chain, lassos)
    even = lassos.starts
    for i, a in enumerate(accepted, start=1):
        even = (even & ~a) | (a if i % 2 == 0 else 0)
    mismatch = even ^ member
    report = VerifyReport(str(f), prefix_bound, period_bound, lassos=len(lassos),
                          counterexamples=mismatch.bit_count())
    report.monotonicity_ok = not any(hi & ~lo for lo, hi in zip(accepted, accepted[1:]))
    if mismatch:
        off, w = lassos.first(mismatch)
        first = 1 << off
        report.first_counterexample = {
            "lasso": w.text(),
            "natural_color": _color(accepted, first),
            "oracle_member": bool(member & first),
        }
    report.elapsed_s = time.monotonic() - t0
    return report


def drop_accepting_transition(chain: Cocoa) -> Cocoa:
    """Fault injection for the verifier: remove one accepting transition
    (the first transition of the last level's DFW)."""
    if not chain.levels:
        raise ValueError("cannot mutate an empty chain")
    d, _ = chain.levels[-1]
    first = next(det_edges(d.trans), None)
    if first is None:
        raise ValueError("last level has no transitions")
    q, i, _dst = first
    trans = list(d.trans)
    trans[q] = trans[q][:i] + (None,) + trans[q][i + 1:]
    mutated = Dfw(label=d.label, trans=tuple(trans), origin=d.origin)
    levels = chain.levels[:-1] + ((mutated, dfw_to_hd_ncw(mutated, chain.sltm)),)
    return Cocoa(sltm=chain.sltm, levels=levels, formula=chain.formula, awa=chain.awa)


# --- serialization -----------------------------------------------------------


def chain_to_json(chain: Cocoa) -> dict:
    def dfw_json(d: Dfw) -> dict:
        return {
            "states": d.n_states,
            "f": list(d.label),
            "origin": [[p, sorted(vs)] for (p, vs) in d.origin],
            "delta": [list(edge) for edge in det_edges(d.trans)],
        }

    return {
        "format": "cocoa-chain",
        "version": 1,
        "formula": None if chain.formula is None else str(chain.formula),
        **alphabet_to_json(chain.alphabet),
        "k": chain.k,
        "sltm": sltm_to_json(chain.sltm),
        "levels": [dfw_json(d) for d, _ in chain.levels],
    }


def chain_from_json(data: dict) -> Cocoa:
    """Load a chain dumped by ``chain_to_json``; raises ValueError when it is
    not a chain dump, a key is missing, a count, state number, row or the
    formula has the wrong type (``sltm.checked``), ``k`` is not the number
    of levels, the alphabet is malformed (``sltm.alphabet_from_json``), the
    SLTM (``sltm_from_json``) is malformed or has another alphabet, a state
    or letter number is out of range, a level transition is given twice or
    disagrees with the SLTM labels, a level origin does not pair a state
    of the previous level carrying the same label with vertices of that
    label's set in the level's obligation graph, or the formula does not
    parse over the chain's propositions."""
    if checked(data, "a chain dump", dict).get("format") != "cocoa-chain":
        raise ValueError("not a chain dump")
    require_keys(data, "aps", "letters", "k", "sltm", "levels")
    if checked(data["k"], "k") != len(checked(data["levels"], "levels", list)):
        raise ValueError(f"k is {data['k']} for {len(data['levels'])} levels")
    m = sltm_from_json(data["sltm"])
    if alphabet_from_json(data) != m.alphabet:
        raise ValueError("the chain and its SLTM have different alphabets")
    levels = []
    prev = universal_dfw(m)
    for ell, lvl in enumerate(data["levels"], start=1):
        require_keys(lvl, "states", "f", "origin", "delta")
        n, k = checked(lvl["states"], "level states"), len(m.alphabet.letters)
        label = tuple(checked(lvl["f"], "level labels", list, int))
        if len(label) != n or not all(0 <= s < m.n_states for s in label):
            raise ValueError(f"level labels {list(label)} do not give one of "
                             f"{m.n_states} SLTM states to each of {n} states")
        trans = [[None] * k for _ in range(n)]
        for edge in checked(lvl["delta"], "level transitions", list):
            q, i, dst = checked(edge, "a level transition", list, int)
            if not (0 <= q < n and 0 <= i < k and 0 <= dst < n):
                raise ValueError(f"level transition {[q, i, dst]} is out of range")
            if label[dst] != m.delta[label[q]][i]:
                raise ValueError(f"level transition {[q, i, dst]} disagrees with the SLTM labels")
            if trans[q][i] is not None:
                raise ValueError(f"level transition {[q, i]} is given twice")
            trans[q][i] = dst
        _g, vsets = m.side(ell)
        origin = []
        for entry in checked(lvl["origin"], "level origins", list):
            p, vs = checked(entry, "a level origin", list)
            origin.append((checked(p, "an origin state"),
                           frozenset(checked(vs, "origin vertices", list, int))))
        if len(origin) != n:
            raise ValueError(f"{len(origin)} level origins for {n} states")
        for q, (p, vs) in enumerate(origin):
            if not (0 <= p < prev.n_states and prev.label[p] == label[q]
                    and vs and vs <= vsets[label[q]]):
                raise ValueError(f"level origin {[p, sorted(vs)]} of state {q} does not "
                                 f"match level {ell - 1} and the SLTM vertex sets")
        d = Dfw(label=label, trans=tuple(map(tuple, trans)), origin=tuple(origin))
        levels.append((d, dfw_to_hd_ncw(d, m)))
        prev = d
    formula = None
    if data.get("formula"):
        try:
            formula = parse_ltl(checked(data["formula"], "formula", str), data["aps"])
        except (ParseError, InvalidParameter) as exc:
            raise ValueError(f"formula {data['formula']!r} does not parse: {exc}") from exc
    return Cocoa(sltm=m, levels=tuple(levels), formula=formula, awa=None)


def _letter_expr(letter: frozenset[str], aps: tuple[str, ...]) -> str:
    return "&".join(str(i) if ap in letter else f"!{i}" for i, ap in enumerate(aps)) or "t"


def level_to_hoa(chain: Cocoa, level: int) -> str:
    """HOA v1 text for one level's HD-NCW; rejecting transitions carry
    acceptance set {0} under `Acceptance: 1 Fin(0)`.  Raises ValueError
    unless ``1 <= level <= chain.k``."""
    if not 1 <= level <= chain.k:
        raise ValueError(f"level {level} is not one of the chain's levels 1..{chain.k}")
    c = chain.levels[level - 1][1]
    aps = chain.alphabet.aps
    lines = [
        "HOA: v1",
        f'name: "level {level}"',
        f"States: {c.n_states}",
        f"Start: {c.initial}",
        f"AP: {len(aps)} " + " ".join(f'"{ap}"' for ap in aps),
        "acc-name: co-Buchi",
        "Acceptance: 1 Fin(0)",
        "properties: trans-labels explicit-labels trans-acc",
        "--BODY--",
    ]
    exprs = [_letter_expr(x, aps) for x in chain.alphabet.letters]
    for src in range(c.n_states):
        lines.append(f"State: {src}")
        for expr, dst, rdsts in zip(exprs, c.acc[src], c.rej[src]):
            if dst is not None:
                lines.append(f"[{expr}] {dst}")
            for rdst in rdsts:
                lines.append(f"[{expr}] {rdst} {{0}}")
    lines.append("--END--")
    return "\n".join(lines) + "\n"
