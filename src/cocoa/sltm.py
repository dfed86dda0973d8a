"""The canonical suffix-language tracking machine (SLTM).

A single deterministic Moore machine tracks the suffix language of the
source language after every prefix.  Each state carries two obligation-graph
vertex sets (one for the complement graph, one for the positive graph) plus
a suffix-language label in intersection-of-unions form.  The machine is
explored over label-equivalence classes only: a subset construction over
the complement graph steps one representative vertex set per state and
classifies each successor set by its label.  One map from sink-normal
forms to states answers every label met before, and every label with the
same form, which applies the sinks: a union holding the accepting sink
says nothing, and the rejecting sink adds nothing to a union.  A new
form joins the state of an equivalent label, decided with an
alternating-automaton emptiness check, or starts a new state.  Each build
owns one ``obligation.LanguageOracle``: the breakpoint graph over the
disjoint union of the automaton and its dual, explored only as far as the
checks reach, whose emptiness verdicts every check of that build shares,
the empty ones by state set.  A vertex holding a state q and q's dual is
empty, since no word is in L(q) and not in L(q), and so is all it
reaches, since any model of a formula meets any model of its dual and
the state shared is never a sink; the oracle settles such a vertex when
it interns it, expands none, and builds none as a difference root.  A
candidate is checked only against the state of its signature, an int of
the label's membership of each lasso in a battery.  The battery is seeded
with the words x^omega and x.y^omega, whose membership in every state's
language one game solve on the packed suite gives; each signature names
at most one state, and every inequivalent pair the check meets adds a
lasso that tells the two apart, read off the nonempty half of their
difference.
Both vertex sets of a state then come from a product sweep of the machine
with each graph.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, NamedTuple

from .awa import (
    Awa, mask_states, minimal_masks, minimal_sets, state_mask, winning_state_positions,
)
from .formula import Alphabet, LassoWord, Lassos, enumerate_lassos, letter_text
from .obligation import LanguageOracle, ObligationGraph


class Label(NamedTuple):
    """Intersection of unions of state languages, each union a state mask;
    no unions means the universal language.  Canonical: unions sorted,
    supersets of another union dropped."""

    unions: tuple[int, ...]

    @staticmethod
    def make(unions) -> "Label":
        canon = minimal_sets(unions)
        if 0 in canon:
            raise ValueError("label unions must be non-empty")
        return Label(canon)


def label_of(vertex_ids: Iterable[int], graph: ObligationGraph) -> Label:
    """One union per vertex, containing every state present in the vertex."""
    unions = [graph.vertices[vid][0] for vid in vertex_ids]
    if not unions:
        raise ValueError("a label needs at least one vertex")
    if 0 in unions:
        raise ValueError("obligation-graph vertex with empty state set")
    return Label.make(unions)


def _initial_winners(a: Awa, w: LassoWord) -> int:
    """The mask of the states whose language contains the lasso, via the
    game solver."""
    rows = winning_state_positions(a, Lassos.of([w]))
    return state_mask(q for q, row in enumerate(rows) if row & 1)


def _holds(label: Label, win0: int) -> bool:
    # every union keeps a state whose language contains the lasso
    return all(u & win0 for u in label.unions)


def sink_normal(label: Label, a: Awa) -> tuple[int, ...]:
    """The unions of a label with the automaton's sinks applied, a form
    with the label's language: every union holding the accepting sink
    dropped, the rejecting sink removed from the rest, and the
    inclusion-minimal unions kept in increasing order (a map key, so any
    fixed order will do, and ints sort faster than ``canon_key``).  A
    union left empty leaves the single empty union (0,), the one form of
    the empty language; no union left is the universal language."""
    top, keep = 1 << a.top, ~(1 << a.bottom)
    kept = [u & keep for u in label.unions if not u & top]
    if len(kept) > 1:
        kept = sorted(minimal_masks(kept))
    return tuple(kept)


def label_bits(label: Label, rows: list[int]) -> int:
    """The words of a suite in the label's language, given the words in
    each state's language as one int row per state: the AND over the
    label's unions of the OR of each union's member rows (-1, every bit,
    for a label without unions)."""
    bits = -1
    for u in label.unions:
        row = 0
        for q in mask_states(u):
            row |= rows[q]
        bits &= row
    return bits


# --- label equivalence -------------------------------------------------------


def labels_equivalent(l1: Label, l2: Label, oracle: LanguageOracle) -> bool:
    """Decide language equality of two labels.

    Both halves of the symmetric difference are tested for emptiness on the
    oracle's breakpoint graph over the automaton and its dual (the
    alternating encoding of (l1 and not l2) or (l2 and not l1)).
    """
    if oracle.nonempty_from(oracle.difference_roots(l1.unions, l2.unions)):
        return False
    return not oracle.nonempty_from(oracle.difference_roots(l2.unions, l1.unions))


def distinguishing_lasso(l1: Label, l2: Label, oracle: LanguageOracle) -> LassoWord:
    """A lasso in the language of exactly one of two inequivalent labels.

    It is read off the nonempty half of the symmetric difference in the
    oracle, whose verdicts ``labels_equivalent`` has usually settled
    already.  Raises ValueError when the labels are equivalent.
    """
    for pos, neg in ((l1, l2), (l2, l1)):
        roots = oracle.difference_roots(pos.unions, neg.unions)
        if oracle.nonempty_from(roots):
            prefix, cycle = oracle.accepted_lasso(roots)
            return LassoWord(oracle.a.alphabet, tuple(prefix), tuple(cycle))
    raise ValueError("the labels are equivalent")


def suffix_label(label: Label, i: int, oracle: LanguageOracle) -> Label:
    """The suffix of the label's language after letter number i, as a label."""
    return Label(oracle.suffix(label.unions, i))


# --- the machine -------------------------------------------------------------


def _unlimited(_n_states: int) -> None:
    """The checkpoint of a build without limits."""


class Sltm:
    """Canonical suffix-language tracking machine with dual vertex-set
    labelings (complement graph and positive graph) and suffix labels.

    ``delta[s][i]`` is the successor of state s on letter number i; the
    machine is complete."""

    __slots__ = ("alphabet", "initial", "delta", "vertex_sets_neg", "vertex_sets_pos",
                 "labels", "g_neg", "g_pos")

    def __init__(self, alphabet: Alphabet, initial: int, delta: tuple[tuple[int, ...], ...],
                 vertex_sets_neg: tuple[frozenset[int], ...],
                 vertex_sets_pos: tuple[frozenset[int], ...], labels: tuple[Label, ...],
                 g_neg: ObligationGraph | None = None, g_pos: ObligationGraph | None = None):
        self.alphabet = alphabet
        self.initial = initial
        self.delta = delta
        self.vertex_sets_neg = vertex_sets_neg
        self.vertex_sets_pos = vertex_sets_pos
        self.labels = labels
        self.g_neg = g_neg
        self.g_pos = g_pos

    @property
    def n_states(self) -> int:
        return len(self.delta)

    def side(self, ell: int) -> tuple[ObligationGraph | None, tuple[frozenset[int], ...]]:
        """The obligation graph of level ell's polarity and the vertex sets
        in it: the complement graph on odd levels, the positive one on even
        levels."""
        if ell % 2 == 1:
            return self.g_neg, self.vertex_sets_neg
        return self.g_pos, self.vertex_sets_pos


def build_canonical_sltm(a: Awa, g_neg: ObligationGraph, g_pos: ObligationGraph,
                         check_single_step: bool = True,
                         checkpoint: Callable[[int], None] | None = None) -> Sltm:
    """Subset construction over the complement obligation graph ``g_neg``
    that keeps one state per label-equivalence class.

    Each state keeps the first vertex set that reached it as its
    representative.  The machine is Moore in its labels, so stepping the
    representative gives the successor class of every member; each
    successor set is classified by its label.  One map keyed by
    ``sink_normal`` forms answers a label met before, and any label with
    the same form: the form has the label's language, so a hit merges only
    equal languages, with no oracle query.  It is a simulation normal form
    for the one preorder that needs no computing, the accepting sink above
    every state and the rejecting sink below.  A new form joins the class
    of an equivalent label or starts a new one: each signature names at most one
    state, the only one checked for equivalence.  A signature is one int,
    the label's membership of a battery of lassos: the words x^omega and
    x.y^omega for letters x and y (``enumerate_lassos(alphabet, 1, 1)``,
    k + k^2 bits for k letters, every state's row of them from one game
    solve), then one bit per check that failed, for the lasso that told
    the two labels apart, so no pair is rejected twice.  Representatives
    are pairwise inequivalent and equivalent labels share every signature,
    so the class found does not depend on the battery.  Breadth-first
    order numbers states by their shortlex-least access words.  Each state's vertex sets, in both
    graphs, are the vertices reachable together with it: a product sweep
    of the finished machine with each graph.

    ``check_single_step`` additionally asserts, per canonical transition,
    that the suffix of the source state's label on the letter classifies
    as the successor (the single-step soundness condition of the
    construction), through the same map with each final label's form
    added.  ``checkpoint``, if given, is called with the number of states
    found before each row is explored, then once per state in each sweep's
    closure check, once per 1,024 steps of each sweep, and once per row of
    the single-step check; it may raise to stop the build.
    """
    if checkpoint is None:
        checkpoint = _unlimited
    # accepts[q] has the bits of the battery's words in state q's
    # language: the seed suite's bits, each its own word, then one bit per
    # distinguishing lasso above them
    seed = enumerate_lassos(a.alphabet, 1, 1)
    accepts = winning_state_positions(a, seed)
    width = seed.full.bit_length()
    oracle = LanguageOracle(a)
    reps: list[set[int] | None] = []
    rep_labels: list[Label] = []
    by_sig: dict[int, int] = {}
    state_of: dict[tuple[int, ...], int] = {}

    def classify(label: Label, vs: set[int] | None = None) -> int:
        # the state of the label's language; a new one keeps vs
        nonlocal by_sig, width
        key = sink_normal(label, a)
        sid = state_of.get(key)
        if sid is not None:
            return sid
        sig = label_bits(label, accepts)
        while (sid := by_sig.get(sig)) is not None and not labels_equivalent(
                label, rep_labels[sid], oracle):
            # a state rejected adds a battery lasso, one more bit on every
            # signature, that tells it and the label apart
            win = _initial_winners(a, distinguishing_lasso(label, rep_labels[sid], oracle))
            if _holds(label, win) == _holds(rep_labels[sid], win):
                raise AssertionError("a distinguishing lasso is in both labels or in neither")
            bit = 1 << width
            width += 1
            for q in mask_states(win):
                accepts[q] |= bit
            by_sig = {sg | (bit if _holds(rep_labels[s], win) else 0): s
                      for sg, s in by_sig.items()}
            sig |= bit if _holds(label, win) else 0
        if sid is None:
            sid = len(reps)
            reps.append(vs)
            rep_labels.append(label)
            by_sig[sig] = sid
        state_of[key] = sid
        return sid

    # states are numbered as they are found and expanded in id order, one
    # row each
    initial = classify(label_of([0], g_neg), {0})
    delta: list[tuple[int, ...]] = []
    while len(delta) < len(reps):
        checkpoint(len(reps))
        rows = [g_neg.edges[v] for v in reps[len(delta)]]
        sets = [{d for dsts in per_letter for d in dsts} for per_letter in zip(*rows)]
        delta.append(tuple(classify(label_of(vs, g_neg), vs) for vs in sets))

    def sweep(graph: ObligationGraph) -> tuple[frozenset[int], ...]:
        # vertices reachable together with each state, from the two initials
        sets: list[set[int]] = [set() for _ in delta]
        sets[initial].add(0)
        todo = [(initial, 0)]
        popped = 0
        while todo:
            popped += 1
            if not popped % 1024:
                checkpoint(len(delta))
            sid, v = todo.pop()
            for sid2, dsts in zip(delta[sid], graph.edges[v]):
                for v2 in dsts:
                    if v2 not in sets[sid2]:
                        sets[sid2].add(v2)
                        todo.append((sid2, v2))
        # the sets are closed under the graph's edges, which the level
        # products rely on when they enumerate only the graph's core
        for sid, vs in enumerate(sets):
            checkpoint(len(delta))
            for vs2, per_letter in zip(map(sets.__getitem__, delta[sid]),
                                       zip(*map(graph.edges.__getitem__, vs))):
                if not vs2.issuperset(itertools.chain.from_iterable(per_letter)):
                    raise AssertionError("vertex outside successor state's set")
        return tuple(frozenset(vs) for vs in sets)

    vsets_neg = sweep(g_neg)
    labels = tuple(label_of(vs, g_neg) for vs in vsets_neg)

    if check_single_step:
        # each state's final label names it too
        state_of.update((sink_normal(label, a), sid) for sid, label in enumerate(labels))
        for sid, row in enumerate(delta):
            checkpoint(len(delta))
            for i, succ in enumerate(row):
                if classify(suffix_label(labels[sid], i, oracle)) != succ:
                    raise AssertionError(
                        f"single-step condition violated: label of state {succ} "
                        f"is not the suffix of state {sid} on {sorted(a.alphabet.letters[i])}")

    return Sltm(
        alphabet=a.alphabet,
        initial=initial,
        delta=tuple(delta),
        vertex_sets_neg=vsets_neg,
        vertex_sets_pos=sweep(g_pos),
        labels=labels,
        g_neg=g_neg,
        g_pos=g_pos,
    )


# --- exports -----------------------------------------------------------------


def alphabet_to_json(alphabet: Alphabet) -> dict:
    """The ``aps`` and ``letters`` keys of a dump, each letter a sorted list."""
    return {"aps": list(alphabet.aps), "letters": [sorted(l) for l in alphabet.letters]}


def alphabet_from_json(data: dict) -> Alphabet:
    """The alphabet of a dump's ``aps`` and ``letters`` keys; raises
    ValueError unless ``aps`` and each letter are lists of names (a letter
    written as one string would split into characters), or when they break
    a rule of ``formula.Alphabet``."""
    def names(x) -> bool:
        return isinstance(x, list) and all(isinstance(p, str) for p in x)

    aps, letters = data["aps"], data["letters"]
    if not (names(aps) and isinstance(letters, list) and all(map(names, letters))):
        raise ValueError(f"aps {aps!r} and letters {letters!r} are not lists of names")
    return Alphabet(tuple(aps), tuple(map(frozenset, letters)))


def sltm_to_json(m: Sltm) -> dict:
    return {
        **alphabet_to_json(m.alphabet),
        "states": m.n_states,
        "initial": m.initial,
        "labels": [[list(mask_states(u)) for u in label.unions] for label in m.labels],
        "vertex_sets_neg": [sorted(s) for s in m.vertex_sets_neg],
        "vertex_sets_pos": [sorted(s) for s in m.vertex_sets_pos],
        "delta": [list(row) for row in m.delta],
    }


def require_keys(data: dict, *keys: str) -> None:
    """Raise ValueError unless a dump is a dict with every one of the keys."""
    missing = [k for k in keys if k not in checked(data, "a dump", dict)]
    if missing:
        raise ValueError(f"the dump has no {', '.join(missing)}")


def checked(value, what: str, kind: type = int, item: type | None = None):
    """A dump entry, if its type is exactly ``kind``, so that an int is no
    bool, and, with ``item`` given, so is each of its members; raises
    ValueError otherwise."""
    if type(value) is not kind or item is not None and any(type(x) is not item for x in value):
        name = kind.__name__ + (f"[{item.__name__}]" if item is not None else "")
        raise ValueError(f"{what} is {value!r}, not of type {name}")
    return value


def sltm_from_json(data: dict) -> Sltm:
    """Load a machine dumped by ``sltm_to_json``; raises ValueError when a
    key is missing, a count, state number or row has the wrong type
    (``checked``), the propositions and letters are not lists of names or
    break a rule of ``formula.Alphabet`` (``alphabet_from_json``), the
    labels or vertex sets are not one per state, or a state or letter
    number is out of range."""
    require_keys(data, "aps", "letters", "states", "initial", "labels",
                 "vertex_sets_neg", "vertex_sets_pos", "delta")
    alphabet = alphabet_from_json(data)
    n = checked(data["states"], "states")
    for key in ("labels", "vertex_sets_neg", "vertex_sets_pos"):
        if len(checked(data[key], key, list)) != n:
            raise ValueError(f"{len(data[key])} {key} for {n} states")
    delta = tuple(tuple(checked(row, "a transition row", list, int))
                  for row in checked(data["delta"], "delta", list))
    if not 0 <= checked(data["initial"], "initial") < n:
        raise ValueError(f"initial state {data['initial']} is not one of {n} states")
    if len(delta) != n:
        raise ValueError(f"{len(delta)} transition rows for {n} states")
    for row in delta:
        if len(row) != len(alphabet.letters):
            raise ValueError(f"a row of {len(row)} successors for "
                             f"{len(alphabet.letters)} letters")
        if not all(0 <= s < n for s in row):
            raise ValueError(f"a successor in {list(row)} is not one of {n} states")

    def vertex_sets(key: str) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(checked(s, "a vertex set", list, int)) for s in data[key])

    return Sltm(
        alphabet=alphabet,
        initial=data["initial"],
        delta=delta,
        vertex_sets_neg=vertex_sets("vertex_sets_neg"),
        vertex_sets_pos=vertex_sets("vertex_sets_pos"),
        labels=tuple(Label.make([state_mask(checked(u, "a label union", list, int))
                                 for u in checked(ls, "a label", list)])
                     for ls in data["labels"]),
    )


def sltm_to_dot(m: Sltm) -> str:
    lines = ["digraph sltm {", "  rankdir=LR;"]
    for s in range(m.n_states):
        lines.append(f'  s{s} [shape=circle label="s{s}\\nl{s}"];')
    lines.append(f"  init [shape=point]; init -> s{m.initial};")
    for s, row in enumerate(m.delta):
        for x, s2 in zip(m.alphabet.letters, row):
            lines.append(f'  s{s} -> s{s2} [label="{letter_text(x)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
