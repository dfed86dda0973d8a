"""The canonical suffix-language tracking machine (SLTM).

A single deterministic Moore machine tracks the suffix language of the
source language after every prefix.  Each state carries two obligation-graph
vertex sets (one for the complement graph, one for the positive graph) plus
a suffix-language label in intersection-of-unions form.  The machine is
explored over label-equivalence classes only: a subset construction over
the complement graph steps one representative vertex set per state and
merges each successor set into the state of an equivalent label, decided
with an alternating-automaton emptiness check.  Each build owns one
``LanguageOracle``: the breakpoint graph over the automaton and its dual,
explored only as far as the checks reach, whose emptiness verdicts every
check of that build shares.  Candidate states are bucketed by signature,
the label's membership of each lasso in a battery that starts empty; every
inequivalent pair the check meets adds a lasso that tells the two apart,
read off the nonempty half of their difference.
Both vertex sets of a state then come from a product sweep of the machine
with each graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .awa import (
    Awa, CNF_FALSE, CNF_TRUE, cnf_and, cnf_or, mask_states, minimal_sets,
    state_mask, winning_state_positions,
)
from .formula import Alphabet, LassoWord
from .obligation import Breakpoint, BreakpointGraph, ObligationGraph, miyano_hayashi


class IncompatibleAutomata(Exception):
    pass


@dataclass(frozen=True)
class Label:
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
    vertex_ids = sorted(vertex_ids)
    if not vertex_ids:
        raise ValueError("a label needs at least one vertex")
    unions = []
    for vid in vertex_ids:
        S, _O = graph.vertices[vid]
        if not S:
            raise ValueError("obligation-graph vertex with empty state set")
        unions.append(S)
    return Label.make(unions)


def _initial_winners(a: Awa, w: LassoWord) -> int:
    """The mask of the states whose language contains the lasso, via the
    game solver."""
    return state_mask(q for q, row in enumerate(winning_state_positions(a, w)) if row & 1)


def _holds(label: Label, win0: int) -> bool:
    # every union keeps a state whose language contains the lasso
    return all(u & win0 for u in label.unions)


# --- label equivalence -------------------------------------------------------


def _syntactic_subset(l1: Label, l2: Label) -> bool:
    # every union of l2 weakens some union of l1, hence [[l1]] within [[l2]]
    return all(any(u1 & u2 == u1 for u1 in l1.unions) for u2 in l2.unions)


class LanguageOracle(BreakpointGraph):
    """Emptiness of label differences, on the breakpoint graph over an
    automaton and its dual; one per build.

    Dual state q is bit n + q.  The language of a vertex is the
    intersection of its member state languages, so per-vertex verdicts are
    a property of the graph and are shared by every query on it.
    """

    def __init__(self, a: Awa, a_dual: Awa):
        n = a.n_states
        dual = tuple(tuple(tuple(c << n for c in p) for p in row) for row in a_dual.delta)
        super().__init__(Breakpoint(
            a.delta + dual,
            accepting=state_mask(a.accepting) | state_mask(a_dual.accepting) << n,
            tops=1 << a.top | 1 << (n + a_dual.top),
            bottoms=1 << a.bottom | 1 << (n + a_dual.bottom)), a.alphabet.letters)
        self.a = a
        # the minimal models of each positive label's unions, as masks
        self.label_models: dict[Label, tuple[int, ...]] = {}

    def difference_roots(self, pos: Label, neg: Label) -> list[int]:
        """Initial vertices for [[pos]] minus [[neg]].

        The negated unions enter as fresh atoms in one extra clause, so the
        minimal models are those of pos's unions, each with one neg union;
        that union expands into its dual states.
        """
        from .obligation import minimal_models

        models = self.label_models.get(pos)
        if models is None:
            models = minimal_models(pos.unions)
            self.label_models[pos] = models
        n = self.a.n_states
        duals = [u << n for u in neg.unions]
        k = self.kernel
        roots = set()
        for m in models:
            for d in duals:
                # the sinks: a rejecting one drops the pair, accepting ones
                # are stripped from the state set
                s = m | d
                if not s & k.bottoms:
                    roots.add(self.intern((s & ~k.tops, s & ~k.accepting)))
        return sorted(roots)


def _check_states(labels: Iterable[Label], a: Awa) -> None:
    for l in labels:
        for u in l.unions:
            if u >> a.n_states:
                raise IncompatibleAutomata(
                    f"label references unknown state {u.bit_length() - 1}")


def labels_equivalent(l1: Label, l2: Label, oracle: LanguageOracle) -> bool:
    """Decide language equality of two labels.

    Both halves of the symmetric difference are tested for emptiness on the
    oracle's breakpoint graph over the automaton and its dual (the
    alternating encoding of (l1 and not l2) or (l2 and not l1)); syntactic
    containment both ways short-cuts the check.
    """
    _check_states((l1, l2), oracle.a)
    if l1 == l2:
        return True
    if _syntactic_subset(l1, l2) and _syntactic_subset(l2, l1):
        return True
    if oracle.nonempty_from(oracle.difference_roots(l1, l2)):
        return False
    return not oracle.nonempty_from(oracle.difference_roots(l2, l1))


def distinguishing_lasso(l1: Label, l2: Label, oracle: LanguageOracle) -> LassoWord:
    """A lasso in the language of exactly one of two inequivalent labels.

    It is read off the nonempty half of the symmetric difference in the
    oracle, whose verdicts ``labels_equivalent`` has usually settled
    already.  Raises ValueError when the labels are equivalent.
    """
    _check_states((l1, l2), oracle.a)
    for pos, neg in ((l1, l2), (l2, l1)):
        roots = oracle.difference_roots(pos, neg)
        if oracle.nonempty_from(roots):
            prefix, cycle = oracle.accepted_lasso(roots)
            return LassoWord(oracle.a.alphabet, tuple(prefix), tuple(cycle))
    raise ValueError("the labels are equivalent")


def suffix_label(label: Label, i: int, a: Awa) -> Label:
    """The label denoting the suffix of the label's language after letter
    number i of the automaton's alphabet."""
    cnf = CNF_TRUE
    for u in label.unions:
        part = CNF_FALSE
        for q in mask_states(u):
            part = cnf_or(part, a.delta[q][i])
        cnf = cnf_and(cnf, part)
    if not cnf:
        return Label.make([])
    if 0 in cnf:
        return Label.make([1 << a.bottom])
    return Label.make(cnf)


# --- the machine -------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Sltm:
    """Canonical suffix-language tracking machine with dual vertex-set
    labelings (complement graph and positive graph) and suffix labels.

    ``delta[s][i]`` is the successor of state s on letter number i; the
    machine is complete."""

    alphabet: Alphabet
    n_states: int
    initial: int
    delta: tuple[tuple[int, ...], ...]
    vertex_sets_neg: tuple[frozenset[int], ...]
    vertex_sets_pos: tuple[frozenset[int], ...]
    labels: tuple[Label, ...]
    g_neg: ObligationGraph | None = None
    g_pos: ObligationGraph | None = None


def build_canonical_sltm(
    a: Awa,
    g_neg: ObligationGraph | None = None,
    g_pos: ObligationGraph | None = None,
    check_single_step: bool = True,
) -> Sltm:
    """Subset construction over the complement obligation graph that keeps
    one state per label-equivalence class.

    Each state keeps the first vertex set that reached it as its
    representative.  The machine is Moore in its labels, so stepping the
    representative gives the successor class of every member; each
    successor set joins the class of an equivalent label or starts a new
    one.  Only states whose signature matches are checked for
    equivalence; each check that fails adds its distinguishing lasso to
    the signature battery and re-buckets the states, so no pair is
    rejected twice.  Representatives are pairwise inequivalent and
    equivalent labels share every signature, so the class found does not
    depend on the battery.  Breadth-first order numbers states by their
    shortlex-least access words.  Each state's vertex sets, in both
    graphs, are the vertices reachable together with it: a product sweep
    of the finished machine with each graph.

    ``check_single_step`` additionally asserts, per canonical transition,
    that the successor's label is equivalent to the suffix of the source
    label (the single-step soundness condition of the construction).
    """
    if g_neg is None:
        g_neg = miyano_hayashi(a.dual)
    if g_pos is None:
        g_pos = miyano_hayashi(a)

    # cheap pre-partition: membership bits over a battery of lassos that
    # starts empty and gains, per inequivalent pair met, a lasso telling
    # the two apart; equivalent labels always share a signature.  Each
    # state keeps its signature, so a new lasso costs one bit per state.
    winners: list[int] = []
    oracle = LanguageOracle(a, a.dual)
    equiv_cache: dict[tuple[Label, Label], bool] = {}

    def equivalent(l1: Label, l2: Label) -> bool:
        if l1 == l2:
            return True
        key = (l1, l2) if l1.unions < l2.unions else (l2, l1)
        got = equiv_cache.get(key)
        if got is None:
            got = labels_equivalent(l1, l2, oracle)
            equiv_cache[key] = got
        return got

    reps: list[frozenset[int]] = []
    rep_labels: list[Label] = []
    sigs: list[tuple[bool, ...]] = []
    state_of: dict[frozenset[int], int] = {}
    by_label: dict[Label, int] = {}
    buckets: dict[tuple[bool, ...], list[int]] = {}

    def refine(label: Label, sig: tuple[bool, ...], sid: int) -> tuple[bool, ...]:
        # one more battery lasso, told apart by the label and state sid: one
        # more bit per state's signature and on the label's, which is returned
        win = _initial_winners(a, distinguishing_lasso(label, rep_labels[sid], oracle))
        winners.append(win)
        buckets.clear()
        for s, l in enumerate(rep_labels):
            sigs[s] += (_holds(l, win),)
            buckets.setdefault(sigs[s], []).append(s)
        sig += (_holds(label, win),)
        if sig[-1] == sigs[sid][-1]:
            raise AssertionError("a distinguishing lasso is in both labels or in neither")
        return sig

    def classify(vs: frozenset[int]) -> int:
        sid = state_of.get(vs)
        if sid is not None:
            return sid
        label = label_of(vs, g_neg)
        sid = by_label.get(label)
        if sid is None:
            # the state whose label is equivalent; every candidate rejected
            # refines the signatures, which moves the label out of its bucket
            sig = tuple(_holds(label, win) for win in winners)
            while True:
                bucket = buckets.get(sig)
                if not bucket:
                    sid = len(reps)
                    reps.append(vs)
                    rep_labels.append(label)
                    sigs.append(sig)
                    buckets[sig] = [sid]
                    break
                if equivalent(label, rep_labels[bucket[0]]):
                    sid = bucket[0]
                    break
                sig = refine(label, sig, bucket[0])
            by_label[label] = sid
        state_of[vs] = sid
        return sid

    # states are numbered as they are found and expanded in id order, one
    # row each
    initial = classify(frozenset({g_neg.initial}))
    delta: list[tuple[int, ...]] = []
    while len(delta) < len(reps):
        rows = [g_neg.edges[v] for v in reps[len(delta)]]
        delta.append(tuple(classify(frozenset(d for dsts in per_letter for d in dsts))
                           for per_letter in zip(*rows)))
    n_states = len(reps)

    def sweep(graph: ObligationGraph) -> tuple[frozenset[int], ...]:
        # vertices reachable together with each state, from the two initials
        sets: list[set[int]] = [set() for _ in range(n_states)]
        sets[initial].add(graph.initial)
        todo = [(initial, graph.initial)]
        while todo:
            sid, v = todo.pop()
            for sid2, dsts in zip(delta[sid], graph.edges[v]):
                for v2 in dsts:
                    if v2 not in sets[sid2]:
                        sets[sid2].add(v2)
                        todo.append((sid2, v2))
        return tuple(frozenset(vs) for vs in sets)

    vsets_neg = sweep(g_neg)
    labels = tuple(label_of(vs, g_neg) for vs in vsets_neg)

    if check_single_step:
        for sid in range(n_states):
            for i, succ in enumerate(delta[sid]):
                expect = suffix_label(labels[sid], i, a)
                if not equivalent(labels[succ], expect):
                    raise AssertionError(
                        f"single-step condition violated: label of state {succ} "
                        f"is not the suffix of state {sid} on {sorted(a.alphabet.letters[i])}")

    return Sltm(
        alphabet=a.alphabet,
        n_states=n_states,
        initial=initial,
        delta=tuple(delta),
        vertex_sets_neg=vsets_neg,
        vertex_sets_pos=sweep(g_pos),
        labels=labels,
        g_neg=g_neg,
        g_pos=g_pos,
    )


# --- exports -----------------------------------------------------------------


def sltm_to_json(m: Sltm) -> dict:
    letters = [sorted(l) for l in m.alphabet.letters]
    return {
        "aps": list(m.alphabet.aps),
        "letters": letters,
        "states": m.n_states,
        "initial": m.initial,
        "labels": [[list(mask_states(u)) for u in label.unions] for label in m.labels],
        "vertex_sets_neg": [sorted(s) for s in m.vertex_sets_neg],
        "vertex_sets_pos": [sorted(s) for s in m.vertex_sets_pos],
        "delta": [list(row) for row in m.delta],
    }


def sltm_from_json(data: dict) -> Sltm:
    """Load a machine dumped by ``sltm_to_json``; raises ValueError when a
    state or letter number is out of range."""
    alphabet = Alphabet(tuple(data["aps"]), tuple(frozenset(l) for l in data["letters"]))
    n = data["states"]
    delta = tuple(map(tuple, data["delta"]))
    if not 0 <= data["initial"] < n:
        raise ValueError(f"initial state {data['initial']} is not one of {n} states")
    if len(delta) != n:
        raise ValueError(f"{len(delta)} transition rows for {n} states")
    for row in delta:
        if len(row) != len(alphabet.letters):
            raise ValueError(f"a row of {len(row)} successors for "
                             f"{len(alphabet.letters)} letters")
        if not all(0 <= s < n for s in row):
            raise ValueError(f"a successor in {list(row)} is not one of {n} states")
    return Sltm(
        alphabet=alphabet,
        n_states=n,
        initial=data["initial"],
        delta=delta,
        vertex_sets_neg=tuple(frozenset(s) for s in data["vertex_sets_neg"]),
        vertex_sets_pos=tuple(frozenset(s) for s in data["vertex_sets_pos"]),
        labels=tuple(Label.make([state_mask(u) for u in ls]) for ls in data["labels"]),
    )


def sltm_to_dot(m: Sltm) -> str:
    from .formula import letter_text

    lines = ["digraph sltm {", "  rankdir=LR;"]
    for s in range(m.n_states):
        lines.append(f'  s{s} [shape=circle label="s{s}\\nl{s}"];')
    lines.append(f"  init [shape=point]; init -> s{m.initial};")
    for s, row in enumerate(m.delta):
        for x, s2 in zip(m.alphabet.letters, row):
            lines.append(f'  s{s} -> s{s2} [label="{letter_text(x)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
