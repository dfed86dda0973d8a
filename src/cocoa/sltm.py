"""The canonical suffix-language tracking machine (SLTM).

A single deterministic Moore machine tracks the suffix language of the
source language after every prefix.  Each state carries two obligation-graph
vertex sets (one for the complement graph, one for the positive graph) plus
a suffix-language label in intersection-of-unions form.  The machine is
built naively by a lockstep subset construction over both graphs and then
minimized by deciding label equivalence with an alternating-automaton
emptiness check.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .awa import (
    Awa, CNF_FALSE, CNF_TRUE, cnf_and, cnf_or, cnf_subsume, dualize,
    winning_state_positions,
)
from .formula import Alphabet, LassoWord, enumerate_lassos
from .obligation import ObligationGraph, miyano_hayashi


class IncompatibleAutomata(Exception):
    pass


@dataclass(frozen=True)
class Label:
    """Intersection of unions of state languages; no unions means the
    universal language.  Canonical: unions sorted, supersets of another
    union dropped."""

    unions: tuple[frozenset[int], ...]

    @staticmethod
    def make(unions) -> "Label":
        canon = set()
        for u in unions:
            u = frozenset(u)
            if not u:
                raise ValueError("label unions must be non-empty")
            canon.add(u)
        kept: list[frozenset[int]] = []
        for u in sorted(canon, key=lambda u: (len(u), tuple(sorted(u)))):
            if not any(k <= u for k in kept):
                kept.append(u)
        return Label(tuple(sorted(kept, key=lambda u: (len(u), tuple(sorted(u))))))

    @property
    def is_universal(self) -> bool:
        return not self.unions

    def states(self) -> frozenset[int]:
        out: set[int] = set()
        for u in self.unions:
            out |= u
        return frozenset(out)


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


def label_accepts_lasso(label: Label, a: Awa, w: LassoWord) -> bool:
    """Membership of a lasso in the label's language, via the game solver."""
    win0 = {q for (q, i) in winning_state_positions(a, w) if i == 0}
    return all(u & win0 for u in label.unions)


# --- label equivalence -------------------------------------------------------


def _syntactic_subset(l1: Label, l2: Label) -> bool:
    # every union of l2 weakens some union of l1, hence [[l1]] within [[l2]]
    return all(any(u1 <= u2 for u1 in l1.unions) for u2 in l2.unions)


class _LanguageOracle:
    """Lazy emptiness oracle for state-set languages over A and its dual.

    Vertices are breakpoint pairs over the disjoint union of the automaton
    and its dual; the language of a vertex is the intersection of its member
    state languages, so per-vertex nonemptiness verdicts are a property of
    the shared graph and can be memoized across equivalence queries.
    """

    def __init__(self, a: Awa, a_dual: Awa):
        self._cnf_subsume = cnf_subsume
        n = a.n_states
        self.n = n
        self.letters = a.alphabet.letters
        self.delta: dict[tuple[int, frozenset[str]], tuple] = {}
        for q in range(n):
            for x in self.letters:
                self.delta[(q, x)] = tuple(a.delta[(q, x)].clauses)
                self.delta[(n + q, x)] = tuple(
                    frozenset(n + p for p in c) for c in a_dual.delta[(q, x)].clauses)
        self.accepting = frozenset(a.accepting) | frozenset(n + q for q in a_dual.accepting)
        self.tops = frozenset({a.top, n + a_dual.top})
        self.bottoms = frozenset({a.bottom, n + a_dual.bottom})
        self.vid: dict[tuple[frozenset[int], frozenset[int]], int] = {}
        self.vertices: list[tuple[frozenset[int], frozenset[int]]] = []
        self.succ: list[tuple[int, ...] | None] = []
        self.verdict: list[bool | None] = []
        self.conj_cache: dict[tuple[frozenset[int], frozenset[str]], tuple] = {}

    def intern(self, v: tuple[frozenset[int], frozenset[int]]) -> int:
        got = self.vid.get(v)
        if got is None:
            got = len(self.vertices)
            self.vid[v] = got
            self.vertices.append(v)
            self.succ.append(None)
            self.verdict.append(None)
        return got

    def _conjunction(self, states: frozenset[int], x: frozenset[str]) -> tuple:
        key = (states, x)
        got = self.conj_cache.get(key)
        if got is None:
            merged: set[frozenset[int]] = set()
            for q in states:
                merged.update(self.delta[(q, x)])
            got = tuple(sorted(self._cnf_subsume(merged),
                               key=lambda c: (len(c), tuple(sorted(c)))))
            self.conj_cache[key] = got
        return got

    def _prune(self, pairs):
        out = set()
        for (s, o) in pairs:
            if s & self.bottoms:
                continue
            if s & self.tops:
                s = s - self.tops
                o = o - self.tops
            out.add((s, o))
        ordered = sorted(out, key=lambda v: (len(v[0]), len(v[1]),
                                             tuple(sorted(v[0])), tuple(sorted(v[1]))))
        kept = []
        for (s, o) in ordered:
            if not any(s2 <= s and o2 <= o for (s2, o2) in kept):
                kept.append((s, o))
        return kept

    def _expand(self, vid: int) -> tuple[int, ...]:
        got = self.succ[vid]
        if got is not None:
            return got
        S, O = self.vertices[vid]
        from .obligation import minimal_models

        acc = self.accepting
        result: set[int] = set()
        for x in self.letters:
            ms = minimal_models(self._conjunction(S, x), canonical=True)
            if not O:
                pairs = {(sm, sm - acc) for sm in ms}
            else:
                mo = minimal_models(self._conjunction(O, x), canonical=True)
                pairs = {(sm | so, so - acc) for sm in ms for so in mo}
            for v in self._prune(pairs):
                result.add(self.intern(v))
        out = tuple(sorted(result))
        self.succ[vid] = out
        return out

    def nonempty_from(self, roots: list[int]) -> bool:
        """True iff some root can reach a cycle through an accepting vertex.

        Iterative Tarjan over the lazily expanded graph; verdicts of
        previously settled vertices are reused as leaf values.
        """
        index: dict[int, int] = {}
        low: dict[int, int] = {}
        onstack: dict[int, bool] = {}
        stack: list[int] = []
        counter = 0
        for root in roots:
            if self.verdict[root] is not None or root in index:
                continue
            work: list[list] = [[root, None]]
            while work:
                v, it = work[-1]
                if it is None:
                    index[v] = low[v] = counter
                    counter += 1
                    stack.append(v)
                    onstack[v] = True
                    work[-1][1] = iter(self._expand(v))
                    it = work[-1][1]
                advanced = False
                for w in it:
                    if self.verdict[w] is not None:
                        continue
                    if w not in index:
                        work.append([w, None])
                        advanced = True
                        break
                    if onstack.get(w):
                        low[v] = min(low[v], index[w])
                if advanced:
                    continue
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        onstack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    members = set(comp)
                    good = False
                    internal = False
                    for w in comp:
                        for s in self._expand(w):
                            if s in members:
                                internal = True
                            elif self.verdict[s]:
                                good = True
                    if internal and any(self.vertices[w][1] == frozenset() for w in comp):
                        good = True
                    for w in comp:
                        self.verdict[w] = good
        return any(self.verdict[r] for r in roots)

    def difference_roots(self, pos: Label, neg: Label) -> list[int]:
        """Initial vertices for [[pos]] minus [[neg]]; negated unions enter
        as virtual conjunction atoms expanded into dual states."""
        from .obligation import minimal_models

        virt_base = 2 * self.n
        clauses = set()
        for u in pos.unions:
            clauses.add(frozenset(u))
        clauses.add(frozenset(virt_base + k for k in range(len(neg.unions))))
        roots = []
        for model in minimal_models(clauses):
            S: set[int] = set()
            for q in model:
                if q >= virt_base:
                    S.update(self.n + p for p in neg.unions[q - virt_base])
                else:
                    S.add(q)
            fs = frozenset(S)
            for (s, o) in self._prune([(fs, fs - self.accepting)]):
                roots.append(self.intern((s, o)))
        return sorted(set(roots))


# (a, a_dual, oracle) by (id(a), id(a_dual)); the entry holds the automata
# so that their ids cannot be reused by other automata while it exists
_ORACLES: dict[tuple[int, int], tuple[Awa, Awa, _LanguageOracle]] = {}


def _oracle_for(a: Awa, a_dual: Awa) -> _LanguageOracle:
    key = (id(a), id(a_dual))
    got = _ORACLES.get(key)
    if got is not None and got[0] is a and got[1] is a_dual:
        return got[2]
    if len(_ORACLES) > 64:
        _ORACLES.clear()
    oracle = _LanguageOracle(a, a_dual)
    _ORACLES[key] = (a, a_dual, oracle)
    return oracle


def labels_equivalent(l1: Label, l2: Label, a: Awa, a_dual: Awa) -> bool:
    """Decide language equality of two labels.

    Both halves of the symmetric difference are tested for emptiness on the
    breakpoint graph over the automaton and its dual (the alternating
    encoding of (l1 and not l2) or (l2 and not l1)); syntactic containment
    both ways short-cuts the check.
    """
    for l in (l1, l2):
        for q in l.states():
            if not 0 <= q < a.n_states:
                raise IncompatibleAutomata(f"label references unknown state {q}")
    if l1 == l2:
        return True
    if _syntactic_subset(l1, l2) and _syntactic_subset(l2, l1):
        return True
    oracle = _oracle_for(a, a_dual)
    if oracle.nonempty_from(oracle.difference_roots(l1, l2)):
        return False
    return not oracle.nonempty_from(oracle.difference_roots(l2, l1))


def suffix_label(label: Label, x: frozenset[str], a: Awa) -> Label:
    """The label denoting the suffix of the label's language after letter x."""
    cnf = CNF_TRUE
    for u in label.unions:
        part = CNF_FALSE
        for q in sorted(u):
            part = cnf_or(part, frozenset(a.delta[(q, x)].clauses))
        cnf = cnf_and(cnf, part)
    if not cnf:
        return Label.make([])
    if frozenset() in cnf:
        return Label.make([frozenset({a.bottom})])
    return Label.make(cnf)


# --- the machine -------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Sltm:
    """Canonical suffix-language tracking machine with dual vertex-set
    labelings (complement graph and positive graph) and suffix labels."""

    alphabet: Alphabet
    n_states: int
    initial: int
    delta: dict[tuple[int, frozenset[str]], int]
    vertex_sets_neg: tuple[frozenset[int], ...]
    vertex_sets_pos: tuple[frozenset[int], ...]
    labels: tuple[Label, ...]
    g_neg: ObligationGraph | None = None
    g_pos: ObligationGraph | None = None
    source: Awa | None = None
    source_dual: Awa | None = None

    def step(self, state: int, letter: frozenset[str]) -> int:
        return self.delta[(state, letter)]


def sltm_state_after(m: Sltm, word: Iterable[frozenset[str]]) -> int:
    state = m.initial
    for x in word:
        state = m.delta[(state, x)]
    return state


def _signature_battery(a: Awa) -> list[LassoWord]:
    return enumerate_lassos(a.alphabet, 1, 2)


def build_canonical_sltm(
    a: Awa,
    g_neg: ObligationGraph | None = None,
    g_pos: ObligationGraph | None = None,
    check_single_step: bool = True,
) -> Sltm:
    """Naive lockstep subset construction over both obligation graphs, then
    minimization by merging label-equivalent states.

    ``check_single_step`` additionally asserts, per canonical transition,
    that the successor's label is equivalent to the suffix of the source
    label (the single-step soundness condition of the construction).
    """
    a_dual = dualize(a)
    if g_neg is None:
        g_neg = miyano_hayashi(a_dual)
    if g_pos is None:
        g_pos = miyano_hayashi(a)

    # naive machine: subset construction over the complement graph; the
    # positive-graph vertex sets are recovered afterwards by a product
    # reachability sweep, which avoids pairing up the two subset spaces
    start = frozenset({g_neg.initial})
    ids: dict[frozenset[int], int] = {start: 0}
    naive: list[frozenset[int]] = [start]
    ndelta: dict[tuple[int, frozenset[str]], int] = {}
    frontier = deque([0])
    while frontier:
        sid = frontier.popleft()
        vn = naive[sid]
        for x in a.alphabet.letters:
            nn = frozenset(d for v in vn for d in g_neg.succ(v, x))
            nid = ids.get(nn)
            if nid is None:
                nid = len(naive)
                ids[nn] = nid
                naive.append(nn)
                frontier.append(nid)
            ndelta[(sid, x)] = nid

    nlabels = [label_of(vn, g_neg) for vn in naive]

    # cheap pre-partition: membership vectors over a small lasso battery
    battery = _signature_battery(a)
    win0 = []
    for w in battery:
        win0.append({q for (q, i) in winning_state_positions(a, w) if i == 0})

    def signature(label: Label) -> tuple[bool, ...]:
        return tuple(all(u & win for u in label.unions) for win in win0)

    equiv_cache: dict[tuple[Label, Label], bool] = {}

    def label_key(l: Label):
        return tuple((len(u), tuple(sorted(u))) for u in l.unions)

    def equivalent(l1: Label, l2: Label) -> bool:
        if l1 == l2:
            return True
        first, second = sorted((l1, l2), key=label_key)
        key = (first, second)
        got = equiv_cache.get(key)
        if got is None:
            got = labels_equivalent(l1, l2, a, a_dual)
            equiv_cache[key] = got
        return got

    class_of: list[int] = [-1] * len(naive)
    classes: list[list[int]] = []
    by_label: dict[Label, int] = {}
    buckets: dict[tuple[bool, ...], list[int]] = {}
    for sid in range(len(naive)):
        label = nlabels[sid]
        cid = by_label.get(label)
        if cid is None:
            sig = signature(label)
            for cand in buckets.get(sig, []):
                if equivalent(label, nlabels[classes[cand][0]]):
                    cid = cand
                    break
            if cid is None:
                cid = len(classes)
                classes.append([])
                buckets.setdefault(sig, []).append(cid)
            by_label[label] = cid
        classes[cid].append(sid)
        class_of[sid] = cid

    n_states = len(classes)
    vsets_neg = []
    labels = []
    for members in classes:
        vn: set[int] = set()
        for sid in members:
            vn |= naive[sid]
        vsets_neg.append(frozenset(vn))
        labels.append(label_of(vn, g_neg))

    # positive-graph vertex sets: vertices reachable while the naive machine
    # sits in each class (product reachability from the two initial objects)
    vpos: list[set[int]] = [set() for _ in range(n_states)]
    seen_pairs = {(0, g_pos.initial)}
    vpos[class_of[0]].add(g_pos.initial)
    todo = [(0, g_pos.initial)]
    while todo:
        sid, v = todo.pop()
        for x in a.alphabet.letters:
            sid2 = ndelta[(sid, x)]
            for v2 in g_pos.succ(v, x):
                if (sid2, v2) not in seen_pairs:
                    seen_pairs.add((sid2, v2))
                    vpos[class_of[sid2]].add(v2)
                    todo.append((sid2, v2))
    vsets_pos = [frozenset(s) for s in vpos]

    delta: dict[tuple[int, frozenset[str]], int] = {}
    for cid, members in enumerate(classes):
        for x in a.alphabet.letters:
            succ_classes = {class_of[ndelta[(sid, x)]] for sid in members}
            if len(succ_classes) != 1:
                raise AssertionError(
                    f"single-step condition violated: state {cid} on {sorted(x)} "
                    f"maps members to classes {sorted(succ_classes)}")
            delta[(cid, x)] = succ_classes.pop()

    if check_single_step:
        for cid in range(n_states):
            for x in a.alphabet.letters:
                succ = delta[(cid, x)]
                expect = suffix_label(labels[cid], x, a)
                if not equivalent(labels[succ], expect):
                    raise AssertionError(
                        f"single-step condition violated: label of state {succ} "
                        f"is not the suffix of state {cid} on {sorted(x)}")

    return Sltm(
        alphabet=a.alphabet,
        n_states=n_states,
        initial=class_of[0],
        delta=delta,
        vertex_sets_neg=tuple(vsets_neg),
        vertex_sets_pos=tuple(vsets_pos),
        labels=tuple(labels),
        g_neg=g_neg,
        g_pos=g_pos,
        source=a,
        source_dual=a_dual,
    )


# --- exports -----------------------------------------------------------------


def sltm_to_json(m: Sltm) -> dict:
    letters = [sorted(l) for l in m.alphabet.letters]
    return {
        "aps": list(m.alphabet.aps),
        "letters": letters,
        "states": m.n_states,
        "initial": m.initial,
        "labels": [[sorted(u) for u in label.unions] for label in m.labels],
        "vertex_sets_neg": [sorted(s) for s in m.vertex_sets_neg],
        "vertex_sets_pos": [sorted(s) for s in m.vertex_sets_pos],
        "delta": [
            [m.delta[(s, x)] for x in m.alphabet.letters] for s in range(m.n_states)
        ],
    }


def sltm_from_json(data: dict) -> Sltm:
    alphabet = Alphabet(tuple(data["aps"]), tuple(frozenset(l) for l in data["letters"]))
    delta = {}
    for s, row in enumerate(data["delta"]):
        for li, dst in enumerate(row):
            delta[(s, alphabet.letters[li])] = dst
    return Sltm(
        alphabet=alphabet,
        n_states=data["states"],
        initial=data["initial"],
        delta=delta,
        vertex_sets_neg=tuple(frozenset(s) for s in data["vertex_sets_neg"]),
        vertex_sets_pos=tuple(frozenset(s) for s in data["vertex_sets_pos"]),
        labels=tuple(Label.make([frozenset(u) for u in ls]) for ls in data["labels"]),
    )


def sltm_to_dot(m: Sltm) -> str:
    from .formula import letter_text

    lines = ["digraph sltm {", "  rankdir=LR;"]
    for s in range(m.n_states):
        lines.append(f'  s{s} [shape=circle label="s{s}\\nl{s}"];')
    lines.append(f"  init [shape=point]; init -> s{m.initial};")
    for s in range(m.n_states):
        for x in m.alphabet.letters:
            lines.append(f'  s{s} -> s{m.delta[(s, x)]} [label="{letter_text(x)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
