"""LTL syntax, lasso words, and brute-force lasso semantics.

The fixpoint evaluator in this module is the ground truth: every automaton
construction in the package is ultimately checked against ``eval_lassos`` on
ultimately-periodic words.  A suite of lassos is packed into ``Lassos``: one
Python int per row, with one bit for each position of every lasso in the
suite, each lasso on its own run of bits.  Each formula is compiled once
into a children-first program over its distinct subformulas, and the
program runs on those rows: a few big-int operations per subformula decide
the whole suite at once.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

ATOM = "atom"
NOT = "not"
TRUE = "true"
FALSE = "false"
AND = "and"
OR = "or"
IMPLIES = "implies"
NEXT = "next"
UNTIL = "until"
RELEASE = "release"
FINALLY = "finally"
GLOBALLY = "globally"

_UNARY = {NOT, NEXT, FINALLY, GLOBALLY}
_BINARY = {AND, OR, IMPLIES, UNTIL, RELEASE}


class ParseError(Exception):
    """Malformed formula or lasso text."""

    def __init__(self, position: int, message: str):
        super().__init__(f"parse error at position {position}: {message}")
        self.position = position
        self.message = message


class UnknownAtom(ParseError):
    """An identifier that is not among the declared atomic propositions."""

    def __init__(self, position: int, name: str):
        super().__init__(position, f"unknown atomic proposition {name!r}")
        self.name = name


class InvalidParameter(Exception):
    pass


@dataclass(frozen=True, repr=False)
class Formula:
    """Immutable LTL syntax tree node."""

    kind: str
    args: tuple["Formula", ...] = ()
    name: str | None = None

    def __repr__(self) -> str:
        return render(self)

    def __str__(self) -> str:
        return render(self)

    def size(self) -> int:
        return 1 + sum(a.size() for a in self.args)

    @cached_property
    def program(self) -> tuple[tuple[str, tuple[int, ...], str | None], ...]:
        """The distinct subformulas as ``(kind, child indices, name)``,
        children before parents; the last entry is the formula itself.

        Equal subtrees share one entry.  Entries are looked up by the entry
        tuple itself, so compiling hashes small tuples, never whole subtrees.
        """
        ids: dict[tuple[str, tuple[int, ...], str | None], int] = {}

        def walk(g: Formula) -> int:
            op = (g.kind, tuple(walk(c) for c in g.args), g.name)
            got = ids.get(op)
            if got is None:
                got = ids[op] = len(ids)
            return got

        walk(self)
        return tuple(ids)


LTRUE = Formula(TRUE)
LFALSE = Formula(FALSE)


def atom(name: str) -> Formula:
    return Formula(ATOM, name=name)


def neg(f: Formula) -> Formula:
    return Formula(NOT, (f,))


def conj(*fs: Formula) -> Formula:
    if not fs:
        return LTRUE
    if len(fs) == 1:
        return fs[0]
    return Formula(AND, (fs[0], conj(*fs[1:])))


def disj(*fs: Formula) -> Formula:
    if not fs:
        return LFALSE
    if len(fs) == 1:
        return fs[0]
    return Formula(OR, (fs[0], disj(*fs[1:])))


def implies(a: Formula, b: Formula) -> Formula:
    return Formula(IMPLIES, (a, b))


def nxt(f: Formula) -> Formula:
    return Formula(NEXT, (f,))


def until(a: Formula, b: Formula) -> Formula:
    return Formula(UNTIL, (a, b))


def release(a: Formula, b: Formula) -> Formula:
    return Formula(RELEASE, (a, b))


def eventually(f: Formula) -> Formula:
    return Formula(FINALLY, (f,))


def always(f: Formula) -> Formula:
    return Formula(GLOBALLY, (f,))


def render(f: Formula) -> str:
    k = f.kind
    if k == ATOM:
        return f.name or "?"
    if k == TRUE:
        return "true"
    if k == FALSE:
        return "false"
    if k == NOT:
        return "!" + render(f.args[0])
    if k == NEXT:
        return "X " + render(f.args[0])
    if k == FINALLY:
        return "F " + render(f.args[0])
    if k == GLOBALLY:
        return "G " + render(f.args[0])
    op = {AND: "&", OR: "|", IMPLIES: "->", UNTIL: "U", RELEASE: "R"}[k]
    return f"({render(f.args[0])} {op} {render(f.args[1])})"


def subformulas(f: Formula) -> list[Formula]:
    """All distinct subformulas, children before parents, in syntax order."""
    seen: set[Formula] = set()
    out: list[Formula] = []

    def walk(g: Formula) -> None:
        for c in g.args:
            walk(c)
        if g not in seen:
            seen.add(g)
            out.append(g)

    walk(f)
    return out


def atom_names(f: Formula) -> list[str]:
    names = {g.name for g in subformulas(f) if g.kind == ATOM and g.name}
    return sorted(names)


def _s_not(f: Formula) -> Formula:
    if f.kind == TRUE:
        return LFALSE
    if f.kind == FALSE:
        return LTRUE
    return Formula(NOT, (f,))


def _s_and(a: Formula, b: Formula) -> Formula:
    if a.kind == FALSE or b.kind == FALSE:
        return LFALSE
    if a.kind == TRUE:
        return b
    if b.kind == TRUE:
        return a
    return Formula(AND, (a, b))


def _s_or(a: Formula, b: Formula) -> Formula:
    if a.kind == TRUE or b.kind == TRUE:
        return LTRUE
    if a.kind == FALSE:
        return b
    if b.kind == FALSE:
        return a
    return Formula(OR, (a, b))


def _s_next(a: Formula) -> Formula:
    if a.kind in (TRUE, FALSE):
        return a
    return Formula(NEXT, (a,))


def _s_finally(a: Formula) -> Formula:
    if a.kind in (TRUE, FALSE):
        return a
    return Formula(FINALLY, (a,))


def _s_globally(a: Formula) -> Formula:
    if a.kind in (TRUE, FALSE):
        return a
    return Formula(GLOBALLY, (a,))


def _s_until(a: Formula, b: Formula) -> Formula:
    if b.kind in (TRUE, FALSE):
        return b
    if a.kind == FALSE:
        return b
    if a.kind == TRUE:
        return Formula(FINALLY, (b,))
    return Formula(UNTIL, (a, b))


def _s_release(a: Formula, b: Formula) -> Formula:
    if b.kind in (TRUE, FALSE):
        return b
    if a.kind == TRUE:
        return b
    if a.kind == FALSE:
        return Formula(GLOBALLY, (b,))
    return Formula(RELEASE, (a, b))


def to_nnf(f: Formula) -> Formula:
    """Negation normal form: negation only on atoms, no implication, and
    constants only when the whole formula is constant."""

    def go(g: Formula, negd: bool) -> Formula:
        k = g.kind
        if k == ATOM:
            return _s_not(g) if negd else g
        if k == TRUE:
            return LFALSE if negd else LTRUE
        if k == FALSE:
            return LTRUE if negd else LFALSE
        if k == NOT:
            return go(g.args[0], not negd)
        if k == IMPLIES:
            a, b = g.args
            return go(Formula(OR, (Formula(NOT, (a,)), b)), negd)
        if k == AND:
            l, r = (go(x, negd) for x in g.args)
            return _s_or(l, r) if negd else _s_and(l, r)
        if k == OR:
            l, r = (go(x, negd) for x in g.args)
            return _s_and(l, r) if negd else _s_or(l, r)
        if k == NEXT:
            return _s_next(go(g.args[0], negd))
        if k == FINALLY:
            return _s_globally(go(g.args[0], True)) if negd else _s_finally(go(g.args[0], False))
        if k == GLOBALLY:
            return _s_finally(go(g.args[0], True)) if negd else _s_globally(go(g.args[0], False))
        if k == UNTIL:
            a, b = g.args
            if negd:
                return _s_release(go(a, True), go(b, True))
            return _s_until(go(a, False), go(b, False))
        if k == RELEASE:
            a, b = g.args
            if negd:
                return _s_until(go(a, True), go(b, True))
            return _s_release(go(a, False), go(b, False))
        raise ValueError(f"unknown node kind {k!r}")

    return go(f, False)


# ---------------------------------------------------------------------------
# Alphabets and lasso words


@dataclass(frozen=True)
class Alphabet:
    """Atomic propositions plus the letter universe (sets of propositions)."""

    aps: tuple[str, ...]
    letters: tuple[frozenset[str], ...]

    @cached_property
    def number(self) -> dict[frozenset[str], int]:
        """Letter number i of ``letters[i]``, the index of every transition row."""
        return {x: i for i, x in enumerate(self.letters)}

    @staticmethod
    def from_aps(aps) -> "Alphabet":
        aps = tuple(aps)
        letters = []
        for r in range(len(aps) + 1):
            for combo in itertools.combinations(sorted(aps), r):
                letters.append(frozenset(combo))
        letters.sort(key=lambda l: tuple(sorted(l)))
        return Alphabet(aps, tuple(letters))

    @staticmethod
    def restricted(aps, letters) -> "Alphabet":
        aps = tuple(aps)
        apset = set(aps)
        norm = sorted({frozenset(l) for l in letters}, key=lambda l: tuple(sorted(l)))
        for l in norm:
            if not l <= apset:
                raise ValueError(f"letter {sorted(l)} uses undeclared propositions")
        if not norm:
            raise ValueError("alphabet needs at least one letter")
        return Alphabet(aps, tuple(norm))


def letter_text(letter: frozenset[str]) -> str:
    return "{" + " ".join(sorted(letter)) + "}"


@dataclass(frozen=True)
class LassoWord:
    """Ultimately-periodic word u . v^omega over an alphabet."""

    alphabet: Alphabet
    prefix: tuple[frozenset[str], ...]
    period: tuple[frozenset[str], ...]

    def __post_init__(self):
        if len(self.period) < 1:
            raise ValueError("lasso period must be non-empty")
        number = self.alphabet.number
        for letter in self.prefix + self.period:
            if letter not in number:
                raise ValueError(f"letter {sorted(letter)} is not in the alphabet")

    def text(self) -> str:
        return "".join(map(letter_text, self.prefix)) + ";" + "".join(map(letter_text, self.period))


def parse_lasso(text: str, alphabet: Alphabet) -> LassoWord:
    """Parse ``{a b}{};{a}`` style lasso syntax (prefix ; period)."""
    if text.count(";") != 1:
        raise ParseError(0, "lasso needs exactly one ';' between prefix and period")
    split = text.index(";")
    apset = set(alphabet.aps)

    def letters_of(chunk: str, offset: int) -> tuple[frozenset[str], ...]:
        out = []
        i = 0
        while i < len(chunk):
            if chunk[i].isspace():
                i += 1
                continue
            if chunk[i] != "{":
                raise ParseError(offset + i, f"expected '{{', found {chunk[i]!r}")
            j = chunk.find("}", i)
            if j < 0:
                raise ParseError(offset + i, "unterminated letter")
            names = chunk[i + 1:j].split()
            for name in names:
                if name not in apset:
                    raise UnknownAtom(offset + i, name)
            out.append(frozenset(names))
            i = j + 1
        return tuple(out)

    prefix = letters_of(text[:split], 0)
    period = letters_of(text[split + 1:], split + 1)
    if not period:
        raise ParseError(split + 1, "lasso period must contain at least one letter")
    return LassoWord(alphabet, prefix, period)


def _bits(backwards: str, table: str) -> int:
    """The int whose bit i is ``table[ord(c)]``, a "0" or a "1", for the
    character c at ``backwards[-1 - i]``."""
    return int(backwards.translate(table) or "0", 2)


def _one_hot(size: int, k: int) -> str:
    """A ``_bits`` table of ``size`` entries with a "1" at entry k only."""
    return "0" * k + "1" + "0" * (size - k - 1)


class Lassos(Sequence[LassoWord]):
    """A suite of lassos packed into one int per row.

    Lasso i takes the bits ``[off_i, off_i + |u|+|v|)``, its position j the
    bit ``off_i + j``.  ``rows[i]`` has a bit wherever letter number i of
    the alphabet occurs (0 for a letter that does not), and ``starts`` has
    the bit of every lasso's position 0.  The last position of a lasso
    steps back to its cut, v - 1 bits lower for a period of length v; that
    distance depends on the period length only, so lassos of every shape
    share one int, with a cut mask and a last mask per period length
    (``next`` and ``step``).

    The suite is a read-only sequence in its given order; each ``LassoWord``
    is built only when it is accessed.
    """

    def __init__(self, alphabet: Alphabet, words: list[tuple[str, str]]):
        """``words`` spell each lasso's (prefix, period) with ``chr(i)`` for
        letter number i."""
        self.alphabet = alphabet
        self._words = words
        # backwards, so that the first position of the first lasso is bit 0
        spelled = "".join(itertools.chain.from_iterable(words))[::-1]
        self.full = (1 << len(spelled)) - 1
        n = len(alphabet.letters)
        self.rows = tuple(_bits(spelled, _one_hot(n, k)) if chr(k) in spelled else 0
                          for k in range(n))
        prefix_lens = list(map(len, map(itemgetter(0), words)))
        period_lens = list(map(len, map(itemgetter(1), words)))
        periods = sorted(set(period_lens))
        # chr(v) at the cut of a lasso whose period has length v, chr(0) elsewhere
        cut_of = {(p, v): "\0" * p + chr(v) + "\0" * (v - 1)
                  for p in set(prefix_lens) for v in periods}
        cuts = "".join(map(cut_of.__getitem__, zip(prefix_lens, period_lens)))[::-1]
        self._cuts = tuple((v - 1, _bits(cuts, _one_hot(periods[-1] + 1, v))) for v in periods)
        # the last position lies v - 1 bits above the cut, and the next
        # lasso starts one bit above that
        self._lasts = tuple((shift, cut << shift) for shift, cut in self._cuts)
        last = 0
        for _shift, mask in self._lasts:
            last |= mask
        self._inner = self.full ^ last
        self.starts = ((last << 1) | 1) & self.full

    @cached_property
    def offsets(self) -> list[int]:
        """The bit of each lasso's position 0, in suite order."""
        return list(itertools.accumulate(
            (len(u) + len(v) for u, v in self._words), initial=0))[:-1]

    @staticmethod
    def of(words: Sequence[LassoWord]) -> "Lassos":
        """The given lassos, over the alphabet of the first, in order."""
        alphabet = words[0].alphabet
        number = alphabet.number

        def spell(xs: tuple[frozenset[str], ...]) -> str:
            return "".join([chr(number[x]) for x in xs])

        return Lassos(alphabet, [(spell(w.prefix), spell(w.period)) for w in words])

    def __len__(self) -> int:
        return len(self._words)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        u, v = self._words[i]
        letters = self.alphabet.letters
        return LassoWord(self.alphabet, tuple(letters[ord(c)] for c in u),
                         tuple(letters[ord(c)] for c in v))

    def next(self, row: int) -> int:
        """X: bit p is set when ``row`` has the bit of the position after p."""
        out = (row >> 1) & self._inner
        for shift, cut in self._cuts:
            out |= (row & cut) << shift
        return out

    def step(self, row: int) -> int:
        """The positions that follow the positions in ``row``."""
        out = (row & self._inner) << 1
        for shift, last in self._lasts:
            out |= (row & last) >> shift
        return out

    def until(self, a: int, b: int) -> int:
        """a U b: the least fixpoint of r = b | (a & X r), from b upwards."""
        row = b
        while True:
            grown = b | (a & self.next(row))
            if grown == row:
                return row
            row = grown


def enumerate_lassos(alphabet: Alphabet, prefix_bound: int, period_bound: int) -> Lassos:
    """All distinct lassos with |u| <= prefix_bound and |v| <= period_bound.

    Each word is listed once, in its normal form: the period is primitive
    and the prefix does not end with the period's last letter (else the
    period could be rolled back into the prefix).  Words come ordered by
    prefix length, prefix, period length and period.
    """
    chars = [chr(i) for i in range(len(alphabet.letters))]
    periods = []
    for vlen in range(1, period_bound + 1):
        for per in map("".join, itertools.product(chars, repeat=vlen)):
            if all(per != per[:d] * (vlen // d) for d in range(1, vlen) if vlen % d == 0):
                periods.append(per)
    # the periods that may follow a prefix ending in each letter
    after = {c: [per for per in periods if per[-1] != c] for c in chars}
    words = []
    for plen in range(prefix_bound + 1):
        for pref in map("".join, itertools.product(chars, repeat=plen)):
            words += zip(itertools.repeat(pref), after[pref[-1]] if pref else periods)
    return Lassos(alphabet, words)


# ---------------------------------------------------------------------------
# Lasso semantics


def eval_lassos(f: Formula, lassos: Lassos) -> int:
    """Standard LTL semantics on a packed suite: the start bits of the
    lassos that satisfy ``f``.

    Runs the formula's compiled ``program`` with one row per subformula,
    whose bit p says whether the subformula holds at the position of bit p.
    X is ``Lassos.next``; U/F are least fixpoints iterated on the rows, and
    R/G their duals.  Any formula is accepted, NNF or not.
    """
    full = lassos.full
    rows: list[int] = []
    for kind, kids, name in f.program:
        if kind == ATOM:
            row = 0
            for x, r in zip(lassos.alphabet.letters, lassos.rows):
                if name in x:
                    row |= r
        elif kind == AND:
            row = rows[kids[0]] & rows[kids[1]]
        elif kind == OR:
            row = rows[kids[0]] | rows[kids[1]]
        elif kind == NOT:
            row = full ^ rows[kids[0]]
        elif kind == NEXT:
            row = lassos.next(rows[kids[0]])
        elif kind == UNTIL:
            row = lassos.until(rows[kids[0]], rows[kids[1]])
        elif kind == FINALLY:
            row = lassos.until(full, rows[kids[0]])
        elif kind == RELEASE:
            # a R b is !(!a U !b), a greatest fixpoint
            row = full ^ lassos.until(full ^ rows[kids[0]], full ^ rows[kids[1]])
        elif kind == GLOBALLY:
            row = full ^ lassos.until(full, full ^ rows[kids[0]])
        elif kind == IMPLIES:
            row = (full ^ rows[kids[0]]) | rows[kids[1]]
        elif kind == TRUE:
            row = full
        elif kind == FALSE:
            row = 0
        else:
            raise ValueError(f"unknown node kind {kind!r}")
        rows.append(row)
    return rows[-1] & lassos.starts


def eval_lasso(f: Formula, w: LassoWord) -> bool:
    """Whether the lasso satisfies ``f`` (``eval_lassos`` on it alone)."""
    return bool(eval_lassos(f, Lassos.of([w])))


# ---------------------------------------------------------------------------
# Parser

_TOKEN_RE = re.compile(r"\s*(->|[!&|()]|[A-Za-z_][A-Za-z_0-9]*)")
_KEYWORD_UNARY = {"X": NEXT, "F": FINALLY, "G": GLOBALLY}


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items: list[tuple[str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m or not m.group(1):
                if text[pos:].strip():
                    bad = len(text) - len(text[pos:].lstrip())
                    raise ParseError(bad, f"unexpected character {text[bad]!r}")
                break
            self.items.append((m.group(1), m.start(1)))
            pos = m.end()
        self.i = 0

    def peek(self) -> tuple[str, int]:
        if self.i < len(self.items):
            return self.items[self.i]
        return ("", len(self.text))

    def take(self) -> tuple[str, int]:
        tok = self.peek()
        self.i += 1
        return tok


def parse_ltl(text: str, aps) -> Formula:
    """Parse the ASCII grammar; implication is kept in the returned tree.

    Precedence: unary (X, F, G, !) > U, R (right-assoc) > & > | > ->.
    """
    aps = list(aps)
    if not aps:
        raise InvalidParameter("the set of atomic propositions must be non-empty")
    apset = set(aps)
    toks = _Tokens(text)
    # split identifiers made purely of unary operator letters, so that
    # "FG a" and "GF b" read as two stacked operators
    split: list[tuple[str, int]] = []
    for tok, pos in toks.items:
        if (tok not in apset and tok not in ("true", "false", "U", "R")
                and len(tok) > 1 and set(tok) <= set("XFG")):
            split.extend((ch, pos + k) for k, ch in enumerate(tok))
        else:
            split.append((tok, pos))
    toks.items = split

    def expect(token: str) -> None:
        got, pos = toks.take()
        if got != token:
            raise ParseError(pos, f"expected {token!r}, found {got or 'end of input'!r}")

    def p_implies() -> Formula:
        left = p_or()
        tok, _ = toks.peek()
        if tok == "->":
            toks.take()
            return Formula(IMPLIES, (left, p_implies()))
        return left

    def p_or() -> Formula:
        left = p_and()
        while toks.peek()[0] == "|":
            toks.take()
            left = Formula(OR, (left, p_and()))
        return left

    def p_and() -> Formula:
        left = p_until()
        while toks.peek()[0] == "&":
            toks.take()
            left = Formula(AND, (left, p_until()))
        return left

    def p_until() -> Formula:
        left = p_unary()
        tok, _ = toks.peek()
        if tok in ("U", "R"):
            toks.take()
            right = p_until()
            return Formula(UNTIL if tok == "U" else RELEASE, (left, right))
        return left

    def p_unary() -> Formula:
        tok, pos = toks.peek()
        if tok == "!":
            toks.take()
            return Formula(NOT, (p_unary(),))
        if tok in _KEYWORD_UNARY:
            toks.take()
            return Formula(_KEYWORD_UNARY[tok], (p_unary(),))
        return p_atom()

    def p_atom() -> Formula:
        tok, pos = toks.take()
        if tok == "(":
            inner = p_implies()
            expect(")")
            return inner
        if tok == "true":
            return LTRUE
        if tok == "false":
            return LFALSE
        if tok and tok[0].isalpha() or tok.startswith("_"):
            if tok in ("U", "R") or tok in _KEYWORD_UNARY:
                raise ParseError(pos, f"operator {tok!r} in atom position")
            if tok not in apset:
                raise UnknownAtom(pos, tok)
            return atom(tok)
        raise ParseError(pos, f"expected a formula, found {tok or 'end of input'!r}")

    result = p_implies()
    tok, pos = toks.peek()
    if tok:
        raise ParseError(pos, f"trailing input {tok!r}")
    return result


# ---------------------------------------------------------------------------
# Benchmark family with doubly-exponential chains


def lower_bound_aps(n: int) -> list[str]:
    if n < 1:
        raise InvalidParameter("block count must be at least 1")
    return [f"a{i}" for i in range(1, n + 1)] + [f"b{i}" for i in range(1, n + 1)] + ["#", "$"]


def lower_bound_alphabet(n: int, restricted: bool = True) -> Alphabet:
    """Alphabet for the benchmark family.

    With ``restricted`` the letters are the singletons only, which keeps the
    propositions mutually exclusive at the alphabet level and the state
    spaces at desk scale.
    """
    aps = lower_bound_aps(n)
    if restricted:
        return Alphabet.restricted(aps, [frozenset({p}) for p in aps])
    return Alphabet.from_aps(aps)


def lower_bound_family(n: int) -> Formula:
    """Size-O(n) formula family whose chains need doubly-exponential automata.

    Members of the positive language consist of a sequence of marker-prefixed
    blocks of letters, a separator, one repeated block, and a marker tail; the
    repeated block must occur among the earlier blocks.  The returned formula
    is the negation of that block-copy language.
    """
    if n < 1:
        raise InvalidParameter("block count must be at least 1")
    a = [atom(f"a{i}") for i in range(1, n + 1)]
    b = [atom(f"b{i}") for i in range(1, n + 1)]
    hash_ = atom("#")
    dollar = atom("$")

    def slot(i: int) -> Formula:
        return disj(a[i], b[i])

    def x_power(f: Formula, k: int) -> Formula:
        for _ in range(k):
            f = nxt(f)
        return f

    parts: list[Formula] = []
    # word shape: marker, then the first block
    parts.append(conj(hash_, nxt(slot(0))))
    # slot i is always followed by slot i+1
    for i in range(n - 1):
        parts.append(always(implies(slot(i), nxt(slot(i + 1)))))
    # a full block is followed by another block, the separator, or the tail
    parts.append(always(implies(
        slot(n - 1),
        disj(nxt(conj(hash_, nxt(slot(0)))), nxt(dollar), nxt(always(hash_))))))
    # exactly one separator; it is followed by one block and then the tail
    parts.append(eventually(dollar))
    parts.append(always(implies(dollar, nxt(always(neg(dollar))))))
    parts.append(always(implies(dollar, nxt(slot(0)))))
    parts.append(always(implies(dollar, x_power(always(hash_), n + 1))))
    # some earlier block equals the final block
    copied = conj(*[implies(s, eventually(conj(dollar, eventually(s))))
                    for i in range(n) for s in (a[i], b[i])])
    parts.append(eventually(conj(hash_, nxt(conj(slot(0), until(copied, disj(hash_, dollar)))))))
    # mutual exclusion within each letter group, and at least one proposition
    for i in range(n):
        parts.append(always(neg(conj(a[i], b[i]))))
    parts.append(always(neg(conj(hash_, dollar))))
    parts.append(always(disj(hash_, dollar, *[slot(i) for i in range(n)])))

    return neg(conj(*parts))
