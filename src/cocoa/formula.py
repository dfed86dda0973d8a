"""LTL syntax, lasso words, and brute-force lasso semantics.

The fixpoint evaluator in this module is the ground truth: every automaton
construction in the package is ultimately checked against ``eval_lassos`` on
ultimately-periodic words.  A suite of lassos is packed into ``Lassos``: one
Python int per row, with one bit per word, either each position of each
lasso or, in an enumerated suite, each lasso, whose suffix is another
lasso's bit.  Each formula is compiled once into a children-first program
over its distinct subformulas, and the program runs on those rows: a few
big-int operations per subformula decide the whole suite at once.
"""

from __future__ import annotations

import itertools
import operator
import re
from collections.abc import Callable, Iterator, Sequence
from functools import cached_property

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


class Formula:
    """Immutable LTL syntax tree node."""

    def __init__(self, kind: str, args: tuple[Formula, ...] = (), name: str | None = None):
        self.kind = kind
        self.args = args
        self.name = name

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # compiled, so that neither side is walked recursively
        return self is other or self.program == other.program

    def __hash__(self) -> int:
        return hash(self.program)

    def __repr__(self) -> str:
        return render(self)

    def __str__(self) -> str:
        return render(self)

    @cached_property
    def program(self) -> tuple[tuple[str, tuple[int, ...], str | None], ...]:
        """The distinct subformulas as ``(kind, child indices, name)``,
        children before parents; the last entry is the formula itself.

        Equal subtrees share one entry.  Entries are looked up by the entry
        tuple itself, so compiling hashes small tuples, never whole subtrees.
        """
        # the nodes root first, right operands first: reversed, children first
        nodes, todo = [], [self]
        while todo:
            g = todo.pop()
            nodes.append(g)
            todo.extend(g.args)
        ids: dict[tuple[str, tuple[int, ...], str | None], int] = {}
        done: list[int] = []  # the entries of the subtrees read, the last on top
        for g in reversed(nodes):
            cut = len(done) - len(g.args)
            op = (g.kind, tuple(done[cut:]), g.name)
            del done[cut:]
            done.append(ids.setdefault(op, len(ids)))
        return tuple(ids)


LTRUE = Formula(TRUE)
LFALSE = Formula(FALSE)


def atom(name: str) -> Formula:
    return Formula(ATOM, name=name)


def neg(f: Formula) -> Formula:
    return Formula(NOT, (f,))


def _grouped(kind: str, fs: tuple[Formula, ...], unit: Formula) -> Formula:
    """``fs`` joined by ``kind``, grouped to the right; ``unit`` for none."""
    out = fs[-1] if fs else unit
    for f in reversed(fs[:-1]):
        out = Formula(kind, (f, out))
    return out


def conj(*fs: Formula) -> Formula:
    return _grouped(AND, fs, LTRUE)


def disj(*fs: Formula) -> Formula:
    return _grouped(OR, fs, LFALSE)


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


# The one spelling and binding of every operator: the parser, the
# renderer, the keyword scanner and the NNF read these tables.
_UNARY = {"!": NOT, "X": NEXT, "F": FINALLY, "G": GLOBALLY}
# binary operators and their binding levels, loosest first
_BINARY = {"->": (IMPLIES, 0), "|": (OR, 1), "&": (AND, 2), "U": (UNTIL, 3), "R": (RELEASE, 3)}
_RIGHT_ASSOC = {IMPLIES, UNTIL, RELEASE}
_CONSTANTS = {"true": TRUE, "false": FALSE}
# the renderer's view of the tables: a word operator needs a space after it
_PREFIX = {kind: op + " " * op.isalpha() for op, kind in _UNARY.items()}
_SPELLING = {k: op for op, k in _CONSTANTS.items()} | {k: op for op, (k, _) in _BINARY.items()}
# the operator and constant words, which no proposition may be called
_KEYWORDS = {op for op in (*_UNARY, *_BINARY) if op.isalpha()} | _CONSTANTS.keys()


def program_texts(program) -> list[str]:
    """The text of each entry of a compiled ``Formula.program``, children
    first; the last is the text of the whole formula."""
    texts: list[str] = []
    for kind, kids, name in program:
        if kind == ATOM:
            text = name or "?"
        elif kind in _PREFIX:
            text = _PREFIX[kind] + texts[kids[0]]
        elif kids:
            text = f"({texts[kids[0]]} {_SPELLING[kind]} {texts[kids[1]]})"
        else:
            text = _SPELLING[kind]
        texts.append(text)
    return texts


def render(f: Formula) -> str:
    return program_texts(f.program)[-1]


def atom_names(f: Formula) -> list[str]:
    return sorted({name for kind, _kids, name in f.program if kind == ATOM and name})


# the kind each node kind turns into under a negation
_DUAL = {AND: OR, OR: AND, FINALLY: GLOBALLY, GLOBALLY: FINALLY, UNTIL: RELEASE,
         RELEASE: UNTIL, TRUE: FALSE, FALSE: TRUE, NEXT: NEXT}
# the constant that decides a connective; the other constant is its unit
_ZERO = {AND: FALSE, OR: TRUE}
# the constant left operand that leaves the right operand, and the unary
# operator that the other constant leaves: false U b = b, true U b = F b
_LEFT_UNIT = {UNTIL: (FALSE, FINALLY), RELEASE: (TRUE, GLOBALLY)}


def _folded(kind: str, args: list[Formula]) -> Formula:
    """The node ``kind`` over ``args`` with its constants folded: & and |
    by ``_ZERO``; for any other kind a constant right (or only) operand is
    the result, and U and R then follow ``_LEFT_UNIT``."""
    a, b = args[0], args[-1]
    if kind in _ZERO:
        zero = _ZERO[kind]
        if zero in (a.kind, b.kind):
            return Formula(zero)
        if a.kind == _DUAL[zero]:
            return b
        if b.kind == _DUAL[zero]:
            return a
    elif b.kind in (TRUE, FALSE):
        return b
    elif kind in _LEFT_UNIT:
        unit, unary = _LEFT_UNIT[kind]
        if a.kind == unit:
            return b
        if a.kind == _DUAL[unit]:
            return Formula(unary, (b,))
    return Formula(kind, tuple(args))


def to_nnf(f: Formula) -> Formula:
    """Negation normal form: negation only on atoms, no implication, and
    constants only when the whole formula is constant."""
    nnf: list[tuple[Formula, Formula]] = []  # per entry of the program: its NNF and its negation's
    for kind, kids, name in f.program:
        if kind == ATOM:
            g = atom(name)
            nnf.append((g, Formula(NOT, (g,))))
            continue
        if kind == NOT:
            nnf.append(nnf[kids[0]][::-1])
            continue
        args = [nnf[c] for c in kids]
        if kind == IMPLIES:
            # a -> b is !a | b
            kind, args[0] = OR, args[0][::-1]
        elif kind not in _DUAL:
            raise ValueError(f"unknown node kind {kind!r}")
        nnf.append(tuple(_folded(k, [a[side] for a in args]) if args else Formula(k)
                         for side, k in enumerate((kind, _DUAL[kind]))))
    return nnf[-1][0]


# ---------------------------------------------------------------------------
# Alphabets and lasso words

# the characters that end a quoted HOA name or delimit a lasso's letters
_UNSPELLABLE = frozenset('"\\{};')


class Alphabet:
    """Atomic propositions plus the letter universe (sets of propositions).

    Every table of the translation is indexed by letter number, and every
    output spells its propositions from the alphabet, so an alphabet checks
    its five rules when it is made and raises ValueError otherwise: each
    proposition is one word of lasso text, without a character of
    ``_UNSPELLABLE``; none is listed twice; there is at least one letter;
    no letter is listed twice; and no letter holds a proposition that is
    not declared."""

    def __init__(self, aps: tuple[str, ...], letters: tuple[frozenset[str], ...]):
        self.aps = aps
        self.letters = letters
        for p in aps:
            # a letter's names are read back by str.split
            if p.split() != [p] or _UNSPELLABLE.intersection(p):
                raise ValueError(f"proposition {p!r} cannot be spelled in HOA or lasso text: "
                                 "it is empty or holds a blank or one of \" \\ { } ;")
        apset = set(aps)
        if len(apset) != len(aps):
            raise ValueError(f"a proposition is listed twice in {list(aps)}")
        if not letters:
            raise ValueError("alphabet needs at least one letter")
        if len(self.number) != len(letters):
            raise ValueError(f"a letter is listed twice in {[sorted(l) for l in letters]}")
        for l in letters:
            if not l <= apset:
                raise ValueError(f"letter {sorted(l)} uses undeclared propositions")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.aps, self.letters) == (other.aps, other.letters)

    def __hash__(self) -> int:
        return hash((self.aps, self.letters))

    @cached_property
    def number(self) -> dict[frozenset[str], int]:
        """Letter number i of ``letters[i]``, the index of every transition row."""
        return {x: i for i, x in enumerate(self.letters)}

    @staticmethod
    def from_aps(aps) -> "Alphabet":
        """Every set of the propositions is a letter."""
        aps = tuple(aps)
        return Alphabet.restricted(aps, itertools.chain.from_iterable(
            itertools.combinations(aps, r) for r in range(len(aps) + 1)))

    @staticmethod
    def restricted(aps, letters) -> "Alphabet":
        """The given letters, each once, ordered by their sorted propositions."""
        norm = sorted({frozenset(l) for l in letters}, key=lambda l: tuple(sorted(l)))
        return Alphabet(tuple(aps), tuple(norm))


def letter_text(letter: frozenset[str]) -> str:
    return "{" + " ".join(sorted(letter)) + "}"


class LassoWord:
    """Ultimately-periodic word u . v^omega over an alphabet."""

    __slots__ = ("alphabet", "prefix", "period")

    def __init__(self, alphabet: Alphabet, prefix: tuple[frozenset[str], ...],
                 period: tuple[frozenset[str], ...]):
        self.alphabet = alphabet
        self.prefix = prefix
        self.period = period
        if len(period) < 1:
            raise ValueError("lasso period must be non-empty")
        number = alphabet.number
        for letter in prefix + period:
            if letter not in number:
                raise ValueError(f"letter {sorted(letter)} is not in the alphabet")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.alphabet, self.prefix, self.period)
                == (other.alphabet, other.prefix, other.period))

    def __hash__(self) -> int:
        return hash((self.alphabet, self.prefix, self.period))

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
        for m in re.finditer(r"\{([^}]*)\}|\S", chunk):
            at = offset + m.start()
            if m.group(1) is None:
                if m.group() == "{":
                    raise ParseError(at, "unterminated letter")
                raise ParseError(at, f"expected '{{', found {m.group()!r}")
            names = m.group(1).split()
            for name in names:
                if name not in apset:
                    raise UnknownAtom(at, name)
            out.append(frozenset(names))
        return tuple(out)

    prefix = letters_of(text[:split], 0)
    period = letters_of(text[split + 1:], split + 1)
    if not period:
        raise ParseError(split + 1, "lasso period must contain at least one letter")
    return LassoWord(alphabet, prefix, period)


class Lassos(Sequence[LassoWord]):
    """A suite of lassos packed into one int per row.

    Each bit stands for one ultimately periodic word.  ``rows[i]`` has the
    bits of the words that start with letter number i, and ``starts`` has
    one bit per lasso of the suite.  ``next`` maps a row to the row of
    the words one letter later: bit p of ``next(row)`` is the bit of row
    at the word that follows p, its suffix after the first letter.  That
    is ``(row >> 1) & inner`` for the bits whose suffix sits one bit
    higher, plus ``(row & source) << shift`` for each of a few moves.
    Every bit of the int is a word and its suffix is another bit, so the
    fixpoints of ``until`` and of the automata decide every bit exactly.

    Two layouts fill these fields:

    * ``Lassos.of``: lasso i on its own bits ``[off_i, off_i + |u|+|v|)``,
      its position j at bit ``off_i + j``.  The last position steps back to
      its cut, v - 1 bits lower for a period of length v, so there is one
      move per period length: the cut mask, shifted by v - 1.
    * ``enumerate_lassos``: one bit per lasso, suffixes shared; see there.

    The suite is a read-only sequence of ``LassoWord``s in its given
    order.  ``order()`` yields each lasso as (start bit, ``LassoWord``) in
    suite order; it runs only when the words or their bits (``offsets``)
    are read, or by ``first`` up to the lasso it finds.
    """

    def __init__(self, alphabet: Alphabet, full: int, rows: tuple[int, ...], starts: int,
                 inner: int, moves: tuple[tuple[int, int], ...],
                 order: Callable[[], Iterator[tuple[int, LassoWord]]]):
        self.alphabet = alphabet
        self.full = full
        self.rows = rows
        self.starts = starts
        self.inner = inner
        self.moves = moves
        self._order = order

    @cached_property
    def _suite(self) -> list[tuple[int, LassoWord]]:
        return list(self._order())

    @cached_property
    def offsets(self) -> list[int]:
        """The start bit of each lasso, in suite order."""
        return [off for off, _w in self._suite]

    @staticmethod
    def of(words: Sequence[LassoWord]) -> "Lassos":
        """The given lassos, over the alphabet of the first, in order, each
        on its own run of bits; the suite holds these very words."""
        alphabet = words[0].alphabet
        number = alphabet.number
        rows = [0] * len(alphabet.letters)
        cuts: dict[int, int] = {}
        starts = last = pos = 0
        offsets = []
        for w in words:
            starts |= 1 << pos
            offsets.append(pos)
            for x in w.prefix:
                rows[number[x]] |= 1 << pos
                pos += 1
            cuts[len(w.period)] = cuts.get(len(w.period), 0) | 1 << pos
            for x in w.period:
                rows[number[x]] |= 1 << pos
                pos += 1
            last |= 1 << (pos - 1)
        full = (1 << pos) - 1
        # the last position lies v - 1 bits above its cut
        moves = tuple((cuts[v], v - 1) for v in sorted(cuts))
        return Lassos(alphabet, full, tuple(rows), starts, full ^ last, moves,
                      lambda: zip(offsets, words))

    def __len__(self) -> int:
        return self.starts.bit_count()

    def __getitem__(self, i: int) -> LassoWord:
        return self._suite[operator.index(i)][1]

    def first(self, mask: int) -> tuple[int, LassoWord]:
        """The start bit and the word of the first lasso in suite order
        whose start bit is set in ``mask``; raises ValueError when there is
        none."""
        bits = format(mask, "b")[::-1]  # bits[p] is bit p, read in O(1)
        for off, w in self._order():
            if off < len(bits) and bits[off] == "1":
                return off, w
        raise ValueError("no start bit of the suite is set in the mask")

    def next(self, row: int) -> int:
        """X: bit p is set when ``row`` has the bit of the word after p."""
        out = (row >> 1) & self.inner
        for source, shift in self.moves:
            out |= (row & source) << shift
        return out

    def until(self, a: int, b: int) -> int:
        """a U b: the least fixpoint of r = b | (a & X r), from b upwards."""
        row = b
        while True:
            grown = b | (a & self.next(row))
            if grown == row:
                return row
            row = grown


def _lyndon_words(n: int, max_len: int) -> Iterator[list[int]]:
    """The Lyndon words of length <= max_len over letters 0..n-1, in
    lexicographic order (Duval, J. Algorithms 1983)."""
    w = [-1]
    while w:
        w[-1] += 1
        yield w
        m = len(w)
        while len(w) < max_len:
            w.append(w[len(w) - m])
        while w and w[-1] == n - 1:
            w.pop()


def enumerate_lassos(alphabet: Alphabet, prefix_bound: int, period_bound: int) -> Lassos:
    """All distinct lassos with |u| <= prefix_bound and |v| <= period_bound.

    Each word is listed once, in its normal form: the period is primitive
    and the prefix does not end with the period's last letter (else the
    period could be rolled back into the prefix).  Words come ordered by
    prefix length, prefix, period length and period; ``order()`` yields
    each as (start bit, ``LassoWord``), built as it is listed.

    The suite is suffix-closed: dropping the first letter of a lasso gives
    another lasso of the suite.  So each lasso is one bit, and its suffix
    is another lasso's bit.  The bits are laid out in levels by prefix
    length p:

    * Level 0 holds v^omega for every primitive period v, grouped as
      necklace cycles: a Lyndon word, then its rotations.  The suffix of a
      rotation is the next rotation, one bit higher, and the last one wraps
      back to the first: one move per cycle length.
    * Level p holds n copies of level p - 1 for n letters.  Copy x holds
      x.w for every word w of level p - 1, in the same order, so the
      suffixes of a level are the level below at a constant shift per
      copy: one move per copy.

    A word x.v^omega with x the last letter of v is not in normal form
    (it is v'^omega for a rotation v' of v).  It stays as a bit, so that
    the copies are uniform, but ``starts`` leaves it out.  Each bit is
    still its own word, so every row is exact there too.

    Raises ValueError when ``prefix_bound < 0`` or ``period_bound < 1``.
    """
    if prefix_bound < 0 or period_bound < 1:
        raise ValueError(f"lasso bounds need prefix >= 0 and period >= 1, "
                         f"not {prefix_bound} and {period_bound}")
    n = len(alphabet.letters)
    rows = [0] * n
    ends = [0] * n  # the level-0 words whose period ends with each letter
    cycles = []
    wraps: dict[int, int] = {}  # the first bit of each cycle, by length
    inner = pos = 0
    for lyndon in _lyndon_words(n, period_bound):
        size = len(lyndon)
        wraps[size] = wraps.get(size, 0) | 1 << pos
        # rotation k, at bit pos, starts with lyndon[k] and ends with lyndon[k - 1]
        for k, x in enumerate(lyndon):
            bit = 1 << pos
            rows[x] |= bit
            ends[lyndon[k - 1]] |= bit
            pos += 1
        inner |= ((1 << (size - 1)) - 1) << (pos - size)
        cycles.append(tuple(lyndon))
    moves = [(wraps[size], size - 1) for size in sorted(wraps)]
    size0 = width = pos  # the bits of level 0; width is that of the level below
    level = (1 << width) - 1  # the mask of the level below
    starts = level
    base = width
    for p in range(1, prefix_bound + 1):
        ones = (1 << width) - 1
        for x in range(n):
            copy = base + x * width
            rows[x] |= ones << copy
            shift = (x + 1) * width  # from w up to x.w
            moves.append((level, shift))
            if p == 1:
                # x.v^omega is a lasso unless v ends with x
                starts |= (level ^ ends[x]) << copy
            else:
                starts |= (starts & level) << shift
        level = ((1 << (n * width)) - 1) << base
        base += n * width
        width *= n

    def order() -> Iterator[tuple[int, LassoWord]]:
        at = {}  # the bit of each period, a tuple of letter numbers
        pos = 0
        for lyndon in cycles:
            for k in range(len(lyndon)):
                at[lyndon[k:] + lyndon[:k]] = pos
                pos += 1
        periods = sorted(at, key=lambda v: (len(v), v))
        letters = alphabet.letters
        base = 0
        for plen in range(prefix_bound + 1):
            for k, pref in enumerate(itertools.product(range(n), repeat=plen)):
                block = base + k * size0
                u = tuple(letters[x] for x in pref)
                for v in periods:
                    if not pref or v[-1] != pref[-1]:
                        yield block + at[v], LassoWord(alphabet, u, tuple(letters[x] for x in v))
            base += n ** plen * size0

    return Lassos(alphabet, (1 << base) - 1, tuple(rows), starts, inner, tuple(moves), order)


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

_IDENT = r"[A-Za-z_][A-Za-z_0-9]*"
_SYMBOLS = sorted((op for op in (*_UNARY, *_BINARY) if not op.isalpha()), key=len, reverse=True)


def _token_re(names) -> re.Pattern:
    """A token after blanks: an operator symbol, a parenthesis, one of the
    given names (longest first), or an identifier, else the unexpected
    character."""
    words = [*_SYMBOLS, "(", ")", *sorted(names, key=len, reverse=True)]
    return re.compile(rf"\s*(?:({'|'.join(map(re.escape, words))}|{_IDENT})|(\S))")


def scan_aps(text: str) -> list[str]:
    """The propositions a formula's text names, sorted: its identifiers
    other than keywords and stacked unary operators.  A proposition
    spelled only with the letters X, F and G must be declared."""
    return sorted({name for name in re.findall(_IDENT, text) if not (
        name in _KEYWORDS or set(name) <= _UNARY.keys())})


def _tokens(text: str, apset: set[str]) -> list[tuple[str, int]]:
    """The tokens of a formula's text with their positions, ending with
    the end token ``("", len(text))``.  A declared proposition that is not
    an identifier, such as "#", is one token.  A word of stacked unary
    operators that is not a declared proposition is one token per
    operator, so "FG a" reads as F G a."""
    literal = [p for p in apset if not re.fullmatch(_IDENT, p)]
    out: list[tuple[str, int]] = []
    for m in _token_re(literal).finditer(text):
        tok, pos = m.group(1), m.start(1)
        if tok is None:
            raise ParseError(m.start(2), f"unexpected character {m.group(2)!r}")
        if tok not in apset and set(tok) <= _UNARY.keys():
            out.extend((ch, pos + k) for k, ch in enumerate(tok))
        else:
            out.append((tok, pos))
    out.append(("", len(text)))
    return out


def parse_ltl(text: str, aps) -> Formula:
    """Parse the ASCII grammar; implication is kept in the returned tree.

    The operator tables are the grammar's only spelling of its operators:
    ``_UNARY`` (!, X, F, G) binds tightest, then ``_BINARY`` by level,
    U and R (3) > & (2) > | (1) > -> (0), with ``_RIGHT_ASSOC`` (U, R, ->)
    grouping to the right; ``_CONSTANTS`` are true and false.  One loop
    applies pending operators by level, so memory alone bounds the
    nesting.  Every declared proposition reads as itself, identifier or
    not.  Raises InvalidParameter when no proposition is given, or one is
    named like an operator or a constant (``_KEYWORDS``), is empty, or
    holds a blank, a parenthesis or an operator symbol."""
    aps = list(aps)
    if not aps:
        raise InvalidParameter("the set of atomic propositions must be non-empty")
    for p in aps:
        if p in _KEYWORDS:
            raise InvalidParameter(f"proposition {p!r} is named like an operator or a constant")
        if not p or re.search(r"[\s()]", p) or any(op in p for op in _SYMBOLS):
            raise InvalidParameter(
                f"proposition {p!r} is empty or holds a blank, a parenthesis or an operator")
    apset = set(aps)
    toks = _tokens(text, apset)[::-1]  # the next token is the last
    tightest = 1 + max(bind for _kind, bind in _BINARY.values())  # the unary level
    operands: list[Formula] = []
    # the operators still waiting for an operand, with their levels; an
    # open parenthesis waits at level -1, below every operator
    pending: list[tuple[str, int]] = []
    want_operand = True
    while True:
        tok, pos = toks[-1]
        op = _BINARY.get(tok)
        # a right-associative operator leaves its own level pending; any
        # other token ends every operator above the innermost parenthesis
        level = op[1] + (op[0] in _RIGHT_ASSOC) if op else 0
        if want_operand:
            toks.pop()
            if tok in _UNARY:
                pending.append((_UNARY[tok], tightest))
            elif tok == "(":
                pending.append(("(", -1))
            elif tok in _CONSTANTS:
                operands.append(Formula(_CONSTANTS[tok]))
            elif tok in apset:
                operands.append(atom(tok))
            elif re.fullmatch(_IDENT, tok):
                if tok in _BINARY:
                    raise ParseError(pos, f"operator {tok!r} in atom position")
                raise UnknownAtom(pos, tok)
            else:
                raise ParseError(pos, f"expected a formula, found {tok or 'end of input'!r}")
            want_operand = tok in _UNARY or tok == "("
        elif pending and pending[-1][1] >= level:
            kind, bind = pending.pop()
            arity = 1 if bind == tightest else 2
            operands[-arity:] = [Formula(kind, tuple(operands[-arity:]))]
        elif op:
            toks.pop()
            pending.append(op)
            want_operand = True
        elif pending:
            toks.pop()
            if tok != ")":
                raise ParseError(pos, f"expected ')', found {tok or 'end of input'!r}")
            pending.pop()
        elif tok:
            raise ParseError(pos, f"trailing input {tok!r}")
        else:
            return operands.pop()


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
    *ab, hash_, dollar = map(atom, lower_bound_aps(n))
    a, b = ab[:n], ab[n:]

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
