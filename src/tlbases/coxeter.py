"""Word combinatorics of linear Coxeter graphs of types A, B and H.

The graphs are lines on generators 1..n whose first bond carries strength
3, 4 or 5 according to the family; all other neighbouring bonds have
strength 3 and non-neighbours commute.  Elements are handled through words:
an element is fully commutative (FC) when the commutation class of one of
its reduced words is the set of all of them.

A word's commutation class is the set of linear extensions of its heap, the
partial order on letter occurrences generated by "i comes before j and the
letters do not commute" (Viennot).  So FC detection, the normal form (the
lexicographically least class member), descents, class sizes and the Bruhat
subword test are read off the heap without building the class: by
Stembridge's criterion a word is FC-reduced iff its heap has no covering
pair with equal labels and no convex chain of length m(s, t) whose labels
alternate between s and t.

The ordered class searches read the heap's linear extensions, produced
lazily in lexicographic (or reverse lexicographic) order as position orders
of one word: two occurrences of the same generator can never cross, so a
position names the same occurrence in every member of the class.  The
rewriting strategies stop at the first member with a reducible factor.  The
letter taxonomy (internal / lateral / bilateral / bad / critical) is read in
one pass over the whole ordered list, which records each member's flanks
(factors q p q with m(p, q) >= 3) and pattern hits; right-justified
expressions with their block decomposition are the first member of the same
list that parses into blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "CoxeterGraph",
    "FcElement",
    "LetterClassification",
    "Block",
    "RightJustified",
    "ClassSizeError",
    "GrowthCapError",
    "commutation_class",
    "normal_form",
    "is_fc_reduced",
    "enumerate_fc",
    "classify_letters",
    "right_justify",
    "bruhat_leq",
    "bruhat_leq_word",
    "is_subword",
    "word_str",
]

Word = Tuple[int, ...]


def word_str(w: Sequence[int]) -> str:
    """The serialized word of reports: letters joined by commas, "e" if empty."""
    return ",".join(map(str, w)) if w else "e"


FIRST_BOND = {"A": 3, "B": 4, "H": 5}

CLASS_CAP = 1_000_000
STRATUM_CAP = 1_000_000


class ClassSizeError(RuntimeError):
    """A commutation class walk outgrew ``CLASS_CAP`` members."""


class GrowthCapError(RuntimeError):
    """An enumeration's length stratum outgrew ``STRATUM_CAP``."""


@dataclass(frozen=True)
class CoxeterGraph:
    family: str
    rank: int

    def __post_init__(self):
        if self.family not in FIRST_BOND:
            raise ValueError(f"unknown family {self.family!r}")
        if self.rank < 1:
            raise ValueError("rank must be positive")

    def bond(self, i: int, j: int) -> int:
        """Bond strength m(i, j); only values 1, 2, 3, 4, 5 occur."""
        if not (1 <= i <= self.rank and 1 <= j <= self.rank):
            raise ValueError(f"generator out of range for rank {self.rank}")
        if i == j:
            return 1
        if abs(i - j) > 1:
            return 2
        return FIRST_BOND[self.family] if min(i, j) == 1 else 3

    @cached_property
    def bonds(self) -> Tuple[Tuple[int, ...], ...]:
        """The bond matrix, ``bonds[i][j] == bond(i, j)`` for generators i, j.

        Row and column 0 are padding so generators index directly; hot loops
        read this table instead of calling ``bond``.
        """
        gens = range(1, self.rank + 1)
        return ((0,) * (self.rank + 1),) + tuple(
            (0,) + tuple(self.bond(i, j) for j in gens) for i in gens)

    @cached_property
    def links(self) -> Tuple[Tuple[int, ...], ...]:
        """``links[s]``: the generators that do not commute with s, s included."""
        gens = range(1, self.rank + 1)
        return ((),) + tuple(tuple(t for t in gens if self.bonds[s][t] != 2)
                             for s in gens)

    @cached_property
    def braids(self) -> Tuple[Tuple[Optional[Word], ...], ...]:
        """``braids[s][t]``: the alternating word s t s ... of length m(s, t)
        when m(s, t) >= 3, else None; padded like ``bonds``."""
        return tuple(tuple(tuple(t if k % 2 else s for k in range(m)) if m >= 3 else None
                           for t, m in enumerate(row))
                     for s, row in enumerate(self.bonds))

    @property
    def generators(self) -> range:
        return range(1, self.rank + 1)

    def check_word(self, word: Sequence[int]) -> Word:
        w = tuple(word)
        for s in w:
            if not (1 <= s <= self.rank):
                raise ValueError(f"letter {s} out of range 1..{self.rank}")
        return w


# ---------------------------------------------------------------------------
# heaps
#
# Positions are bits: ``below[j]`` is the mask of the positions that precede
# j in the heap, ``above[i]`` of those that follow i.  The order is generated
# by each position's last earlier occurrence of every letter it does not
# commute with, so building a heap touches at most three earlier positions
# per letter on these line graphs.


class _Heap:
    """The heap of a word: its letter occurrences, partially ordered."""

    __slots__ = ("graph", "word", "below", "above")

    def __init__(self, graph: CoxeterGraph, word: Word):
        links = graph.links
        n = len(word)
        below = [0] * n
        last = [-1] * (graph.rank + 1)
        for j, s in enumerate(word):
            m = 0
            for t in links[s]:
                i = last[t]
                if i >= 0:
                    m |= below[i] | 1 << i
            below[j] = m
            last[s] = j
        above = [0] * n
        nxt = [-1] * (graph.rank + 1)
        for i in range(n - 1, -1, -1):
            s = word[i]
            m = 0
            for t in links[s]:
                k = nxt[t]
                if k >= 0:
                    m |= above[k] | 1 << k
            above[i] = m
            nxt[s] = i
        self.graph = graph
        self.word = word
        self.below = below
        self.above = above

    def _queues(self) -> Dict[int, List[int]]:
        """Each letter's positions, latest first, so ``pop()`` gives the earliest."""
        queues: Dict[int, List[int]] = {}
        for j in range(len(self.word) - 1, -1, -1):
            queues.setdefault(self.word[j], []).append(j)
        return queues

    def fc_reduced(self) -> bool:
        """Stembridge's criterion: no covering pair with equal labels, and no
        convex chain of m(s, t) pieces alternating between s and t.

        All occurrences of s and t are comparable, so such a chain is a run
        of m consecutive s/t occurrences; it is convex when exactly its m - 2
        inner pieces lie between its ends.
        """
        word, below, above = self.word, self.below, self.above
        rank, bonds = self.graph.rank, self.graph.bonds
        last = [-1] * (rank + 1)
        # runs[lo]: the alternating run of lo/lo+1 occurrences ending at the latest one
        runs: List[List[int]] = [[] for _ in range(rank + 1)]
        for j, s in enumerate(word):
            i = last[s]
            if i >= 0 and not above[i] & below[j]:
                return False
            last[s] = j
            for lo in (s - 1, s):
                if lo < 1 or lo >= rank:
                    continue
                run = runs[lo]
                if run and word[run[-1]] == s:
                    run.clear()
                run.append(j)
                m = bonds[lo][lo + 1]
                if len(run) >= m and (above[run[-m]] & below[j]).bit_count() == m - 2:
                    return False
        return True

    def extensions(self, descending: bool = False) -> Iterator[Tuple[int, ...]]:
        """The linear extensions as position orders of ``word``, lazily and in
        (reverse, if descending) lexicographic order of their letter words;
        ``ClassSizeError`` past ``CLASS_CAP`` of them.

        Depth first over the minimal unplaced pieces, smallest (largest) letter
        first: minimal pieces have distinct labels, and only the first unplaced
        occurrence of a letter can be minimal.
        """
        below, word = self.below, self.word
        pending = self._queues()
        letters = sorted(pending, reverse=descending)
        k = len(letters)
        rest = (1 << len(word)) - 1
        order: List[int] = []
        tried: List[int] = []  # tried[d]: index into letters of the piece at depth d
        i = count = 0
        while True:
            if not rest:
                count += 1
                if count > CLASS_CAP:
                    raise ClassSizeError(
                        f"commutation class of {word} exceeded cap {CLASS_CAP}")
                yield tuple(order)
            else:
                while i < k:
                    q = pending[letters[i]]
                    if q and not below[q[-1]] & rest:
                        break
                    i += 1
                if i < k:
                    j = pending[letters[i]].pop()
                    order.append(j)
                    tried.append(i)
                    rest ^= 1 << j
                    i = 0
                    continue
            if not order:
                return
            j = order.pop()
            rest ^= 1 << j
            pending[word[j]].append(j)
            i = tried.pop() + 1

    def lex_least_order(self) -> Tuple[int, ...]:
        """Positions in the order of the lexicographically least linear extension."""
        return next(self.extensions())

    def normal_form(self) -> Word:
        return tuple(self.word[j] for j in self.lex_least_order())

    def minimal_labels(self) -> FrozenSet[int]:
        return frozenset(s for s, b in zip(self.word, self.below) if not b)

    def maximal_labels(self) -> FrozenSet[int]:
        return frozenset(s for s, a in zip(self.word, self.above) if not a)

    def embeds_in(self, word: Word) -> bool:
        """True when some linear extension is a subword of ``word``.

        One pass: each letter of ``word`` takes the unmatched minimal piece
        with its label, if there is one (at most one exists, and taking it
        as early as possible never hurts).
        """
        below = self.below
        pending = self._queues()
        full = (1 << len(below)) - 1
        matched = 0
        for c in word:
            if matched == full:
                break
            q = pending.get(c)
            if q and not below[q[-1]] & ~matched:
                matched |= 1 << q.pop()
        return matched == full


# ---------------------------------------------------------------------------
# commutation classes
#
# The ordered class searches walk ``_Heap.extensions``; building a class by
# adjacent swaps serves ``commutation_class`` and the ``bfs-first`` strategy.


def _letters(word: Word, order: Sequence[int]) -> Word:
    return tuple(map(word.__getitem__, order))


def _class_words(graph: CoxeterGraph, word: Word) -> Iterator[Word]:
    """The class members in depth-first discovery order from ``word``, by
    swapping adjacent commuting letters, each yielded as it is found;
    ``ClassSizeError`` past ``CLASS_CAP`` of them."""
    bonds = graph.bonds
    seen = {word}
    yield word
    stack = [word]
    while stack:
        letters = stack.pop()
        for i in range(len(word) - 1):
            a, b = letters[i], letters[i + 1]
            if bonds[a][b] == 2:
                nxt = letters[:i] + (b, a) + letters[i + 2:]
                if nxt not in seen:
                    if len(seen) >= CLASS_CAP:
                        raise ClassSizeError(
                            f"commutation class of {word} exceeded cap {CLASS_CAP}"
                        )
                    seen.add(nxt)
                    stack.append(nxt)
                    yield nxt


def _first_factor(graph: CoxeterGraph, letters: Word,
                  starts: Sequence[int]) -> Optional[Tuple[int, int]]:
    """First reducible factor (start, length), an ss pair or a half-braid,
    trying the start positions in the given order."""
    braids = graph.braids
    for i in starts:
        s, t = letters[i], letters[i + 1]
        if s == t:
            return (i, 2)
        braid = braids[s][t]
        if braid and letters[i:i + len(braid)] == braid:
            return (i, len(braid))
    return None


def commutation_class(graph: CoxeterGraph, word: Sequence[int]) -> FrozenSet[Word]:
    """All words reachable by swapping adjacent commuting letters."""
    return frozenset(_class_words(graph, graph.check_word(word)))


def normal_form(graph: CoxeterGraph, word: Sequence[int]) -> Word:
    """The lexicographically least member of the commutation class."""
    return _Heap(graph, graph.check_word(word)).normal_form()


def is_fc_reduced(graph: CoxeterGraph, word: Sequence[int]) -> bool:
    """True when the word is a reduced expression of a fully commutative element.

    Equivalently no member of the commutation class contains an equal
    adjacent pair or a half-braid factor of length m(s, t); this is decided
    on the word's heap by Stembridge's criterion, without building the class.
    """
    return _Heap(graph, graph.check_word(word)).fc_reduced()


# ---------------------------------------------------------------------------
# fully commutative elements


class FcElement:
    """A fully commutative element, keyed by its normal-form reduced word."""

    __slots__ = ("family", "rank", "word", "length", "content",
                 "left_descents", "right_descents", "_hash")

    def __init__(self, graph: CoxeterGraph, word: Sequence[int], _trusted: bool = False):
        w = graph.check_word(word)
        heap = _Heap(graph, w)
        if not _trusted:
            if not heap.fc_reduced():
                raise ValueError(f"{w} is not an FC-reduced word")
            w = heap.normal_form()
        object.__setattr__(self, "family", graph.family)
        object.__setattr__(self, "rank", graph.rank)
        object.__setattr__(self, "word", w)
        object.__setattr__(self, "length", len(w))
        object.__setattr__(self, "content", frozenset(w))
        # the first (last) letters of the reduced words label the minimal
        # (maximal) pieces of the heap of any one of them
        object.__setattr__(self, "left_descents", heap.minimal_labels())
        object.__setattr__(self, "right_descents", heap.maximal_labels())
        object.__setattr__(self, "_hash", hash((self.family, self.rank, w)))

    def __setattr__(self, name, value):
        raise AttributeError("FcElement is immutable")

    def __eq__(self, other):
        if not isinstance(other, FcElement):
            return NotImplemented
        return (self.family, self.rank, self.word) == (other.family, other.rank, other.word)

    def __hash__(self):
        return self._hash

    def sort_key(self):
        return (self.length, self.word)

    def __repr__(self):
        return f"FcElement({self.family}{self.rank}, {','.join(map(str, self.word)) or 'e'})"

    def graph(self) -> CoxeterGraph:
        return CoxeterGraph(self.family, self.rank)


def enumerate_fc(graph: CoxeterGraph) -> Tuple[FcElement, ...]:
    """All fully commutative elements, sorted by (length, word).

    Works length by length: every FC element of length k+1 arises from one of
    length k by appending a generator, because prefixes of reduced products
    of FC elements are FC.  The FC sets of families A, B and H are finite,
    so the walk ends, but not soon at a large rank: a word of distinct letters
    is FC, so the length-k stratum of A_r has at least C(r, k) elements.
    ``GrowthCapError`` is raised when a stratum exceeds ``STRATUM_CAP``.

    Candidates are tested and normalized on their heaps, so no commutation
    class is built and ``CLASS_CAP`` does not apply.
    """
    current: Dict[Word, None] = {(): None}
    out: List[Word] = [()]
    while current:
        nxt: Dict[Word, None] = {}
        for w in current:
            for s in graph.generators:
                heap = _Heap(graph, w + (s,))
                if not heap.fc_reduced():
                    continue
                nxt[heap.normal_form()] = None
        if len(nxt) > STRATUM_CAP:
            raise GrowthCapError(
                f"length stratum exceeded {STRATUM_CAP} elements; aborting")
        out.extend(nxt)
        current = nxt
    elements = [FcElement(graph, w, _trusted=True) for w in out]
    elements.sort(key=FcElement.sort_key)
    return tuple(elements)


# ---------------------------------------------------------------------------
# letter taxonomy


@dataclass(frozen=True)
class LetterClassification:
    """Per-position roles of a reduced word for an FC element.

    ``category[i]`` is one of ``internal``, ``bilateral``, ``lateral`` or
    ``plain`` (bilateral letters are lateral, and lateral letters are
    external).  ``bad[i]`` marks the two six-letter patterns around an
    occurrence of generator 2, and ``critical[i]`` is one of
    ``none/i/ii/iii/iv`` with ``iv`` meaning internal.
    """

    word: Word
    category: Tuple[str, ...]
    bad: Tuple[bool, ...]
    critical: Tuple[str, ...]

    def is_internal(self, i: int) -> bool:
        return self.category[i] == "internal"

    def is_lateral(self, i: int) -> bool:
        return self.category[i] in ("lateral", "bilateral")

    def is_bilateral(self, i: int) -> bool:
        return self.category[i] == "bilateral"

    def is_external(self, i: int) -> bool:
        return not self.is_internal(i)


_BAD_PATTERNS = (((3, 1, 2, 1, 2, 3), 4), ((3, 2, 1, 2, 1, 3), 1))


def _critical_patterns(rank: int) -> List[Tuple[str, Word, int, int, int]]:
    """The three loop-creating deletion patterns as (label, pattern, step, a, h).

    The patterns are anchored at the strong end of the graph: an ascending
    run of odd generators, a run of even generators whose last letter is the
    tracked one, and a closing run of odd generators.  Type (i) tracks the
    letter at offset ``a`` of the pattern (``step`` 0).  Types (ii)/(iii)
    track a letter ``a`` followed (preceded) by ``h`` after (before) the
    pattern, possibly separated from it by letters commuting with ``h``;
    ``step`` is the direction of that search.
    """
    def odds(top):
        return tuple(range(1, top + 1, 2))

    def evens(top):
        return tuple(range(2, top + 1, 2))

    out = [("i", odds(2 * k - 1) + evens(2 * k) + odds(2 * k - 1), 0, 2 * k - 1, 0)
           for k in range(2, rank // 2 + 1)]
    for k in range(1, (rank - 1) // 2 + 1):
        g, h = 2 * k, 2 * k + 1
        out.append(("ii", odds(h) + evens(g) + odds(2 * k - 1), 1, g, h))
        out.append(("iii", odds(2 * k - 1) + evens(g) + odds(h), -1, g, h))
    return out


def _fc_extensions(graph: CoxeterGraph, word: Word) -> List[Tuple[int, ...]]:
    """The class of an FC-reduced word, as position orders in lexicographic order."""
    heap = _Heap(graph, word)
    if not heap.fc_reduced():
        raise ValueError(f"{word} is not an FC-reduced word")
    return list(heap.extensions())


def classify_letters(graph: CoxeterGraph, word: Sequence[int]) -> LetterClassification:
    w = graph.check_word(word)
    return _taxonomy(graph, w, _fc_extensions(graph, w))[0]


def _taxonomy(graph: CoxeterGraph, w: Word, orders: List[Tuple[int, ...]]
              ) -> Tuple[LetterClassification, FrozenSet[int]]:
    """The taxonomy and the r-set of ``w``, read in one pass over its class
    members, given as position orders of ``w``.

    Each member contributes its flanks, the factors q p q with m(p, q) >= 3,
    as (left, middle, right) positions, and its bad and critical pattern hits
    (a position keeps the first critical label found).  Internal letters are
    the middles; an external side is lateral, and bilateral when it flanks
    two middles; the r-set holds the middles whose right side is bilateral.
    """
    bonds, n = graph.bonds, len(w)
    critical_patterns = _critical_patterns(graph.rank)
    flanks = set()
    bad = set()
    crit: Dict[int, str] = {}
    for order in orders:
        letters = _letters(w, order)
        for i in range(1, n - 1):
            q = letters[i - 1]
            if q == letters[i + 1] and bonds[q][letters[i]] >= 3:
                flanks.add(order[i - 1:i + 2])
        for pattern, tracked in _BAD_PATTERNS:
            for i in range(n - 5):
                if letters[i:i + 6] == pattern:
                    bad.add(order[i + tracked])
        for label, pattern, step, a, h in critical_patterns:
            size = len(pattern)
            for i in range(n - size + 1):
                if letters[i:i + size] != pattern:
                    continue
                if not step:
                    crit.setdefault(order[i + a], label)
                    continue
                j = i + size if step > 0 else i - 1
                while 0 < j < n - 1:
                    if letters[j] == a and letters[j + step] == h:
                        crit.setdefault(order[j], label)
                        break
                    if bonds[letters[j]][h] != 2:
                        break
                    j += step

    internal = {mid for _, mid, _ in flanks}
    witnesses: Dict[int, set] = {}
    for left, mid, right in flanks:
        for side in (left, right):
            if side not in internal:
                witnesses.setdefault(side, set()).add(mid)
    category = tuple(
        "internal" if i in internal
        else "plain" if i not in witnesses
        else "bilateral" if len(witnesses[i]) >= 2 else "lateral"
        for i in range(n))
    cls = LetterClassification(
        w, category, tuple(i in bad for i in range(n)),
        tuple("iv" if i in internal else crit.get(i, "none") for i in range(n)))
    for i in range(n):
        if cls.is_bilateral(i) and w[i] != 1:
            raise AssertionError(f"bilateral letter at {i} is not generator 1 in {w}")
        if cls.bad[i] and not (w[i] == 2 and cls.is_lateral(i)):
            raise AssertionError(f"bad letter at {i} is not a lateral 2 in {w}")
    rset = frozenset(mid for _, mid, right in flanks if category[right] == "bilateral")
    return cls, rset


# ---------------------------------------------------------------------------
# right-justified expressions and their block decomposition


@dataclass(frozen=True)
class Block:
    start: int
    stop: int            # exclusive
    shape: int           # 1..6
    distinguished: bool


@dataclass(frozen=True)
class RightJustified:
    word: Word
    blocks: Tuple[Block, ...]
    classification: LetterClassification  # roles indexed by the output word


# block shapes as ((letter, is_internal), ...); barred letters are internal
_SHAPES = {
    ((1, False), (2, True)): 1,
    ((1, False), (2, True), (1, False)): 2,
    ((2, False), (1, True), (2, False)): 3,
    ((1, False), (2, True), (1, True), (2, False)): 4,
    ((2, False), (1, True), (2, True)): 5,
    ((2, False), (1, True), (2, True), (1, False)): 6,
}


def right_justify(graph: CoxeterGraph, word: Sequence[int]) -> RightJustified:
    """A right-justified reduced expression with its block decomposition.

    Scans the commutation class in lexicographic order and returns the first
    member in which (a) every internal letter has the required lateral or
    internal neighbours (one-sided for letters whose flanking pattern ends
    in a bilateral letter, two-sided otherwise), (b) the maximal runs of
    internal and lateral letters parse into the six admissible block shapes
    and (c) every bilateral letter starts its block.
    """
    w = graph.check_word(word)
    # in letter-word order, which the first-match scan below relies on
    perms = _fc_extensions(graph, w)
    cls, rset = _taxonomy(graph, w, perms)
    n = len(w)
    for perm in perms:
        lr = tuple(cls.category[pid] for pid in perm)
        # an internal letter needs a non-plain left neighbour, and a non-plain
        # right one too unless it is in the r-set
        if any(role == "internal" and (
                idx == 0 or lr[idx - 1] == "plain"
                or perm[idx] not in rset and (idx + 1 == n or lr[idx + 1] == "plain"))
               for idx, role in enumerate(lr)):
            continue
        letters = _letters(w, perm)
        blocks = _parse_blocks(letters, lr)
        if blocks is not None:
            out_cls = LetterClassification(
                letters, lr, tuple(cls.bad[pid] for pid in perm),
                tuple(cls.critical[pid] for pid in perm))
            return RightJustified(letters, blocks, out_cls)
    raise AssertionError(f"no right-justified expression found for {w}")


def _parse_blocks(letters, lr) -> Optional[Tuple[Block, ...]]:
    blocks: List[Block] = []
    i = 0
    n = len(letters)
    while i < n:
        if lr[i] == "plain":
            i += 1
            continue
        j = i
        while j < n and lr[j] != "plain":
            j += 1
        key = tuple((letters[k], lr[k] == "internal") for k in range(i, j))
        shape = _SHAPES.get(key)
        if shape is None:
            return None
        # every bilateral letter must begin its block
        for k in range(i, j):
            if lr[k] == "bilateral" and k != i:
                return None
        blocks.append(Block(i, j, shape, lr[i] == "bilateral"))
        i = j
    return tuple(blocks)


# ---------------------------------------------------------------------------
# Bruhat order via the subword property


def is_subword(sub: Word, word: Word) -> bool:
    i = 0
    for c in word:
        if i < len(sub) and sub[i] == c:
            i += 1
    return i == len(sub)


def bruhat_leq_word(graph: CoxeterGraph, x: FcElement, word: Sequence[int]) -> bool:
    """x <= (element of the given reduced word), by the subword criterion.

    For a fully commutative x the reduced words of x are exactly its
    commutation class, the linear extensions of its heap, so it suffices to
    embed the heap in the word.
    """
    w = tuple(word)
    if x.length > len(w):
        return False
    return _Heap(graph, x.word).embeds_in(w)


def bruhat_leq(graph: CoxeterGraph, x: FcElement, y: FcElement) -> bool:
    return bruhat_leq_word(graph, x, y.word)
