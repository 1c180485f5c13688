"""Word combinatorics of linear Coxeter graphs of types A, B and H.

The graphs are lines on generators 1..n whose first bond carries strength
3, 4 or 5 according to the family; all other neighbouring bonds have
strength 3 and non-neighbours commute.  Elements are handled through words:
an element is fully commutative (FC) when the commutation class of one of
its reduced words is the set of all of them.

A word's commutation class is the set of linear extensions of its heap, the
partial order on letter occurrences generated by "i comes before j and the
letters do not commute" (Viennot).  So FC detection, the normal form (the
lexicographically least class member), descents, the letter taxonomy and
the Bruhat subword test are read off the heap without building the class:
by Stembridge's criterion a word is FC-reduced iff its heap has no witness:
no covering pair with equal labels and no convex chain of length m(s, t)
whose labels alternate between s and t.  Likewise a sequence of pieces is a
factor of some class member iff it is convex in the heap and ordered
compatibly, so a witness is a reducible factor of the class member that
places the pieces below it first, and the taxonomy (internal / lateral /
bilateral / bad / critical letters) reads its flanks (factors q p q with
m(p, q) >= 3) and pattern hits as such runs.

The ordered class searches read the heap's linear extensions, produced
lazily in lexicographic (or reverse lexicographic) order as position orders
of one word: two occurrences of the same generator can never cross, so a
position names the same occurrence in every member of the class.  The
lexicographic rewriting strategies stop at the first member with a
reducible factor.  Right-justification cuts each branch at the first piece
that breaks a block rule, so the first member its walk yields is the answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import groupby
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

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
        if type(self.rank) is not int:  # a bool or a float is not a rank either
            raise ValueError(f"rank {self.rank!r} is not an integer")
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
            if type(s) is not int:  # a bool is not a letter either
                raise ValueError(f"letter {s!r} is not an integer")
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


def _under(linked: Sequence[int], last: List[int], below: List[int]) -> int:
    """The below mask of a piece put on top of a heap: the latest pieces of
    the ``linked`` letters (``last[t]``, -1 for none) and all below them.
    Upside down, with the earliest pieces and the above masks, it is the
    above mask of a piece put under the heap."""
    m = 0
    for t in linked:
        i = last[t]
        if i >= 0:
            m |= below[i] | 1 << i
    return m


class _Heap:
    """The heap of a word: its letter occurrences, partially ordered."""

    __slots__ = ("graph", "word", "below", "above")

    def __init__(self, graph: CoxeterGraph, word: Word):
        links = graph.links
        n = len(word)
        below = [0] * n
        last = [-1] * (graph.rank + 1)
        for j, s in enumerate(word):
            below[j] = _under(links[s], last, below)
            last[s] = j
        above = [0] * n
        nxt = [-1] * (graph.rank + 1)
        for i in range(n - 1, -1, -1):
            above[i] = _under(links[word[i]], nxt, above)
            nxt[word[i]] = i
        self.graph = graph
        self.word = word
        self.below = below
        self.above = above

    @classmethod
    def _of_masks(cls, graph: CoxeterGraph, word: Word, below: List[int],
                  above: List[int]) -> _Heap:
        """The heap of ``word`` whose masks were computed elsewhere."""
        heap = cls.__new__(cls)
        heap.graph, heap.word, heap.below, heap.above = graph, word, below, above
        return heap

    def _queues(self) -> Dict[int, List[int]]:
        """Each letter's positions, latest first, so ``pop()`` gives the earliest."""
        queues: Dict[int, List[int]] = {}
        for j in range(len(self.word) - 1, -1, -1):
            queues.setdefault(self.word[j], []).append(j)
        return queues

    def witness(self) -> Optional[Tuple[int, ...]]:
        """The positions, in word order, of the first Stembridge witness: a
        covering pair with equal labels, or a convex chain of m(s, t) pieces
        alternating between s and t.  None when the word is FC-reduced.

        Each piece is tested as the top of a witness, on the pieces before it.
        """
        last = [-1] * (self.graph.rank + 1)
        prev: List[int] = []
        for j, s in enumerate(self.word):
            hit = self._top_witness(j, s, self.below[j], last, prev)
            if hit:
                return hit
            prev.append(last[s])
            last[s] = j
        return None

    def _top_witness(self, j: int, s: int, under: int, last: List[int],
                     prev: List[int]) -> Optional[Tuple[int, ...]]:
        """The Stembridge witness whose top is a piece j labelled s, with
        ``under`` the mask of the pieces below it, as positions in word order;
        None if there is none.

        Only the pieces before j are read: their letters and ``above`` masks,
        ``last[t]``, the latest position of each letter t, and ``prev[p]``,
        the previous occurrence of p's letter.  So j may also be a piece put
        on top of the whole heap.  Both kinds of witness hold the latest s,
        i, and no piece between i and j but the chain's: none for the
        covering pair, one p for a chain, whose letter t is then a neighbour
        of s.  All occurrences of s and t are comparable, so the chain goes
        on down the previous occurrences of t and s while they alternate,
        and it is convex when exactly its m(s, t) - 2 inner pieces lie
        between its ends.
        """
        above = self.above
        i = last[s]
        if i < 0:
            return None
        inner = above[i] & under
        if not inner:
            return (i, j)
        if inner & (inner - 1):
            return None
        p = inner.bit_length() - 1
        m = self.graph.bonds[s][self.word[p]]
        chain, a, b = [j, p, i], prev[p], prev[i]
        while len(chain) < m and 0 <= a < chain[-1]:
            chain.append(a)
            a, b = b, prev[a]
        if len(chain) == m and (above[chain[-1]] & under).bit_count() == m - 2:
            return tuple(reversed(chain))
        return None

    def fc_reduced(self) -> bool:
        return self.witness() is None

    def witness_order(self, witness: Tuple[int, ...]) -> Tuple[Tuple[int, ...], int]:
        """A linear extension in which ``witness`` is a factor, and the
        factor's start.

        The pieces below the witness come first, then the witness, then the
        rest, each in word order.  The witness is a chain and convex, so no
        piece below it lies above its lowest piece: the order is a linear
        extension, and its factor reads s s or the braid word of s and t.
        """
        chain = sum(1 << j for j in witness)
        down = self.below[witness[-1]] & ~chain
        positions = range(len(self.word))
        order = (*(j for j in positions if down >> j & 1), *witness,
                 *(j for j in positions if not (down | chain) >> j & 1))
        return order, down.bit_count()

    def extensions(self, descending: bool = False, admit: Optional[Callable] = None
                   ) -> Iterator[Tuple[int, ...]]:
        """The linear extensions as position orders of ``word``, lazily and in
        (reverse, if descending) lexicographic order of their letter words;
        ``ClassSizeError`` past ``CLASS_CAP`` of them.

        Depth first over the minimal unplaced pieces, smallest (largest) letter
        first: minimal pieces have distinct labels, and only the first unplaced
        occurrence of a letter can be minimal.  A piece j that ``admit(order, j)``
        rejects after the placed pieces cuts its branch, which holds at least
        one extension and counts as one against the cap, as each yield does.
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
            if not rest:
                yield tuple(order)
            else:
                while i < k:
                    q = pending[letters[i]]
                    if q and not below[q[-1]] & rest:
                        if admit is None or admit(order, q[-1]):
                            break
                        count += 1
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
# Every class walk reads ``_Heap.extensions``: the whole class for
# ``commutation_class``, and the ordered searches up to their first hit.


def _letters(word: Word, order: Sequence[int]) -> Word:
    return tuple(map(word.__getitem__, order))


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
    w = graph.check_word(word)
    return frozenset(_letters(w, o) for o in _Heap(graph, w).extensions())


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

    def __init__(self, graph: CoxeterGraph, word: Sequence[int]):
        heap = _fc_heap(graph, word)
        self._fill(heap, heap.normal_form())

    @classmethod
    def _of_normal_heap(cls, heap: _Heap) -> FcElement:
        """The element whose normal word is ``heap.word``, taken as given."""
        element = cls.__new__(cls)
        element._fill(heap, heap.word)
        return element

    def _fill(self, heap: _Heap, w: Word):
        object.__setattr__(self, "family", heap.graph.family)
        object.__setattr__(self, "rank", heap.graph.rank)
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


def _own_word(graph: CoxeterGraph, x: FcElement) -> Word:
    """The normal word of x, which must be an element of ``graph``."""
    if (x.family, x.rank) != (graph.family, graph.rank):
        raise ValueError(f"graph mismatch: {x!r} in {graph}")
    return x.word


def enumerate_fc(graph: CoxeterGraph) -> Tuple[FcElement, ...]:
    """All fully commutative elements, sorted by (length, word).

    Works length by length: every FC element of length k+1 arises from one of
    length k by appending a generator, because prefixes of reduced products
    of FC elements are FC.  The FC sets of families A, B and H are finite,
    so the walk ends, but not soon at a large rank: a word of distinct letters
    is FC, so the length-k stratum of A_r has at least C(r, k) elements.
    ``GrowthCapError`` is raised when a stratum exceeds ``STRATUM_CAP``.

    Each element of a stratum carries the heap of its normal word w, the
    latest position of each letter and each piece's previous occurrence of
    its letter.  A candidate w·s grows that heap by one piece on top, below
    the latest s and neighbours of s and all that lies below them, so its
    ``under`` mask is their union; no heap is built from a candidate word.

    - FC-reducedness: a witness of w·s that missed the new piece would be
      one of w, which is FC-reduced; the new piece is maximal, so it is the
      witness's top, and one ``_Heap._top_witness`` test decides w·s.
    - Normal word: the lex-least linear extension is read greedily, each
      step taking the least letter among the minimal unplaced pieces.  Until
      w's pieces below the new one are placed, that reading follows w's
      normal word; from then on the new piece is minimal and is taken at
      the first step whose letter in w exceeds s (w has no s there, as
      every s lies below the new piece), and as it lies below nothing, the
      rest follows w again.  So the normal word is w's with s inserted at the
      first index r >= ``under.bit_length()`` whose letter exceeds s.
    - The child's masks are the parent's with positions r and up moved up
      by one, and the new piece at r.

    No commutation class is built, so ``CLASS_CAP`` does not apply.
    """
    empty = _Heap._of_masks(graph, (), [], [])
    elements = [FcElement._of_normal_heap(empty)]
    stratum: Dict[Word, Tuple[_Heap, List[int], List[int]]] = {
        (): (empty, [-1] * (graph.rank + 1), [])}
    links = graph.links
    while stratum:
        nxt: Dict[Word, Tuple[_Heap, List[int], List[int]]] = {}
        for w, (heap, last, prev) in stratum.items():
            below, above, n = heap.below, heap.above, len(w)
            for s in graph.generators:
                under = _under(links[s], last, below)
                if heap._top_witness(n, s, under, last, prev):
                    continue
                r = under.bit_length()
                while r < n and w[r] < s:
                    r += 1
                child = w[:r] + (s,) + w[r:]
                if child in nxt:
                    continue
                # positions from r on move up by one: x + (x >> r << r)
                grown = _Heap._of_masks(
                    graph, child,
                    below[:r] + [under] + [b + (b >> r << r) for b in below[r:]],
                    [a + (a >> r << r) | (under >> p & 1) << r for p, a in enumerate(above[:r])]
                    + [0] + [a << 1 for a in above[r:]])
                child_last = [q + (q >= r) for q in last]
                child_last[s] = r
                nxt[child] = (grown, child_last,
                              prev[:r] + [last[s]] + [q + (q >= r) for q in prev[r:]])
                elements.append(FcElement._of_normal_heap(grown))
        if len(nxt) > STRATUM_CAP:
            raise GrowthCapError(
                f"length stratum exceeded {STRATUM_CAP} elements; aborting")
        stratum = nxt
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


_BAD_PATTERNS = (((3, 1, 2, 1, 2, 3), 4), ((3, 2, 1, 2, 1, 3), 1))


@lru_cache(maxsize=None)
def _critical_patterns(graph: CoxeterGraph
                       ) -> Tuple[Tuple[str, Word, FrozenSet[int], Word, int], ...]:
    """The three loop-creating deletion patterns as ``_runs`` searches:
    (label, labels, star, then, offset of the tracked letter in a hit).

    The patterns are anchored at the strong end of the graph: an ascending
    run of odd generators, a run of even generators and a closing run of odd
    generators.  Type (i) tracks the last even letter.  Type (ii) tracks a
    letter g = 2k followed by h = g + 1 after the pattern, possibly
    separated from it by letters commuting with h; type (iii) is its mirror
    image, h g before the pattern, searched on the heap upside down.
    """
    out = []
    for k in range(1, graph.rank // 2 + 1):
        odds, evens = tuple(range(1, 2 * k, 2)), tuple(range(2, 2 * k + 1, 2))
        if k > 1:
            out.append(("i", odds + evens + odds, frozenset(), (), 2 * k - 1))
        if 2 * k < graph.rank:
            h = 2 * k + 1
            star = frozenset(s for s in graph.generators if graph.bonds[s][h] == 2)
            out.append(("ii", odds + (h,) + evens + odds, star, (h - 1, h), -2))
            out.append(("iii", (odds + evens + odds + (h,))[::-1], star, (h - 1, h), -2))
    return tuple(out)


def _runs(heap: _Heap, labels: Word, star: FrozenSet[int] = frozenset(),
          then: Word = (), upside_down: bool = False) -> List[Tuple[int, ...]]:
    """The position tuples of pieces labelled ``labels``, then any number
    labelled in ``star`` (not ``then[0]``), then ``then``, that are
    consecutive in this order in some linear extension of the heap, or of
    the heap upside down (the reversed word's, with positions kept).

    Depth first over each letter's positions: a piece may follow the chosen
    ones when it lies below none of them and no unchosen piece lies between.
    """
    word, pattern = heap.word, labels + then
    below, above = (heap.above, heap.below) if upside_down else (heap.below, heap.above)
    if len(word) < len(pattern) or any(word.count(s) < pattern.count(s) for s in set(pattern)):
        return []
    places = {s: [j for j, t in enumerate(word) if t == s] for s in set(pattern)}
    starred = [j for j, s in enumerate(word) if s in star]
    hits: List[Tuple[int, ...]] = []

    def grow(k, hit, mask, up):
        if k == len(pattern):
            hits.append(hit)
            return
        for x in places[pattern[k]] + starred if k == len(labels) else places[pattern[k]]:
            if not (mask >> x & 1 or above[x] & mask or up & below[x] & ~mask):
                grow(k + (word[x] == pattern[k]), hit + (x,), mask | 1 << x, up | above[x])

    grow(0, (), 0, 0)
    return hits


def _fc_heap(graph: CoxeterGraph, word: Sequence[int]) -> _Heap:
    heap = _Heap(graph, graph.check_word(word))
    if not heap.fc_reduced():
        raise ValueError(f"{heap.word} is not an FC-reduced word")
    return heap


def classify_letters(graph: CoxeterGraph, word: Sequence[int]) -> LetterClassification:
    return _taxonomy(_fc_heap(graph, word))


def _taxonomy(heap: _Heap) -> LetterClassification:
    """The taxonomy of the heap's word, read off the heap.

    The flanks q p q with m(p, q) >= 3, as (left, middle, right) positions,
    are the consecutive occurrences of q with one piece p between them; bad
    and critical letters are read off the runs of their patterns (a position
    keeps the first critical label found).  Internal letters are the middles;
    an external side is lateral, and bilateral when it flanks two middles.
    """
    graph, w, n = heap.graph, heap.word, len(heap.word)
    flanks, last = [], {}
    for j, q in enumerate(w):
        i, last[q] = last.get(q, j), j
        between = heap.above[i] & heap.below[j]
        p = between.bit_length() - 1
        if between.bit_count() == 1 and graph.bonds[q][w[p]] >= 3:
            flanks.append((i, p, j))
    bad = {hit[tracked] for pattern, tracked in _BAD_PATTERNS for hit in _runs(heap, pattern)}
    crit: Dict[int, str] = {}
    for label, labels, star, then, at in _critical_patterns(graph):
        for hit in _runs(heap, labels, star, then, upside_down=label == "iii"):
            crit.setdefault(hit[at], label)

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
    return cls


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


# block shapes as ((letter, is_internal), ...); barred letters are internal
_SHAPES = {
    ((1, False), (2, True)): 1,
    ((1, False), (2, True), (1, False)): 2,
    ((2, False), (1, True), (2, False)): 3,
    ((1, False), (2, True), (1, True), (2, False)): 4,
    ((2, False), (1, True), (2, True)): 5,
    ((2, False), (1, True), (2, True), (1, False)): 6,
}
_PREFIXES = frozenset(key[:i] for key in _SHAPES for i in range(1, len(key) + 1))


def right_justify(graph: CoxeterGraph, word: Sequence[int]) -> RightJustified:
    """A right-justified reduced expression with its block decomposition.

    Reads the taxonomy off the heap and calls a maximal run of non-plain
    letters a run; the answer is the lexicographically first class member in
    which every run is one of the six block shapes and every bilateral letter
    opens its run.  Each rule is decided on a prefix, so the class walk cuts
    a branch at its first violation, and its first member is the answer.

    The shapes imply that a run ending on an internal p has p's right flank
    j (of q p q) bilateral.  In an FC heap m(p, q) >= 4, so {p, q} = {1, 2},
    and j is non-plain and above p.  Shapes alternate labels, so were j not
    first in its run, the letter before it would be the last p below j, p,
    which closed an earlier run.  So j opens a run, as an external letter,
    and also flanks the internal letter after it.
    """
    heap = _fc_heap(graph, word)
    cls = _taxonomy(heap)
    w, n = heap.word, len(heap.word)
    tags = tuple(None if role == "plain" else (s, role == "internal")
                 for s, role in zip(w, cls.category))

    def admit(order: List[int], j: int) -> bool:
        """Whether piece j may follow ``order``: a plain j or the last piece
        closes the open run."""
        t = len(order)
        while t and tags[order[t - 1]]:
            t -= 1
        run = order[t:] + [j] if tags[j] else order[t:]
        key = tuple(tags[p] for p in run)
        if tags[j] and len(run) > 1 and cls.is_bilateral(j):
            return False
        if tags[j] and len(order) + 1 < n:
            return key in _PREFIXES
        return not run or key in _SHAPES

    order = next(heap.extensions(admit=admit), None)
    if order is None:
        raise AssertionError(f"no right-justified expression found for {w}")
    blocks, i = [], 0
    for plain, run in groupby((tags[p] for p in order), key=lambda tag: tag is None):
        key = tuple(run)
        if not plain:
            blocks.append(Block(i, i + len(key), _SHAPES[key], cls.is_bilateral(order[i])))
        i += len(key)
    return RightJustified(_letters(w, order), tuple(blocks))


# ---------------------------------------------------------------------------
# Bruhat order via the subword property


def bruhat_leq_word(graph: CoxeterGraph, x: FcElement, word: Sequence[int]) -> bool:
    """x <= (element of the given reduced word), by the subword criterion.

    For a fully commutative x the reduced words of x are exactly its
    commutation class, the linear extensions of its heap, so it suffices to
    embed the heap in the word.
    """
    return _bruhat_leq_word(graph, x, graph.check_word(word))


def _bruhat_leq_word(graph: CoxeterGraph, x: FcElement, w: Word) -> bool:
    """``bruhat_leq_word`` on a word whose letters are already checked."""
    xw = _own_word(graph, x)
    if len(xw) > len(w):
        return False
    return _Heap(graph, xw).embeds_in(w)


def bruhat_leq(graph: CoxeterGraph, x: FcElement, y: FcElement) -> bool:
    return _bruhat_leq_word(graph, x, _own_word(graph, y))
