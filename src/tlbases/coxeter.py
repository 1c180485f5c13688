"""Word combinatorics of linear Coxeter graphs of types A, B and H.

The graphs are lines on generators 1..n whose first bond carries strength
3, 4 or 5 according to the family; all other neighbouring bonds have
strength 3 and non-neighbours commute.  Elements are handled through words:
an element is fully commutative (FC) when the commutation class of one of
its reduced words is the set of all of them, and that class is detected by
the absence of "ss" factors and half-braid factors s t s .. of length
m(s, t) in every member of the class.

Letter occurrences are tracked through commutations by position identity:
two occurrences of the same generator can never cross, so "the same
occurrence" is well-defined in every member of a class.  On top of that
tracking sit the taxonomy (internal / lateral / bilateral / bad / critical),
right-justified expressions with their block decomposition, and the subword
test for the Bruhat order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

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
]

Word = Tuple[int, ...]

FIRST_BOND = {"A": 3, "B": 4, "H": 5}

DEFAULT_CLASS_CAP = 1_000_000
DEFAULT_STRATUM_CAP = 1_000_000


class ClassSizeError(RuntimeError):
    """A commutation class outgrew the configured cap."""


class GrowthCapError(RuntimeError):
    """Enumeration exceeded its growth cap (suspected infinitude)."""


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

    @property
    def generators(self) -> range:
        return range(1, self.rank + 1)

    def check_word(self, word: Sequence[int]) -> Word:
        w = tuple(word)
        for s in w:
            if not (1 <= s <= self.rank):
                raise ValueError(f"letter {s} out of range 1..{self.rank}")
        return w

    def key(self) -> Tuple[str, int]:
        return (self.family, self.rank)


# ---------------------------------------------------------------------------
# commutation classes
#
# Members are stored as permutations of the original positions; the letter
# word of a member is recovered by indexing.  Position tracking is exact:
# equal letters never swap, so each position id denotes one occurrence.

_scan_cache: Dict[Tuple[Tuple[str, int], Word], "_ClassScan"] = {}
_SCAN_CACHE_MAX = 60_000


@dataclass(frozen=True)
class _ClassScan:
    word: Word
    perms_bfs: Tuple[Tuple[int, ...], ...]     # insertion (BFS) order
    perms_sorted: Tuple[Tuple[int, ...], ...]  # sorted by letter word
    fc_reduced: bool


def _letters(word: Word, perm: Tuple[int, ...]) -> Word:
    return tuple(map(word.__getitem__, perm))


def _class_perms(graph: CoxeterGraph, word: Word,
                 cap: int) -> Tuple[List[Tuple[int, ...]], List[Word]]:
    """The class members in DFS discovery order, as permutations and words.

    Equal letters never swap, so a member's letter word determines its
    permutation and can stand in for it in the visited set.
    """
    bonds = graph.bonds
    start = tuple(range(len(word)))
    seen = {word}
    order = [start]
    members = [word]
    stack = [0]  # indices into order/members
    while stack:
        k = stack.pop()
        perm, letters = order[k], members[k]
        for i in range(len(word) - 1):
            a, b = letters[i], letters[i + 1]
            if bonds[a][b] == 2:
                nxt_letters = letters[:i] + (b, a) + letters[i + 2:]
                if nxt_letters not in seen:
                    if len(seen) >= cap:
                        raise ClassSizeError(
                            f"commutation class of {word} exceeded cap {cap}"
                        )
                    seen.add(nxt_letters)
                    nxt = perm[:i] + (perm[i + 1], perm[i]) + perm[i + 2:]
                    stack.append(len(order))
                    order.append(nxt)
                    members.append(nxt_letters)
    return order, members


def _first_factor(graph: CoxeterGraph, letters: Word,
                  starts: Sequence[int]) -> Optional[Tuple[int, int]]:
    """First reducible factor (start, length), an ss pair or a half-braid,
    trying the start positions in the given order."""
    n = len(letters)
    bonds = graph.bonds
    for i in starts:
        s, t = letters[i], letters[i + 1]
        if s == t:
            return (i, 2)
        m = bonds[s][t]
        if m >= 3 and i + m <= n:
            ok = all(letters[i + k] == (s if k % 2 == 0 else t) for k in range(m))
            if ok:
                return (i, m)
    return None


def _lex_least_perm(graph: CoxeterGraph, word: Word) -> Tuple[int, ...]:
    """Greedy construction of the lexicographically least class member."""
    bonds = graph.bonds
    remaining = list(range(len(word)))
    out: List[int] = []
    while remaining:
        best = None
        for idx, pid in enumerate(remaining):
            a = word[pid]
            row = bonds[a]
            if all(row[word[q]] == 2 for q in remaining[:idx]):
                if best is None or a < word[remaining[best]]:
                    best = idx
        out.append(remaining.pop(best))  # type: ignore[arg-type]
    return tuple(out)


def _scan(graph: CoxeterGraph, word: Word, cap: int = DEFAULT_CLASS_CAP) -> _ClassScan:
    canon = _letters(word, _lex_least_perm(graph, word))
    key = (graph.key(), canon)
    hit = _scan_cache.get(key)
    if hit is not None:
        # the cap bounds the class size itself, so it binds even on a hit
        if len(hit.perms_bfs) > cap:
            raise ClassSizeError(
                f"commutation class of {word} exceeded cap {cap}")
        return hit
    perms, members = _class_perms(graph, canon, cap)
    perms_sorted = tuple(perms[i] for i in sorted(range(len(perms)), key=members.__getitem__))
    starts = range(len(canon) - 1)
    fc = all(_first_factor(graph, m, starts) is None for m in members)
    scan = _ClassScan(canon, tuple(perms), perms_sorted, fc)
    if len(_scan_cache) >= _SCAN_CACHE_MAX:
        _scan_cache.clear()
    _scan_cache[key] = scan
    return scan


def commutation_class(graph: CoxeterGraph, word: Sequence[int], cap: int = DEFAULT_CLASS_CAP) -> FrozenSet[Word]:
    """All words reachable by swapping adjacent commuting letters."""
    w = graph.check_word(word)
    scan = _scan(graph, w, cap)
    return frozenset(_letters(scan.word, p) for p in scan.perms_bfs)


def normal_form(graph: CoxeterGraph, word: Sequence[int]) -> Word:
    """The lexicographically least member of the commutation class."""
    w = graph.check_word(word)
    return _letters(w, _lex_least_perm(graph, w))


def is_fc_reduced(graph: CoxeterGraph, word: Sequence[int], cap: int = DEFAULT_CLASS_CAP) -> bool:
    """True when the word is a reduced expression of a fully commutative element.

    Criterion: no member of the commutation class contains an equal adjacent
    pair or a half-braid factor of length m(s, t).
    """
    w = graph.check_word(word)
    return _scan(graph, w, cap).fc_reduced


# ---------------------------------------------------------------------------
# fully commutative elements


class FcElement:
    """A fully commutative element, keyed by its normal-form reduced word."""

    __slots__ = ("family", "rank", "word", "length", "content",
                 "left_descents", "right_descents", "_hash")

    def __init__(self, graph: CoxeterGraph, word: Sequence[int], _trusted: bool = False):
        w = graph.check_word(word)
        if not _trusted:
            if not is_fc_reduced(graph, w):
                raise ValueError(f"{w} is not an FC-reduced word")
            w = normal_form(graph, w)
        scan = _scan(graph, w)
        object.__setattr__(self, "family", graph.family)
        object.__setattr__(self, "rank", graph.rank)
        object.__setattr__(self, "word", w)
        object.__setattr__(self, "length", len(w))
        object.__setattr__(self, "content", frozenset(w))
        members = [_letters(w, p) for p in scan.perms_bfs]
        object.__setattr__(self, "left_descents",
                           frozenset(u[0] for u in members if u))
        object.__setattr__(self, "right_descents",
                           frozenset(u[-1] for u in members if u))
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


def enumerate_fc(graph: CoxeterGraph,
                 stratum_cap: int = DEFAULT_STRATUM_CAP,
                 class_cap: int = DEFAULT_CLASS_CAP) -> Tuple[FcElement, ...]:
    """All fully commutative elements, sorted by (length, word).

    Works length by length: every FC element of length k+1 arises from one of
    length k by appending a generator, because prefixes of reduced products
    of FC elements are FC.  The stratum cap converts a runaway enumeration
    (which cannot happen for these families, where the algebra is finite
    dimensional) into an error rather than a hang.
    """
    current = {(): None}
    out: List[Word] = [()]
    while current:
        nxt = {}
        for w in current:
            for s in graph.generators:
                scan = _scan(graph, w + (s,), class_cap)
                if scan.fc_reduced:
                    nxt[scan.word] = None  # the scan's word is the normal form
        if len(nxt) > stratum_cap:
            raise GrowthCapError(
                f"length stratum exceeded {stratum_cap} elements; aborting"
            )
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


def _internal_positions(graph, word, perms) -> FrozenSet[int]:
    found = set()
    for perm in perms:
        letters = _letters(word, perm)
        for idx in range(1, len(letters) - 1):
            p = letters[idx]
            q = letters[idx - 1]
            if q == letters[idx + 1] and q != p and graph.bond(p, q) >= 3:
                found.add(perm[idx])
    return frozenset(found)


def _lateral_witnesses(graph, word, perms, internal) -> Dict[int, set]:
    """For each external position, the set of internal positions it flanks."""
    wit: Dict[int, set] = {}
    for perm in perms:
        letters = _letters(word, perm)
        for idx in range(1, len(letters) - 1):
            mid = perm[idx]
            if mid not in internal:
                continue
            q = letters[idx]
            p = letters[idx - 1]
            if p == letters[idx + 1] and p != q and graph.bond(p, q) >= 3:
                for side in (perm[idx - 1], perm[idx + 1]):
                    if side not in internal:
                        wit.setdefault(side, set()).add(mid)
    return wit


_BAD_PATTERNS = (((3, 1, 2, 1, 2, 3), 4), ((3, 2, 1, 2, 1, 3), 1))


def _bad_positions(graph, word, perms) -> FrozenSet[int]:
    if graph.rank < 3:
        return frozenset()
    found = set()
    for perm in perms:
        letters = _letters(word, perm)
        for pattern, tracked in _BAD_PATTERNS:
            for i in range(len(letters) - 5):
                if letters[i:i + 6] == pattern:
                    found.add(perm[i + tracked])
    return frozenset(found)


def _critical_positions(graph, word, perms) -> Dict[int, str]:
    """Positions matching the three loop-creating deletion patterns.

    The patterns are anchored at the strong end of the graph: an ascending
    run of odd generators, a run of even generators whose last letter is the
    tracked one, and a closing run of odd generators, possibly separated
    from the tracked letter by a gap of letters commuting with the next odd
    generator (two mirror variants).
    """
    res: Dict[int, str] = {}
    rank = graph.rank
    n = len(word)
    odds = lambda top: tuple(range(1, top + 1, 2))
    evens = lambda top: tuple(range(2, top + 1, 2))
    for perm in perms:
        letters = _letters(word, perm)
        # type (i): odds(2k-1) evens(2k) odds(2k-1), tracked = last even, 2k > 2
        for k in range(2, rank // 2 + 1):
            pat = odds(2 * k - 1) + evens(2 * k) + odds(2 * k - 1)
            size = len(pat)
            for i in range(n - size + 1):
                if letters[i:i + size] == pat:
                    res.setdefault(perm[i + 2 * k - 1], "i")
        # types (ii)/(iii): head with odds up to 2k+1, separated tracked letter
        for k in range(1, (rank - 1) // 2 + 1):
            g, h = 2 * k, 2 * k + 1
            head = odds(h) + evens(g) + odds(2 * k - 1)
            size = len(head)
            for i in range(n - size + 1):
                if letters[i:i + size] != head:
                    continue
                j = i + size
                while j < n - 1:
                    if letters[j] == g and letters[j + 1] == h:
                        res.setdefault(perm[j], "ii")
                        break
                    if graph.bond(letters[j], h) != 2:
                        break
                    j += 1
            tail = odds(2 * k - 1) + evens(g) + odds(h)
            size = len(tail)
            for i in range(n - size + 1):
                if letters[i:i + size] != tail:
                    continue
                j = i - 1
                while j > 0:
                    if letters[j] == g and letters[j - 1] == h:
                        res.setdefault(perm[j], "iii")
                        break
                    if graph.bond(letters[j], h) != 2:
                        break
                    j -= 1
    return res


def classify_letters(graph: CoxeterGraph, word: Sequence[int],
                     cap: int = DEFAULT_CLASS_CAP) -> LetterClassification:
    w = graph.check_word(word)
    if not is_fc_reduced(graph, w, cap):
        raise ValueError(f"{w} is not an FC-reduced word")
    scan = _scan(graph, w, cap)
    # scan members are permutations of the canonical word; re-express them as
    # permutations of the *input* word so position ids refer to it
    canon_perm = _lex_least_perm(graph, w)
    perms = [tuple(canon_perm[p] for p in perm) for perm in scan.perms_bfs]
    internal = _internal_positions(graph, w, perms)
    lateral = _lateral_witnesses(graph, w, perms, internal)
    bad = _bad_positions(graph, w, perms)
    crit = _critical_positions(graph, w, perms)

    cats = []
    for i in range(len(w)):
        if i in internal:
            cats.append("internal")
        elif i in lateral:
            cats.append("bilateral" if len(lateral[i]) >= 2 else "lateral")
        else:
            cats.append("plain")
    criticals = []
    for i in range(len(w)):
        if i in internal:
            criticals.append("iv")
        else:
            criticals.append(crit.get(i, "none"))

    cls = LetterClassification(w, tuple(cats), tuple(i in bad for i in range(len(w))),
                               tuple(criticals))
    for i in range(len(w)):
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


def _r_set(graph, word, perms, cls_by_pid) -> FrozenSet[int]:
    """Internal letters that sit in t s t with the right t bilateral."""
    out = set()
    for perm in perms:
        letters = _letters(word, perm)
        for idx in range(1, len(letters) - 1):
            pid = perm[idx]
            if cls_by_pid[pid] != "internal":
                continue
            s = letters[idx]
            t = letters[idx - 1]
            if t == letters[idx + 1] and t != s and graph.bond(s, t) >= 3:
                if cls_by_pid[perm[idx + 1]] == "bilateral":
                    out.add(pid)
    return frozenset(out)


def right_justify(graph: CoxeterGraph, word: Sequence[int],
                  cap: int = DEFAULT_CLASS_CAP) -> RightJustified:
    """A right-justified reduced expression with its block decomposition.

    Scans the commutation class in lexicographic order and returns the first
    member in which (a) every internal letter has the required lateral or
    internal neighbours (one-sided for letters whose flanking pattern ends
    in a bilateral letter, two-sided otherwise), (b) the maximal runs of
    internal and lateral letters parse into the six admissible block shapes
    and (c) every bilateral letter starts its block.
    """
    w = graph.check_word(word)
    cls = classify_letters(graph, w, cap)
    scan = _scan(graph, w, cap)
    canon_perm = _lex_least_perm(graph, w)
    # in letter-word order, which the first-match scan below relies on
    perms = [tuple(canon_perm[p] for p in perm) for perm in scan.perms_sorted]
    roles = {pid: cls.category[pid] for pid in range(len(w))}
    rset = _r_set(graph, w, perms, roles)

    def neighbour_ok(letters_roles, idx):
        return letters_roles[idx] in ("internal", "lateral", "bilateral")

    for perm in perms:
        letters = _letters(w, perm)
        lr = [roles[pid] for pid in perm]
        ok = True
        for idx, pid in enumerate(perm):
            if roles[pid] != "internal":
                continue
            left_ok = idx > 0 and neighbour_ok(lr, idx - 1)
            if pid in rset:
                if not left_ok:
                    ok = False
                    break
            else:
                right_ok = idx + 1 < len(perm) and neighbour_ok(lr, idx + 1)
                if not (left_ok and right_ok):
                    ok = False
                    break
        if not ok:
            continue
        blocks = _parse_blocks(letters, lr, perm, roles)
        if blocks is None:
            continue
        out_cls = LetterClassification(
            letters,
            tuple(cls.category[pid] for pid in perm),
            tuple(cls.bad[pid] for pid in perm),
            tuple(cls.critical[pid] for pid in perm),
        )
        return RightJustified(letters, blocks, out_cls)
    raise AssertionError(f"no right-justified expression found for {w}")


def _parse_blocks(letters, lr, perm, roles) -> Optional[Tuple[Block, ...]]:
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
    commutation class, so it suffices to embed one class member.
    """
    w = tuple(word)
    if x.length > len(w):
        return False
    for u in commutation_class(graph, x.word):
        if is_subword(u, w):
            return True
    return False


def bruhat_leq(graph: CoxeterGraph, x: FcElement, y: FcElement) -> bool:
    return bruhat_leq_word(graph, x, y.word)
