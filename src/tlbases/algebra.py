"""Generalized Temperley-Lieb algebras over Z[v, v^-1] by confluent rewriting.

``TLAlgebra`` wraps a Coxeter graph and multiplies in the monomial basis by
rewriting words with the defining relations: an equal adjacent pair
contributes the loop scalar delta, and a half-braid factor of length m
collapses by the m-specific rule (s t s -> s, s t s t -> 2 s t,
s t s t s -> 3 s t s - s).  Every rewrite shortens the word, so reduction
terminates, and by confluence any factor may be rewritten first.  The
package rewrites at the factor that the word's Stembridge witness names
(``heap-witness``); the ``confluence`` suite and the tests compare it with
the first factor of the lexicographically least and greatest class members.

On top of multiplication sit the t-tilde basis, the bar involution, lattice
degrees, the canonical basis (the constant terms of the t-tilde elements'
monomial coordinates), the f-basis built from right-justified block
decompositions, and the mixed products relating the two.  Canonical structure
constants come a row at a time, by the Kazhdan-Lusztig step read off the
canonical right table: c_{y's} is c_{y'} b_s less multiples of earlier c_z.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Dict, List, Optional, Sequence, Tuple

from .coxeter import (
    CoxeterGraph,
    FcElement,
    Word,
    _first_factor,
    _Heap,
    _letters,
    _own_word,
    enumerate_fc,
    classify_letters,
    right_justify,
    word_str,
)
from .laurent import DELTA, ONE, V_INV, ZERO, LaurentPoly, _add_scaled, _digit, _pack, _unpack

__all__ = [
    "AlgebraElement",
    "TLAlgebra",
    "MixedWord",
    "AuxElements",
    "STRATEGIES",
]

Coords = Dict[Word, LaurentPoly]
#: Coordinates under accumulation: an {exponent: coefficient} dict per word,
#: turned into polynomials once by ``_settle``.
Raw = Dict[Word, Dict[int, int]]

STRATEGIES = ("lex-least-leftmost", "lex-greatest-rightmost", "heap-witness")

BASIS_TAGS = ("monomial", "ttilde", "f", "canonical")

#: The digit width the packed t-tilde walk starts at (``_ttilde_walk``).
_START_WIDTH = 32

#: Each basis element's letter in ``right_table``'s messages.
_SYMBOLS = {"ttilde": "t~", "canonical": "c", "f": "f"}


def _merge(acc: Raw, coords: Coords, scale: LaurentPoly) -> Raw:
    """acc += scale * coords, with no intermediate polynomial."""
    st = scale.terms
    if not st:
        return acc
    for w, c in coords.items():
        d = acc.get(w)
        if d is None:
            d = acc[w] = {}
        for e1, c1 in st:
            for e2, c2 in c.terms:
                e = e1 + e2
                d[e] = d.get(e, 0) + c1 * c2
    return acc


def _settle(acc: Raw) -> Coords:
    out: Coords = {}
    for w, d in acc.items():
        p = LaurentPoly._from_dict(d)
        if p:
            out[w] = p
    return out


def _combine(coeffs: Coords, rows: Dict[Word, Coords]) -> Coords:
    """The sum over y of coeffs[y] * rows[y]; every y must have a row."""
    acc: Raw = {}
    for y, c in coeffs.items():
        _merge(acc, rows[y], c)
    return _settle(acc)


@dataclass(frozen=True)
class AlgebraElement:
    """A finitely supported combination of basis elements, tagged by basis.

    Coordinates are keyed by the normal-form reduced word of the indexing
    fully commutative element; zero coordinates are never stored.  Treat
    instances as immutable.
    """

    family: str
    rank: int
    basis: str
    coords: Tuple[Tuple[Word, LaurentPoly], ...]

    @staticmethod
    def make(graph: CoxeterGraph, basis: str, coords: Coords) -> "AlgebraElement":
        if basis not in BASIS_TAGS:
            raise ValueError(f"unknown basis tag {basis!r}")
        items = tuple(sorted(((w, c) for w, c in coords.items() if c),
                             key=lambda t: (len(t[0]), t[0])))
        return AlgebraElement(graph.family, graph.rank, basis, items)

    def as_dict(self) -> Coords:
        return dict(self.coords)

    def support(self) -> Tuple[Word, ...]:
        return tuple(w for w, _ in self.coords)

    def coeff(self, word: Word) -> LaurentPoly:
        for w, c in self.coords:
            if w == word:
                return c
        return ZERO

    def is_zero(self) -> bool:
        return not self.coords

    def graph(self) -> CoxeterGraph:
        return CoxeterGraph(self.family, self.rank)

    def _check_compatible(self, other: "AlgebraElement"):
        if (self.family, self.rank, self.basis) != (other.family, other.rank, other.basis):
            raise ValueError("elements live in different bases or algebras")

    def _plus(self, other: "AlgebraElement", sign: LaurentPoly) -> "AlgebraElement":
        self._check_compatible(other)
        acc = _merge(_merge({}, self.as_dict(), ONE), other.as_dict(), sign)
        return AlgebraElement.make(self.graph(), self.basis, _settle(acc))

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self._plus(other, ONE)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self._plus(other, -ONE)

    def scale(self, c) -> "AlgebraElement":
        """This element times c, an ``int`` (not a bool) or a ``LaurentPoly``."""
        if type(c) is int:
            c = LaurentPoly.const(c)
        elif not isinstance(c, LaurentPoly):
            raise ValueError(f"scalar {c!r} is neither an integer nor a LaurentPoly")
        return AlgebraElement.make(self.graph(), self.basis,
                                   {w: c * p for w, p in self.coords})

    def __repr__(self):
        if not self.coords:
            return f"AlgebraElement({self.family}{self.rank}, {self.basis}, 0)"
        parts = " + ".join(f"({c})*[{','.join(map(str, w)) or 'e'}]" for w, c in self.coords)
        return f"AlgebraElement({self.family}{self.rank}, {self.basis}, {parts})"


class TLAlgebra:
    """Computational context for one Temperley-Lieb algebra.

    Caches rewriting results and the basis tables keyed by this graph.  All
    returned objects are immutable; the caches only grow, so instances can be
    shared within a thread of work.
    """

    def __init__(self, graph: CoxeterGraph):
        self.graph = graph
        self._w2b: Dict[Tuple[str, Word], Coords] = {}
        self._fc: Optional[Tuple[FcElement, ...]] = None
        self._words: Optional[Tuple[Word, ...]] = None
        self._index: Dict[Word, int] = {}
        self._ttilde: Optional[Dict[Word, Coords]] = None
        self._canonical: Optional[Dict[Word, Coords]] = None
        self._right: Dict[str, Dict[int, Dict[Word, Coords]]] = {}
        self._f_table: Optional[Dict[Word, Coords]] = None

    # -- enumeration -------------------------------------------------------

    def fc_elements(self) -> Tuple[FcElement, ...]:
        if self._fc is None:
            self._fc = enumerate_fc(self.graph)
        return self._fc

    def fc_words(self) -> Tuple[Word, ...]:
        """The FC normal words in (length, word) order; ``_index`` numbers them."""
        if self._words is None:
            self._words = tuple(e.word for e in self.fc_elements())
            self._index = {w: i for i, w in enumerate(self._words)}
        return self._words

    # -- rewriting ---------------------------------------------------------

    def _rewrite_branches(self, member: Word, pos: int, size: int):
        s = member[pos]
        head, tail = member[:pos], member[pos + size:]
        if size == 2:
            return [(DELTA, head + (s,) + tail)]
        t = member[pos + 1]
        if size == 3:
            return [(ONE, head + (s,) + tail)]
        if size == 4:
            return [(LaurentPoly.const(2), head + (s, t) + tail)]
        if size == 5:
            return [
                (LaurentPoly.const(3), head + (s, t, s) + tail),
                (LaurentPoly.const(-1), head + (s,) + tail),
            ]
        raise AssertionError(size)

    def _pick_factor(self, heap: _Heap, witness: Tuple[int, ...], strategy: str):
        """A class member of the heap's word and its reducible factor (start,
        length), given the heap's Stembridge witness."""
        word = heap.word
        if strategy == "heap-witness":
            order, start = heap.witness_order(witness)
            return _letters(word, order), (start, len(witness))
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
        # the lexicographic walks come lazily and stop at the first member
        # with a factor, scanned from the left (right) in (reverse) order
        step = 1 if strategy == "lex-least-leftmost" else -1
        starts = range(len(word) - 1)[::step]
        for order in heap.extensions(step < 0):
            letters = _letters(word, order)
            hit = _first_factor(self.graph, letters, starts)
            if hit:
                return letters, hit
        raise AssertionError(f"no reducible factor in the class of {word}")

    def word_to_basis(self, word: Sequence[int], strategy: str = "heap-witness") -> AlgebraElement:
        """Expand a product of generators in the monomial basis."""
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
        w = self.graph.check_word(word)
        return AlgebraElement.make(self.graph, "monomial", self._w2b_coords(w, strategy))

    def _w2b_coords(self, word: Word, strategy: str) -> Coords:
        key = (strategy, word)
        hit = self._w2b.get(key)
        if hit is not None:
            return hit
        heap = _Heap(self.graph, word)
        witness = heap.witness()
        if witness is None:
            result: Coords = {heap.normal_form(): ONE}
        else:
            member, (pos, size) = self._pick_factor(heap, witness, strategy)
            acc: Raw = {}
            for coeff, branch in self._rewrite_branches(member, pos, size):
                _merge(acc, self._w2b_coords(branch, strategy), coeff)
            result = _settle(acc)
        self._w2b[key] = result
        return result

    # -- products ----------------------------------------------------------

    def _times_gen(self, coords: Coords, s: int) -> Coords:
        """coords * b_s."""
        acc: Raw = {}
        for u, c in coords.items():
            _merge(acc, self._w2b_coords(u + (s,), "heap-witness"), c)
        return _settle(acc)

    def monomial_product(self, word: Sequence[int]) -> Coords:
        """Fold-left expansion of a word; agrees with word_to_basis by confluence."""
        coords: Coords = {(): ONE}
        for s in self.graph.check_word(word):
            coords = self._times_gen(coords, s)
        return coords

    def _mul_coords(self, a: Coords, b: Coords) -> Coords:
        out: Raw = {}
        # multiply all of a on the right by each basis word of b, letter by letter
        for w, cw in b.items():
            cur = a
            for s in w:
                cur = self._times_gen(cur, s)
            _merge(out, cur, cw)
        return _settle(out)

    def _product(self, factors: List[Coords]) -> Coords:
        """The product of the factors, left to right."""
        return reduce(self._mul_coords, factors, {(): ONE})

    def multiply(self, a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
        return AlgebraElement.make(self.graph, "monomial", self._mul_coords(
            self.to_monomial(a).as_dict(), self.to_monomial(b).as_dict()))

    def one(self) -> AlgebraElement:
        return AlgebraElement.make(self.graph, "monomial", {(): ONE})

    def _index_word(self, w) -> Word:
        """The normal word of the basis index w: an ``FcElement`` of this graph
        or a fully commutative reduced word; any other word indexes nothing."""
        if isinstance(w, FcElement):
            return _own_word(self.graph, w)
        heap = _Heap(self.graph, self.graph.check_word(w))
        if not heap.fc_reduced():
            raise ValueError(f"{heap.word} does not index a basis element")
        return heap.normal_form()

    def monomial(self, word) -> AlgebraElement:
        return AlgebraElement.make(self.graph, "monomial", {self._index_word(word): ONE})

    # -- t-tilde basis and conversions --------------------------------------

    def ttilde_element(self, w) -> AlgebraElement:
        """The normalized t-basis element in monomial coordinates.

        Expands the product of (b_s - v^-1) over the letters of the normal
        word; the result is unitriangular with top coefficient 1.
        """
        return evaluate_mixed(self, tuple(("t", s) for s in self._index_word(w)))

    def _ttilde_step(self, coords: Coords, s: int) -> Coords:
        """coords * (b_s - v^-1)."""
        acc = _merge({}, coords, -V_INV)
        for u, c in coords.items():
            _merge(acc, self._w2b_coords(u + (s,), "heap-witness"), c)
        return _settle(acc)

    def _ttilde_walk(self, truncated: bool) -> Dict[Word, Dict[Word, object]]:
        """Every t-tilde element in monomial coordinates, in ``fc_words``
        order: {w: {x: coefficient}} over the words x in t~_w's support, each
        coefficient a ``LaurentPoly``, or ``truncated``, its constant term
        where that is not 0.

        Depth first over the prefix tree of normal words: t~_{w's} = t~_{w'}
        (b_s - v^-1).  A prefix of a normal word is normal (a smaller member
        of its class would extend to a smaller member of w's class), so each
        row is one step from its parent.  The walk runs on packed integers
        (``laurent._pack``) keyed by position in ``fc_words``: each product
        b_u b_s = sum_x r_x b_x is packed once, r_x at off 1 as R_x, and the
        step from a row entry P at u is
        acc[x] += (P R_x) >> width and acc[u] -= P >> width.  Each distinct
        coefficient is decoded once, and its polynomial shared.

        The rewriting's coefficients r_x have valuation >= -1, so a row at
        depth d has no exponent below -d >= -off and every shift is exact;
        they have degree <= 1, so a row whose subtree has height h fixes its
        descendants' constant terms through its coefficients of degree >= -h,
        and ``truncated`` rows keep only those (their balanced digits from
        position off - h up).  Both bounds are checked.  The l1 norm of a row
        is at most its parent's times 1 + the largest l1 norm of a product the
        step reads; while that bound is below 2^(width-1), every coefficient
        reads back exactly, else the walk starts again at twice the width.
        """
        off = max(map(len, self.fc_words()))
        width = _START_WIDTH
        while (rows := self._packed_walk(truncated, width, off)) is None:
            width *= 2
        return rows

    def _packed_walk(self, truncated: bool, width: int,
                     off: int) -> Optional[Dict[Word, Dict[Word, object]]]:
        """One run of ``_ttilde_walk`` at a digit width; None once the
        coefficient bound reaches 2^(width-1)."""
        words = self.fc_words()
        index = self._index
        children: List[List[int]] = [[] for _ in words]
        height = [0] * len(words)
        for i in range(len(words) - 1, 0, -1):
            parent = index[words[i][:-1]]
            children[parent].append(i)
            height[parent] = max(height[parent], height[i] + 1)
        one = 1 << (width * off)
        unit = 1 << width  # the coefficient 1 at off 1
        top = 1 << (width * (off + 1) - 1)  # |P| < top iff P has no positive degree
        limit = 1 << (width - 1)
        polys: Dict[int, LaurentPoly] = {}
        # b_u b_s by generator s and position u: ((x, R_x), ...) and its l1 norm
        products: List[Dict[int, Tuple[Tuple[Tuple[int, int], ...], int]]] = [
            {} for _ in range(self.graph.rank + 1)]
        rows: dict = dict.fromkeys(words)
        stack: List[Tuple[int, Dict[int, int], int]] = [(0, {}, 1)]
        while stack:
            i, parent, bound = stack.pop()
            if i:
                s = words[i][-1]
                acc: Dict[int, int] = {}
                widest = 0
                by_u = products[s]
                for u, p in parent.items():
                    prod = by_u.get(u)
                    if prod is None:
                        prod = by_u[u] = self._packed_product(words[u] + (s,), width)
                    terms, norm = prod
                    if norm > widest:
                        widest = norm
                    for x, r in terms:
                        acc[x] = acc.get(x, 0) + (p if r == unit else p * r >> width)
                    acc[u] = acc.get(u, 0) - (p >> width)
                bound *= 1 + widest
                if bound >= limit:
                    return None
                if truncated:
                    # drop the balanced digits below the floor -height[i]
                    shift = width * (off - height[i])
                    half = 1 << shift >> 1
                    row = {x: p for x, p in ((x, (p + half) >> shift << shift)
                                             for x, p in acc.items()) if p}
                else:
                    row = {x: p for x, p in acc.items() if p}
            else:
                row = {0: one}
            if row.get(i) != one:
                raise AssertionError(f"t-basis element at {words[i]} is not unitriangular")
            # the canonical table and the one lattice L rest on this
            if any(not -top < p < top for p in row.values()):
                raise AssertionError(f"t-basis element at {words[i]} has a coefficient "
                                     f"outside Z[v^-1]")
            if truncated:
                rows[words[i]] = {words[x]: c for x, p in row.items()
                                  if (c := _digit(p, width, off))}
            else:
                rows[words[i]] = {words[x]: polys.get(p) or
                                  polys.setdefault(p, _unpack(p, width, off))
                                  for x, p in row.items()}
            stack.extend((child, row, bound) for child in children[i])
        return rows

    def _packed_product(self, us: Word, width: int) -> Tuple[Tuple[Tuple[int, int], ...], int]:
        """b_u b_s as ((x, R_x), ...), each r_x packed at off 1, and its l1 norm."""
        out = []
        norm = 0
        for x, r in self._w2b_coords(us, "heap-witness").items():
            if r.degree > 1:
                raise AssertionError(f"the rewriting of {word_str(us)} has the "
                                     f"coefficient {r} of degree above 1")
            if r.valuation < -1:
                raise AssertionError(f"the rewriting of {word_str(us)} has the "
                                     f"coefficient {r} of valuation below -1")
            out.append((self._index[x], _pack(r, width, 1)))
            norm += sum(abs(c) for _, c in r.terms)
        return tuple(out), norm

    def ttilde_table(self) -> Dict[Word, Coords]:
        if self._ttilde is None:
            self._ttilde = self._ttilde_walk(truncated=False)
        return self._ttilde

    def _convert_from_monomial(self, coords: Coords, table: Dict[Word, Coords]) -> Coords:
        """Triangular solve against a unitriangular table, largest word first.

        Subtracting a row only touches smaller words, so one walk down the
        (length, word) order visits every word the solve needs.
        """
        rem = _merge({}, coords, ONE)
        out: Coords = {}
        for x in reversed(self.fc_words()):
            if not rem:
                break
            d = rem.pop(x, None)
            if d is None:
                continue
            gamma = LaurentPoly._from_dict(d)
            if gamma:
                out[x] = gamma
                _merge(rem, table[x], -gamma)
                # the row's top coefficient is 1, so the entry at x cancels
                del rem[x]
        if rem:  # left over only for a word outside the basis
            raise KeyError(next(iter(rem)))
        return out

    def _table_for(self, basis: str) -> Dict[Word, Coords]:
        if basis == "ttilde":
            return self.ttilde_table()
        if basis == "canonical":
            return self.canonical_table()
        if basis == "f":
            return self.f_table()
        raise ValueError(f"no conversion table for basis {basis!r}")

    def right_table(self, basis: str) -> Dict[int, Dict[Word, Coords]]:
        """(basis element u) * b_s in ``basis`` coordinates, by generator s and word
        u; left products read it through the reversal (``forms._row_steps``).

        Each basis is unitriangular along the prefix order: for every normal
        y = y' s, (element y') * b_s has the coefficient 1 at y, checked here.
        """
        if basis not in self._right:
            table = self._table_for(basis)
            right = {s: {u: self._convert_from_monomial(self._times_gen(row, s), table)
                         for u, row in table.items()}
                     for s in self.graph.generators}
            for y in self.fc_words()[1:]:
                if (lead := right[y[-1]][y[:-1]].get(y, ZERO)) != ONE:
                    raise AssertionError(
                        f"{basis} basis: {_SYMBOLS[basis]}_{word_str(y[:-1])} * b_{y[-1]} "
                        f"has the coefficient {lead} at {word_str(y)}, not 1")
            self._right[basis] = right
        return self._right[basis]

    def to_monomial(self, a: AlgebraElement) -> AlgebraElement:
        if a.graph() != self.graph:
            raise ValueError(f"graph mismatch: an element of {a.graph()} in {self.graph}")
        if a.basis == "monomial":
            return a
        coords = _combine(a.as_dict(), self._table_for(a.basis))
        return AlgebraElement.make(self.graph, "monomial", coords)

    def to_basis(self, a: AlgebraElement, basis: str) -> AlgebraElement:
        if basis == a.basis and a.graph() == self.graph:  # else to_monomial raises
            return a
        mono = self.to_monomial(a)
        if basis == "monomial":
            return mono
        coords = self._convert_from_monomial(mono.as_dict(), self._table_for(basis))
        return AlgebraElement.make(self.graph, basis, coords)

    # -- bar involution and lattice degrees ---------------------------------

    def bar_element(self, a: AlgebraElement) -> AlgebraElement:
        """Bar-conjugate: each monomial basis element is fixed, scalars conjugate."""
        mono = self.to_monomial(a)
        coords = {w: c.bar() for w, c in mono.coords}
        out = AlgebraElement.make(self.graph, "monomial", coords)
        return out if a.basis == "monomial" else self.to_basis(out, a.basis)

    def lattice_degree(self, a: AlgebraElement):
        """Smallest m with a in v^m * L; -inf for zero.

        L is the Z[v^-1]-span of the monomial basis, which is that of the
        t-tilde basis too (``ttilde_table`` checks the table is unitriangular
        over Z[v^-1]); the degree is the maximum monomial coefficient degree.
        """
        coords = self.to_monomial(a).coords
        if not coords:
            return float("-inf")
        return max(c.degree for _, c in coords)

    # -- canonical basis -----------------------------------------------------

    def canonical_table(self) -> Dict[Word, Coords]:
        """Every canonical element c_w in monomial coordinates: the constant
        terms of t~_w's, as the truncated walk gives them.

        Each monomial b_x is bar-invariant and t~_w lies in L (``_ttilde_walk``
        checks it), so the coordinates of a bar-invariant c_w = t~_w mod v^-1 L
        are bar-invariant and in Z[v^-1], that is integers: t~_w's constant
        terms.  These define such a c_w, so it exists and is unique.  One
        ``LaurentPoly`` is shared per distinct constant.
        """
        if self._canonical is None:
            consts = {1: ONE}
            self._canonical = {
                w: {x: consts.get(c) or consts.setdefault(c, LaurentPoly.const(c))
                    for x, c in row.items()}
                for w, row in self._ttilde_walk(truncated=True).items()}
        return self._canonical

    def canonical_products(self, x) -> Dict[Word, Coords]:
        """Row x of the canonical multiplication table: for every basis word y,
        in ``fc_words`` order, c_x * c_y in canonical coordinates.

        Each step is read off the canonical right table: for y = y' s its
        entry at y' is c_{y'} b_s = c_y + sum_z mu_z c_z (``right_table``
        checks the 1), so c_x c_y = (c_x c_{y'}) b_s - sum_z mu_z c_x c_z.  The
        prefix y' and every z are shorter than y, so their entries come earlier
        in the row.  Each entry lists its words by descending position, as
        ``structure_constants`` does.

        Entries accumulate as polynomials under the rings' unit rule: the
        right table's coefficients are 1 or delta, so an entry with one
        contribution of coefficient 1 is that c itself, no new polynomial.
        """
        rows: Dict[Word, Coords] = {(): {self._index_word(x): ONE}}
        right = self.right_table("canonical")
        words, index = self.fc_words(), self._index
        for y in words[1:]:
            right_s = right[y[-1]]
            acc: Coords = {}
            for u, c in rows[y[:-1]].items():
                _add_scaled(acc, right_s[u].items(), c)
            for z, mu in right_s[y[:-1]].items():
                if z != y:
                    _add_scaled(acc, rows[z].items(), -mu)
            order = sorted(map(index.__getitem__, acc), reverse=True)
            rows[y] = {w: p for w in map(words.__getitem__, order) if (p := acc[w])}
        return rows

    def canonical_basis(self) -> Dict[Word, AlgebraElement]:
        return {
            w: AlgebraElement.make(self.graph, "monomial", coords)
            for w, coords in self.canonical_table().items()
        }

    def canonical_element(self, w) -> AlgebraElement:
        return AlgebraElement.make(self.graph, "monomial",
                                   self.canonical_table()[self._index_word(w)])

    # -- f-basis --------------------------------------------------------------

    _F_TABLE = {
        1: ((1, (1, 2)), (-1, ())),
        2: ((1, (1, 2, 1)), (-1, (1,))),
        3: ((1, (2, 1, 2)), (-1, (2,))),
        4: ((1, (1, 2, 1, 2)), (-2, (1, 2))),
        5: ((1, (2, 1, 2)), (-2, (2,))),
        6: ((1, (2, 1, 2, 1)), (-2, (2, 1))),
    }

    def _f_factorization(self, word: Word) -> Tuple[Tuple[Coords, bool], ...]:
        """The factors of the f-element: block substitutions and bare letters.

        Each factor comes with its distinguished flag (blocks opening with a
        bilateral letter).
        """
        rj = right_justify(self.graph, word)
        factors: List[Tuple[Coords, bool]] = []
        covered = {}
        for b in rj.blocks:
            covered[b.start] = b
        i = 0
        while i < len(rj.word):
            blk = covered.get(i)
            if blk is not None:
                acc: Raw = {}
                for coeff, sub in self._F_TABLE[blk.shape]:
                    _merge(acc, self.monomial_product(sub), LaurentPoly.const(coeff))
                factors.append((_settle(acc), blk.distinguished))
                i = blk.stop
            else:
                factors.append((self.monomial_product((rj.word[i],)), False))
                i += 1
        return tuple(factors)

    def f_element(self, w) -> AlgebraElement:
        word = self._index_word(w)
        coords = self._product([factor for factor, _ in self._f_factorization(word)])
        elem = AlgebraElement.make(self.graph, "monomial", coords)
        if elem.coeff(word) != ONE:
            raise AssertionError(f"f-element at {word} lost its leading coefficient")
        return elem

    def f_table(self) -> Dict[Word, Coords]:
        if self._f_table is None:
            self._f_table = {e.word: self.f_element(e).as_dict() for e in self.fc_elements()}
        return self._f_table

    # -- structure constants ----------------------------------------------------

    def structure_constants(self, basis: str, x, y) -> Dict[Word, LaurentPoly]:
        """Exact expansion of (basis element x) * (basis element y) in ``basis``."""
        xw, yw = self._index_word(x), self._index_word(y)
        if basis == "monomial":
            return self._mul_coords({xw: ONE}, {yw: ONE})
        table = self._table_for(basis)
        prod = self._mul_coords(dict(table[xw]), dict(table[yw]))
        return self._convert_from_monomial(prod, table)


# ---------------------------------------------------------------------------
# mixed products in the generators b_i and their t-tilde counterparts


MixedSymbol = Tuple[str, int]  # ("b", i) or ("t", i); scalars enter separately
MixedWord = Tuple[MixedSymbol, ...]


@dataclass(frozen=True)
class AuxElements:
    """Companion products attached to one fully commutative element.

    ``expanded_b`` doubles every bilateral letter; ``f_hat`` substitutes the
    t-tilde generator at internal and non-bad lateral letters; ``f_hat_prime``
    additionally doubles the bilateral substitutions; ``f_tilde`` also
    substitutes at critical letters.  ``kappa`` counts bilateral letters and
    ``f_prime`` is the f-element with an extra first generator inserted in
    front of each distinguished factor.
    """

    word: Word
    kappa: int
    expanded_b: MixedWord
    f_hat: MixedWord
    f_hat_prime: MixedWord
    f_tilde: MixedWord
    f_prime: AlgebraElement


def evaluate_mixed(alg: TLAlgebra, mixed: MixedWord) -> AlgebraElement:
    """Multiply out a mixed word, the algebra's one fold over a word of
    generator symbols; the t-symbol expands as b_i - v^-1."""
    alg.graph.check_word(i for _, i in mixed)
    coords: Coords = {(): ONE}
    for kind, i in mixed:
        if kind == "t":
            coords = alg._ttilde_step(coords, i)
        elif kind == "b":
            coords = alg._times_gen(coords, i)
        else:
            raise ValueError(f"unknown mixed symbol {kind!r}")
    return AlgebraElement.make(alg.graph, "monomial", coords)


def aux_elements(alg: TLAlgebra, w) -> AuxElements:
    # the mixed products depend on the chosen reduced expression, so the word
    # is used exactly as given (their lattice projections do not depend on it)
    word = alg._index_word(w) if isinstance(w, FcElement) else alg.graph.check_word(tuple(w))
    cls = classify_letters(alg.graph, word)
    kappa = sum(1 for i in range(len(word)) if cls.is_bilateral(i))

    expanded: List[MixedSymbol] = []
    f_hat: List[MixedSymbol] = []
    f_hat_prime: List[MixedSymbol] = []
    f_tilde: List[MixedSymbol] = []
    for i, s in enumerate(word):
        bilateral = cls.is_bilateral(i)
        expanded.append(("b", s))
        if bilateral:
            expanded.append(("b", s))
        hat_t = (cls.is_internal(i) or cls.is_lateral(i)) and not cls.bad[i]
        sym = ("t", s) if hat_t else ("b", s)
        f_hat.append(sym)
        f_hat_prime.append(sym)
        if bilateral:
            f_hat_prime.append(sym)
        tilde_t = hat_t or cls.critical[i] in ("i", "ii", "iii")
        f_tilde.append(("t", s) if tilde_t else ("b", s))

    factors: List[Coords] = []
    for factor, distinguished in alg._f_factorization(word):
        if distinguished:
            factors.append({(1,): ONE})
        factors.append(factor)
    f_prime = AlgebraElement.make(alg.graph, "monomial", alg._product(factors))

    return AuxElements(
        word=word,
        kappa=kappa,
        expanded_b=tuple(expanded),
        f_hat=tuple(f_hat),
        f_hat_prime=tuple(f_hat_prime),
        f_tilde=tuple(f_tilde),
        f_prime=f_prime,
    )
