"""Crossing-free decorated tangles and the diagram form of the algebras.

A tangle is a planar perfect matching between numbered nodes on the north
and south faces of a rectangle; edges exposed to the west wall may carry an
ordered sequence of decorations (circles and, in family B, squares).
Composition concatenates rectangles and extracts the closed curves; a
calibrated ``RuleSet`` then reduces them with one ``fold`` of decoration
words, which values each closed loop and rewrites each edge carrying a
square or more than one decoration.  A generator touches only two arcs of
the tangle it acts on, so ``DiagramCalculus.apply_gen`` rewrites those two,
values the loop the cup may close and folds only the arc it joined: it is
the one loop behind generator actions and, letter by letter, word
evaluation.  ``DiagramCalculus.multiply`` composes whole tangles, reduces
every edge and is the general product.

The scalar parameters of the reduction system are never hard-coded: they
are solved exactly at three strands from the defining relations, each word
against ``TLAlgebra``'s rewrite of it, constrained to have nonnegative loop
and folding scalars (the reduction rules express diagrams as sums of
diagrams), and re-verified against the full relation set at four strands.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

from .algebra import TLAlgebra
from .coxeter import CoxeterGraph
from .laurent import DELTA, ONE, ZERO, LaurentPoly, RationalLaurent, _add_scaled, _bareiss

__all__ = [
    "Tangle",
    "RuleSet",
    "DiagramElement",
    "DiagramCalculus",
    "CalibrationError",
    "ReductionError",
    "generator_U",
    "identity_tangle",
    "compose_raw",
    "reduce_composition",
    "calibrate_ruleset",
    "classify_diagram",
    "loop_count",
    "iota",
    "generate_by_procedures",
    "enumerate_h_admissible",
    "enumerate_b_canonical",
    "recognize_b_canonical",
    "render",
    "format_tangle",
    "parse_tangle",
]

End = Tuple[str, int]  # ("N", i) or ("S", j), 1-based
Decor = str            # "c" (circle) or "s" (square)
Edge = Tuple[End, End, Tuple[Decor, ...]]


class ReductionError(ValueError):
    """Malformed diagram input to the reduction rules."""


class CalibrationError(RuntimeError):
    """The reduction scalars could not be solved uniquely."""


def _end_sort_key(end: End):
    return (0 if end[0] == "N" else 1, end[1])


def _edge_order(edge: Edge):
    """The stored order of canonical edges: north-north, south-south, then
    propagating, each kind by its first end (distinct within a kind)."""
    a, b, _ = edge
    return (0 if b[0] == "N" else 1 if a[0] == "S" else 2), a[1]


class Tangle:
    """A crossing-free perfect matching with decorated west-exposed edges.

    Edges are stored canonically: endpoints ordered north-before-south and
    by index, decoration sequences read from the first endpoint, and the
    edge list sorted north-north, south-south, then propagating.  Instances
    are immutable and hashable.
    """

    __slots__ = ("n_north", "n_south", "edges", "_hash", "_key")

    def __init__(self, n_north: int, n_south: int, edges: Iterable[Edge]):
        if (n_north + n_south) % 2 != 0:
            raise ValueError("total node count must be even")
        canon: List[Edge] = []
        for a, b, *rest in edges:
            decs = tuple(rest[0]) if rest else ()
            for d in decs:
                if d not in ("c", "s"):
                    raise ValueError(f"unknown decoration {d!r}")
            if _end_sort_key(a) > _end_sort_key(b):
                a, b = b, a
                decs = tuple(reversed(decs))
            canon.append((a, b, decs))
        canon.sort(key=_edge_order)
        self._store(n_north, n_south, tuple(canon))
        self._validate()

    @classmethod
    def _from_edges(cls, n_north: int, n_south: int, edges: Iterable[Edge]) -> "Tangle":
        """Trusted constructor: ``edges`` must already be canonical and valid."""
        t = object.__new__(cls)
        t._store(n_north, n_south, tuple(edges))
        return t

    def _store(self, n_north: int, n_south: int, edges: Tuple[Edge, ...]):
        object.__setattr__(self, "n_north", n_north)
        object.__setattr__(self, "n_south", n_south)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_hash", hash((n_north, n_south, edges)))
        object.__setattr__(self, "_key", None)

    def __setattr__(self, name, value):
        raise AttributeError("Tangle is immutable")

    def pos(self, end: End) -> int:
        """Boundary position in the west-anchored linear order N1..Nn, Sm..S1."""
        face, idx = end
        if face == "N":
            if not 1 <= idx <= self.n_north:
                raise ValueError(f"north index {idx} out of range")
            return idx
        if face != "S":
            raise ValueError(f"unknown face {face!r}")
        if not 1 <= idx <= self.n_south:
            raise ValueError(f"south index {idx} out of range")
        return self.n_north + (self.n_south - idx + 1)

    def _exposure(self) -> List[bool]:
        """One sweep over the boundary order: per edge of ``edges``, whether
        it is exposed to the west wall.

        A partner array finds nodes used twice and gaps in the matching; a
        stack of open positions finds crossings, and its depth at an edge's
        opening position says whether another edge shields it from the west.
        """
        total = self.n_north + self.n_south
        partner = [0] * (total + 1)
        opens = []  # per edge, its first position in the boundary order
        for a, b, _ in self.edges:
            pa = self.pos(a)
            if partner[pa]:
                raise ValueError(f"node {a} used twice")
            partner[pa] = -1
            pb = self.pos(b)
            if partner[pb]:
                raise ValueError(f"node {b} used twice")
            partner[pa], partner[pb] = pb, pa
            opens.append(min(pa, pb))
        if 2 * len(opens) != total:
            raise ValueError("edges do not form a perfect matching")
        stack: List[int] = []
        shielded = [False] * (total + 1)
        for p in range(1, total + 1):
            q = partner[p]
            if q > p:
                shielded[p] = bool(stack)
                stack.append(p)
            elif stack.pop() != q:
                raise ValueError("matching is not crossing-free")
        return [not shielded[lo] for lo in opens]

    def _validate(self):
        for edge, exposed in zip(self.edges, self._exposure()):
            if edge[2] and not exposed:
                raise ReductionError(
                    f"decorated edge {edge} is not exposed to the west face")

    def west_exposed(self, edge: Edge) -> bool:
        """True when no other edge separates ``edge``, one of ``edges``, from
        the west wall.

        In the linear boundary order the west wall sits after the last
        position, so an edge is shielded exactly when it nests strictly
        inside another edge.
        """
        return self._exposure()[self.edges.index(edge)]

    def is_propagating(self, edge: Edge) -> bool:
        return edge[0][0] != edge[1][0]

    def decoration_count(self) -> int:
        return sum(len(e[2]) for e in self.edges)

    def has_squares(self) -> bool:
        return any("s" in e[2] for e in self.edges)

    def __eq__(self, other):
        if not isinstance(other, Tangle):
            return NotImplemented
        return (self.n_north, self.n_south, self.edges) == \
            (other.n_north, other.n_south, other.edges)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Tangle('{format_tangle(self)}')"

    def sort_key(self) -> str:
        """The serialized form, built on first use and kept."""
        key = self._key
        if key is None:
            key = format_tangle(self)
            object.__setattr__(self, "_key", key)
        return key


def format_tangle(t: Tangle) -> str:
    head = f"n={t.n_north}" if t.n_north == t.n_south else f"n={t.n_north},m={t.n_south}"
    parts = [head]
    for a, b, decs in t.edges:
        txt = f"{a[0]}{a[1]}-{b[0]}{b[1]}"
        if decs:
            txt += "[" + "".join(decs) + "]"
        parts.append(txt)
    return "; ".join(parts)


def parse_tangle(text: str) -> Tangle:
    chunks = [c.strip() for c in text.split(";") if c.strip()]
    if not chunks or not chunks[0].startswith("n="):
        raise ValueError(f"missing node-count header in {text!r}")
    head = chunks[0]
    if "," in head:
        npart, mpart = head.split(",")
        mpart = mpart.strip()
        if not mpart.startswith("m="):
            raise ValueError(f"second header field of {text!r} is not m=")
        n_north = int(npart[2:])
        n_south = int(mpart[2:])
    else:
        n_north = n_south = int(head[2:])
    edges = []
    for chunk in chunks[1:]:
        # one nonempty bracket of decorations, closed once, ends an edge
        edge = re.fullmatch(r"([^\[]*)(?:\[([^\[\]]+)\])?", chunk)
        if edge is None:
            raise ValueError(f"malformed decorations in {chunk!r}")
        a_txt, _, b_txt = edge[1].partition("-")
        edges.append((_parse_end(a_txt), _parse_end(b_txt), tuple(edge[2] or "")))
    return Tangle(n_north, n_south, edges)


def _parse_end(text: str) -> End:
    face, idx = text[:1], text[1:]
    if not (face.isalpha() and idx.isdigit()):
        raise ValueError(f"tangle end {text!r} is not a face letter and an index")
    return face, int(idx)


def _check_strands(n: int) -> None:
    if type(n) is not int or n < 1:  # a bool is not a count either
        raise ValueError(f"strand count {n!r} is not an integer of at least 1")


def _check_word(n: int, word: Sequence[int]) -> Tuple[int, ...]:
    """``word`` as a tuple of generator indices at ``n`` strands, its letters
    checked as ``CoxeterGraph.check_word`` does."""
    _check_strands(n)
    w = tuple(word)
    for s in w:
        if type(s) is not int:
            raise ValueError(f"generator index {s!r} is not an integer")
        if not 1 <= s <= n - 1:
            raise ValueError(f"generator index {s} out of range for {n} strands")
    return w


def identity_tangle(n: int) -> Tangle:
    _check_strands(n)
    return Tangle(n, n, [(("N", i), ("S", i), ()) for i in range(1, n + 1)])


def _cup(i: int) -> Tuple[Decor, ...]:
    """The decorations of each arc of the generator at i, i+1."""
    return ("c",) if i == 1 else ()


def generator_U(family: str, n: int, i: int) -> Tangle:
    """Cup-cap generator: non-propagating pair at i, i+1, decorated iff i = 1."""
    _check_word(n, (i,))
    decs = _cup(i)
    edges: List[Edge] = [
        (("N", i), ("N", i + 1), decs),
        (("S", i), ("S", i + 1), decs),
    ]
    for j in range(1, n + 1):
        if j not in (i, i + 1):
            edges.append((("N", j), ("S", j), ()))
    return Tangle(n, n, edges)


# ---------------------------------------------------------------------------
# composition


def compose_raw(top: Tangle, bottom: Tangle) -> Tuple[Tangle, Tuple[Tuple[Decor, ...], ...]]:
    """Concatenate two tangles; return the surviving tangle and closed loops.

    Top north is node 1..n, the glue n+1..n+g and bottom south follows.
    Walks start from the outer nodes in canonical end order, so each
    surviving edge is read from its first end and lands in the stored order
    by kind alone.  Glue nodes no walk visits lie on closed loops, emitted
    with their decorations up to rotation and reversal.
    """
    n, g, m = top.n_north, top.n_south, bottom.n_south
    if g != bottom.n_north:
        raise ValueError(
            f"cannot compose: {g} south nodes vs {bottom.n_north} north nodes")
    size = n + g + m + 1
    # links[side][k]: the node across k's edge in the top (0) or bottom (1)
    # tangle, with the edge's decorations read from k
    links = ([None] * size, [None] * size)
    for side, t, north, south in ((0, top, 0, n), (1, bottom, n, n + g)):
        for a, b, decs in t.edges:
            ka = (north if a[0] == "N" else south) + a[1]
            kb = (north if b[0] == "N" else south) + b[1]
            links[side][ka], links[side][kb] = (kb, decs), (ka, decs[::-1])
    seen = [False] * size

    def walk(k: int, side: int):
        # leave k through one tangle; stop at an outer node or back at k
        decs: Tuple[Decor, ...] = ()
        seen[k] = True
        while True:
            k, d = links[side][k]
            decs += d
            if seen[k]:
                return k, decs
            seen[k] = True
            if not n < k <= n + g:
                return k, decs
            side ^= 1

    def end(k: int) -> End:
        return ("N", k) if k <= n else ("S", k - n - g)

    kinds: Tuple[List[Edge], ...] = ([], [], [])  # N-N, S-S, propagating
    for k in itertools.chain(range(1, n + 1), range(n + g + 1, size)):
        if not seen[k]:
            j, decs = walk(k, 0 if k <= n else 1)
            kinds[0 if j <= n else 2 if k <= n else 1].append((end(k), end(j), decs))
    loops = sorted(_canonical_cycle(walk(p, 0)[1])
                   for p in range(n + 1, n + g + 1) if not seen[p])
    return Tangle._from_edges(n, m, kinds[0] + kinds[1] + kinds[2]), tuple(loops)


def _act(t: Tangle, i: int, side: str) -> Tuple[Tangle, Tuple[Tuple[Decor, ...], ...],
                                                Tuple[int, ...]]:
    """``compose_raw(t, U_i)`` for side "right", else ``compose_raw(U_i, t)``,
    and the positions of the result's edges that may need a fold.

    The generator's cup-cap touches only nodes i and i + 1 of the glued face
    (t's south face on the right, its north face on the left).  If t joins
    them to each other, the cup closes one loop and the generator's other arc
    takes that edge's place (t itself when their decorations agree).
    Otherwise their partners p and q are joined through the cup, decorations
    read p -> i -> cup -> i + 1 -> q, and that arc and the joined edge are
    inserted among t's other edges, which are kept as stored.  So only the
    joined edge can need a fold, unless t has an edge with a square or
    several decorations.
    """
    face = "S" if side == "right" else "N"
    x, y = (face, i), (face, i + 1)
    cup = _cup(i)
    edges: List[Edge] = []  # t's other edges, in stored order
    away = {}  # x and y: (partner, decorations read from the node, position in edges)
    nn = ss = 0  # how many of edges are N-N, and S-S
    loose = False  # some edge of edges is not reduced
    for e in t.edges:
        a, b, decs = e
        if a == x or a == y:
            away[a] = (b, decs, len(edges))
        elif b == x or b == y:
            away[b] = (a, decs[::-1], len(edges))
        else:
            edges.append(e)
            if b[0] == "N":
                nn += 1
            elif a[0] == "S":
                ss += 1
            if decs and (len(decs) > 1 or decs[0] == "s"):
                loose = True
    (p, dp, k), cap = away[x], (x, y, cup)
    if p == y:
        loops, fold = (_canonical_cycle(dp + cup),), ()
        if dp == cup:
            out = t
        else:
            edges.insert(k, cap)
            out = Tangle._from_edges(t.n_north, t.n_south, edges)
    else:
        q, dq, _ = away[y]
        _insert_edge(edges, cap, nn, ss)
        if face == "N":
            nn += 1
        else:
            ss += 1
        joined = dp[::-1] + cup + dq
        # ends compare as tuples in canonical order ("N" < "S")
        k = _insert_edge(edges, (p, q, joined) if p < q else (q, p, joined[::-1]), nn, ss)
        loops, fold = (), ((k,) if len(joined) > 1 or "s" in joined else ())
        out = Tangle._from_edges(t.n_north, t.n_south, edges)
    if loose:
        fold = tuple(k for k, (_, _, d) in enumerate(out.edges) if len(d) > 1 or "s" in d)
    return out, loops, fold


def _insert_edge(edges: List[Edge], e: Edge, nn: int, ss: int) -> int:
    """Insert ``e`` into stored-order ``edges`` whose first ``nn`` edges are
    N-N and next ``ss`` are S-S; return its position.  Within a kind the
    stored order is that of the edge tuples themselves."""
    a, b, _ = e
    lo, hi = ((0, nn) if b[0] == "N" else (nn, nn + ss) if a[0] == "S"
              else (nn + ss, len(edges)))
    k = bisect.bisect(edges, e, lo, hi)
    edges.insert(k, e)
    return k


def _canonical_cycle(decs: Tuple[Decor, ...]) -> Tuple[Decor, ...]:
    if len(decs) <= 1:
        return decs
    candidates = []
    for seq in (decs, tuple(reversed(decs))):
        for k in range(len(seq)):
            candidates.append(seq[k:] + seq[:k])
    return min(candidates)


# ---------------------------------------------------------------------------
# reduction rules


@dataclass(frozen=True)
class RuleSet:
    """Scalar parameters of a diagram reduction system, solved by calibration.

    Two circles on one curve expand as alpha*(one circle) + beta*(no circle);
    in family B a square expands as sigma*(circle) + tau*(plain).  ``fold``
    applies both rules to a decoration word, and serves closed loops (valued
    by ``plain_loop``/``circle_loop``) and surviving edges alike.

    The scalars may live in any commutative ring with ``+``, ``*`` (also by
    ``int``) and ``bool``; the type of ``plain_loop`` names that ring, which
    provides ``const(int)`` and ``from_integral(LaurentPoly)``.
    """

    family: str
    plain_loop: object
    circle_loop: object
    alpha: object
    beta: object
    sigma: object = None
    tau: object = None

    def __post_init__(self):
        # the unit is read on every composition; build it once per rule set
        object.__setattr__(self, "_one", self.const(1))
        object.__setattr__(self, "_zero", self.const(0))
        # fold's values by decoration word: each word is folded once
        object.__setattr__(self, "_folds", {})

    def one(self):
        return self._one

    def const(self, c: int):
        return type(self.plain_loop).const(c)

    def lift(self, p: LaurentPoly):
        return type(self.plain_loop).from_integral(p)

    def fold(self, decs: Tuple[Decor, ...]):
        """(plain, circle): decs reduces to plain*(none) + circle*(one circle).

        The first square is replaced first; a word of circles only folds its
        last two.  The words a fold recurses on are folded once per rule set.
        """
        out = self._folds.get(decs)
        if out is None:
            out = self._folds[decs] = self._fold(decs)
        return out

    def _fold(self, decs: Tuple[Decor, ...]):
        if "s" in decs:
            if self.family != "B":
                raise ReductionError("square decorations only occur in family B")
            k = decs.index("s")
            x, y = self.sigma, self.tau
            (p1, c1), (p2, c2) = (self.fold(decs[:k] + ("c",) + decs[k + 1:]),
                                  self.fold(decs[:k] + decs[k + 1:]))
        elif len(decs) <= 1:
            return (self._zero, self._one) if decs else (self._one, self._zero)
        else:
            x, y = self.alpha, self.beta
            (p1, c1), (p2, c2) = self.fold(decs[:-1]), self.fold(decs[:-2])
        return x * p1 + y * p2, x * c1 + y * c2

    def loop_value(self, decs: Tuple[Decor, ...]):
        plain, circle = self.fold(decs)
        return plain * self.plain_loop + circle * self.circle_loop

    def to_json(self) -> dict:
        out = {"family": self.family}
        for key in ("plain_loop", "circle_loop", "alpha", "beta", "sigma", "tau"):
            val = getattr(self, key)
            out[key] = None if val is None else str(val)
        return out

    @staticmethod
    def from_json(data: dict) -> "RuleSet":
        """Read ``to_json``'s object; TypeError for anything but an object or
        for a scalar that is not text, ValueError for a family other than B
        or H.

        Only family H's square scalars may be null.
        """
        if not isinstance(data, dict):
            raise TypeError(f"a rule set is a JSON object, not {type(data).__name__}")
        fam = data.get("family")
        if fam not in _RINGS:
            raise ValueError(f"rule set family must be B or H, not {fam!r}")
        parse = _RINGS[fam].parse
        vals = {}
        for key in ("plain_loop", "circle_loop", "alpha", "beta", "sigma", "tau"):
            raw = data.get(key)
            if raw is None and fam == "H" and key in ("sigma", "tau"):
                vals[key] = None
            elif isinstance(raw, str):
                vals[key] = parse(raw)
            else:
                raise TypeError(f"rule set scalar {key} is {raw!r}, not polynomial text")
        return RuleSet(family=fam, **vals)


#: The scalar ring of each family's diagram calculus: family B divides by 2.
_RINGS = {"H": LaurentPoly, "B": RationalLaurent}


class DiagramElement:
    """A finite combination of reduced tangles with exact coefficients.

    Coefficients come from the ring of the rule set that produced them:
    integer Laurent polynomials in family H, dyadic rational ones in family
    B, and symbolic scalars during calibration.
    """

    __slots__ = ("family", "n", "coeffs", "_hash")

    def __init__(self, family: str, n: int, coeffs: Dict[Tangle, object]):
        items = tuple((t, c) for t, c in coeffs.items() if c)
        if len(items) > 1:
            items = tuple(sorted(items, key=lambda tc: tc[0].sort_key()))
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", items)
        object.__setattr__(self, "_hash", hash((family, n, items)))

    def __setattr__(self, name, value):
        raise AttributeError("DiagramElement is immutable")

    def as_dict(self):
        return dict(self.coeffs)

    def coeff(self, t: Tangle):
        for tt, c in self.coeffs:
            if tt == t:
                return c
        return None

    def is_zero(self):
        return not self.coeffs

    def support(self):
        return tuple(t for t, _ in self.coeffs)

    def _plus(self, other, sign: int):
        """self + sign * other; the constructor drops the terms that cancel."""
        if not isinstance(other, DiagramElement):
            return NotImplemented
        if (self.family, self.n) != (other.family, other.n):
            raise ValueError("family or strand-count mismatch")
        acc = self.as_dict()
        _add_scaled(acc, other.coeffs, sign)
        return DiagramElement(self.family, self.n, acc)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def scale(self, c):
        return DiagramElement(self.family, self.n, {t: cc * c for t, cc in self.coeffs})

    def __eq__(self, other):
        if not isinstance(other, DiagramElement):
            return NotImplemented
        return (self.family, self.n, self.coeffs) == (other.family, other.n, other.coeffs)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if not self.coeffs:
            return f"DiagramElement({self.family}, n={self.n}, 0)"
        body = " + ".join(f"({c})*<{format_tangle(t)}>" for t, c in self.coeffs)
        return f"DiagramElement({self.family}, n={self.n}, {body})"


def _expand_edges(t: Tangle, rules: RuleSet, at: Iterable[int]) -> Dict[Tangle, object]:
    """Fold each edge at the positions ``at`` that carries a square or several
    decorations: {reduced tangle: coefficient}."""
    edges = t.edges
    folds = [(k, rules.fold(edges[k][2])) for k in at
             if "s" in edges[k][2] or len(edges[k][2]) >= 2]
    if not folds:
        return {t: rules.one()}
    out: Dict[Tangle, object] = {}
    # one reduced tangle per choice of (plain | one circle) on each folded edge
    for choice in itertools.product(*[((p, ()), (c, ("c",))) for _, (p, c) in folds]):
        coeff = math.prod((x for x, _ in choice), start=rules.one())
        if coeff:
            new = list(edges)
            for (k, _), (_, decs) in zip(folds, choice):
                new[k] = new[k][:2] + (decs,)
            out[Tangle._from_edges(t.n_north, t.n_south, new)] = coeff
    return out


def _reduce(tangle: Tangle, loops: Sequence[Tuple[Decor, ...]],
            rules: RuleSet) -> Dict[Tangle, object]:
    """Value the loops and fold every edge: {reduced tangle: coefficient}."""
    scalar = math.prod((rules.loop_value(loop) for loop in loops), start=rules.one())
    if not scalar:
        return {}
    return {t: c * scalar
            for t, c in _expand_edges(tangle, rules, range(len(tangle.edges))).items()}


def reduce_composition(tangle: Tangle, loops: Sequence[Tuple[Decor, ...]],
                       rules: RuleSet) -> DiagramElement:
    """Convert loops to scalars and fold decorations down to reduced form."""
    return DiagramElement(rules.family, tangle.n_north, _reduce(tangle, loops, rules))


# ---------------------------------------------------------------------------
# evaluation of words


class DiagramCalculus:
    """Evaluates generator words through the diagram homomorphism."""

    def __init__(self, rules: RuleSet):
        self.rules = rules
        self.family = rules.family
        self._eval_cache: Dict[Tuple[int, Tuple[int, ...]], DiagramElement] = {}

    def one(self, n: int) -> DiagramElement:
        return DiagramElement(self.family, n, {identity_tangle(n): self.rules.one()})

    def apply_gen(self, elem: DiagramElement, i: int, side: str = "right") -> DiagramElement:
        """elem * b_i (side "right"), else b_i * elem: the calculus's one loop
        of generator actions.  Each term's tangle is rewritten at the two
        arcs the generator touches (``_act``); the loop it closes is valued
        and only the edges it names are folded."""
        if type(i) is not int or not 1 <= i <= elem.n - 1:
            _check_word(elem.n, (i,))  # raises, naming the fault
        if side not in ("left", "right"):
            raise ValueError(f"side {side!r} is neither 'left' nor 'right'")
        rules = self.rules
        # the image of b_i is 2 U_1 at i = 1 in family B, else U_i
        scale = rules.const(2) if (self.family == "B" and i == 1) else rules.one()
        acc: Dict[Tangle, object] = {}
        for t, c in elem.coeffs:
            tangle, loops, fold = _act(t, i, side)
            if loops:  # the cup closes one loop at most
                c = c * rules.loop_value(loops[0])
                if not c:
                    continue
            if fold:
                _add_scaled(acc, _expand_edges(tangle, rules, fold).items(), c * scale)
            else:
                _add_scaled(acc, ((tangle, c),), scale)
        return DiagramElement(self.family, elem.n, acc)

    def evaluate_word(self, n: int, word: Sequence[int]) -> DiagramElement:
        w = _check_word(n, word)  # before the lookup: 1.0 and True hash like 1
        out = self._eval_cache.get((n, w))
        if out is None:
            out = self.apply_gen(self.evaluate_word(n, w[:-1]), w[-1], "right") if w \
                else self.one(n)
            self._eval_cache[(n, w)] = out
        return out

    def image(self, n: int, coords) -> DiagramElement:
        """The diagram element of sum c * (word x) over integral coordinates.

        ``coords`` maps reduced words to ``LaurentPoly`` coefficients (a dict
        or (word, coefficient) pairs), as the algebra's basis tables do.
        """
        _check_strands(n)
        acc: Dict[Tangle, object] = {}
        for x, c in dict(coords).items():
            _add_scaled(acc, self.evaluate_word(n, x).coeffs, self.rules.lift(c))
        return DiagramElement(self.family, n, acc)

    def multiply(self, a: DiagramElement, b: DiagramElement) -> DiagramElement:
        """The general product: every pair of terms composed whole
        (``compose_raw``), reduced and accumulated."""
        acc: Dict[Tangle, object] = {}
        for t1, c1 in a.coeffs:
            for t2, c2 in b.coeffs:
                _add_scaled(acc, _reduce(*compose_raw(t1, t2), self.rules).items(), c1 * c2)
        return DiagramElement(self.family, a.n, acc)


def loop_count(n: int, word: Sequence[int]) -> int:
    """Closed curves formed when composing the word without any reduction.

    Decorations play no role in the count, so it runs on the bare product's
    south face alone: ``south[j]`` is the south node that j is joined to, or
    0 when j runs north.  Letter s closes a loop when s and s + 1 are already
    joined; otherwise their two partners are joined to each other.  Either
    way s and s + 1 then form a cap.  This is the deletion oracle for letter
    classification.
    """
    word = _check_word(n, word)
    south = [0] * (n + 1)
    total = 0
    for s in word:
        a, b = south[s], south[s + 1]
        if a == s + 1:
            total += 1
        else:
            if a:
                south[a] = b
            if b:
                south[b] = a
        south[s], south[s + 1] = s + 1, s
    return total


# ---------------------------------------------------------------------------
# diagram classification and enumeration


@dataclass(frozen=True)
class DiagramInfo:
    """``classify_diagram``'s reading of a tangle.

    ``H_admissible``: the tangle is one of family H's admissible diagrams.
    ``edge_types``: parallel to the tangle's edges, "p1" for the edge N1-S1,
    "p2" for another edge at N1 or S1, "p3" for the rest.
    """

    H_admissible: bool
    edge_types: Tuple[str, ...]


def _edge_type(t: Tangle, edge: Edge) -> str:
    touches_n1 = ("N", 1) in (edge[0], edge[1])
    touches_s1 = ("S", 1) in (edge[0], edge[1])
    if touches_n1 and touches_s1:
        return "p1"
    if touches_n1 or touches_s1:
        return "p2"
    return "p3"


def classify_diagram(t: Tangle) -> DiagramInfo:
    if t.n_north != t.n_south:
        raise ValueError("classification requires equally many north and south nodes")
    types = tuple(_edge_type(t, e) for e in t.edges)
    n_decs = t.decoration_count()
    squares = t.has_squares()
    single = all(len(e[2]) <= 1 for e in t.edges)
    all_prop = all(t.is_propagating(e) for e in t.edges)

    def face_condition(face: str) -> bool:
        # a decorated 1-2 edge on the face, or a plain i,(i+1) edge with i > 1
        for a, b, decs in t.edges:
            if a[0] == face and b[0] == face:
                lo, hi = sorted((a[1], b[1]))
                if lo == 1 and hi == 2 and len(decs) == 1:
                    return True
                if lo > 1 and hi == lo + 1 and not decs:
                    return True
        return False

    h_adm = (not squares) and single and (
        (all_prop and n_decs == 0)
        or (not all_prop and face_condition("N") and face_condition("S"))
    )
    return DiagramInfo(h_adm, types)


def _noncrossing_matchings(total: int):
    """Non-crossing perfect matchings of positions 1..total (linear order)."""
    if total == 0:
        yield ()
        return
    positions = list(range(1, total + 1))

    def rec(pos_list):
        if not pos_list:
            yield ()
            return
        first = pos_list[0]
        for k in range(1, len(pos_list), 2):
            partner = pos_list[k]
            inside = pos_list[1:k]
            outside = pos_list[k + 1:]
            for m_in in rec(inside):
                for m_out in rec(outside):
                    yield ((first, partner),) + m_in + m_out

    yield from rec(positions)


def _pos_to_end(p: int, n: int) -> End:
    return ("N", p) if p <= n else ("S", 2 * n - p + 1)


def all_matchings(n: int) -> List[Tangle]:
    out = []
    for pairing in _noncrossing_matchings(2 * n):
        edges = [(_pos_to_end(a, n), _pos_to_end(b, n), ()) for a, b in pairing]
        out.append(Tangle(n, n, edges))
    return out


def enumerate_h_admissible(n: int) -> List[Tangle]:
    _check_strands(n)
    out = []
    for t in all_matchings(n):
        exposed = [i for i, flag in enumerate(t._exposure()) if flag]
        for r in range(len(exposed) + 1):
            for combo in itertools.combinations(exposed, r):
                # circling west-exposed edges keeps the tangle canonical and valid
                edges = [
                    (a, b, ("c",) if i in combo else ())
                    for i, (a, b, _) in enumerate(t.edges)
                ]
                cand = Tangle._from_edges(n, n, edges)
                if classify_diagram(cand).H_admissible:
                    out.append(cand)
    out.sort(key=Tangle.sort_key)
    return out


def enumerate_b_canonical(n: int) -> List[Tuple[Tangle, int]]:
    """All canonical diagrams with their normalization factor; the package's
    one encoding of family B's canonical classes.

    A matching with the edge N1-S1 gives class C1, itself, and when some edge
    does not propagate class C1', a square on N1-S1 (factor 1).  Any other
    matching gives class C2: a circle on each edge at N1 or S1 and a square
    on each of any subset of the other west-exposed edges (factor 2).
    """
    _check_strands(n)
    out: List[Tuple[Tangle, int]] = []
    for t in all_matchings(n):
        info = classify_diagram(t)
        p1 = [i for i, ty in enumerate(info.edge_types) if ty == "p1"]
        p2 = [i for i, ty in enumerate(info.edge_types) if ty == "p2"]
        # decorating west-exposed edges keeps the tangle canonical and valid,
        # and the edges at N1 or S1 are always exposed
        if p1:
            out.append((t, 1))  # C1: undecorated
            if any(not t.is_propagating(e) for e in t.edges):
                edges = [(a, b, ("s",) if i in p1 else ())
                         for i, (a, b, _) in enumerate(t.edges)]
                out.append((Tangle._from_edges(n, n, edges), 1))  # C1'
        else:
            free = [i for i, flag in enumerate(t._exposure()) if flag and i not in p2]
            for r in range(len(free) + 1):
                for combo in itertools.combinations(free, r):
                    edges = []
                    for i, (a, b, _) in enumerate(t.edges):
                        if i in p2:
                            edges.append((a, b, ("c",)))
                        elif i in combo:
                            edges.append((a, b, ("s",)))
                        else:
                            edges.append((a, b, ()))
                    out.append((Tangle._from_edges(n, n, edges), 2))  # C2
    out.sort(key=lambda tc: tc[0].sort_key())
    return out


def expand_squares(t: Tangle, rules: RuleSet) -> DiagramElement:
    """Translate a square-decorated diagram into the circle-only calculus."""
    return reduce_composition(t, (), rules)


def _leading_tangle(elem: DiagramElement) -> Tangle:
    """The most-decorated support tangle (ties broken by serialized form)."""
    if len(elem.coeffs) == 1:  # most closure candidates; skip the keyed scan
        return elem.coeffs[0][0]
    return max(elem.support(), key=lambda t: (t.decoration_count(), t.sort_key()))


@functools.lru_cache(maxsize=None)
def _canonical_index(rules: RuleSet, n: int):
    """The family's enumerated canonical diagrams at ``n`` strands:
    ({leading tangle of image: (diagram, factor, image)}, image sizes), the
    image being the normalized expansion (in family H, factor 1 and the
    diagram itself)."""
    diagrams = ([(t, 1) for t in enumerate_h_admissible(n)] if rules.family == "H"
                else enumerate_b_canonical(n))
    by_lead = {}
    for t, lam in diagrams:
        image = expand_squares(t, rules)
        image = image if lam == 1 else image.scale(lam)
        lead = _leading_tangle(image)
        if lead in by_lead:
            raise AssertionError(f"canonical diagrams {format_tangle(by_lead[lead][0])} and "
                                 f"{format_tangle(t)} both lead with {format_tangle(lead)}")
        by_lead[lead] = (t, lam, image)
    return by_lead, frozenset(len(image.coeffs) for _, _, image in by_lead.values())


def _match_canonical(index, elem: DiagramElement):
    """(diagram, factor, image) of the canonical diagram whose image is
    ``elem``, or None; ``index`` is ``_canonical_index``'s."""
    by_lead, sizes = index
    if len(elem.coeffs) not in sizes:
        return None
    hit = by_lead.get(_leading_tangle(elem))
    return hit if hit is not None and hit[2] == elem else None


def recognize_b_canonical(elem: DiagramElement, rules: RuleSet):
    """Match a circle-calculus element against the canonical set.

    Returns (decorated diagram, normalization factor) or None, looking the
    enumerated diagrams up by the leading tangle of their normalized images.
    """
    if rules.family != "B" or elem.family != "B":
        raise ValueError("recognition is a family-B operation")
    hit = _match_canonical(_canonical_index(rules, elem.n), elem)
    return None if hit is None else hit[:2]


# ---------------------------------------------------------------------------
# the decoration-replacing map from family B to family H


def iota(elem: DiagramElement, rules_b: RuleSet) -> DiagramElement:
    """Replace every decoration by a circle, canonical diagram by diagram.

    The input must be a combination of canonical-set elements; the
    decomposition peels off the most-decorated support tangle, looks up the
    canonical diagram whose normalized expansion leads with it, and maps
    that diagram to the family-H diagram with all decorations circular
    (normalization factors drop to 1).
    """
    if elem.family != "B":
        raise ValueError("the decoration-replacing map starts from family B")
    if rules_b.family != "B":
        raise ValueError("rule set family does not match")
    by_lead, _ = _canonical_index(rules_b, elem.n)
    out: Dict[Tangle, LaurentPoly] = {}
    rem = elem
    while not rem.is_zero():
        shadow = _leading_tangle(rem)
        hit = by_lead.get(shadow)
        lead = None if hit is None else hit[2].coeff(shadow)
        # the leading coefficient must be a dyadic constant for the peeled
        # multiplicity to be exact
        if not lead or lead.terms != ((0, lead.terms[0][1]),):
            raise ValueError("support is not a combination of canonical diagrams")
        candidate, _, expansion = hit
        mu = rem.coeff(shadow) * (Fraction(1) / lead.terms[0][1])
        rem = rem - expansion.scale(mu)
        image = Tangle(candidate.n_north, candidate.n_south,
                       [(a, b, ("c",) * len(d)) for a, b, d in candidate.edges])
        out[image] = out.get(image, ZERO) + mu.to_integral()
    return DiagramElement("H", elem.n, out)


# ---------------------------------------------------------------------------
# generation by elementary procedures


def generate_by_procedures(family: str, n: int, rules: RuleSet) -> List[DiagramElement]:
    """Closure of the identity under generator multiplications and the gated
    quadratic moves; family H uses the two three-step moves as well.  The
    acceptor keeps each candidate that is the normalized image of a canonical
    diagram of the family (in H, an admissible diagram with coefficient 1)."""
    if rules.family != family:
        raise ValueError("rule set family does not match")
    _check_strands(n)
    if n < 3:
        raise ValueError(f"the gated moves use generators 1 and 2; {n} strands have fewer")
    calc = DiagramCalculus(rules)
    vpv = rules.lift(DELTA)
    by_lead, sizes = _canonical_index(rules, n)
    start = calc.one(n)
    if _match_canonical((by_lead, sizes), start) is None:
        raise RuntimeError("identity element rejected by the closure acceptor")
    # the canonical diagrams not yet reached, by leading tangle: a candidate
    # naming one already in the closure misses before its image is compared
    pending = dict(by_lead)
    del pending[_leading_tangle(start)]
    closure = [start]
    frontier = [start]
    gens = range(1, n)
    while frontier:
        new: List[DiagramElement] = []
        for cur in frontier:
            # each generator action on cur once; the gated moves reuse them
            acts = {(i, side): calc.apply_gen(cur, i, side)
                    for i in gens for side in ("left", "right")}
            candidates = list(acts.values())
            gate = cur.scale(vpv)
            for s, sp in ((1, 2), (2, 1)):
                for side in ("left", "right"):
                    if acts[(sp, side)] != gate:
                        continue
                    bs = acts[(s, side)]
                    bsp = calc.apply_gen(bs, sp, side)
                    candidates.append(bsp - cur)
                    if family == "H":
                        candidates.append(calc.apply_gen(bsp, s, side) - bs.scale(rules.const(2)))
            for cand in candidates:
                if _match_canonical((pending, sizes), cand) is not None:
                    del pending[_leading_tangle(cand)]
                    new.append(cand)
        frontier = new
        closure.extend(new)
    return sorted(closure, key=lambda e: e.coeffs[0][0].sort_key())


# ---------------------------------------------------------------------------
# calibration


class _SymPoly:
    """Polynomial in the three unknown reduction scalars over the Laurent ring.

    Calibration runs the diagram calculus with these as its scalars; the
    coefficients of the resulting relation residuals are the equations.
    """

    __slots__ = ("terms",)
    _UNIT = {(0, 0, 0): ONE}  # the unit's terms

    def __init__(self, terms: Dict[Tuple[int, int, int], LaurentPoly] = None):
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    @staticmethod
    def const(c: int) -> "_SymPoly":
        return _SymPoly.from_integral(LaurentPoly.const(c))

    @staticmethod
    def from_integral(p: LaurentPoly) -> "_SymPoly":
        return _SymPoly({(0, 0, 0): p})

    @staticmethod
    def var(which: str) -> "_SymPoly":
        key = {"alpha": (1, 0, 0), "beta": (0, 1, 0), "cl": (0, 0, 1)}[which]
        return _SymPoly({key: ONE})

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, ZERO) + v
        return _SymPoly(out)

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        if isinstance(other, int):
            return _SymPoly({k: v * other for k, v in self.terms.items()})
        if self.terms == self._UNIT:  # the unit takes the other factor, not a product
            return other
        if other.terms == self._UNIT:
            return self
        out: Dict[Tuple[int, int, int], LaurentPoly] = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                k = (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2])
                out[k] = out.get(k, ZERO) + v1 * v2
        return _SymPoly(out)

    def __bool__(self):
        return bool(self.terms)


def _relations(family: str, n: int):
    """(word, its rewrite) for each defining relation on n strands.

    The words come from the Coxeter graph: each square s s, each commuting
    pair t s out of normal order, and each braid word.  Their rewrites are
    ``TLAlgebra``'s own, so the presentation has one encoding.
    """
    alg = TLAlgebra(CoxeterGraph(family, n - 1))
    gens, bonds, braids = alg.graph.generators, alg.graph.bonds, alg.graph.braids
    words = [(s, s) for s in gens]
    words += [(t, s) for s in gens for t in gens if t > s and bonds[s][t] == 2]
    words += [braids[s][t] for s in gens for t in gens if braids[s][t]]
    return [(w, alg.word_to_basis(w)) for w in words]


def _relation_residuals(rules: RuleSet, n: int):
    """Yield (word, rewrite, image of the word - image of the rewrite)."""
    calc = DiagramCalculus(rules)
    for lhs, rhs in _relations(rules.family, n):
        yield lhs, rhs, calc.evaluate_word(n, lhs) - calc.image(n, rhs.coords)


#: Calibration solves at the first strand count and re-verifies at the second.
CALIBRATION_STRANDS = (3, 4)
_SOLVE_STRANDS, _VERIFY_STRANDS = CALIBRATION_STRANDS


def _calibration_equations(family: str) -> List[Dict[Tuple[int, int, int], LaurentPoly]]:
    """The calibration system: every coefficient of every relation residual
    at three strands, computed with the unknown scalars symbolic.

    An equation maps (i, j, k) to its coefficient of alpha^i beta^j c^k, c
    the circle loop value; the equation says their sum is zero.
    """
    alpha, beta, cl = (_SymPoly.var(x) for x in ("alpha", "beta", "cl"))
    symbolic = RuleSet(family, _SymPoly.from_integral(DELTA), cl, alpha, beta)
    return [e.terms for _, _, residual in _relation_residuals(symbolic, _SOLVE_STRANDS)
            for _, e in residual.coeffs]


def _equation_text(eq) -> str:
    """A calibration equation as text, e.g. ``(v + v^-1)*beta + (1)*alpha*c = 0``."""
    terms = []
    for key in sorted(eq, reverse=True):
        mono = "*".join(x if n == 1 else f"{x}^{n}"
                        for x, n in zip(("alpha", "beta", "c"), key) if n)
        terms.append(f"({eq[key]})" + (f"*{mono}" if mono else ""))
    return " + ".join(terms) + " = 0"


def _narrow(terms: Dict[int, Fraction], family: str):
    """The element of the family's scalar ring with these rational terms, or
    None if the ring has none: family H's ring is integral, B's dyadic."""
    try:
        p = RationalLaurent(terms)
        return p.to_integral() if _RINGS[family] is LaurentPoly else p
    except ValueError:
        return None


def _evaluate(poly: Dict[int, object], x: Fraction) -> Fraction:
    return sum((c * x ** e for e, c in poly.items()), Fraction(0))


def _divisors(n: int) -> List[int]:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _rational_roots(poly: Dict[int, object]) -> List[Fraction]:
    """The distinct rational roots of a nonzero polynomial {exponent >= 0:
    rational coefficient}, by the rational-root theorem."""
    den = math.lcm(*(Fraction(c).denominator for c in poly.values()))
    ints = {e: int(c * den) for e, c in poly.items() if c}
    low, lead = min(ints), ints[max(ints)]
    roots = {Fraction(0)} if low else set()
    for p in _divisors(abs(ints[low])):
        for q in _divisors(abs(lead)):
            roots.update(x for x in (Fraction(p, q), Fraction(-p, q)) if not _evaluate(ints, x))
    return sorted(roots)


def _at_beta(f: Dict[Tuple[int, int], int], b: Fraction) -> Dict[int, Fraction]:
    """f(alpha, b) as {power of alpha: nonzero coefficient}."""
    out: Dict[int, Fraction] = {}
    for (i, j), c in f.items():
        out[i] = out.get(i, 0) + c * b ** j
    return {i: c for i, c in out.items() if c}


def _resultant(f: Dict[Tuple[int, int], int], g: Dict[Tuple[int, int], int]) -> LaurentPoly:
    """The Sylvester resultant in alpha of two integer polynomials
    {(i, j): coefficient of alpha^i beta^j}, up to sign: a polynomial in beta,
    written in v, whose determinant is Bareiss-eliminated over Z[beta]."""
    def in_alpha(h):
        out = [{} for _ in range(max(i for i, _ in h) + 1)]
        for (i, j), c in h.items():
            out[i][j] = c
        return [LaurentPoly(d) for d in out]

    fc, gc = in_alpha(f), in_alpha(g)
    m, n = len(fc) - 1, len(gc) - 1
    rows = [{r + i: x for i, x in enumerate(fc)} for r in range(n)]
    rows += [{r + i: x for i, x in enumerate(gc)} for r in range(m)]
    rank, pivot = _bareiss(rows)
    return pivot if rank == m + n else ZERO


def _ring_solutions(equations, family: str) -> List[Tuple[object, object, object]]:
    """Every (alpha, beta, c) in the family's scalar ring solving ``equations``
    (as ``_calibration_equations`` writes them), sorted.

    The equations free of c must have integer coefficients.  The Sylvester
    resultant in alpha of two of them is a nonzero integer polynomial in
    beta, so every rational solution has a rational root of it as beta;
    alpha comes from the rational roots at that beta, and every c-free
    equation is checked.  The other equations must be linear in c, and c is
    their exact quotient in the family ring, the same from each.  A value
    outside the family ring drops its solution; a system of any other shape
    raises ``CalibrationError`` naming the shape.
    """
    distinct = {}
    for eq in equations:
        eq = {k: p for k, p in eq.items() if p}
        if eq:
            distinct.setdefault(tuple(sorted((k, p.terms) for k, p in eq.items())), eq)
    free, linear = [], []
    for eq in distinct.values():
        degree = max(k for _, _, k in eq)
        if degree > 1:
            raise CalibrationError(f"calibration equation {_equation_text(eq)} has "
                                   f"degree {degree} in c, not 1")
        if degree:
            linear.append(eq)
        elif any(p.degree != 0 or p.valuation != 0 for p in eq.values()):
            raise CalibrationError(f"c-free calibration equation {_equation_text(eq)} "
                                   "depends on v")
        else:
            free.append({(i, j): p.coeff(0) for (i, j, _), p in eq.items()})
    for pos, name in ((0, "alpha"), (1, "beta")):
        if not any(key[pos] for f in free for key in f):
            raise CalibrationError(f"no c-free calibration equation pins {name}")
    if not linear:
        raise CalibrationError("no calibration equation pins c")

    if len(free) < 2:
        raise CalibrationError("one c-free calibration equation leaves alpha and beta free")
    for f, g in itertools.combinations(free, 2):
        if any(i for i, _ in f) or any(i for i, _ in g):
            resultant = _resultant(f, g)
            if resultant:
                break
    else:
        raise CalibrationError(f"the resultant in alpha of every pair of the {len(free)} "
                               "c-free calibration equations vanishes identically")

    solutions = set()
    for b in _rational_roots(dict(resultant.terms)):
        at_b = [p for p in (_at_beta(f, b) for f in free) if p]
        if not at_b:
            raise CalibrationError(f"alpha is left free at beta = {b}")
        for a in _rational_roots(at_b[0]):
            if any(_evaluate(p, a) for p in at_b[1:]):
                continue
            alpha, beta = _narrow({0: a}, family), _narrow({0: b}, family)
            if alpha is not None and beta is not None:
                c = _solve_linear_c(linear, alpha, beta)
                if c is not None:
                    solutions.add((alpha, beta, c))
    return sorted(solutions, key=repr)


def _solve_linear_c(linear, alpha, beta):
    """The c in alpha's ring that solves every equation of ``linear`` at
    (alpha, beta), or None if there is none."""
    ring = type(alpha)
    # each equation as (c-free part, coefficient of c)
    parts = []
    for eq in linear:
        part = [ring.const(0), ring.const(0)]
        for (i, j, k), p in eq.items():
            part[k] = part[k] + ring.from_integral(p) * alpha ** i * beta ** j
        parts.append(part)
    pivot = next((part for part in parts if part[1]), None)
    if pivot is None:
        if any(rest for rest, _ in parts):
            return None
        raise CalibrationError(f"c is left free at alpha = {alpha}, beta = {beta}")
    try:
        c = (-pivot[0])._exact_div(pivot[1])
    except ValueError:  # no quotient in the ring
        return None
    return None if any(rest + lin * c for rest, lin in parts) else c


def _calibrated_scalars(equations, family: str) -> Tuple[object, object, object]:
    """The one solution of ``equations`` in the family ring with every scalar
    nonnegative; ``CalibrationError`` if there is not exactly one."""
    admissible = [s for s in _ring_solutions(equations, family)
                  if all(x.nonneg for x in s)]
    if len(admissible) != 1:
        raise CalibrationError(
            f"relations at {_SOLVE_STRANDS} strands admit {len(admissible)} "
            f"nonnegative exact solutions: {admissible}")
    return admissible[0]


def calibrate_ruleset(family: str) -> RuleSet:
    """Solve the reduction scalars from the presentation, then re-verify.

    The plain loop value is forced to delta by the quadratic relation away
    from the strong bond.  The remaining loop and folding scalars come from
    an exact solve of all defining relations at three strands
    (``_ring_solutions``); the sign freedom of flipping every circle is
    removed by requiring these scalars to be nonnegative, matching the
    reduction rules' reading as sums of diagrams.  In family B the square
    definition is then solved linearly from the image of B2's canonical
    element c_{212}, whose reduced form carries the square.  Failure to pin a
    unique solution, or any nonzero residual at four strands, raises
    ``CalibrationError``.
    """
    if family not in ("H", "B"):
        raise ValueError("calibration applies to families H and B")
    a_val, b_val, c_val = _calibrated_scalars(_calibration_equations(family), family)

    ring = _RINGS[family]
    plain = ring.from_integral(DELTA)
    if family == "H":
        rules = RuleSet("H", plain, c_val, a_val, b_val)
    else:
        # square definition: the canonical element c_{212} of B2 reduces to
        # the single diagram with a square on its middle propagating edge
        rules0 = RuleSet("B", plain, c_val, a_val, b_val, ring.const(0), ring.const(0))
        calc = DiagramCalculus(rules0)
        canon = TLAlgebra(CoxeterGraph("B", 2)).canonical_table()
        elem = calc.image(3, canon[(2, 1, 2)])
        circled = parse_tangle("n=3; N1-S1[c]; N2-N3; S2-S3")
        plain_t = parse_tangle("n=3; N1-S1; N2-N3; S2-S3")
        if set(elem.support()) != {circled, plain_t}:
            raise CalibrationError("square-defining element has unexpected support")
        sigma, tau = elem.coeff(circled), elem.coeff(plain_t)
        rules = RuleSet("B", plain, c_val, a_val, b_val, sigma, tau)
        # consistency: the other short canonical element, c_{121}, carries
        # the square at normalization factor 2
        elem2 = calc.image(3, canon[(1, 2, 1)])
        x_all = parse_tangle("n=3; N1-N2[c]; S1-S2[c]; N3-S3[c]")
        x_plain = parse_tangle("n=3; N1-N2[c]; S1-S2[c]; N3-S3")
        if not (elem2.coeff(x_all) == sigma * 2 and elem2.coeff(x_plain) == tau * 2):
            raise CalibrationError("square definition inconsistent between the "
                                   "two three-strand canonical elements")

    residual = verify_relations(rules, _VERIFY_STRANDS)
    if residual:
        raise CalibrationError(
            f"solved rules violate {len(residual)} relations at "
            f"{_VERIFY_STRANDS} strands: {residual[:3]}")
    return rules


def verify_relations(rules: RuleSet, n: int) -> List[str]:
    """Evaluate every defining relation at n strands; return violations."""
    _check_strands(n)
    return [f"{lhs} != {rhs}" for lhs, rhs, residual in _relation_residuals(rules, n)
            if not residual.is_zero()]


# ---------------------------------------------------------------------------
# rendering


def render(t: Tangle, format: str = "ascii") -> str:
    if format == "ascii":
        return _render_ascii(t)
    if format == "svg":
        return _render_svg(t)
    raise ValueError(f"unknown render format {format!r}")


def _render_ascii(t: Tangle) -> str:
    pitch = 4
    width = pitch * (max(t.n_north, t.n_south) - 1) + 3

    def col(idx):
        return pitch * (idx - 1) + 1

    cups = [e for e in t.edges if e[0][0] == "N" and e[1][0] == "N"]
    caps = [e for e in t.edges if e[0][0] == "S" and e[1][0] == "S"]
    props = [e for e in t.edges if t.is_propagating(e)]

    def depth(edge, group):
        lo, hi = sorted((edge[0][1], edge[1][1]))
        return 1 + sum(1 for o in group
                       if o is not edge and lo < sorted((o[0][1], o[1][1]))[0]
                       and sorted((o[0][1], o[1][1]))[1] < hi)

    bent = [e for e in props if e[0][1] != e[1][1]]
    nd = max([depth(e, cups) for e in cups], default=0)
    sd = max([depth(e, caps) for e in caps], default=0)
    lanes = len(bent)
    height = max(1, nd + sd + max(lanes, 1))
    grid = [[" "] * width for _ in range(height)]

    def vline(x, r0, r1):
        for r in range(r0, r1 + 1):
            grid[r][x] = "|"

    def hline(r, x0, x1):
        for x in range(x0, x1 + 1):
            if grid[r][x] == " ":
                grid[r][x] = "-"
        grid[r][x0] = "+"
        grid[r][x1] = "+"

    deco_marks = []
    for e in cups:
        d = depth(e, cups)
        x0, x1 = col(min(e[0][1], e[1][1])), col(max(e[0][1], e[1][1]))
        vline(x0, 0, d - 1)
        vline(x1, 0, d - 1)
        hline(d - 1, x0, x1)
        deco_marks.append((e, d - 1, x0 + 1))
    for e in caps:
        d = depth(e, caps)
        x0, x1 = col(min(e[0][1], e[1][1])), col(max(e[0][1], e[1][1]))
        vline(x0, height - d, height - 1)
        vline(x1, height - d, height - 1)
        hline(height - d, x0, x1)
        deco_marks.append((e, height - d, x0 + 1))
    lane_row = nd
    for e in props:
        xn = col(e[0][1] if e[0][0] == "N" else e[1][1])
        xs = col(e[1][1] if e[1][0] == "S" else e[0][1])
        if xn == xs:
            vline(xn, 0, height - 1)
            deco_marks.append((e, height // 2, xn + 1))
        else:
            vline(xn, 0, lane_row)
            vline(xs, lane_row, height - 1)
            hline(lane_row, min(xn, xs), max(xn, xs))
            deco_marks.append((e, lane_row, min(xn, xs) + 1))
            lane_row += 1
    for e, r, x in deco_marks:
        for k, d in enumerate(e[2]):
            if x + k < width:
                grid[r][x + k] = "o" if d == "c" else "#"
    return "\n".join("".join(row).rstrip() for row in grid) + "\n"


def _render_svg(t: Tangle) -> str:
    pitch = 40
    margin = 40
    width = pitch * (max(t.n_north, t.n_south) - 1) + 2 * margin
    height = 200
    y_n, y_s = 20, height - 20

    def x_of(idx):
        return margin + pitch * (idx - 1)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
    ]

    def fmt(x):
        return f"{x:.1f}"

    def marker(x, y, dec):
        if dec == "c":
            lines.append(f'<circle cx="{fmt(x)}" cy="{fmt(y)}" r="5" fill="white" stroke="black"/>')
        else:
            lines.append(f'<rect x="{fmt(x - 5)}" y="{fmt(y - 5)}" width="10" height="10" fill="white" stroke="black"/>')

    for a, b, decs in t.edges:
        if a[0] == b[0]:
            y = y_n if a[0] == "N" else y_s
            x0, x1 = sorted((x_of(a[1]), x_of(b[1])))
            r = (x1 - x0) / 2
            sweep = 0 if a[0] == "N" else 1
            lines.append(f'<path d="M {fmt(x0)} {fmt(y)} A {fmt(r)} {fmt(r)} 0 0 {sweep} '
                         f'{fmt(x1)} {fmt(y)}" fill="none" stroke="black"/>')
            ymid = y + r if a[0] == "N" else y - r
            for k, d in enumerate(decs):
                marker(x0 + (x1 - x0) * (k + 1) / (len(decs) + 1),
                       (y + ymid) / 2 + (ymid - y) / 2, d)
        else:
            xn = x_of(a[1]) if a[0] == "N" else x_of(b[1])
            xs = x_of(b[1]) if b[0] == "S" else x_of(a[1])
            lines.append(f'<path d="M {fmt(xn)} {fmt(y_n)} C {fmt(xn)} {fmt(height / 2)} '
                         f'{fmt(xs)} {fmt(height / 2)} {fmt(xs)} {fmt(y_s)}" '
                         f'fill="none" stroke="black"/>')
            for k, d in enumerate(decs):
                frac = (k + 1) / (len(decs) + 1)
                marker(xn + (xs - xn) * frac, y_n + (y_s - y_n) * frac, d)
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
