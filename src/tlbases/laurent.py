"""Exact arithmetic in the ring of integer Laurent polynomials in v.

Everything downstream computes over this ring, so the two polynomial types
here are immutable, hashable and exact.  ``LaurentPoly`` has integer
coefficients; ``RationalLaurent`` is the dyadic variant used by the type-B
diagram calculus, whose denominators are always powers of two.  The two are
deliberately separate types: mixing them silently is a bug, and the only
sanctioned crossing is the checked narrowing ``RationalLaurent.to_integral``.

Both types run on one kernel.  The public constructor validates its input
(integer exponents, coefficients of the right type, dyadic denominators) and
normalizes it; ring operations build their already-normalized terms directly
and skip that work.  Sums and products of dyadic polynomials are dyadic, so
the dyadic check only runs at the public constructor and on multiplication
by an arbitrary ``Fraction``.

Z[v, v^-1] is an integral domain, so a fraction-free elimination (Bareiss,
Math. Comp. 22, 1968) divides exactly at every step and runs on the Laurent
entries directly: ``_bareiss`` gives the rank and last pivot of a matrix over
the ring, for the forms' nondegeneracy and the calibration resultant.
``_add_scaled`` accumulates scaled coefficients by key, for the diagram
calculus.

A polynomial whose exponents are bounded below packs into one integer, its
value at v = 2^K scaled to clear the negative powers (Kronecker
substitution; Harvey, J. Symb. Comp. 44, 2009): ``_pack``, ``_unpack`` and
``_digit`` read and write it in balanced base-2^K digits, exactly while
every coefficient stays below 2^(K-1) in absolute value.  The t-tilde walk
runs on these integers.  A bar-invariant polynomial is a polynomial in
delta = v + v^-1 (``_to_delta``) and packs as its value at delta = 2^K;
``_delta_unpack`` reads it back, and ``_delta_mask`` tests in one AND that
every delta-coefficient is >= 0.  The canonical rows run on these.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Tuple, Union

__all__ = [
    "LaurentPoly",
    "RationalLaurent",
    "NarrowingError",
    "ZERO",
    "ONE",
    "V",
    "V_INV",
    "DELTA",
    "invariant_completion",
]


class NarrowingError(ValueError):
    """A dyadic polynomial had a non-trivial denominator left to narrow."""


def _normalized(acc) -> tuple:
    """The normalized term tuple of an {exponent: coefficient} accumulator:
    (exponent, coefficient) pairs in strictly descending exponent order with
    no zero coefficient."""
    # most accumulators hold one term and few hold a zero: 12,665 and 364 of
    # the 13,182 in one round of the `tables` bench
    if len(acc) == 1:
        term, = acc.items()
        return (term,) if term[1] else ()
    # exponents are distinct, so the pairs sort by exponent alone
    terms = sorted(acc.items(), reverse=True)
    if 0 in acc.values():
        return tuple(t for t in terms if t[1])
    return tuple(terms)


def _gather(data, coerce):
    acc: dict = {}
    items = data.items() if isinstance(data, (dict, Mapping)) else data
    for exp, coeff in items:
        if not isinstance(exp, int):
            raise TypeError(f"exponent must be int, got {exp!r}")
        acc[exp] = acc.get(exp, 0) + coerce(coeff)
    return _normalized(acc)


def _coerce_int(c):
    if isinstance(c, bool) or not isinstance(c, int):
        raise TypeError(f"coefficient must be int, got {c!r}")
    return c


def _coerce_fraction(c):
    if isinstance(c, int) and not isinstance(c, bool):
        return Fraction(c)
    if isinstance(c, Fraction):
        return c
    raise TypeError(f"coefficient must be int or Fraction, got {c!r}")


def _format_terms(terms, coeff_str) -> str:
    if not terms:
        return "0"
    pieces = []
    for i, (exp, coeff) in enumerate(terms):
        neg = coeff < 0
        mag = -coeff if neg else coeff
        if exp == 0:
            body = coeff_str(mag)
        else:
            vpart = "v" if exp == 1 else f"v^{exp}"
            body = vpart if mag == 1 else f"{coeff_str(mag)}*{vpart}"
        if i == 0:
            pieces.append(("-" if neg else "") + body)
        else:
            pieces.append((" - " if neg else " + ") + body)
    return "".join(pieces)


def _split_terms(text: str):
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial text")
    chunks = []
    start = 0
    for i, ch in enumerate(s):
        if ch in "+-" and i > 0 and s[i - 1] != "^" and i != start:
            chunks.append(s[start:i])
            start = i
    chunks.append(s[start:])
    return chunks


def _parse_terms(text: str, coeff_parse):
    out = []
    for chunk in _split_terms(text):
        sign = 1
        if chunk and chunk[0] in "+-":
            sign = -1 if chunk[0] == "-" else 1
            chunk = chunk[1:]
        if not chunk:
            raise ValueError(f"dangling sign in {text!r}")
        if "v" in chunk:
            head, _, tail = chunk.partition("v")
            if head.endswith("*"):
                head = head[:-1]
            coeff = coeff_parse(head) if head else 1
            if tail.startswith("^"):
                exp = int(tail[1:])
            elif tail == "":
                exp = 1
            else:
                raise ValueError(f"cannot parse term {chunk!r}")
        else:
            coeff = coeff_parse(chunk)
            exp = 0
        out.append((exp, sign * coeff))
    return out


class _Laurent:
    """The kernel shared by both polynomial types; not part of the API.

    Stored as ``terms``, a normalized term tuple, which makes equality and
    hashing cheap.  Values are immutable after construction and safe to
    share.  A subclass names its coefficient check (``_coerce``), the scalar
    types it accepts (``_scalars``), its coefficient parser and its
    coefficient division (``_divmod``: quotient and remainder).
    """

    __slots__ = ("terms",)
    _coerce = staticmethod(_coerce_int)
    _scalars: tuple = (int,)
    _parse_coeff = staticmethod(int)
    _divmod = staticmethod(divmod)

    def __init__(self, data: Union[Mapping, Iterable[Tuple[int, object]]] = ()):
        terms = _gather(data, self._coerce)
        self._check(terms)
        _set_terms(self, terms)

    @staticmethod
    def _check(terms) -> None:
        """Extra validation of the public constructor's normalized terms."""

    @classmethod
    def _from_terms(cls, terms):
        """Trusted constructor: ``terms`` must already be normalized."""
        p = object.__new__(cls)
        _set_terms(p, terms)
        return p

    @classmethod
    def _from_dict(cls, acc):
        """Trusted constructor from an {exponent: coefficient} accumulator."""
        return cls._from_terms(_normalized(acc))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1):
        return cls(((exp, coeff),))

    @classmethod
    def const(cls, c):
        return cls(((0, c),))

    def _lift(self, other):
        """``other`` as a polynomial of this type, or None if it is foreign."""
        if type(other) is type(self):
            return other
        if isinstance(other, self._scalars):
            return self.const(other)
        return None

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        if not other.terms:
            return self
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, 0) + c
        return self._from_dict(acc)

    __radd__ = __add__

    def __neg__(self):
        return self._from_terms(tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not type(self):
            return self._scale(other) if isinstance(other, self._scalars) else NotImplemented
        a, b = self.terms, other.terms
        # the unit (its terms, in either type, equal ((0, 1),)) takes the
        # other factor, not a product
        if a == ((0, 1),):
            return other
        if b == ((0, 1),):
            return self
        if len(b) == 1:
            a, b = b, a
        if len(a) == 1:  # a monomial factor keeps the other's order
            (e1, c1), = a
            return self._from_terms(tuple((e1 + e2, c1 * c2) for e2, c2 in b))
        acc: dict = {}
        for e1, c1 in a:
            for e2, c2 in b:
                acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
        return self._from_dict(acc)

    __rmul__ = __mul__

    def _scale(self, k):
        if k == 1:
            return self
        if not k:
            return self._from_terms(())
        return self._from_terms(tuple((e, c * k) for e, c in self.terms))

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined for polynomials")
        out = self.const(1)
        for _ in range(n):
            out = out * self
        return out

    def shift(self, k: int):
        """Multiply by v^k."""
        if not isinstance(k, int):
            raise TypeError(f"exponent must be int, got {k!r}")
        return self._from_terms(tuple((e + k, c) for e, c in self.terms))

    def bar(self):
        """The involution v -> v^-1: negate every exponent."""
        return self._from_terms(tuple((-e, c) for e, c in reversed(self.terms)))

    def _exact_div(self, other):
        """The quotient ``self / other`` in this type's ring; ValueError if there
        is none.

        Long division from the top term.  A quotient in the ring runs from
        v^(val self - val other) up to v^(deg self - deg other), so a
        remainder whose next quotient term would fall below that, or whose
        top coefficient the divisor's does not divide (``_divmod``), leaves
        no quotient; neither does a quotient the constructor would reject.
        """
        if not other.terms:
            raise ZeroDivisionError("division by the zero polynomial")
        (top, lead), rest = other.terms[0], other.terms[1:]
        low = self.valuation - other.valuation
        rem = dict(self.terms)
        quot = []
        while rem:
            exp = max(rem)
            shift = exp - top
            q, r = self._divmod(rem.pop(exp), lead)
            if r or shift < low:
                raise ValueError(f"{other} does not divide {self}")
            quot.append((shift, q))
            for e, c in rest:
                e += shift
                c = rem.get(e, 0) - q * c
                if c:
                    rem[e] = c
                else:
                    rem.pop(e, None)
        quot = tuple(quot)
        self._check(quot)
        return self._from_terms(quot)

    # -- structure ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash((type(self).__name__, self.terms))

    def coeff(self, exp: int):
        for e, c in self.terms:
            if e == exp:
                return c
        return 0

    @property
    def nonneg(self) -> bool:
        """Every coefficient is >= 0 (true of the zero polynomial)."""
        return all(c >= 0 for _, c in self.terms)

    @property
    def degree(self):
        """Largest exponent, or -inf for the zero polynomial."""
        return self.terms[0][0] if self.terms else float("-inf")

    @property
    def valuation(self):
        """Smallest exponent, or +inf for the zero polynomial."""
        return self.terms[-1][0] if self.terms else float("inf")

    def __repr__(self):
        return f"{type(self).__name__}('{self}')"

    def __str__(self):
        return _format_terms(self.terms, str)

    @classmethod
    def parse(cls, text: str):
        """Parse the canonical text form, e.g. ``"3*v^2 - 1 + 2*v^-3"``."""
        return cls(_parse_terms(text, cls._parse_coeff))


_set_terms = _Laurent.terms.__set__


class LaurentPoly(_Laurent):
    """A sparse integer Laurent polynomial in v."""

    __slots__ = ()

    @classmethod
    def from_integral(cls, p: "LaurentPoly") -> "LaurentPoly":
        """The integral ring's own embedding: the identity."""
        return p

    def to_integral(self) -> "LaurentPoly":
        """The integral ring's own narrowing: the identity."""
        return self


ZERO = LaurentPoly()
ONE = LaurentPoly.const(1)
V = LaurentPoly.monomial(1)
V_INV = LaurentPoly.monomial(-1)
#: The loop scalar delta = v + v^-1; exposed once so call sites never rebuild it.
DELTA = V + V_INV


def invariant_completion(p: LaurentPoly) -> LaurentPoly:
    """The unique bar-fixed mu(p) with p - mu(p) in v^-1 Z[v^-1].

    Concretely mu(sum a_k v^k) = a_0 + sum_{k>0} a_k (v^k + v^-k); the terms
    of negative exponent in the input do not contribute.
    """
    head = [(e, c) for e, c in p.terms if e >= 0]
    mirror = [(-e, c) for e, c in reversed(head) if e > 0]
    return p._from_terms(tuple(head + mirror))


def _add_scaled(acc: dict, terms, scale) -> None:
    """acc += scale * terms, for (key, coefficient) pairs over any ring whose
    ``*`` takes the unit rule: a term times a unit scale, or a unit term
    times the scale, adds the other factor itself."""
    for k, c in terms:
        c = c * scale
        s = acc.get(k)
        acc[k] = c if s is None else s + c


def _pack(p: LaurentPoly, width: int, off: int) -> int:
    """The Kronecker image of p: sum c_e 2^(width*(e + off)), that is p at
    v = 2^width times 2^(width*off).  Every exponent of p must be >= -off.

    The map is a ring homomorphism up to the scaling, so sums, products and
    shifts (multiplication by v^k as a shift by width*k) are exact integer
    arithmetic; ``_unpack`` and ``_digit`` read the coefficients back.
    """
    return sum(c << (width * (e + off)) for e, c in p.terms)


def _digit(packed: int, width: int, pos: int) -> int:
    """The balanced digit of ``packed`` at position pos: the coefficient of
    v^(pos - off) of the polynomial ``_pack`` gave with that off, provided
    every coefficient is below 2^(width-1) in absolute value."""
    shift = width * pos
    half = 1 << (width - 1)
    high = (packed + (1 << shift >> 1)) >> shift  # the digits from pos up
    return ((high + half) & ((1 << width) - 1)) - half


def _unpack(packed: int, width: int, off: int) -> LaurentPoly:
    """The inverse of ``_pack`` in balanced digits, exact while every
    coefficient is below 2^(width-1) in absolute value."""
    half = 1 << (width - 1)
    mask = (1 << width) - 1
    terms = []
    e = -off
    while packed:
        d = ((packed + half) & mask) - half
        if d:
            terms.append((e, d))
        packed = (packed - d) >> width
        e += 1
    return LaurentPoly._from_terms(tuple(reversed(terms)))


def _to_delta(p: LaurentPoly) -> LaurentPoly:
    """The coefficients of a bar-invariant p in powers of delta, as q in Z[v]
    with q(delta) = p: each step takes off the top term c v^e as c delta^e."""
    terms = []
    while p:
        e, c = p.terms[0]
        terms.append((e, c))
        p = p - DELTA ** e * c
    return LaurentPoly._from_terms(tuple(terms))


def _delta_unpack(packed: int, width: int) -> LaurentPoly:
    """The p whose ``_to_delta`` packed (``_pack`` at off 0) to ``packed``,
    exact while every delta-coefficient is below 2^(width-1) in absolute value."""
    return sum((DELTA ** e * c for e, c in _unpack(packed, width, 0).terms), ZERO)


def _delta_mask(width: int, digits: int) -> int:
    """M with P & M == 0 exactly when P packs (in balanced digits below
    2^(width-1)) a combination of delta^0 .. delta^(digits-1) with every
    coefficient >= 0: bit width-1 of each of those digits, and every bit above."""
    top = 1 << (width * digits)
    return -top | (top - 1) // ((1 << width) - 1) << (width - 1)


def _bareiss(rows: List[Dict[int, LaurentPoly]]) -> Tuple[int, LaurentPoly]:
    """(rank over Q(v), last pivot) of rows {column: entry}, by Bareiss
    elimination.

    Each step takes a pivot from a remaining row and replaces every other
    remaining row r by (pivot * r - r[col] * pivot row) / previous pivot.
    The entries stay minors of the input, so the division is exact, and the
    last pivot is a maximal nonzero minor: of a square matrix of full rank,
    its determinant up to sign.  The pivot is the entry with fewest terms in
    a shortest row, which keeps the fill-in and the minors small.
    """
    rows = [r for r in ({c: x for c, x in row.items() if x} for row in rows) if r]
    prev = ONE
    rank = 0
    while rows:
        prow = rows.pop(min(range(len(rows)), key=lambda i: len(rows[i])))
        col = min(prow, key=lambda c: (len(prow[c].terms), c))
        piv = prow[col]
        nxt = []
        for r in rows:
            f = r.get(col)
            if f is None and piv == prev:
                nxt.append(r)  # (piv * r) / prev is r itself
                continue
            out = {c: piv * x for c, x in r.items() if c != col}
            if f is not None:
                for c, y in prow.items():
                    if c != col:
                        out[c] = out.get(c, ZERO) - f * y
            out = {c: x._exact_div(prev) for c, x in out.items() if x}
            if out:
                nxt.append(out)
        rows, prev = nxt, piv
        rank += 1
    return rank, prev


def _is_dyadic(fr: Fraction) -> bool:
    d = fr.denominator
    return d & (d - 1) == 0


class RationalLaurent(_Laurent):
    """A Laurent polynomial with dyadic rational coefficients.

    The type-B diagram calculus works over Q[v, v^-1] but only ever divides
    by 2, so every denominator is a power of two; the constructor enforces
    that.  ``to_integral`` narrows back to ``LaurentPoly`` and fails loudly
    if a denominator other than 1 survived.
    """

    __slots__ = ()
    _coerce = staticmethod(_coerce_fraction)
    _scalars = (int, Fraction)
    _parse_coeff = Fraction

    @staticmethod
    def _divmod(c, d):
        return c / d, 0

    @staticmethod
    def _check(terms) -> None:
        for e, c in terms:
            if not _is_dyadic(c):
                raise ValueError(f"denominator of {c} at v^{e} is not a power of 2")

    def _scale(self, k):
        k = _coerce_fraction(k)
        out = super()._scale(k)
        if not _is_dyadic(k):
            self._check(out.terms)
        return out

    @classmethod
    def from_integral(cls, p: LaurentPoly) -> "RationalLaurent":
        return cls._from_terms(tuple((e, Fraction(c)) for e, c in p.terms))

    def to_integral(self) -> LaurentPoly:
        for e, c in self.terms:
            if c.denominator != 1:
                raise NarrowingError(f"coefficient {c} at v^{e} is not an integer")
        return LaurentPoly._from_terms(tuple((e, c.numerator) for e, c in self.terms))
