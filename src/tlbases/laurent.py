"""Exact arithmetic in the ring of integer Laurent polynomials in v.

Everything downstream computes over this ring, so the two polynomial types
here are immutable, hashable and exact.  ``LaurentPoly`` has integer
coefficients; ``RationalLaurent`` is the dyadic variant used by the type-B
diagram calculus, whose denominators are always powers of two.  The two are
deliberately separate types: mixing them silently is a bug, and the only
sanctioned crossing is the checked narrowing ``RationalLaurent.to_integral``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Tuple, Union

__all__ = [
    "LaurentPoly",
    "RationalLaurent",
    "NarrowingError",
    "PolyClass",
    "ZERO",
    "ONE",
    "V",
    "V_INV",
    "DELTA",
    "classify",
    "invariant_completion",
]


class NarrowingError(ValueError):
    """A dyadic polynomial had a non-trivial denominator left to narrow."""


def _gather(data, coerce):
    acc: dict = {}
    items = data.items() if isinstance(data, Mapping) else data
    for exp, coeff in items:
        if not isinstance(exp, int):
            raise TypeError(f"exponent must be int, got {exp!r}")
        c = coerce(coeff)
        c = acc.get(exp, 0) + c
        if c:
            acc[exp] = c
        elif exp in acc:
            del acc[exp]
    return tuple(sorted(acc.items(), key=lambda t: -t[0]))


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


class LaurentPoly:
    """A sparse integer Laurent polynomial in v.

    Stored as ``terms``: (exponent, coefficient) pairs in descending exponent
    order with no zero coefficients, which makes equality and hashing cheap.
    Values are immutable after construction and safe to share.
    """

    __slots__ = ("terms",)

    def __init__(self, data: Union[Mapping[int, int], Iterable[Tuple[int, int]]] = ()):
        object.__setattr__(self, "terms", _gather(data, _coerce_int))

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1) -> "LaurentPoly":
        return cls(((exp, coeff),))

    @classmethod
    def const(cls, c: int) -> "LaurentPoly":
        return cls(((0, c),))

    @classmethod
    def from_integral(cls, p: "LaurentPoly") -> "LaurentPoly":
        """The integral ring's own embedding: the identity."""
        return p

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return LaurentPoly(list(self.terms) + list(other.terms))

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly([(e, -c) for e, c in self.terms])

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly([(e, c * other) for e, c in self.terms])
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        acc: dict = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                acc[e] = acc.get(e, 0) + c1 * c2
        return LaurentPoly(acc)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined for polynomials")
        out = ONE
        for _ in range(n):
            out = out * self
        return out

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by v^k."""
        return LaurentPoly([(e + k, c) for e, c in self.terms])

    # -- structure ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(("LaurentPoly", self.terms))

    def coeff(self, exp: int) -> int:
        for e, c in self.terms:
            if e == exp:
                return c
        return 0

    @property
    def degree(self):
        """Largest exponent, or -inf for the zero polynomial."""
        return self.terms[0][0] if self.terms else float("-inf")

    @property
    def valuation(self):
        """Smallest exponent, or +inf for the zero polynomial."""
        return self.terms[-1][0] if self.terms else float("inf")

    def bar(self) -> "LaurentPoly":
        """The involution v -> v^-1: negate every exponent."""
        return LaurentPoly([(-e, c) for e, c in self.terms])

    def __repr__(self):
        return f"LaurentPoly('{self}')"

    def __str__(self):
        return _format_terms(self.terms, str)

    @classmethod
    def parse(cls, text: str) -> "LaurentPoly":
        """Parse the canonical text form, e.g. ``"3*v^2 - 1 + 2*v^-3"``."""
        return cls(_parse_terms(text, int))


ZERO = LaurentPoly()
ONE = LaurentPoly.const(1)
V = LaurentPoly.monomial(1)
V_INV = LaurentPoly.monomial(-1)
#: The loop scalar delta = v + v^-1; exposed once so call sites never rebuild it.
DELTA = V + V_INV


class PolyClass(NamedTuple):
    in_Aminus: bool        # all exponents <= 0, i.e. in Z[v^-1]
    in_vinv_Aminus: bool   # all exponents <= -1, i.e. in v^-1 Z[v^-1]
    nonneg: bool           # all coefficients >= 0
    bar_fixed: bool        # invariant under v -> v^-1


def classify(p: LaurentPoly) -> PolyClass:
    """Membership predicates used by lattice and positivity checks."""
    return PolyClass(
        in_Aminus=all(e <= 0 for e, _ in p.terms),
        in_vinv_Aminus=all(e <= -1 for e, _ in p.terms),
        nonneg=all(c >= 0 for _, c in p.terms),
        bar_fixed=p == p.bar(),
    )


def invariant_completion(p: LaurentPoly) -> LaurentPoly:
    """The unique bar-fixed mu(p) with p - mu(p) in v^-1 Z[v^-1].

    Concretely mu(sum a_k v^k) = a_0 + sum_{k>0} a_k (v^k + v^-k); the terms
    of negative exponent in the input do not contribute.
    """
    acc: dict = {}
    for e, c in p.terms:
        if e > 0:
            acc[e] = acc.get(e, 0) + c
            acc[-e] = acc.get(-e, 0) + c
        elif e == 0:
            acc[0] = acc.get(0, 0) + c
    return LaurentPoly(acc)


def _is_dyadic(fr: Fraction) -> bool:
    d = fr.denominator
    return d & (d - 1) == 0


class RationalLaurent:
    """A Laurent polynomial with dyadic rational coefficients.

    The type-B diagram calculus works over Q[v, v^-1] but only ever divides
    by 2, so every denominator is a power of two; the constructor enforces
    that.  ``to_integral`` narrows back to ``LaurentPoly`` and fails loudly
    if a denominator other than 1 survived.
    """

    __slots__ = ("terms",)

    def __init__(self, data: Union[Mapping[int, Fraction], Iterable[Tuple[int, Fraction]]] = ()):
        terms = _gather(data, _coerce_fraction)
        for e, c in terms:
            if not _is_dyadic(c):
                raise ValueError(f"denominator of {c} at v^{e} is not a power of 2")
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError("RationalLaurent is immutable")

    @classmethod
    def from_integral(cls, p: LaurentPoly) -> "RationalLaurent":
        return cls([(e, Fraction(c)) for e, c in p.terms])

    @classmethod
    def const(cls, c) -> "RationalLaurent":
        return cls(((0, _coerce_fraction(c)),))

    def to_integral(self) -> LaurentPoly:
        for e, c in self.terms:
            if c.denominator != 1:
                raise NarrowingError(f"coefficient {c} at v^{e} is not an integer")
        return LaurentPoly([(e, int(c)) for e, c in self.terms])

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalLaurent.const(other)
        if not isinstance(other, RationalLaurent):
            return NotImplemented
        return RationalLaurent(list(self.terms) + list(other.terms))

    __radd__ = __add__

    def __neg__(self):
        return RationalLaurent([(e, -c) for e, c in self.terms])

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalLaurent.const(other)
        if not isinstance(other, RationalLaurent):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = _coerce_fraction(other)
            return RationalLaurent([(e, c * f) for e, c in self.terms])
        if not isinstance(other, RationalLaurent):
            return NotImplemented
        acc: dict = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                acc[e] = acc.get(e, 0) + c1 * c2
        return RationalLaurent(acc)

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, RationalLaurent):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(("RationalLaurent", self.terms))

    @property
    def degree(self):
        return self.terms[0][0] if self.terms else float("-inf")

    def bar(self) -> "RationalLaurent":
        return RationalLaurent([(-e, c) for e, c in self.terms])

    def __repr__(self):
        return f"RationalLaurent('{self}')"

    def __str__(self):
        return _format_terms(self.terms, lambda m: str(m) if isinstance(m, int) else str(m))

    @classmethod
    def parse(cls, text: str) -> "RationalLaurent":
        return cls(_parse_terms(text, Fraction))
