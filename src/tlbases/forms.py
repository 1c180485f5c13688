"""Bilinear forms on the t-tilde basis: the paper's gram-matrix criterion.

A candidate form is checked exactly for symmetry, anti-associativity
(B(t_s x, y) = B(x, t_s y) for every generator s), nondegeneracy and
unitriangularity mod v^-1.  A form that is not unitriangular is decided
nondegenerate by the rank of its gram matrix over Z[v, v^-1], from the
kernel's fraction-free elimination (``laurent._bareiss``).  The dimension of
the space of symmetric anti-associative forms needs no elimination: it is
the number of orbits of w -> w^-1 on the basis (``solution_space_dimension``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .algebra import Coords, TLAlgebra, _combine
from .coxeter import CoxeterGraph, Word, normal_form
from .laurent import ONE, ZERO, LaurentPoly, _bareiss

__all__ = ["GramCandidate", "natural_gram_candidate", "gram_check",
           "solution_space_dimension"]


@dataclass
class GramCandidate:
    """A symmetric-by-construction bilinear form on the t-basis."""

    graph: CoxeterGraph
    entries: Dict[Tuple[Word, Word], LaurentPoly]

    def entry(self, w: Word, x: Word) -> LaurentPoly:
        return self.entries.get((w, x), ZERO)


def natural_gram_candidate(alg: TLAlgebra) -> GramCandidate:
    """The trace form: pair two basis elements through the identity coefficient.

    The first argument is reversed (an anti-automorphism fixes each
    generator), which makes anti-associativity hold by construction; whether
    the form is nondegenerate and unitriangular is then checked, not assumed.
    For w = s u, t~_{w^-1} t~_x = t~_{u^-1} (t~_s t~_x), so the row of w is
    the row of u combined with the rows of t~_s's transposed left
    multiplication table: one row step per basis word.  A suffix of a normal
    word is normal and shorter, so u's row is built before w's.
    """
    words = alg.fc_words()
    right = {s: _transpose(table) for s, table in alg.ttilde_left_table().items()}
    rows: Dict[Word, Coords] = {(): {(): ONE}}
    for w in words[1:]:
        rows[w] = _combine(rows[w[1:]], right[w[0]])
    entries = {(w, x): rows[w].get(x, ZERO) for w in words for x in words}
    return GramCandidate(alg.graph, entries)


def _transpose(table: Dict[Word, Coords]) -> Dict[Word, Coords]:
    """{y: {w: c}} from {w: {y: c}}, with a row for every word of the table."""
    out: Dict[Word, Coords] = {w: {} for w in table}
    for w, row in table.items():
        for y, c in row.items():
            out[y][w] = c
    return out


def gram_check(alg: TLAlgebra, cand: GramCandidate) -> Dict[str, bool]:
    """Exact checks of the four bilinear-form conditions, each True or False.

    A form unitriangular mod v^-1 has determinant 1 + v^-1·(…), so it is
    nondegenerate without elimination; any other form is eliminated.
    """
    words = alg.fc_words()
    symmetric = all(cand.entry(w, x) == cand.entry(x, w)
                    for w in words for x in words)
    # B(t_s t_w, .) against B(t_w, t_s .), both as rows over the basis
    gram = {w: {x: c for x in words if (c := cand.entry(w, x))} for w in words}
    tables = [(t, _transpose(t)) for t in alg.ttilde_left_table().values()]
    anti = all(_combine(left[w], gram) == _combine(gram[w], right)
               for left, right in tables for w in words)
    # G - I has every entry in v^-1 Z[v^-1]
    unitri = all((cand.entry(w, x) - (ONE if w == x else ZERO)).degree <= -1
                 for w in words for x in words)
    nondeg = unitri or _bareiss([{j: cand.entry(w, x) for j, x in enumerate(words)}
                                 for w in words])[0] == len(words)
    return {
        "symmetric": symmetric,
        "anti_associative": anti,
        "nondegenerate": nondeg,
        "unitriangular_mod_vinv": unitri,
    }


def solution_space_dimension(alg: TLAlgebra) -> int:
    """Dimension over Q(v) of the space of symmetric anti-associative forms:
    the number of orbits of w -> w^-1 on the FC elements.

    Reversing words preserves the defining relations (b_s b_s = delta b_s,
    and a half-braid relation read backwards is the one of the reversed
    pair), so it is an anti-automorphism iota fixing each b_s, hence each
    t~_s = b_s - v^-1.  Anti-associativity carries a product across one
    letter at a time, B(a x, y) = B(x, iota(a) y), so B(a, b) = phi(iota(a) b)
    for the functional phi = B(1, .); conversely every phi gives such a form,
    as phi(iota(t_s x) y) = phi(iota(x) t_s y).  Since B(b, a) =
    (phi o iota)(iota(a) b), B is symmetric iff phi o iota = phi (take a = 1).
    And iota maps the monomial b_w to b_{w^-1} (the reversed word is a
    reduced, fully commutative word of w^-1), so it permutes the monomial
    basis in orbits {w, w^-1}, and an iota-invariant functional has one free
    value per orbit.  An orbit of one element is an involution: an FC element
    whose reversed word has its own normal form.
    """
    words = alg.fc_words()
    involutions = sum(normal_form(alg.graph, w[::-1]) == w for w in words)
    return (len(words) + involutions) // 2
