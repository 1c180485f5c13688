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
from typing import Dict

from .algebra import Coords, TLAlgebra, _combine
from .coxeter import CoxeterGraph, Word, normal_form
from .laurent import ONE, V_INV, ZERO, LaurentPoly, _bareiss

__all__ = ["GramCandidate", "natural_gram_candidate", "gram_check",
           "solution_space_dimension"]


@dataclass
class GramCandidate:
    """A bilinear form on the t-basis: rows[w][x] = B(t~_w, t~_x), missing entries 0."""

    graph: CoxeterGraph
    rows: Dict[Word, Coords]

    def entry(self, w: Word, x: Word) -> LaurentPoly:
        return self.rows.get(w, {}).get(x, ZERO)


def _inverses(alg: TLAlgebra) -> Dict[Word, Word]:
    """Each basis word's inverse: the normal word of its reversal."""
    return {w: normal_form(alg.graph, w[::-1]) for w in alg.fc_words()}


def _row_steps(alg: TLAlgebra) -> Dict[int, Dict[Word, Coords]]:
    """The row step B(t~_{s u}, .) = B(t~_u, t~_s .): L_s^T by generator s.
    The reversal iota maps t~_w to t~_{w^-1} (``solution_space_dimension``), so
    t~_s t~_x = iota(t~_{x^-1} b_s) - v^-1 t~_x: L_s^T[y][x] is the right table's
    R_s[x^-1][y^-1], less v^-1 where y = x."""
    inverse = _inverses(alg)
    steps = {}
    for s, right in alg.right_table("ttilde").items():
        step = {x: {x: -V_INV} for x in inverse}
        for u, row in right.items():
            for z, c in row.items():
                step[inverse[z]][inverse[u]] = c - V_INV if z == u else c
        steps[s] = {y: {x: c for x, c in row.items() if c} for y, row in step.items()}
    return steps


def natural_gram_candidate(alg: TLAlgebra) -> GramCandidate:
    """The trace form: pair two basis elements through the identity coefficient.

    The first argument is reversed (an anti-automorphism fixes each
    generator), so the row step (``gram_check``) builds the form from its
    first row; nondegeneracy and unitriangularity are checked, not assumed.
    """
    steps = _row_steps(alg)
    rows: Dict[Word, Coords] = {(): {(): ONE}}
    for w in alg.fc_words()[1:]:
        rows[w] = _combine(rows[w[1:]], steps[w[0]])
    return GramCandidate(alg.graph, rows)


def _transpose(table: Dict[Word, Coords]) -> Dict[Word, Coords]:
    """{y: {w: c}} from {w: {y: c}}, with a row for every word of the table."""
    out: Dict[Word, Coords] = {w: {} for w in table}
    for w, row in table.items():
        for y, c in row.items():
            out[y][w] = c
    return out


def _largest_left_steps(alg: TLAlgebra):
    """(w, s, u) for each nonempty normal word w, s its largest left descent
    and u the normal word of s w: w with its first s, a minimal heap piece, removed."""
    for e in alg.fc_elements()[1:]:
        s = max(e.left_descents)
        i = e.word.index(s)
        yield e.word, s, normal_form(alg.graph, e.word[:i] + e.word[i + 1:])


def gram_check(alg: TLAlgebra, cand: GramCandidate) -> Dict[str, bool]:
    """Exact checks of the four bilinear-form conditions, each True or False;
    a form on another graph, or a key not an FC element's normal word, is a ValueError.

    Gram rows G are anti-associative iff G[w] = _combine(G[u], L_s^T) for
    every nonempty FC element w and one left descent s of w, u the normal
    word of s w (``_row_steps``).  =>: t~_w = t~_s t~_u whenever lengths add,
    so G[w][x] = B(t~_u, t~_s t~_x) = sum_y G[u][y] L_s[x][y].  <=: the
    recursion fixes G from its first row phi, and the anti-associative form
    phi(iota(a) b) of ``solution_space_dimension`` obeys it with that first
    row, as iota(t~_s t~_u) = iota(t~_u) t~_s.  The check steps by w's
    largest left descent, the trace form by its smallest, the normal word's
    first letter: each w with two left descents is an equation it did not use.
    A form unitriangular mod v^-1
    has determinant 1 + v^-1·(…), so it is nondegenerate without elimination;
    any other form is eliminated.
    """
    if cand.graph != alg.graph:
        raise ValueError(f"graph mismatch: a form on {cand.graph} in {alg.graph}")
    words = alg.fc_words()
    if stray := {k for w, row in cand.rows.items() for k in (w, *row)} - set(words):
        raise ValueError(f"not normal words of FC elements: {sorted(stray)}")
    gram = {w: {x: c for x, c in cand.rows.get(w, {}).items() if c} for w in words}
    symmetric = gram == _transpose(gram)
    steps = _row_steps(alg)
    anti = all(gram[w] == _combine(gram[u], steps[s]) for w, s, u in _largest_left_steps(alg))
    # G - I has every entry in v^-1 Z[v^-1]
    unitri = all(w in row and all((c - ONE if x == w else c).degree <= -1 for x, c in row.items())
                 for w, row in gram.items())
    nondeg = unitri or _bareiss([{j: gram[w].get(x, ZERO) for j, x in enumerate(words)}
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
    inverse = _inverses(alg)
    return (len(inverse) + sum(x == w for w, x in inverse.items())) // 2
