"""Bilinear forms on the t-tilde basis: the paper's gram-matrix criterion.

A candidate form is checked exactly for symmetry, anti-associativity
(B(t_s x, y) = B(x, t_s y) for every generator s), nondegeneracy and
unitriangularity mod v^-1.  Nondegeneracy and the dimension of the space of
symmetric anti-associative forms are both ranks, read off one fraction-free
elimination (Bareiss, Math. Comp. 22, 1968) over Z[v, v^-1].  That ring is an
integral domain, so every division the elimination makes is exact and it
runs on the Laurent entries directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .algebra import Coords, TLAlgebra, _combine
from .coxeter import CoxeterGraph, Word
from .laurent import ONE, ZERO, LaurentPoly

__all__ = ["GramCandidate", "natural_gram_candidate", "gram_check",
           "solution_space_dimension"]

Row = Dict[int, LaurentPoly]


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


def _bareiss(rows: List[Row]) -> Tuple[int, LaurentPoly]:
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
    """Dimension over Q(v) of the space of symmetric anti-associative forms.

    One unknown per pair w <= x of basis words carries the symmetry, and
    B(t_s t_w, t_x) = B(t_w, t_s t_x) gives one row per generator s and pair
    w < x (the row of x, w is its negative and that of w, w is zero).
    """
    words = [e.word for e in alg.fc_elements()]
    index = {w: i for i, w in enumerate(words)}
    n = len(words)

    def unknown(y: Word, x: Word) -> int:
        i, j = sorted((index[y], index[x]))
        return i * n + j

    rows = []
    for table in alg.ttilde_left_table().values():
        for i, w in enumerate(words):
            for x in words[i + 1:]:
                row: Row = {}
                for y, c in table[w].items():
                    k = unknown(y, x)
                    row[k] = row.get(k, ZERO) + c
                for y, c in table[x].items():
                    k = unknown(w, y)
                    row[k] = row.get(k, ZERO) - c
                rows.append(row)
    return n * (n + 1) // 2 - _bareiss(rows)[0]
