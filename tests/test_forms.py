"""Bilinear forms: Bareiss elimination, the table-driven trace form and the
orbit count of the form space against the paths they replaced.

The references below are the replaced code, kept here: the bitmask
expansion of the exact determinant, the solver system of the symmetric
anti-associative forms eliminated by Bareiss and its sympy rank over Q(v),
the trace form by one full product per pair of basis elements, the
anti-associativity check one term at a time and as the two-sided comparison
of row combinations, and the t~ left-multiplication tables by one full
product per generator and basis element.
"""

import functools
import itertools
import os
import random

import pytest

from tlbases.algebra import TLAlgebra, _combine
from tlbases.coxeter import CoxeterGraph, normal_form
from tlbases.forms import (
    GramCandidate,
    _row_steps,
    _transpose,
    gram_check,
    natural_gram_candidate,
    solution_space_dimension,
)
from tlbases.laurent import ONE, V, ZERO, LaurentPoly, _bareiss

ALGEBRAS = {name: TLAlgebra(CoxeterGraph(name[0], int(name[1])))
            for name in ("A2", "B2", "H2", "A3")}


@functools.lru_cache(maxsize=None)
def _ref_left_mult_tables(alg):
    """t~_s * t~_w in t~-coordinates, by one product and one solve each."""
    tables = {}
    for s in alg.graph.generators:
        ts = alg.ttilde_element((s,))
        tables[s] = {w: dict(alg.to_basis(alg.multiply(ts, alg.ttilde_element(w)),
                                          "ttilde").coords) for w in alg.fc_words()}
    return tables


_ELEMENT = {"ttilde": "ttilde_element", "canonical": "canonical_element", "f": "f_element"}


@pytest.mark.parametrize("name", ["A2", "B2", "H2", "A3", "B3", "H3"])
def test_ttilde_left_table_matches_products(name):
    # the one table of generator products, in each basis it serves, and the
    # t~ left tables the row step reads off it through the reversal
    alg = ALGEBRAS.get(name) or TLAlgebra(CoxeterGraph(name[0], int(name[1])))
    for basis, element in _ELEMENT.items():
        want = {s: {u: alg.to_basis(alg.multiply(getattr(alg, element)(u), alg.monomial((s,))),
                                    basis).as_dict() for u in alg.fc_words()}
                for s in alg.graph.generators}
        assert alg.right_table(basis) == want, basis
    assert _row_steps(alg) == {s: _transpose(table)
                               for s, table in _ref_left_mult_tables(alg).items()}


@functools.lru_cache(maxsize=None)
def _ref_pair_products(name):
    """t~_{w^-1} t~_x in t~-coordinates for every pair of basis words, by one
    product and one t~-conversion per pair."""
    alg = ALGEBRAS.get(name) or TLAlgebra(CoxeterGraph(name[0], int(name[1])))
    words = [e.word for e in alg.fc_elements()]
    return {(w, x): alg.to_basis(alg.multiply(alg.ttilde_element(tuple(reversed(w))),
                                              alg.ttilde_element(x)), "ttilde").as_dict()
            for w in words for x in words}


def _ref_form_from_functional(name, phi):
    """The gram rows of B(a, b) = phi(iota(a) b), phi given on the t~-basis:
    B(t~_w, t~_x) = phi(t~_{w^-1} t~_x), zeros included."""
    rows = {}
    for (w, x), prod in _ref_pair_products(name).items():
        rows.setdefault(w, {})[x] = sum((c * phi[y] for y, c in prod.items() if y in phi), ZERO)
    return rows


def _check_natural_gram_entries(name):
    alg = ALGEBRAS.get(name) or TLAlgebra(CoxeterGraph(name[0], int(name[1])))
    cand = natural_gram_candidate(alg)
    want = _ref_form_from_functional(name, {(): ONE})
    # the rows hold the nonzero entries only, one row per basis word
    assert cand.rows == {w: {x: c for x, c in row.items() if c} for w, row in want.items()}
    assert any(not c for row in want.values() for c in row.values())


@pytest.mark.parametrize("name", ["A2", "B2", "H2", "A3", "B3", "H3"])
def test_natural_gram_candidate_matches_pairwise_products(name):
    _check_natural_gram_entries(name)


@pytest.mark.skipif(not os.environ.get("TLBASES_SLOW"),
                    reason="set TLBASES_SLOW=1 for the B4 trace-form cross-check")
def test_natural_gram_candidate_matches_pairwise_products_slow():
    _check_natural_gram_entries("B4")


def test_transpose_keeps_a_row_for_every_word():
    # a word that no row reaches still gets an (empty) row to combine
    assert _transpose({(): {(1,): V}, (1,): {}}) == {(): {}, (1,): {(): V}}


def _ref_anti_associative(alg, cand):
    """B(t_s t_w, t_x) = B(t_w, t_s t_x) for every s, w and x, summed one
    term at a time."""
    words = [e.word for e in alg.fc_elements()]
    left_mult = _ref_left_mult_tables(alg)

    def pair(coords, x):
        acc = ZERO
        for y, c in coords.items():
            acc = acc + c * cand.entry(y, x)
        return acc

    anti = True
    for s in alg.graph.generators:
        for w in words:
            for x in words:
                lhs = pair(left_mult[s][w], x)
                rhs = ZERO
                for y, c in left_mult[s][x].items():
                    rhs = rhs + c * cand.entry(w, y)
                if lhs != rhs:
                    anti = False
    return anti


def _ref_two_sided_anti_associative(alg, cand):
    """B(t_s t_w, .) against B(t_w, t_s .), both as row combinations, for
    every generator s and word w: two row products per pair."""
    words = alg.fc_words()
    gram = {w: {x: c for x in words if (c := cand.entry(w, x))} for w in words}
    tables = [(t, _transpose(t)) for t in _ref_left_mult_tables(alg).values()]
    return all(_combine(left[w], gram) == _combine(gram[w], right)
               for left, right in tables for w in words)


def _one_entry_perturbations(alg, cand, rng):
    """The candidate with one entry changed, alone and with its mirror.

    Each change is a term of negative degree, so a unitriangular candidate
    stays unitriangular and ``gram_check`` decides nondegeneracy without
    the elimination, which is slow on these forms from rank 3 on.
    """
    words = alg.fc_words()
    out = []
    for mirrored in (False, True, False, True):
        rows = {w: dict(row) for w, row in cand.rows.items()}
        w, x = rng.choice(words), rng.choice(words)
        delta = LaurentPoly({-rng.randint(1, 3): rng.choice((-2, -1, 1, 2))})
        rows.setdefault(w, {})[x] = cand.entry(w, x) + delta
        if mirrored and w != x:
            rows.setdefault(x, {})[w] = cand.entry(x, w) + delta
        out.append(GramCandidate(alg.graph, rows))
    return out


def _check_anti_associativity(alg, candidates):
    """Each candidate's verdict against both references; the verdicts."""
    verdicts = []
    for cand in candidates:
        anti = gram_check(alg, cand)["anti_associative"]
        assert anti == _ref_anti_associative(alg, cand) == \
            _ref_two_sided_anti_associative(alg, cand)
        verdicts.append(anti)
    return verdicts


@pytest.mark.parametrize("name", ["A2", "B2", "H2", "A3", "B3", "H3"])
def test_anti_associativity_matches_the_per_term_loop(name):
    alg = ALGEBRAS.get(name) or TLAlgebra(CoxeterGraph(name[0], int(name[1])))
    natural = natural_gram_candidate(alg)
    rng = random.Random(sum(map(ord, name)) + 2)
    candidates = [natural] + _one_entry_perturbations(alg, natural, rng)
    assert all(gram_check(alg, cand)["unitriangular_mod_vinv"] for cand in candidates)
    verdicts = _check_anti_associativity(alg, candidates)
    assert verdicts[0] and set(verdicts) == {True, False}, verdicts


def _random_functionals(alg, rng):
    """Functionals phi on the t~-basis: arbitrary at rank <= 2; at rank 3 the
    identity coefficient plus terms of degree below -2 * (longest length),
    which keep phi(t~_{w^-1} t~_x) unitriangular mod v^-1, so the forms skip
    the elimination."""
    words = alg.fc_words()
    out = []
    for _ in range(3):
        if alg.graph.rank <= 2:
            phi = {y: _random_poly(rng) for y in words}
        else:
            low = -2 * len(words[-1]) - 1
            phi = {(): ONE}
            for y in rng.sample(words, 4):
                phi[y] = phi.get(y, ZERO) + LaurentPoly({low - rng.randint(0, 2): rng.choice((-1, 1))})
        out.append(phi)
    return out


@pytest.mark.parametrize("name", ["A2", "B2", "H2", "A3", "B3", "H3"])
def test_anti_associativity_of_forms_from_a_first_row(name):
    # B(a, b) = phi(iota(a) b) is anti-associative for every phi, and not
    # symmetric unless phi is iota-invariant: the rows from a random first row
    # are anti-associative, and each one-entry change of them is not
    alg = ALGEBRAS.get(name) or TLAlgebra(CoxeterGraph(name[0], int(name[1])))
    rng = random.Random(sum(map(ord, name)) + 3)
    verdicts, symmetric = [], []
    for phi in _random_functionals(alg, rng):
        form = GramCandidate(alg.graph, _ref_form_from_functional(name, phi))
        checks = gram_check(alg, form)
        assert checks["unitriangular_mod_vinv"] == (alg.graph.rank > 2)
        symmetric.append(checks["symmetric"])
        verdicts += _check_anti_associativity(
            alg, [form] + _one_entry_perturbations(alg, form, rng))
    assert verdicts[::5] == [True] * 3 and set(verdicts) == {True, False}, verdicts
    assert not any(symmetric), symmetric


def _ref_exact_det(rows):
    """Determinant by expansion over the column subsets filled so far."""
    n = len(rows)
    dp = {0: ONE}
    for r in range(n):
        nxt = {}
        for mask, val in dp.items():
            for c in range(n):
                bit = 1 << c
                if mask & bit or not rows[r][c]:
                    continue
                # parity of inversions introduced by placing column c in row r
                prior = bin(mask & (bit - 1)).count("1")
                sign = -1 if (r - prior) % 2 else 1
                nxt[mask | bit] = nxt.get(mask | bit, ZERO) + val * rows[r][c] * sign
        dp = nxt
    return dp.get((1 << n) - 1, ZERO)


def _ref_solver_dimension(alg):
    """Dimension of the symmetric anti-associative forms, by sympy over Q(v)."""
    import sympy

    from sympy_reference import laurent_to_sympy

    words = [e.word for e in alg.fc_elements()]
    index = {w: i for i, w in enumerate(words)}
    n = len(words)
    nvars = n * n
    v = sympy.Symbol("v")

    rows = []
    for w in words:
        for x in words:
            if index[w] < index[x]:
                row = [0] * nvars
                row[index[w] * n + index[x]] = 1
                row[index[x] * n + index[w]] = -1
                rows.append(row)
    for table in _ref_left_mult_tables(alg).values():
        for w in words:
            for x in words:
                row = [sympy.Integer(0)] * nvars
                for y, c in table[w].items():
                    row[index[y] * n + index[x]] += laurent_to_sympy(c, v)
                for y, c in table[x].items():
                    row[index[w] * n + index[y]] -= laurent_to_sympy(c, v)
                if any(row):
                    rows.append(row)
    return nvars - sympy.Matrix(rows).rank()


def _dense(alg, cand):
    words = [e.word for e in alg.fc_elements()]
    return [[cand.entry(w, x) for x in words] for w in words]


def _rows(matrix):
    return [dict(enumerate(row)) for row in matrix]


def _random_poly(rng):
    return LaurentPoly({rng.randint(-3, 3): rng.randint(-4, 4)
                        for _ in range(rng.randint(0, 3))})


def _perturbations(matrix, rng):
    """A few nonsingular-looking and a few singular variants of a matrix."""
    n = len(matrix)
    out = []
    for _ in range(2):
        m = [row[:] for row in matrix]
        for _ in range(n):
            i, j = rng.randrange(n), rng.randrange(n)
            m[i][j] = m[i][j] + _random_poly(rng)
        out.append(m)
    for _ in range(2):
        # one row a Laurent combination of two others
        m = [row[:] for row in matrix]
        k, i, j = rng.sample(range(n), 3)
        a, b = _random_poly(rng), _random_poly(rng)
        m[k] = [a * x + b * y for x, y in zip(m[i], m[j])]
        out.append(m)
    m = [row[:] for row in matrix]
    m[rng.randrange(n)] = [ZERO] * n
    out.append(m)
    return out


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_rank_decides_nonsingularity_as_the_exact_determinant(name):
    alg = ALGEBRAS[name]
    rng = random.Random(sum(map(ord, name)))
    natural = _dense(alg, natural_gram_candidate(alg))
    variants = [natural] + _perturbations(natural, rng)
    singular = 0
    for m in variants:
        full = _bareiss(_rows(m))[0] == len(m)
        assert full == bool(_ref_exact_det(m)), name
        singular += not full
    assert 0 < singular < len(variants)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_last_pivot_is_the_determinant_up_to_sign(name):
    # the calibration resultant is this pivot of a Sylvester matrix
    alg = ALGEBRAS[name]
    rng = random.Random(sum(map(ord, name)) + 1)
    natural = _dense(alg, natural_gram_candidate(alg))
    for m in [natural] + _perturbations(natural, rng):
        rank, pivot = _bareiss(_rows(m))
        det = _ref_exact_det(m)
        if rank == len(m):
            assert pivot in (det, -det), name
        else:
            assert not det, name


def _ref_rank(matrix):
    """The size of the largest nonsingular square submatrix."""
    n = len(matrix)
    for k in range(n, 0, -1):
        for rows in itertools.combinations(matrix, k):
            for cols in itertools.combinations(range(n), k):
                if _ref_exact_det([[row[j] for j in cols] for row in rows]):
                    return k
    return 0


def test_rank_of_products_of_thin_matrices():
    rng = random.Random(41)
    for _ in range(40):
        n, r = rng.randint(1, 5), rng.randint(0, 4)
        left = [[_random_poly(rng) for _ in range(r)] for _ in range(n)]
        right = [[_random_poly(rng) for _ in range(n)] for _ in range(r)]
        m = [[sum((left[i][k] * right[k][j] for k in range(r)), ZERO)
              for j in range(n)] for i in range(n)]
        assert _bareiss(_rows(m))[0] == _ref_rank(m)


@pytest.mark.parametrize("name, dimension", [("A2", 4), ("B2", 6), ("H2", 7)])
def test_solution_space_dimension_matches_sympy_rank(name, dimension):
    alg = ALGEBRAS[name]
    assert solution_space_dimension(alg) == _ref_solver_dimension(alg) == dimension


def _ref_solution_space_dimension(alg):
    """Dimension over Q(v) of the space of symmetric anti-associative forms.

    One unknown per pair w <= x of basis words carries the symmetry, and
    B(t_s t_w, t_x) = B(t_w, t_s t_x) gives one row per generator s and pair
    w < x (the row of x, w is its negative and that of w, w is zero).
    """
    words = [e.word for e in alg.fc_elements()]
    index = {w: i for i, w in enumerate(words)}
    n = len(words)

    def unknown(y, x):
        i, j = sorted((index[y], index[x]))
        return i * n + j

    rows = []
    for table in _ref_left_mult_tables(alg).values():
        for i, w in enumerate(words):
            for x in words[i + 1:]:
                row = {}
                for y, c in table[w].items():
                    k = unknown(y, x)
                    row[k] = row.get(k, ZERO) + c
                for y, c in table[x].items():
                    k = unknown(w, y)
                    row[k] = row.get(k, ZERO) - c
                rows.append(row)
    return n * (n + 1) // 2 - _bareiss(rows)[0]


@pytest.mark.parametrize("name, dimension",
                         [("A1", 2), ("A2", 4), ("B2", 6), ("H2", 7), ("A3", 10)])
def test_solution_space_dimension_matches_the_solver_system(name, dimension):
    alg = ALGEBRAS.get(name) or TLAlgebra(CoxeterGraph(name[0], int(name[1])))
    assert solution_space_dimension(alg) == _ref_solution_space_dimension(alg) == dimension


@pytest.mark.skipif(not os.environ.get("TLBASES_SLOW"),
                    reason="set TLBASES_SLOW=1 for the B3 solver-system cross-check")
def test_solution_space_dimension_matches_the_solver_system_slow():
    alg = TLAlgebra(CoxeterGraph("B", 3))
    assert solution_space_dimension(alg) == _ref_solution_space_dimension(alg) == 17


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "A4", "B4", "H4"])
def test_reversal_maps_each_ttilde_element_to_its_inverse(name):
    # the orbit count's premise: the anti-automorphism fixing each generator
    # sends t~_w to t~_{w^-1}, reversing every monomial of its expansion
    graph = CoxeterGraph(name[0], int(name[1]))
    table = TLAlgebra(graph).ttilde_table()
    for w, row in table.items():
        reversed_row = {normal_form(graph, y[::-1]): c for y, c in row.items()}
        assert reversed_row == table[normal_form(graph, w[::-1])], w


def test_gram_check_decides_nondegeneracy_of_small_forms():
    alg = ALGEBRAS["B2"]
    words = [e.word for e in alg.fc_elements()]
    # v*I is not unitriangular mod v^-1 but nonsingular
    cand = GramCandidate(alg.graph, {w: {w: V} for w in words})
    res = gram_check(alg, cand)
    assert res["unitriangular_mod_vinv"] is False
    assert res["nondegenerate"] is True
    # the all-ones form has rank 1
    ones = GramCandidate(alg.graph, {w: {x: ONE for x in words} for w in words})
    assert gram_check(alg, ones)["nondegenerate"] is False
    # a zero stored in a row is a zero entry, and a missing row a zero row
    identity = gram_check(alg, GramCandidate(alg.graph, {w: {w: ONE} for w in words}))
    stored = GramCandidate(alg.graph, {w: {(): ZERO, w: ONE} for w in words})
    assert gram_check(alg, stored) == identity and identity["symmetric"]
    assert gram_check(alg, GramCandidate(alg.graph, {}))["nondegenerate"] is False


def test_gram_check_rejects_keys_that_are_not_normal_words():
    # at A3, (3, 1) is a reduced word of the FC element whose normal word is
    # (1, 3); read as a key it used to be an ignored entry, so the verdict
    # was computed on zeros
    alg = ALGEBRAS["A3"]
    assert normal_form(alg.graph, (3, 1)) == (1, 3)
    rows = natural_gram_candidate(alg).rows

    def renamed(key):
        return (3, 1) if key == (1, 3) else key

    as_row = {renamed(w): row for w, row in rows.items()}
    as_column = {w: {renamed(x): c for x, c in row.items()} for w, row in rows.items()}
    for bad in (as_row, as_column, {(4,): {}}, {(): {(1, 1): ONE}}):
        with pytest.raises(ValueError, match="not normal words of FC elements"):
            gram_check(alg, GramCandidate(alg.graph, bad))


def test_gram_check_rejects_a_form_on_another_graph():
    # every key of these forms is a normal word of the larger algebra, so the
    # check used to decide them on its tables: False for all but symmetry
    for graph, other in (("H2", "B2"), ("A3", "A2")):
        with pytest.raises(ValueError, match="graph mismatch"):
            gram_check(ALGEBRAS[graph], natural_gram_candidate(ALGEBRAS[other]))
