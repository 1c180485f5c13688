"""Algebra layer: rewriting, bases, bar involution, canonical and f bases."""

import os
import random

import pytest

from tlbases import algebra as algebra_mod
from tlbases.algebra import STRATEGIES, AlgebraElement, TLAlgebra, aux_elements, evaluate_mixed
from tlbases.coxeter import CoxeterGraph, FcElement, word_str
from tlbases.laurent import (
    DELTA, ONE, V, V_INV, ZERO, LaurentPoly, invariant_completion,
)
from tlbases.verify import run_suite

H3 = TLAlgebra(CoxeterGraph("H", 3))
H4 = TLAlgebra(CoxeterGraph("H", 4))
H2 = TLAlgebra(CoxeterGraph("H", 2))
B2 = TLAlgebra(CoxeterGraph("B", 2))
B3 = TLAlgebra(CoxeterGraph("B", 3))
A3 = TLAlgebra(CoxeterGraph("A", 3))

MINUS_ONE = LaurentPoly.const(-1)


def coords(elem):
    return dict(elem.coords)


def test_word_to_basis_braid_examples():
    assert coords(H4.word_to_basis((2, 3, 2))) == {(2,): ONE}
    assert coords(H3.word_to_basis((1, 2, 1, 2, 1))) == {
        (1, 2, 1): LaurentPoly.const(3),
        (1,): MINUS_ONE,
    }
    assert coords(B3.word_to_basis((1, 1))) == {(1,): DELTA}
    assert coords(B3.word_to_basis((1, 2, 1, 2))) == {(1, 2): LaurentPoly.const(2)}


def test_word_to_basis_fc_word_is_normal_form():
    assert coords(H3.word_to_basis((1, 2, 1, 3, 2, 1, 2))) == {
        H3.graph.check_word((1, 2, 1, 3, 2, 1, 2)) and
        __import__("tlbases.coxeter", fromlist=["normal_form"]).normal_form(
            H3.graph, (1, 2, 1, 3, 2, 1, 2)): ONE
    }


def test_multiply_examples():
    a = B2.monomial((1, 2))
    assert B2.multiply(B2.one(), a) == a
    prod = B2.multiply(B2.monomial((1,)), B2.monomial((2, 1)))
    assert coords(prod) == coords(B2.word_to_basis((1, 2, 1)))


def test_multiply_associativity_randomized():
    rng = random.Random(20)
    for alg in (H3, B3, A3):
        words = [e.word for e in alg.fc_elements()]
        for _ in range(25):
            x, y, z = (alg.monomial(rng.choice(words)) for _ in range(3))
            left = alg.multiply(alg.multiply(x, y), z)
            right = alg.multiply(x, alg.multiply(y, z))
            assert left == right


def test_monomial_product_agrees_with_word_to_basis():
    rng = random.Random(21)
    for alg in (H3, B3):
        for _ in range(60):
            word = tuple(rng.randint(1, alg.graph.rank) for _ in range(rng.randint(0, 9)))
            assert alg.monomial_product(word) == coords(alg.word_to_basis(word))


def test_confluence_three_strategies_smoke():
    rng = random.Random(22)
    for alg in (H3, B3, A3):
        for _ in range(40):
            word = tuple(rng.randint(1, alg.graph.rank) for _ in range(rng.randint(0, 10)))
            results = [coords(alg.word_to_basis(word, s)) for s in STRATEGIES]
            assert results[0] == results[1] == results[2], word


def test_word_to_basis_checks_the_strategy_at_entry():
    # an unknown strategy on an FC word returned a value and was cached
    # under it; on another word it raised only deep in the factor search
    alg = TLAlgebra(CoxeterGraph("H", 3))
    for word in ((1, 2), (1, 1), (1, 2, 1)):
        with pytest.raises(ValueError, match="unknown strategy 'nope'"):
            alg.word_to_basis(word, "nope")
    assert not alg._w2b


def test_ttilde_examples():
    assert coords(B2.ttilde_element(())) == {(): ONE}
    assert coords(B2.ttilde_element((1,))) == {(1,): ONE, (): -V_INV}
    # independent expansion of (b1 - 1/v)(b2 - 1/v) using only word_to_basis
    b12 = coords(B2.word_to_basis((1, 2)))
    b1 = coords(B2.word_to_basis((1,)))
    b2 = coords(B2.word_to_basis((2,)))
    expected = {}
    for src, scale in ((b12, ONE), (b1, -V_INV), (b2, -V_INV), ({(): ONE}, V_INV * V_INV)):
        for w, c in src.items():
            expected[w] = expected.get(w, ZERO) + scale * c
    expected = {w: c for w, c in expected.items() if c}
    assert coords(B2.ttilde_element((1, 2))) == expected


def test_ttilde_unitriangular():
    for alg in (H3, B3, H2):
        for e in alg.fc_elements():
            co = dict(alg.ttilde_table()[e.word])
            assert co.pop(e.word) == ONE
            for x, c in co.items():
                assert len(x) < e.length
                assert c.degree <= 0  # off-diagonal entries in Z[v^-1]
            # the inverse matrix is unitriangular over Z[v^-1] as well
            b = alg.monomial(e.word)
            tco = dict(alg.to_basis(b, "ttilde").coords)
            assert tco.pop(e.word) == ONE
            for x, c in tco.items():
                assert len(x) < e.length
                assert c.degree <= 0


def test_basis_round_trip():
    rng = random.Random(23)
    for alg in (B2, H3):
        words = [e.word for e in alg.fc_elements()]
        for _ in range(20):
            co = {rng.choice(words): LaurentPoly({rng.randint(-3, 3): rng.randint(-5, 5) or 1})
                  for _ in range(3)}
            a = AlgebraElement.make(alg.graph, "monomial", co)
            back = alg.to_monomial(alg.to_basis(a, "ttilde"))
            assert back == a


def test_bar_examples():
    for e in B2.fc_elements():
        b = B2.monomial(e.word)
        assert B2.bar_element(b) == b
    a = AlgebraElement.make(B2.graph, "monomial", {(): V})
    assert B2.bar_element(a) == AlgebraElement.make(B2.graph, "monomial", {(): V_INV})


def test_bar_of_ttilde_generator():
    # conjugating b_1 - v^-1 and re-expanding gives t~_1 + (v^-1 - v) t~_e
    a = B2.ttilde_element((1,))
    bar_t = B2.to_basis(B2.bar_element(a), "ttilde")
    assert coords(bar_t) == {(1,): ONE, (): V_INV - V}


def test_bar_is_involution_and_multiplicative():
    rng = random.Random(24)
    words = [e.word for e in H3.fc_elements()]
    for _ in range(20):
        co = {rng.choice(words): LaurentPoly({rng.randint(-2, 2): rng.randint(-4, 4) or 1})}
        a = AlgebraElement.make(H3.graph, "monomial", co)
        b = H3.monomial(rng.choice(words))
        assert H3.bar_element(H3.bar_element(a)) == a
        assert H3.bar_element(H3.multiply(a, b)) == H3.multiply(H3.bar_element(a), H3.bar_element(b))


def test_bar_unitriangular_in_ttilde_coords():
    for e in B2.fc_elements():
        t = AlgebraElement.make(B2.graph, "ttilde", {e.word: ONE})
        bar_t = B2.to_basis(B2.bar_element(t), "ttilde")
        assert bar_t.coeff(e.word) == ONE
        for x, _ in bar_t.coords:
            assert len(x) <= e.length


def test_lattice_degree_examples():
    for e in H3.fc_elements():
        assert H3.lattice_degree(H3.monomial(e.word)) == 0
    d = H3.monomial((1,)).scale(DELTA)
    assert H3.lattice_degree(d) == 1
    assert H3.lattice_degree(H3.word_to_basis((1, 1))) == 1
    zero = AlgebraElement.make(H3.graph, "monomial", {})
    assert H3.lattice_degree(zero) == float("-inf")


def test_scale_takes_an_integer_or_a_laurent_polynomial():
    b1 = H3.monomial((1,))
    assert coords(b1.scale(2)) == coords(b1.scale(LaurentPoly.const(2))) == \
        {(1,): LaurentPoly.const(2)}
    assert b1.scale(0).is_zero()
    for bad in (True, False, 1.5, "2", None):
        with pytest.raises(ValueError, match="neither an integer nor a LaurentPoly"):
            b1.scale(bad)


def test_canonical_basis_b2_golden():
    table = B2.canonical_table()
    assert len(table) == 7
    expected = {
        (): {(): ONE},
        (1,): {(1,): ONE},
        (2,): {(2,): ONE},
        (1, 2): {(1, 2): ONE},
        (2, 1): {(2, 1): ONE},
        (1, 2, 1): {(1, 2, 1): ONE, (1,): MINUS_ONE},
        (2, 1, 2): {(2, 1, 2): ONE, (2,): MINUS_ONE},
    }
    assert {w: dict(c) for w, c in table.items()} == expected


def test_canonical_basis_is_monomial_in_type_a():
    # Fan-Green (J. Algebra 190, 1997): in type A every c_w is the monomial b_w
    for rank, catalan in ((2, 5), (3, 14), (4, 42), (5, 132)):
        table = TLAlgebra(CoxeterGraph("A", rank)).canonical_table()
        assert len(table) == catalan
        assert {w: dict(c) for w, c in table.items()} == {w: {w: ONE} for w in table}


def test_canonical_properties():
    for alg in (B2, H2, B3, H3, H4):
        table = alg.canonical_table()
        for w, co in table.items():
            # bar-invariant coordinates in Z[v^-1] are integers
            assert all(len(c.terms) == 1 and c.terms[0][0] == 0 for c in co.values()), w
            elem = AlgebraElement.make(alg.graph, "monomial", co)
            assert alg.bar_element(elem) == elem
            tco = dict(alg.to_basis(elem, "ttilde").coords)
            assert tco.pop(w) == ONE
            for x, c in tco.items():
                assert c.degree <= -1


def test_canonical_order_independence():
    # the reference corrects the smallest offender first, from the bare monomial
    for alg in (B2, H2, H3):
        assert alg.canonical_table() == _reference_canonical_table(alg, pick=min)[1]
        # the transport suites and the basis dump read the rows in this order
        assert list(alg.canonical_table()) == list(alg.fc_words())


def _reference_solve(coords, table):
    """Triangular solve that takes the largest remaining word at every step."""
    rem = dict(coords)
    out = {}
    while rem:
        x = max(rem, key=lambda w: (len(w), w))
        gamma = rem.pop(x)
        out[x] = gamma
        for w, c in table[x].items():
            if w != x:
                s = rem.get(w, ZERO) - gamma * c
                if s:
                    rem[w] = s
                else:
                    rem.pop(w, None)
    return out


def _reference_canonical_table(alg, pick=max):
    """Per element: solve for e_w in t-tilde coordinates, then correct it,
    taking the offender that ``pick`` selects by (length, word)."""
    ttable = {w: alg.ttilde_element(w).as_dict() for w in alg.fc_words()}
    canon_t = {}
    for w in alg.fc_words():
        cur = _reference_solve({w: ONE}, ttable)
        for _ in range(len(ttable) + 1):
            offenders = [x for x, c in cur.items()
                         if x != w and c.degree > -1]
            if not offenders:
                break
            top = pick(offenders, key=lambda u: (len(u), u))
            mu = invariant_completion(cur[top])
            for x, c in canon_t[top].items():
                s = cur.get(x, ZERO) - mu * c
                if s:
                    cur[x] = s
                else:
                    cur.pop(x, None)
        else:
            raise AssertionError(f"reference recursion did not settle at {w}")
        canon_t[w] = cur
    table = {}
    for w, tco in canon_t.items():
        acc = {}
        for x, gamma in tco.items():
            for y, c in ttable[x].items():
                acc[y] = acc.get(y, ZERO) + gamma * c
        table[w] = {y: c for y, c in acc.items() if c}
    return ttable, table


def _ref_kl_canonical_table(alg):
    """The Kazhdan-Lusztig step, then a bar-invariant correction in monomial
    coordinates.

    For each index word w = w' s in increasing length order, start from
    c_{w'} * b_s: bar-fixed, with top monomial b_w at coefficient 1.  Each
    monomial coordinate of c_w is the constant term of t~_w's, which the
    truncated walk gives; subtracting a multiple of c_x moves only x and
    shorter words, so one walk down the lengths below w settles every
    coordinate.  Returns the table and, per w, the step's {x: mu_x}:
    c_w = c_{w'} b_s - sum_x mu_x c_x.
    """
    merge, settle = algebra_mod._merge, algebra_mod._settle
    targets = alg._ttilde_walk(truncated=True)
    out, steps = {}, {}
    for w in alg.fc_words():
        mono = merge({}, alg._times_gen(out[w[:-1]], w[-1]) if w else {(): ONE}, ONE)
        target = targets[w]
        step = steps[w] = {}
        for length in range(len(w) - 1, -1, -1):
            for x in {x for x in (*mono, *target) if len(x) == length}:
                gap = LaurentPoly._from_dict(mono.get(x, {})) - target.get(x, 0)
                mu = invariant_completion(gap)
                if mu:
                    merge(mono, out[x], -mu)
                    step[x] = mu
        out[w] = settle(mono)
    return out, steps


def _steps_from_right_table(alg):
    """Per w = w' s, the {z: mu_z} with c_{w'} b_s = c_w + sum_z mu_z c_z, read
    off the canonical right table."""
    right = alg.right_table("canonical")
    steps = {(): {}}
    for w in alg.fc_words()[1:]:
        steps[w] = {z: mu for z, mu in right[w[-1]][w[:-1]].items() if z != w}
    return steps


def _check_kl_reference(alg):
    table, steps = _ref_kl_canonical_table(alg)
    assert alg.canonical_table() == table
    assert _steps_from_right_table(alg) == steps


@pytest.mark.parametrize("family, rank", [
    ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("B", 2), ("B", 3), ("B", 4), ("B", 5),
    ("H", 2), ("H", 3), ("H", 4)])
def test_canonical_table_matches_the_kl_reference(family, rank):
    _check_kl_reference(TLAlgebra(CoxeterGraph(family, rank)))


@pytest.mark.skipif(not os.environ.get("TLBASES_SLOW"),
                    reason="set TLBASES_SLOW=1 for the H5 and B6 KL cross-check")
@pytest.mark.parametrize("family, rank", [("H", 5), ("B", 6)])
def test_canonical_table_matches_the_kl_reference_slow(family, rank):
    _check_kl_reference(TLAlgebra(CoxeterGraph(family, rank)))


def _lead_2_at_first_length_2_word(alg):
    """The first normal word y of length 2, with every right-table entry
    that has the coefficient 1 at y given 2 there as the table is built."""
    y = next(w for w in alg.fc_words() if len(w) == 2)
    convert = alg._convert_from_monomial

    def corrupted(coords, table):
        out = convert(coords, table)
        if out.get(y) == ONE:
            out[y] = LaurentPoly.const(2)
        return out

    alg._convert_from_monomial = corrupted
    return y


def test_canonical_products_reject_a_step_whose_lead_is_not_1():
    # c_{y'} b_s must be c_y plus earlier c_z; a lead coefficient of 2 at y
    # would give every row a wrong entry, so building the table fails loudly
    alg = TLAlgebra(CoxeterGraph("H", 3))
    y = _lead_2_at_first_length_2_word(alg)
    match = rf"c_{word_str(y[:-1])} \* b_{y[-1]} .* at {word_str(y)}, not 1"
    with pytest.raises(AssertionError, match=match):
        alg.right_table("canonical")
    with pytest.raises(AssertionError, match=match):
        alg.canonical_products(())


@pytest.mark.parametrize("basis, symbol", [("ttilde", "t~"), ("f", "f")])
def test_right_table_rejects_a_step_whose_lead_is_not_1(basis, symbol):
    # every basis is unitriangular along the prefix order, so each right
    # table checks the coefficient 1 at y = y' s, not only the canonical one
    for family in ("B", "H"):
        alg = TLAlgebra(CoxeterGraph(family, 3))
        y = _lead_2_at_first_length_2_word(alg)
        with pytest.raises(AssertionError, match=rf"^{basis} basis: {symbol}_"
                           rf"{word_str(y[:-1])} \* b_{y[-1]} has the coefficient 2 "
                           rf"at {word_str(y)}, not 1$"):
            alg.right_table(basis)
        assert basis not in alg._right


def test_ttilde_table_lies_in_z_vinv():
    # the canonical table and the one lattice L rest on it; off the diagonal
    # only the constant terms are non-trivial
    for family, rank in (("A", 5), ("B", 5), ("H", 4)):
        table = TLAlgebra(CoxeterGraph(family, rank)).ttilde_table()
        assert all(c.degree <= 0 for row in table.values() for c in row.values())
        constants = sum(1 for w, row in table.items() for x, c in row.items()
                        if x != w and c.coeff(0))
        assert (constants == 0) == (family == "A")


@pytest.mark.skipif(not os.environ.get("TLBASES_SLOW"),
                    reason="set TLBASES_SLOW=1 for the rank-5 canonical cross-check")
@pytest.mark.parametrize("family", ["B", "H"])
def test_canonical_table_matches_reference_at_rank_5(family):
    alg = TLAlgebra(CoxeterGraph(family, 5))
    ttable, canon = _reference_canonical_table(alg)
    assert alg.ttilde_table() == ttable
    assert alg.canonical_table() == canon


def _ref_ttilde_step(alg, coords, s, floor=float("-inf")):
    """coords * (b_s - v^-1), less every term of degree below ``floor``."""
    acc = {}
    for u, c in coords.items():
        for x, r in alg._w2b_coords(u + (s,), "heap-witness").items():
            assert r.degree <= 1
            d = acc.setdefault(x, {})
            for e1, c1 in c.terms:
                for e2, c2 in r.terms:
                    if e1 + e2 >= floor:
                        d[e1 + e2] = d.get(e1 + e2, 0) + c1 * c2
        d = acc.setdefault(u, {})
        for e, k in c.terms:
            if e - 1 >= floor:
                d[e - 1] = d.get(e - 1, 0) - k
    return {x: p for x, d in acc.items() if (p := LaurentPoly(d))}


def _ref_ttilde_walk(alg, truncated):
    """The word-keyed walk the packed one replaced: {w: t~_w}, every row
    truncated at minus its subtree's height when ``truncated``."""
    words = alg.fc_words()
    children = {w: [] for w in words}
    height = dict.fromkeys(words, 0)
    for w in reversed(words[1:]):
        children[w[:-1]].append(w)
        height[w[:-1]] = max(height[w[:-1]], height[w] + 1)
    rows = {}
    stack = [((), {})]
    while stack:
        w, parent = stack.pop()
        floor = -height[w] if truncated else float("-inf")
        rows[w] = row = _ref_ttilde_step(alg, parent, w[-1], floor) if w else {(): ONE}
        stack.extend((child, row) for child in children[w])
    return rows


def _constant_terms(row):
    return {x: k for x, c in row.items() if (k := c.coeff(0))}


def _check_walk_against_reference(alg):
    full, truncated = alg._ttilde_walk(False), alg._ttilde_walk(True)
    want_full, want_truncated = _ref_ttilde_walk(alg, False), _ref_ttilde_walk(alg, True)
    # both routes key their rows by word, in fc_words order
    assert list(full) == list(truncated) == list(alg.fc_words())
    assert sorted(full) == sorted(want_full) == sorted(want_truncated)
    for w, row in want_full.items():
        assert full[w] == row, w
        assert truncated[w] == _constant_terms(want_truncated[w]) == _constant_terms(row), w
    assert alg.ttilde_table() == want_full


@pytest.mark.parametrize("family, ranks", [("A", (2, 3, 4, 5)), ("B", (2, 3, 4, 5)),
                                           ("H", (2, 3, 4))])
def test_packed_walk_matches_the_word_keyed_reference(family, ranks):
    for rank in ranks:
        _check_walk_against_reference(TLAlgebra(CoxeterGraph(family, rank)))


@pytest.mark.skipif(not os.environ.get("TLBASES_SLOW"),
                    reason="set TLBASES_SLOW=1 for the H5 and B6 packed walk cross-check")
@pytest.mark.parametrize("family, rank", [("H", 5), ("B", 6)])
def test_packed_walk_matches_the_word_keyed_reference_slow(family, rank):
    _check_walk_against_reference(TLAlgebra(CoxeterGraph(family, rank)))


def test_packed_walk_widens_a_start_width_too_narrow(monkeypatch):
    # H4's t-tilde coefficients reach 7 in absolute value, which three-bit
    # balanced digits cannot hold: the bound widens the digits, and the
    # tables come out as the reference's
    want, want_canonical = _ref_ttilde_walk(H4, False), H4.canonical_table()
    assert max(abs(c) for row in want.values() for p in row.values() for _, c in p.terms) == 7
    widths = []
    run = TLAlgebra._packed_walk

    def recorded(self, truncated, width, off):
        widths.append(width)
        return run(self, truncated, width, off)
    monkeypatch.setattr(algebra_mod, "_START_WIDTH", 3)
    monkeypatch.setattr(TLAlgebra, "_packed_walk", recorded)
    alg = TLAlgebra(CoxeterGraph("H", 4))
    assert alg.ttilde_table() == want
    assert widths[0] == 3 and len(widths) > 1
    assert alg.canonical_table() == want_canonical


def test_rewrite_coefficient_below_valuation_minus_one_fails(monkeypatch):
    # the packed walk's shifts are exact only while every b_u b_s has
    # coefficients of valuation >= -1; b_1 b_1 = (v + v^-1) b_1 becomes (1 + v^-2) b_1
    w2b = TLAlgebra._w2b_coords

    def with_v_minus_2_term(self, word, strategy):
        out = w2b(self, word, strategy)
        return {x: c * V_INV for x, c in out.items()} if word == (1, 1) else out
    monkeypatch.setattr(TLAlgebra, "_w2b_coords", with_v_minus_2_term)
    message = "the rewriting of 1,1 has the coefficient 1 + v^-2 of valuation below -1"
    for table in ("canonical_table", "ttilde_table"):
        with pytest.raises(AssertionError) as raised:
            getattr(TLAlgebra(CoxeterGraph("B", 3)), table)()
        assert str(raised.value) == message


def test_ttilde_diagonal_other_than_one_fails(monkeypatch):
    # b_() b_1 = 2 b_1 gives t~_1 the diagonal coefficient 2, which both
    # routes of the walk read off before any other row
    w2b = TLAlgebra._w2b_coords

    def doubled(self, word, strategy):
        out = w2b(self, word, strategy)
        return {x: c * 2 for x, c in out.items()} if word == (1,) else out
    monkeypatch.setattr(TLAlgebra, "_w2b_coords", doubled)
    for table in ("canonical_table", "ttilde_table"):
        with pytest.raises(AssertionError) as raised:
            getattr(TLAlgebra(CoxeterGraph("B", 3)), table)()
        assert str(raised.value) == "t-basis element at (1,) is not unitriangular"


def _check_walk_against_full_table(alg):
    # the truncated walk keeps each row's constant terms exact
    full = alg.ttilde_table()
    walked = alg._ttilde_walk(truncated=True)
    assert sorted(walked) == sorted(full)
    for w, row in full.items():
        assert walked[w] == _constant_terms(row), w


def test_truncated_walk_keeps_the_constant_terms():
    for family in "ABH":
        for rank in (2, 3, 4):
            _check_walk_against_full_table(TLAlgebra(CoxeterGraph(family, rank)))


@pytest.mark.skipif(not os.environ.get("TLBASES_SLOW"),
                    reason="set TLBASES_SLOW=1 for the H5 and B6 walk cross-check")
@pytest.mark.parametrize("family, rank", [("H", 5), ("B", 6)])
def test_truncated_walk_keeps_the_constant_terms_slow(family, rank):
    _check_walk_against_full_table(TLAlgebra(CoxeterGraph(family, rank)))


def test_canonical_table_builds_no_ttilde_table():
    alg = TLAlgebra(CoxeterGraph("H", 3))
    alg.canonical_table()
    assert alg._ttilde is None


def test_one_pass_tables_match_per_element_reference():
    rng = random.Random(11)
    for family, rank in (("A", 4), ("B", 4), ("H", 3), ("H", 4)):
        alg = TLAlgebra(CoxeterGraph(family, rank))
        ttable, canon = _reference_canonical_table(alg)
        assert alg.ttilde_table() == ttable
        assert alg.canonical_table() == canon
        # the walk-down conversion against the reference solve
        words = alg.fc_words()
        for _ in range(20):
            mono = {w: LaurentPoly({rng.randint(-3, 3): rng.randint(-4, 4)})
                    for w in rng.sample(words, 5)}
            mono = {w: c for w, c in mono.items() if c}
            for table in (ttable, canon):
                assert alg._convert_from_monomial(mono, table) == \
                    _reference_solve(mono, table)


def test_f_element_examples():
    w = (1, 2, 3, 1, 2, 1, 2)
    expected = H3.multiply(
        H3.multiply(
            H3.word_to_basis((1, 2)) - H3.one(),
            H3.word_to_basis((3,)),
        ),
        H3.word_to_basis((1, 2, 1, 2)) - H3.word_to_basis((1, 2)).scale(2),
    )
    assert H3.f_element(w) == expected

    assert coords(H3.f_element((2, 1, 2))) == {(2, 1, 2): ONE, (2,): MINUS_ONE}
    assert coords(H3.f_element(())) == {(): ONE}


def test_f_equals_canonical_small():
    for alg in (H2, B2):
        canon = alg.canonical_table()
        for e in alg.fc_elements():
            assert coords(alg.f_element(e)) == dict(canon[e.word]), e


def test_aux_examples():
    w = (1, 2, 3, 1, 2, 1, 2)
    aux = aux_elements(H3, w)
    assert aux.kappa == 1
    assert aux.expanded_b == tuple(("b", s) for s in (1, 2, 3, 1, 1, 2, 1, 2))

    w2 = (1, 2, 3, 1, 2, 1, 2, 3)
    aux2 = aux_elements(H3, w2)
    assert aux2.f_hat == (
        ("t", 1), ("t", 2), ("b", 3), ("t", 1), ("t", 2), ("t", 1), ("b", 2), ("b", 3))
    assert aux2.f_hat_prime == (
        ("t", 1), ("t", 2), ("b", 3), ("t", 1), ("t", 1), ("t", 2), ("t", 1), ("b", 2), ("b", 3))


def test_aux_commuting_word_stays_plain():
    aux = aux_elements(H3, (1, 3))
    assert aux.f_hat == (("b", 1), ("b", 3))
    assert aux.kappa == 0


def _pi_equal(alg, a, b):
    """Equality of degree-0 lattice parts: a and b lie in L, a - b in v^-1 * L."""
    assert alg.lattice_degree(a) <= 0 and alg.lattice_degree(b) <= 0
    return alg.lattice_degree(alg.to_monomial(a) - alg.to_monomial(b)) <= -1


def test_aux_projection_contracts_h3():
    vk = lambda k: LaurentPoly.monomial(-k)
    for e in H3.fc_elements():
        aux = aux_elements(H3, e)
        scale = vk(aux.kappa)
        f_prime = AlgebraElement.make(
            H3.graph, "monomial", {w: scale * c for w, c in aux.f_prime.coords})
        f_hat_prime = evaluate_mixed(H3, aux.f_hat_prime).scale(scale)
        assert _pi_equal(H3, f_prime, f_hat_prime), e
        f_hat = evaluate_mixed(H3, aux.f_hat)
        assert _pi_equal(H3, H3.f_element(e), f_hat), e
        f_tilde = evaluate_mixed(H3, aux.f_tilde)
        assert _pi_equal(H3, f_tilde, f_hat), e


def test_structure_constants_examples():
    # right multiplication by a descent generator scales by delta
    sc = H3.structure_constants("f", (1, 2, 1), (1,))
    assert sc == {(1, 2, 1): DELTA}
    # c_e * c_w = c_w
    for e in B2.fc_elements():
        sc = B2.structure_constants("canonical", (), e.word)
        assert sc == {e.word: ONE}


def test_descent_scaling_equivalence():
    for alg, elems in ((H3, H3.fc_elements()), (B3, B3.fc_elements())):
        for e in elems:
            for i in alg.graph.generators:
                prod = alg.structure_constants("f", e.word, (i,))
                scaled = prod == {e.word: DELTA}
                assert scaled == (i in e.right_descents), (e, i)


def test_mixed_word_evaluation_matches_ttilde():
    # ttilde_element is evaluate_mixed of its t-symbol word, so the rows of
    # the table, which the walk builds from their prefixes, are the reference
    mixed = (("t", 1), ("t", 2))
    assert evaluate_mixed(B2, mixed).as_dict() == B2.ttilde_table()[(1, 2)]
    for alg in (B2, H3):
        for w, row in alg.ttilde_table().items():
            assert evaluate_mixed(alg, tuple(("t", s) for s in w)).as_dict() == row, w


@pytest.mark.parametrize("kind", "bt")
@pytest.mark.parametrize("letter", [0, -1, 4])
def test_mixed_word_evaluation_rejects_a_letter_outside_the_rank(kind, letter):
    # H3 has generators 1..3; the bad letter may follow good ones
    for mixed in (((kind, letter),), (("t", 1), ("b", 2), (kind, letter))):
        with pytest.raises(ValueError, match="out of range"):
            evaluate_mixed(H3, mixed)


def test_mixed_word_evaluation_rejects_a_letter_that_is_not_an_integer():
    # the text "1" raised TypeError from the range comparison
    with pytest.raises(ValueError, match="not an integer"):
        evaluate_mixed(H3, (("b", "1"),))


def test_basis_constructors_reject_words_that_index_nothing():
    # (1, 1) is not reduced, so no basis element carries it
    for make in (B2.monomial, B2.ttilde_element, B2.canonical_element, B2.f_element,
                 B2.canonical_products,
                 lambda w: B2.structure_constants("canonical", w, ()),
                 lambda w: B2.structure_constants("f", (), w)):
        with pytest.raises(ValueError, match="does not index a basis element"):
            make((1, 1))
    e = B2.fc_elements()[3]
    assert B2.canonical_element(e) == B2.canonical_element(e.word)


def test_basis_constructors_reject_an_index_from_another_graph():
    # an FcElement indexes only its own graph's basis: B4's generator 4, H3's
    # word 1,2,1,2 (not fully commutative in B3) and A5's generator 5
    others = [FcElement(CoxeterGraph(family, rank), word)
              for family, rank, word in (("B", 4, (4,)), ("H", 3, (1, 2, 1, 2)), ("A", 5, (5,)))]
    for make in (B3.monomial, B3.ttilde_element, B3.canonical_element, B3.f_element,
                 B3.canonical_products,
                 lambda w: B3.structure_constants("canonical", w, ()),
                 lambda w: B3.structure_constants("f", (), w)):
        for w in others:
            with pytest.raises(ValueError, match="graph mismatch"):
                make(w)
    with pytest.raises(ValueError, match="graph mismatch"):
        aux_elements(B3, others[0])


def test_to_monomial_rejects_a_coordinate_with_no_row():
    # the conversion combines the table's rows and must not drop a word
    # that has none
    elem = AlgebraElement.make(B2.graph, "canonical", {(1, 1): ONE})
    with pytest.raises(KeyError):
        B2.to_monomial(elem)


def test_multiply_graph_mismatch_raises():
    import pytest as _pytest
    a = H3.monomial((1,))
    b = B3.monomial((1,))
    with _pytest.raises(ValueError):
        H3.multiply(a, b)


def test_conversions_reject_an_element_of_another_algebra():
    # an element of B3 read by H3 used to be converted with H3's tables, or
    # returned as it was when its basis tag matched; the check comes first
    elem = B3.ttilde_element((1, 2, 1))
    for target in (elem, B3.to_basis(elem, "ttilde")):
        for basis in ("monomial", "ttilde", "canonical", "f"):
            with pytest.raises(ValueError, match="graph mismatch"):
                H3.to_basis(target, basis)
        for convert in (H3.to_monomial, H3.bar_element, H3.lattice_degree):
            with pytest.raises(ValueError, match="graph mismatch"):
                convert(target)


def test_canonical_bar_fixed_h3():
    for w, co in H3.canonical_table().items():
        elem = AlgebraElement.make(H3.graph, "monomial", co)
        assert H3.bar_element(elem) == elem


def _ref_mul_coords(alg, a, b):
    """Each basis word of a times each basis word of b, letter by letter."""
    out = {}
    for u, cu in a.items():
        for w, cw in b.items():
            cur = {u: cu}
            for s in w:
                cur = alg._times_gen(cur, s)
            for x, c in cur.items():
                out[x] = out.get(x, ZERO) + c * cw
    return {x: c for x, c in out.items() if c}


def test_mul_coords_matches_per_word_reference():
    rng = random.Random(23)

    def random_coords(words):
        return {w: LaurentPoly({rng.randint(-2, 2): rng.choice((-2, -1, 1, 3))})
                for w in rng.sample(words, rng.randint(1, 4))}

    for alg in (H3, B3):
        words = alg.fc_words()
        for _ in range(30):
            a, b = random_coords(words), random_coords(words)
            assert alg._mul_coords(a, b) == _ref_mul_coords(alg, a, b), (a, b)


def _check_rows_against_per_pair_route(alg):
    words = alg.fc_words()
    for x in words:
        rows = alg.canonical_products(x)
        assert list(rows) == list(words)
        for y in words:
            # same coefficients, listed in the same order
            assert list(rows[y].items()) == \
                list(alg.structure_constants("canonical", x, y).items()), (x, y)


def test_canonical_rows_match_the_per_pair_route():
    for alg in (A3, B3, H3, TLAlgebra(CoxeterGraph("B", 4))):
        _check_rows_against_per_pair_route(alg)


@pytest.mark.skipif(not os.environ.get("TLBASES_SLOW"),
                    reason="set TLBASES_SLOW=1 for the H4 and B5 row cross-check")
@pytest.mark.parametrize("family, rank", [("H", 4), ("B", 5)])
def test_canonical_rows_match_the_per_pair_route_slow(family, rank):
    _check_rows_against_per_pair_route(TLAlgebra(CoxeterGraph(family, rank)))


def test_recorded_steps_rebuild_the_canonical_table():
    # c_w = c_{w'} b_s - sum_z mu_z c_z for w = w' s, in monomial coordinates
    for family, rank in (("A", 4), ("B", 4), ("H", 4)):
        alg = TLAlgebra(CoxeterGraph(family, rank))
        table = alg.canonical_table()
        steps = _steps_from_right_table(alg)
        assert list(steps) == list(table) and steps[()] == {}
        for w in alg.fc_words()[1:]:
            rebuilt = alg.multiply(alg.canonical_element(w[:-1]), alg.monomial(w[-1:]))
            for z, mu in steps[w].items():
                assert len(z) < len(w) and mu
                rebuilt = rebuilt - alg.canonical_element(z).scale(mu)
            assert rebuilt == alg.canonical_element(w), w
        assert (family == "A") == all(not step for step in steps.values())


@pytest.mark.parametrize("family", ["H", "B"])
def test_positivity_failure_lists_the_per_pair_loop_cases(family, monkeypatch):
    # reject every coefficient with a positive-degree term; the report's
    # cases are the first five of the per-pair loop over x, then y, then z
    monkeypatch.setattr(LaurentPoly, "nonneg", property(lambda p: p.degree <= 0))
    suite = {"H": "prop-4.1.9", "B": "prop-5.2.2"}[family]
    check = next(c for c in run_suite(suite, rank=3).checks
                 if c.name == f"{family}3-positivity")
    alg = TLAlgebra(CoxeterGraph(family, 3))
    expected = []
    for x in alg.fc_words():
        for y in alg.fc_words():
            for z, c in alg.structure_constants("canonical", x, y).items():
                if c.degree > 0:
                    expected.append({"x": word_str(x), "y": word_str(y),
                                     "z": word_str(z), "coeff": str(c)})
    assert len(expected) > 5 and not check.passed
    assert check.counterexample == {"cases": expected[:5]}
