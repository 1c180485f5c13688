"""Acceptance criteria, one test per criterion, exact tolerances throughout.

Each test prints a single pass/fail line; the stated wall-clock bounds are
asserted where the criteria carry one.  The slow rank-4 extension of the
basis-agreement criterion runs only when TLBASES_SLOW is set.
"""

import os
import random
import time
from math import comb

import pytest

from group_oracle import oracle
from tlbases.algebra import STRATEGIES, TLAlgebra
from tlbases.coxeter import CoxeterGraph, classify_letters, enumerate_fc
from tlbases.laurent import ONE, LaurentPoly
from tlbases.tangles import (
    DiagramCalculus,
    DiagramElement,
    calibrate_ruleset,
    enumerate_b_canonical,
    enumerate_h_admissible,
    expand_squares,
    generate_by_procedures,
    loop_count,
    recognize_b_canonical,
    verify_relations,
)
from tlbases.verify import run_suite

RULES_H = calibrate_ruleset("H")
RULES_B = calibrate_ruleset("B")

MINUS_ONE = LaurentPoly.const(-1)


def report(criterion, passed, detail=""):
    line = f"criterion {criterion}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


def test_criterion_1_b2_golden():
    start = time.monotonic()
    graph = CoxeterGraph("B", 2)
    elements = enumerate_fc(graph)
    alg = TLAlgebra(graph)
    table = {w: dict(c) for w, c in alg.canonical_table().items()}
    expected = {
        (): {(): ONE},
        (1,): {(1,): ONE},
        (2,): {(2,): ONE},
        (1, 2): {(1, 2): ONE},
        (2, 1): {(2, 1): ONE},
        (1, 2, 1): {(1, 2, 1): ONE, (1,): MINUS_ONE},
        (2, 1, 2): {(2, 1, 2): ONE, (2,): MINUS_ONE},
    }
    elapsed = time.monotonic() - start
    ok = len(elements) == 7 and table == expected and elapsed < 1.0
    report(1, ok, f"7 elements, exact canonical match, {elapsed:.3f}s")


def _f_matches_canonical(family, rank):
    alg = TLAlgebra(CoxeterGraph(family, rank))
    canon = alg.canonical_table()
    for e in alg.fc_elements():
        if dict(alg.f_element(e).coords) != dict(canon[e.word]):
            return False
    return True


def test_criterion_2_f_basis_is_canonical():
    start = time.monotonic()
    ok = all(_f_matches_canonical(fam, rank)
             for fam, rank in (("H", 2), ("H", 3), ("B", 2), ("B", 3)))
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    report(2, ok, f"H2 H3 B2 B3 exact, {elapsed:.2f}s")


@pytest.mark.skipif(not os.environ.get("TLBASES_SLOW"),
                    reason="rank-4 agreement runs behind the slow flag")
def test_criterion_2_slow_rank_4():
    ok = _f_matches_canonical("H", 4) and _f_matches_canonical("B", 4)
    report("2-slow", ok, "H4 B4 exact")


def test_criterion_3_seven_letter_f_golden():
    alg = TLAlgebra(CoxeterGraph("H", 3))
    w = (1, 2, 3, 1, 2, 1, 2)
    expected = alg.multiply(
        alg.multiply(alg.word_to_basis((1, 2)) - alg.one(), alg.word_to_basis((3,))),
        alg.word_to_basis((1, 2, 1, 2)) - alg.word_to_basis((1, 2)).scale(2))
    report(3, alg.f_element(w) == expected, "block substitution product exact")


def test_criterion_4_block_identities():
    res = run_suite("lemma-3.3.6", rank=3)
    report(4, res.passed, "both identities and their swapped variants")


def test_criterion_5_calibration():
    ok = True
    for rules in (RULES_H, RULES_B):
        ok = ok and verify_relations(rules, 3) == [] and verify_relations(rules, 4) == []
    # transported canonical coefficients are integers after normalization
    calc = DiagramCalculus(RULES_B)
    for strands in (3, 4):
        alg = TLAlgebra(CoxeterGraph("B", strands - 1))
        for w, coords in alg.canonical_table().items():
            elem = DiagramElement("B", strands, {})
            for x, c in coords.items():
                elem = elem + calc.evaluate_word(strands, x).scale(RULES_B.lift(c))
            hit = recognize_b_canonical(elem, RULES_B)
            ok = ok and hit is not None
            for _, c in elem.coeffs:
                c.to_integral()  # raises on a surviving dyadic denominator
    report(5, ok, "zero residual at 3 and 4 strands; integral transport")


def test_criterion_6_diagram_transport():
    start = time.monotonic()
    ok = True
    calc_h = DiagramCalculus(RULES_H)
    for strands in (3, 4):
        alg = TLAlgebra(CoxeterGraph("H", strands - 1))
        images = set()
        for w, coords in alg.canonical_table().items():
            elem = DiagramElement("H", strands, {})
            for x, c in coords.items():
                elem = elem + calc_h.evaluate_word(strands, x).scale(c)
            ok = ok and len(elem.coeffs) == 1 and elem.coeffs[0][1] == ONE
            images.add(elem.coeffs[0][0])
        admissible = enumerate_h_admissible(strands)
        ok = ok and images == set(admissible)
        ok = ok and len(admissible) == len(alg.fc_elements())
    calc_b = DiagramCalculus(RULES_B)
    for strands in (3, 4):
        alg = TLAlgebra(CoxeterGraph("B", strands - 1))
        recognized = set()
        for w, coords in alg.canonical_table().items():
            elem = DiagramElement("B", strands, {})
            for x, c in coords.items():
                elem = elem + calc_b.evaluate_word(strands, x).scale(RULES_B.lift(c))
            hit = recognize_b_canonical(elem, RULES_B)
            ok = ok and hit is not None
            if hit:
                recognized.add(hit)
        expected = set(enumerate_b_canonical(strands))
        ok = ok and recognized == expected
        ok = ok and len(expected) == len(alg.fc_elements())
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120.0
    report(6, ok, f"both families at 3 and 4 strands, {elapsed:.2f}s")


def test_criterion_7_positivity_and_descent_laws():
    ok = run_suite("prop-4.1.9", rank=3).passed
    ok = ok and run_suite("prop-5.2.2", rank=3).passed
    report(7, ok, "canonical structure constants nonnegative; descent laws exact")


def test_criterion_8_deletion_laws():
    alg = TLAlgebra(CoxeterGraph("H", 3))
    strands = 4
    ok = True
    for e in alg.fc_elements():
        cls = classify_letters(alg.graph, e.word)
        for l in range(e.length):
            hat = e.word[:l] + e.word[l + 1:]
            loops = loop_count(strands, hat)
            ok = ok and loops <= 1
            deg = alg.lattice_degree(alg.word_to_basis(hat))
            marked = cls.is_internal(l) or cls.critical[l] in ("i", "ii", "iii")
            ok = ok and (deg == 1) == marked and (loops == 1) == marked
    report(8, ok, "exhaustive over W_c(H3) and all positions")


def test_criterion_9_confluence():
    ok = True
    for family in ("A", "B", "H"):
        rng = random.Random(90_000 + ord(family))
        for rank in (3, 4):
            alg = TLAlgebra(CoxeterGraph(family, rank))
            for _ in range(10_000 // 2):
                word = tuple(rng.randint(1, rank) for _ in range(rng.randint(0, 12)))
                outs = [alg.word_to_basis(word, s) for s in STRATEGIES]
                ok = ok and outs[0] == outs[1] == outs[2]
    report(9, ok, "10^4 words per family, three strategies identical")


def test_criterion_10_sanity_dimensions():
    ok = all(len(enumerate_fc(CoxeterGraph("A", n))) == comb(2 * (n + 1), n + 1) // (n + 2)
             for n in range(1, 7))
    orc = oracle("H", 2)
    ok = ok and len(orc.fully_commutative_elements()) == 9
    ok = ok and len(enumerate_fc(CoxeterGraph("H", 2))) == 9
    for strands in (3, 4):
        closure_h = generate_by_procedures("H", strands, RULES_H)
        singles = {e.coeffs[0][0] for e in closure_h}
        ok = ok and singles == set(enumerate_h_admissible(strands))
        closure_b = generate_by_procedures("B", strands, RULES_B)
        expected = {expand_squares(t, RULES_B).scale(lam)
                    for t, lam in enumerate_b_canonical(strands)}
        ok = ok and set(closure_b) == expected
    report(10, ok, "Catalan counts, dihedral brute force, procedure closures")
