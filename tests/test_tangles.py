"""Diagram calculus: composition, calibration, transport, generation, render."""

import itertools
import os
import random
from collections import Counter
from fractions import Fraction

import pytest
import sympy_reference

import tlbases.tangles as tangles_mod

from tlbases.algebra import TLAlgebra
from tlbases.coxeter import CoxeterGraph
from tlbases.laurent import DELTA, ONE, LaurentPoly, RationalLaurent
from tlbases.tangles import (
    _RINGS,
    _calibrated_scalars,
    _calibration_equations,
    _canonical_cycle,
    _narrow,
    _relations,
    _ring_solutions,
    _SymPoly,
    CalibrationError,
    DiagramCalculus,
    DiagramElement,
    ReductionError,
    RuleSet,
    Tangle,
    calibrate_ruleset,
    classify_diagram,
    compose_raw,
    enumerate_b_canonical,
    enumerate_h_admissible,
    expand_squares,
    format_tangle,
    generate_by_procedures,
    generator_U,
    identity_tangle,
    iota,
    loop_count,
    parse_tangle,
    recognize_b_canonical,
    reduce_composition,
    render,
    verify_relations,
)

RULES_H = calibrate_ruleset("H")
RULES_B = calibrate_ruleset("B")
CALC_H = DiagramCalculus(RULES_H)
CALC_B = DiagramCalculus(RULES_B)


def tangle_of(text):
    return parse_tangle(text)


def test_tangle_validation():
    with pytest.raises(ValueError):
        Tangle(3, 3, [(("N", 1), ("N", 2), ()), (("N", 3), ("S", 1), ()),
                      (("S", 2), ("S", 3), ()), (("N", 1), ("S", 1), ())])
    with pytest.raises(ValueError):
        # crossing matching
        Tangle(2, 2, [(("N", 1), ("S", 2), ()), (("N", 2), ("S", 1), ())])
    with pytest.raises(ReductionError):
        # nested (shielded) edge cannot carry a decoration
        Tangle(2, 2, [(("N", 1), ("S", 1), ()), (("N", 2), ("S", 2), ("c",))])
    with pytest.raises(ValueError):
        Tangle(2, 1, [])


def _ref_validate(t):
    """The quadratic validation that the one-sweep ``Tangle._validate`` replaced."""
    seen = set()
    for a, b, _ in t.edges:
        for end in (a, b):
            p = t.pos(end)
            if p in seen:
                raise ValueError(f"node {end} used twice")
            seen.add(p)
    if len(seen) != t.n_north + t.n_south:
        raise ValueError("edges do not form a perfect matching")
    spans = [tuple(sorted((t.pos(a), t.pos(b)))) for a, b, _ in t.edges]
    for (a1, b1), (a2, b2) in itertools.combinations(spans, 2):
        if a1 < a2 < b1 < b2 or a2 < a1 < b2 < b1:
            raise ValueError("matching is not crossing-free")
    for edge in t.edges:
        if edge[2] and not _ref_west_exposed(t, edge):
            raise ReductionError(
                f"decorated edge {edge} is not exposed to the west face")


def _ref_west_exposed(t, edge):
    """The pairwise nesting scan that the boundary sweep ``Tangle._exposure``
    replaced: an edge is shielded from the west wall, which sits after the
    last boundary position, exactly when it nests strictly inside another."""
    lo, hi = sorted((t.pos(edge[0]), t.pos(edge[1])))
    for other in t.edges:
        if other is edge:
            continue
        olo, ohi = sorted((t.pos(other[0]), t.pos(other[1])))
        if olo < lo and hi < ohi:
            return False
    return True


def _unvalidated(n_north, n_south, edges):
    """The tangle the constructor builds, with validation switched off."""
    check = Tangle._validate
    Tangle._validate = lambda self: None
    try:
        return Tangle(n_north, n_south, edges)
    finally:
        Tangle._validate = check


def _outcome(call, *args):
    try:
        call(*args)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)
    return None


def _check_validation(n_north, n_south, edges):
    t = _unvalidated(n_north, n_south, edges)
    want = _outcome(_ref_validate, t)
    assert _outcome(Tangle._validate, t) == want, (n_north, n_south, edges)
    assert _outcome(Tangle, n_north, n_south, edges) == want, (n_north, n_south, edges)
    return want


def _all_matchings(positions):
    """Every perfect matching of the positions, crossing or not."""
    if not positions:
        yield ()
        return
    first, rest = positions[0], positions[1:]
    for k, partner in enumerate(rest):
        for m in _all_matchings(rest[:k] + rest[k + 1:]):
            yield ((first, partner),) + m


def _boundary_end(p, n_north, n_south):
    return ("N", p) if p <= n_north else ("S", n_north + n_south - p + 1)


def test_validate_matches_quadratic_reference_on_all_matchings():
    outcomes = set()
    for n_north in range(5):
        for n_south in range(n_north % 2, 5, 2):
            total = n_north + n_south
            for pairing in _all_matchings(tuple(range(1, total + 1))):
                edges = [(_boundary_end(a, n_north, n_south), _boundary_end(b, n_north, n_south))
                         for a, b in pairing]
                outcomes.add(_check_validation(n_north, n_south, [e + ((),) for e in edges]))
                for k in range(len(edges)):
                    for decs in (("c",), ("s",), ("c", "c")):
                        placed = [e + (decs if i == k else (),) for i, e in enumerate(edges)]
                        outcomes.add(_check_validation(n_north, n_south, placed))
    assert {o if o is None else o[0] for o in outcomes} == {None, ValueError, ReductionError}


def test_validate_matches_quadratic_reference_on_malformed_edges():
    n1, n2, s1, s2 = ("N", 1), ("N", 2), ("S", 1), ("S", 2)
    cases = [
        [(n1, s1, ()), (n1, s2, ())],                  # a node used twice
        [(n1, n1, ()), (n2, s1, ())],                  # an edge from a node to itself
        [(n1, s1, ()), (n2, s2, ()), (n2, s1, ())],    # more edges than pairs
        [(n1, s1, ())],                                # a node left out
        [(n1, ("S", 3), ()), (n2, s1, ())],            # south index out of range
        [(("N", 0), s1, ()), (n2, s2, ())],            # north index out of range
        [(n1, s2, ("c",)), (n2, s1, ())],              # crossing before exposure
        [(n1, ("X", 1), ()), (n2, s2, ())],            # a face that is neither N nor S
    ]
    for edges in cases:
        assert _check_validation(2, 2, edges) is not None, edges
    with pytest.raises(ValueError, match="total node count must be even"):
        Tangle(2, 1, [(n1, n2, ())])
    # an odd node count cannot be matched perfectly by either validator
    t = _unvalidated(2, 2, [(n1, n2, ())])
    object.__setattr__(t, "n_south", 1)
    want = (ValueError, "edges do not form a perfect matching")
    assert _outcome(_ref_validate, t) == want
    assert _outcome(Tangle._validate, t) == want


def test_sort_key_is_the_cached_serialization():
    cases = enumerate_h_admissible(4) + [t for t, _ in enumerate_b_canonical(4)]
    for t in cases:
        fresh = parse_tangle(format_tangle(t))
        before = hash(fresh)
        assert fresh.sort_key() == format_tangle(fresh)
        assert fresh.sort_key() is fresh.sort_key()
        assert fresh.sort_key() == format_tangle(fresh)
        assert hash(fresh) == before
        # equality and hashing ignore whether the key is cached
        other = parse_tangle(format_tangle(t))
        assert fresh == other and hash(fresh) == hash(other)
        assert {fresh: 1}[other] == 1


def test_serialization_round_trip():
    cases = [
        identity_tangle(2),
        generator_U("H", 3, 1),
        tangle_of("n=4; N1-N4[s]; N2-N3; S1-S2[c]; S3-S4"),
        tangle_of("n=2,m=4; N1-N2[cc]; S1-S4; S2-S3"),
    ]
    for t in cases:
        assert parse_tangle(format_tangle(t)) == t
    assert format_tangle(generator_U("H", 3, 1)) == "n=3; N1-N2[c]; S1-S2[c]; N3-S3"


def test_parse_tangle_rejects_malformed_ends():
    for text in ("n=2; N1-", "n=2; N1-S; N2-S2", "n=2; 1-S1; N2-S2", "n=2; N1-Sx; N2-S2",
                 "n=1; N1-X1", "n=3,q=1; N1-N2; N3-S1",
                 # one nonempty decoration bracket, closed once, ends an edge
                 "n=2; N1-N2[c; S1-S2", "n=2; N1-N2[c]]; S1-S2", "n=2; N1-N2[]; S1-S2",
                 "n=2; N1-N2[c]c; S1-S2", "n=2; N1-N2[c][c]; S1-S2"):
        with pytest.raises(ValueError):
            parse_tangle(text)
    # the header's second field names the south nodes
    text = "n=3,m=1; N1-N2; N3-S1"
    assert format_tangle(parse_tangle(text)) == text


def test_apply_gen_rejects_an_unknown_side():
    # any side but "right" used to act on the left
    elem = CALC_B.evaluate_word(3, (1,))
    assert CALC_B.apply_gen(elem, 2, "left") != CALC_B.apply_gen(elem, 2, "right")
    with pytest.raises(ValueError, match="side"):
        CALC_B.apply_gen(elem, 2, "up")


@pytest.mark.parametrize("bad", [1.0, True, 1.5, "1", None])
def test_letters_that_are_not_integers_are_rejected(bad):
    # 1.0 and True hash like 1, so they used to read and write the cached
    # image of the word (1,): after evaluate_word(4, (1.0,)) the image of
    # (1, 2) printed N3-S1.0[c]
    calc = DiagramCalculus(RULES_H)
    elem = calc.evaluate_word(4, (1,))
    for call in (lambda: calc.evaluate_word(4, (bad,)), lambda: calc.evaluate_word(4, (2, bad)),
                 lambda: calc.apply_gen(elem, bad), lambda: calc.apply_gen(elem, bad, "left"),
                 lambda: generator_U("H", 3, bad), lambda: loop_count(3, (1, bad))):
        with pytest.raises(ValueError, match=f"generator index {bad!r} is not an integer"):
            call()
    fresh = DiagramCalculus(RULES_H)
    for w in ((1,), (1, 2), (2, 1)):
        assert calc.evaluate_word(4, w) == fresh.evaluate_word(4, w)
    assert all(type(s) is int for n, w in calc._eval_cache for s in (n,) + w)


@pytest.mark.parametrize("bad", [2.5, 2.0, -1, 0, True, "2", None])
def test_strand_counts_that_are_not_positive_integers_are_rejected(bad):
    # 2.5 used to raise TypeError, -1 "edges do not form a perfect matching",
    # and 2.0 read the cached images of two strands
    calc = DiagramCalculus(RULES_B)
    calc.evaluate_word(2, (1,))
    for call in (lambda: identity_tangle(bad), lambda: calc.one(bad),
                 lambda: calc.evaluate_word(bad, ()), lambda: calc.evaluate_word(bad, (1,)),
                 lambda: calc.image(bad, {(): ONE}), lambda: calc.image(bad, {}),
                 lambda: generator_U("B", bad, 1), lambda: loop_count(bad, ()),
                 lambda: enumerate_h_admissible(bad), lambda: enumerate_b_canonical(bad),
                 lambda: generate_by_procedures("B", bad, RULES_B),
                 lambda: verify_relations(RULES_B, bad)):
        with pytest.raises(ValueError, match=f"strand count {bad!r} is not an integer"):
            call()
    assert identity_tangle(1) == Tangle(1, 1, [(("N", 1), ("S", 1), ())])
    assert loop_count(1, ()) == 0


def test_generator_examples():
    u1 = generator_U("H", 3, 1)
    assert format_tangle(u1) == "n=3; N1-N2[c]; S1-S2[c]; N3-S3"
    u2 = generator_U("H", 3, 2)
    assert format_tangle(u2) == "n=3; N2-N3; S2-S3; N1-S1"
    for n in (3, 4, 5):
        for i in range(1, n):
            u = generator_U("B", n, i)
            assert classify_diagram(u).H_admissible
    with pytest.raises(ValueError):
        generator_U("H", 3, 3)


def test_compose_examples():
    u2 = generator_U("H", 4, 2)
    t, loops = compose_raw(u2, u2)
    assert t == u2 and loops == ((),)

    u1 = generator_U("H", 3, 1)
    t, loops = compose_raw(u1, u1)
    assert t == u1 and loops == (("c", "c"),)

    d = tangle_of("n=3; N1-N2[c]; S2-S3; N3-S1[c]")
    t, loops = compose_raw(identity_tangle(3), d)
    assert t == d and loops == ()

    with pytest.raises(ValueError):
        compose_raw(identity_tangle(2), identity_tangle(3))


def _ref_compose_raw(top, bottom):
    """The incidence-graph composer that the one array walk replaced.

    Nodes are tagged ("T", i) top north, ("G", j) glue and ("B", l) bottom
    south; surviving edges are handed to ``Tangle`` to orient and sort.
    """
    if top.n_south != bottom.n_north:
        raise ValueError(
            f"cannot compose: {top.n_south} south nodes vs {bottom.n_north} north nodes")
    incidence = {}
    edge_list = []

    def add(a, b, decs):
        eid = len(edge_list)
        edge_list.append((a, b, decs))
        incidence.setdefault(a, []).append((eid, 0))
        incidence.setdefault(b, []).append((eid, 1))

    for a, b, decs in top.edges:
        add(*(("T", e[1]) if e[0] == "N" else ("G", e[1]) for e in (a, b)), decs)
    for a, b, decs in bottom.edges:
        add(*(("G", e[1]) if e[0] == "N" else ("B", e[1]) for e in (a, b)), decs)
    used = [False] * len(edge_list)

    def walk(eid, endside):
        decs = []
        while True:
            used[eid] = True
            a, b, d = edge_list[eid]
            if endside == 0:
                decs.extend(d)
                arrive = b
            else:
                decs.extend(reversed(d))
                arrive = a
            if arrive[0] != "G":
                return arrive, decs
            nxts = [(e, s) for e, s in incidence[arrive] if not used[e]]
            if not nxts:
                return arrive, decs  # closed back to start
            eid, endside = nxts[0]

    new_edges = []
    for face, tag, count in (("N", "T", top.n_north), ("S", "B", bottom.n_south)):
        for i in range(1, count + 1):
            eid, endside = incidence[(tag, i)][0]
            if used[eid]:
                continue
            dest, decs = walk(eid, endside)
            b = ("N", dest[1]) if dest[0] == "T" else ("S", dest[1])
            new_edges.append(((face, i), b, tuple(decs)))
    loops = [_canonical_cycle(tuple(walk(eid, 0)[1]))
             for eid in range(len(edge_list)) if not used[eid]]
    return Tangle(top.n_north, bottom.n_south, new_edges), tuple(sorted(loops))


# words that are not their own reversal show which end an edge is read from
EXPOSED_WORDS = ((), ("c",), ("s",), ("c", "s"), ("s", "c", "c"))


def _decorated_tangles(n_north, n_south):
    """Every tangle whose west-exposed edges carry any of EXPOSED_WORDS."""
    out = []
    for pairing in _all_matchings(tuple(range(1, n_north + n_south + 1))):
        ends = [(_boundary_end(a, n_north, n_south), _boundary_end(b, n_north, n_south))
                for a, b in pairing]
        if _outcome(Tangle, n_north, n_south, [e + ((),) for e in ends]) is not None:
            continue  # crossing
        bare = Tangle(n_north, n_south, [e + ((),) for e in ends])
        exposed = [k for k, e in enumerate(bare.edges) if bare.west_exposed(e)]
        for words in itertools.product(EXPOSED_WORDS, repeat=len(exposed)):
            decs = dict(zip(exposed, words))
            out.append(Tangle(n_north, n_south, [(a, b, decs.get(k, ()))
                                                 for k, (a, b, _) in enumerate(bare.edges)]))
    return out


def _check_compose(top, bottom):
    got, want = compose_raw(top, bottom), _ref_compose_raw(top, bottom)
    assert got == want, (top, bottom)
    assert got[0].edges == want[0].edges and hash(got[0]) == hash(want[0])


def test_compose_matches_incidence_reference_up_to_three_strands():
    shapes = {(a, b): _decorated_tangles(a, b)
              for a in range(4) for b in range(4) if (a + b) % 2 == 0}
    pairs = 0
    for (a, b), tops in shapes.items():
        for c in range(b % 2, 4, 2):
            for top in tops:
                for bottom in shapes[(b, c)]:
                    _check_compose(top, bottom)
                    pairs += 1
    assert pairs == 48_711


def test_compose_matches_incidence_reference_on_four_strand_sample():
    rng = random.Random(61)
    shapes = {(a, b): _decorated_tangles(a, b) for a, b in ((4, 4), (4, 2), (2, 4))}
    for _ in range(3000):
        a, b = rng.choice(sorted(shapes))
        c = rng.choice([c for (bb, c) in shapes if bb == b])
        _check_compose(rng.choice(shapes[(a, b)]), rng.choice(shapes[(b, c)]))


def _unreduced_positions(t):
    return tuple(k for k, (_, _, d) in enumerate(t.edges) if len(d) > 1 or "s" in d)


def _check_act(n):
    """``_act`` against ``compose_raw`` with the generator, on every tangle of
    ``_decorated_tangles(n, n)``, every generator and both sides: the same
    tangle, stored edge tuple and loops, and the positions to fold are those
    of the edges with a square or several decorations.  Returns the triples
    checked."""
    triples, tangles = 0, _decorated_tangles(n, n)
    for i in range(1, n):
        u = generator_U("H", n, i)
        for t in tangles:
            for side, want in (("right", compose_raw(t, u)), ("left", compose_raw(u, t))):
                got, loops, fold = tangles_mod._act(t, i, side)
                assert (got, loops) == want, (t, i, side)
                assert got.edges == want[0].edges and hash(got) == hash(want[0])
                assert fold == _unreduced_positions(got), (t, i, side)
                triples += 1
    return triples


def test_generator_action_matches_compose_up_to_five_strands():
    # words that are not their own reversal on both edges at the glued
    # nodes catch a partner edge read from the wrong end; reduced tangles
    # carry one decoration per edge and cannot
    assert sum(_check_act(n) for n in range(2, 6)) == 65_060


@pytest.mark.skipif(not os.environ.get("TLBASES_SLOW"),
                    reason="set TLBASES_SLOW=1 for the six-strand generator action check")
def test_generator_action_matches_compose_at_six_strands():
    assert _check_act(6) == 447_600


def _ref_act_reduced(rules, t, i, side):
    """The generator action composed whole: ``compose_raw`` with U_i, the
    whole-tangle ``_reduce``, times 2 at B, i = 1."""
    u = generator_U(rules.family, t.n_north, i)
    raw, loops = compose_raw(*((t, u) if side == "right" else (u, t)))
    scale = rules.const(2) if (rules.family == "B" and i == 1) else rules.one()
    return DiagramElement(rules.family, t.n_north,
                          {k: c * scale for k, c in tangles_mod._reduce(raw, loops, rules).items()})


def _check_apply_gen(rules, tangles):
    """``apply_gen`` against ``_ref_act_reduced`` on single tangles, every
    generator and both sides; a square in family H raises in both.  Returns
    the triples checked."""
    calc, triples = DiagramCalculus(rules), 0
    for t in tangles:
        n = t.n_north
        elem = DiagramElement(rules.family, n, {t: rules.one()})
        for i in range(1, n):
            for side in ("left", "right"):
                try:
                    want = _ref_act_reduced(rules, t, i, side)
                except ReductionError:
                    with pytest.raises(ReductionError, match="only occur in family B"):
                        calc.apply_gen(elem, i, side)
                else:
                    assert calc.apply_gen(elem, i, side) == want, (t, i, side)
                triples += 1
    return triples


@pytest.mark.parametrize("family", ["H", "B"])
def test_generator_action_matches_whole_reduction_up_to_five_strands(family):
    # every decorated tangle, reduced or not: the action folds only the edges
    # _act names, and must still equal folding every edge
    rules = RULES_H if family == "H" else RULES_B
    tangles = [t for n in range(2, 6) for t in _decorated_tangles(n, n)]
    assert _check_apply_gen(rules, tangles) == 65_060


@pytest.mark.skipif(not os.environ.get("TLBASES_SLOW"),
                    reason="set TLBASES_SLOW=1 for the six-strand generator action check")
@pytest.mark.parametrize("family", ["H", "B"])
def test_generator_action_matches_whole_reduction_at_six_strands(family):
    rules = RULES_H if family == "H" else RULES_B
    assert _check_apply_gen(rules, _decorated_tangles(6, 6)) == 447_600


@pytest.mark.parametrize("family, far", [("H", ("c", "c")), ("B", ("c", "c")), ("B", ("s",)),
                                         ("B", ("c", "s", "c"))])
def test_generator_action_folds_an_unreduced_edge_away_from_it(family, far):
    # N1-S1 carries the unreduced word and no generator at 2, 3 or 4 touches
    # it; at i = 2 the cup closes a loop on either side, at 3 and 4 it joins
    # two arcs
    rules = RULES_H if family == "H" else RULES_B
    t = parse_tangle(f"n=5; N2-N3; S2-S3; N1-S1[{''.join(far)}]; N4-S4; N5-S5")
    for i, side in ((2, "right"), (2, "left"), (3, "right"), (3, "left"), (4, "right"),
                    (4, "left")):
        got, _, fold = tangles_mod._act(t, i, side)
        assert [got.edges[k][:2] for k in fold] == [(("N", 1), ("S", 1))], (i, side)
    assert _check_apply_gen(rules, [t]) == 8


@pytest.mark.parametrize("family", ["H", "B"])
def test_word_images_fold_only_the_edges_the_action_names(family, monkeypatch):
    # with the whole-tangle reduction patched out, every FC word at five
    # strands still evaluates, and each fold names at most the joined edge
    rules = RULES_H if family == "H" else RULES_B
    words = TLAlgebra(CoxeterGraph(family, 4)).fc_words()
    want = [DiagramCalculus(rules).evaluate_word(5, w) for w in words]
    expand, named = tangles_mod._expand_edges, []

    def whole(*args):
        raise AssertionError("the generator action reduced a whole tangle")

    def named_only(t, rules, at):
        at = tuple(at)
        if len(at) > 1:
            raise AssertionError(f"the generator action folds {at} of {t}")
        named.append(at)
        return expand(t, rules, at)

    monkeypatch.setattr(tangles_mod, "_reduce", whole)
    monkeypatch.setattr(tangles_mod, "_expand_edges", named_only)
    calc = DiagramCalculus(rules)
    assert [calc.evaluate_word(5, w) for w in words] == want
    assert named


@pytest.mark.parametrize("family", ["H", "B"])
def test_trusted_tangles_revalidate_at_five_strands(family, monkeypatch):
    # the generator action and edge folding skip validation; every tangle
    # they build on the way to the FC words' images must pass the public
    # constructor
    built = []
    act = tangles_mod._act

    def recording(t, i, side):
        out = act(t, i, side)
        built.append(out[0])
        return out

    monkeypatch.setattr(tangles_mod, "_act", recording)
    rules = RULES_H if family == "H" else RULES_B
    calc = DiagramCalculus(rules)
    words = TLAlgebra(CoxeterGraph(family, 4)).fc_words()
    for w in words:
        built.extend(calc.evaluate_word(5, w).support())
    assert len(built) > len(words)
    for t in built:
        fresh = Tangle(t.n_north, t.n_south, t.edges)
        assert fresh.edges == t.edges, t
        assert hash(fresh) == hash(t) and fresh.sort_key() == t.sort_key()


def test_calibrated_values():
    assert RULES_H.plain_loop == DELTA
    assert RULES_H.circle_loop == LaurentPoly()
    assert RULES_H.alpha == ONE and RULES_H.beta == ONE
    half = Fraction(1, 2)
    assert RULES_B.plain_loop == RationalLaurent.from_integral(DELTA)
    assert RULES_B.circle_loop == RationalLaurent({1: half, -1: half})
    assert RULES_B.alpha == RationalLaurent.const(1)
    assert RULES_B.beta == RationalLaurent()
    assert RULES_B.sigma == RationalLaurent.const(2)
    assert RULES_B.tau == RationalLaurent.const(-1)


def test_calibration_zero_residual_at_ranks_3_and_4():
    for rules in (RULES_H, RULES_B):
        assert verify_relations(rules, 3) == []
        assert verify_relations(rules, 4) == []


def _ref_defining_relations(family: str, n: int):
    """(lhs word, [(int coeff, rhs word), ...]) for all presentation relations.

    The presentation written out by hand, the reference for the relation
    words read off the Coxeter graph and rewritten by ``TLAlgebra``.
    """
    rels = []
    gens = range(1, n)
    for i in gens:
        rels.append(((i, i), [("delta", (i,))]))
    for i in gens:
        for j in gens:
            if j > i + 1:
                rels.append(((i, j), [(1, (j, i))]))
    for i in gens:
        for j in gens:
            if abs(i - j) == 1 and i > 1 and j > 1:
                rels.append(((i, j, i), [(1, (i,))]))
    if 2 in gens:
        for (i, j) in ((1, 2), (2, 1)):
            if family == "H":
                rels.append(((i, j, i, j, i), [(3, (i, j, i)), (-1, (i,))]))
            else:
                rels.append(((i, j, i, j), [(2, (i, j))]))
    return rels


def _relation_key(lhs, rhs):
    # a commutation s t = t s reads the same either way round
    if rhs == {lhs[::-1]: ONE}:
        return "commute", tuple(sorted(lhs))
    return lhs, tuple(sorted(rhs.items()))


@pytest.mark.parametrize("family", ["H", "B"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_relations_match_the_hand_written_presentation(family, n):
    derived = Counter(_relation_key(lhs, rhs.as_dict()) for lhs, rhs in _relations(family, n))
    ref = Counter(_relation_key(lhs, {w: DELTA if c == "delta" else LaurentPoly.const(c)
                                      for c, w in rhs})
                  for lhs, rhs in _ref_defining_relations(family, n))
    assert derived == ref


def test_narrow_keeps_only_the_family_ring():
    half = Fraction(1, 2)
    assert _narrow({0: Fraction(1, 3)}, "B") is None
    assert _narrow({0: half}, "H") is None
    assert _narrow({1: half, -1: half}, "B") == RationalLaurent({1: half, -1: half})
    assert _narrow({0: Fraction(2)}, "H") == LaurentPoly.const(2)


@pytest.mark.parametrize("family", ["H", "B"])
def test_exact_solve_matches_the_sympy_solve(family, monkeypatch):
    # the sympy solve the exact solver replaced: the same solutions in the
    # family ring before the nonnegativity filter, and the same rule set
    pytest.importorskip("sympy")
    equations = _calibration_equations(family)
    ref = sympy_reference.solve_in_ring(equations, _RINGS[family])
    assert _ring_solutions(equations, family) == ref
    assert len(ref) == 2
    import tlbases.tangles as tangles_mod
    monkeypatch.setattr(tangles_mod, "_ring_solutions",
                        lambda eqs, fam: sympy_reference.solve_in_ring(eqs, _RINGS[fam]))
    assert calibrate_ruleset(family) == {"H": RULES_H, "B": RULES_B}[family]


def _system(*equations):
    """Calibration equations from {(i, j, k): int or LaurentPoly} dicts."""
    return [{k: p if isinstance(p, LaurentPoly) else LaurentPoly.const(p)
             for k, p in eq.items()} for eq in equations]


# alpha = 1, beta = 1 and c = 1, each pinned by its own equation
PINNED = _system({(1, 0, 0): 1, (0, 0, 0): -1}, {(0, 1, 0): 1, (0, 0, 0): -1},
                 {(0, 0, 1): 1, (0, 0, 0): -1})


@pytest.mark.parametrize("family", ["H", "B"])
def test_ring_solutions_of_small_systems(family):
    one = _RINGS[family].const(1)
    assert _ring_solutions(PINNED, family) == [(one, one, one)]
    # duplicates, multiples and an identically zero equation change nothing
    assert _ring_solutions(PINNED + PINNED + [{k: p * 3 for k, p in PINNED[0].items()}]
                           + _system({(0, 0, 0): 0}), family) == [(one, one, one)]
    # every c-equation must give the same c
    assert _ring_solutions(PINNED + _system({(0, 0, 1): 1, (0, 0, 0): -2}), family) == []
    # beta = 1/2 lies in B's dyadic ring only; c = 1/3 in neither ring
    half = _system({(1, 0, 0): 1, (0, 0, 0): -1}, {(0, 1, 0): 2, (0, 0, 0): -1},
                   {(0, 0, 1): 1, (0, 0, 0): -1})
    assert len(_ring_solutions(half, family)) == (family == "B")
    third = _system({(1, 0, 0): 1, (0, 0, 0): -1}, {(0, 1, 0): 1, (0, 0, 0): -1},
                    {(0, 0, 1): 3, (0, 0, 0): -1})
    assert _ring_solutions(third, family) == []
    # c = (v + v^-1) / 2 from 2*alpha*c - delta: dyadic, so B keeps it
    loop = _system({(1, 0, 0): 1, (0, 0, 0): -1}, {(0, 1, 0): 1, (0, 0, 0): -1},
                   {(1, 0, 1): 2, (0, 0, 0): -DELTA})
    want = [(one, one, RationalLaurent({1: Fraction(1, 2), -1: Fraction(1, 2)}))]
    assert _ring_solutions(loop, family) == (want if family == "B" else [])


def test_ring_solutions_find_every_rational_point():
    # alpha^2 = 4 beta^2 and beta^3 = beta: (0, 0), (+-2, 1), (+-2, -1)
    system = _system({(2, 0, 0): 1, (0, 2, 0): -4}, {(0, 3, 0): 1, (0, 1, 0): -1},
                     {(0, 0, 1): 1})
    got = [(a.coeff(0), b.coeff(0)) for a, b, _ in _ring_solutions(system, "H")]
    assert sorted(got) == [(-2, -1), (-2, 1), (0, 0), (2, -1), (2, 1)]


@pytest.mark.parametrize("shape, system, message", [
    ("quadratic in c", PINNED[:2] + _system({(0, 0, 2): 1, (0, 0, 0): -1}),
     "has degree 2 in c, not 1"),
    ("v-dependent c-free equation", _system({(1, 0, 0): 1, (0, 0, 0): -LaurentPoly.monomial(1)})
     + PINNED[1:], "depends on v"),
    ("beta pinned by nothing", _system({(1, 0, 0): 1, (0, 0, 0): -1},
                                       {(2, 0, 0): 1, (0, 0, 0): -1}) + PINNED[2:],
     "no c-free calibration equation pins beta"),
    ("c pinned by nothing", PINNED[:2], "no calibration equation pins c"),
    ("one c-free equation", _system({(1, 1, 0): 1, (0, 0, 0): -1}) + PINNED[2:],
     "one c-free calibration equation leaves alpha and beta free"),
    ("alpha left free", _system({(1, 1, 0): 1, (1, 0, 0): -1},
                                {(0, 2, 0): 1, (0, 1, 0): -1}) + PINNED[2:],
     "alpha is left free at beta = 1"),
    ("c left free", PINNED[:2] + _system({(1, 0, 1): 1, (0, 0, 1): -1}),
     "c is left free at alpha = 1, beta = 1"),
    ("resultant vanishes", _system({(1, 0, 0): 1, (0, 1, 0): -1},
                                   {(1, 0, 0): 2, (0, 1, 0): -2}) + PINNED[2:],
     "resultant in alpha of every pair of the 2 c-free calibration equations "
     "vanishes identically"),
])
def test_unsupported_system_shapes_are_reported(shape, system, message):
    for family in ("H", "B"):
        with pytest.raises(CalibrationError, match=message):
            _calibrated_scalars(system, family)


def test_two_nonnegative_solutions_are_reported():
    # beta^2 = beta leaves beta = 0 and beta = 1, both nonnegative
    system = PINNED[::2] + _system({(0, 2, 0): 1, (0, 1, 0): -1})
    assert len(_ring_solutions(system, "H")) == 2
    with pytest.raises(CalibrationError, match="admit 2 nonnegative exact solutions"):
        _calibrated_scalars(system, "H")
    # a negative solution is filtered out, not counted
    system = PINNED[::2] + _system({(0, 2, 0): 1, (0, 0, 0): -1})
    one = LaurentPoly.const(1)
    assert _calibrated_scalars(system, "H") == (one, one, one)


def test_symbolic_unit_returns_the_other_operand():
    unit, alpha = _SymPoly.const(1), _SymPoly.var("alpha")
    assert unit * alpha is alpha
    assert alpha * unit is alpha
    assert (unit * unit).terms == unit.terms


def test_symbolic_scalars_reproduce_numeric_calculus():
    # calibration runs this calculus with symbolic scalars; with constant
    # ones it must agree with the numeric rules term by term
    lift = _SymPoly.from_integral
    calc = DiagramCalculus(RuleSet("H", lift(RULES_H.plain_loop), lift(RULES_H.circle_loop),
                                   lift(RULES_H.alpha), lift(RULES_H.beta)))
    for e in TLAlgebra(CoxeterGraph("H", 3)).fc_elements():
        got = {t: c.terms for t, c in calc.evaluate_word(4, e.word).coeffs}
        want = {t: {(0, 0, 0): c} for t, c in CALC_H.evaluate_word(4, e.word).coeffs}
        assert got == want, e.word


def test_ruleset_json_round_trip():
    for rules in (RULES_H, RULES_B):
        assert RuleSet.from_json(rules.to_json()) == rules


def test_reduce_h_braid_relation_diagrams():
    # the five-letter alternating product collapses to 3*(three letters) - one
    lhs = CALC_H.evaluate_word(3, (1, 2, 1, 2, 1))
    rhs = CALC_H.evaluate_word(3, (1, 2, 1)).scale(LaurentPoly.const(3)) \
        - CALC_H.evaluate_word(3, (1,))
    assert lhs == rhs


def test_reduce_b_braid_relation_diagrams():
    lhs = CALC_B.evaluate_word(3, (1, 2, 1, 2))
    rhs = CALC_B.evaluate_word(3, (1, 2)).scale(RationalLaurent.const(2))
    assert lhs == rhs
    # at the bare diagram level the four-letter and two-letter words agree
    u1, u2 = generator_U("B", 3, 1), generator_U("B", 3, 2)
    unscaled = DiagramCalculus(RULES_B)
    e = DiagramElement("B", 3, {u1: RULES_B.one()})
    for t in (u2, u1, u2):
        acc = DiagramElement("B", 3, {})
        for tt, c in e.coeffs:
            raw, loops = compose_raw(tt, t)
            from tlbases.tangles import reduce_composition
            acc = acc + reduce_composition(raw, loops, RULES_B).scale(c)
        e = acc
    short = DiagramElement("B", 3, {u1: RULES_B.one()})
    raw, loops = compose_raw(u1, u2)
    from tlbases.tangles import reduce_composition
    short = reduce_composition(raw, loops, RULES_B)
    assert e == short


def test_diagram_element_orders_only_two_or_more_terms(monkeypatch):
    u1, u2 = generator_U("H", 3, 1), generator_U("H", 3, 2)
    ordered = DiagramElement("H", 3, {u2: ONE, u1: ONE}).coeffs
    keyed = []
    sort_key = Tangle.sort_key
    monkeypatch.setattr(Tangle, "sort_key", lambda t: keyed.append(t) or sort_key(t))
    for coeffs in ({}, {u1: ONE}, {u1: ONE, u2: LaurentPoly.const(0)}):
        DiagramElement("H", 3, coeffs)
    assert keyed == []
    assert DiagramElement("H", 3, {u2: ONE, u1: ONE}).coeffs == ordered
    assert keyed


def test_evaluate_h_canonical_image_is_single_diagram():
    e = CALC_H.evaluate_word(3, (1, 2, 1)) - CALC_H.evaluate_word(3, (1,))
    assert len(e.coeffs) == 1 and e.coeffs[0][1] == ONE
    t = e.coeffs[0][0]
    assert t == tangle_of("n=3; N1-N2[c]; S1-S2[c]; N3-S3[c]")


def test_loop_count_examples():
    assert loop_count(3, (1, 1)) == 1
    assert loop_count(3, (1, 2)) == 0
    assert loop_count(3, ()) == 0
    assert loop_count(4, (2, 2, 2)) == 2


def _ref_loop_count(n, word, steps=None):
    """The compose-based count that ``loop_count`` replaced: compose the
    running bare product with each bare generator and count the closed
    curves; ``steps`` memoizes (product, letter) -> (product, loops)."""
    cur = identity_tangle(n)
    total = 0
    for s in word:
        hit = None if steps is None else steps.get((cur, s))
        if hit is None:
            bare = generator_U("H", n, s)
            bare = Tangle(n, n, [(a, b, ()) for a, b, _ in bare.edges])
            hit = compose_raw(cur, bare)
            if steps is not None:
                steps[(cur, s)] = hit
        cur, loops = hit
        total += len(loops)
    return total


@pytest.mark.parametrize("n", [3, 4, 5])
def test_loop_count_matches_compose_on_all_short_words(n):
    steps = {}
    for k in range(9):
        for word in itertools.product(range(1, n), repeat=k):
            assert loop_count(n, word) == _ref_loop_count(n, word, steps), word


def _check_loop_count_on_deletions(family, rank):
    # the deletion suite's inputs: FC words and each single-letter deletion
    n, steps = rank + 1, {}
    for e in TLAlgebra(CoxeterGraph(family, rank)).fc_elements():
        for word in [e.word] + [e.word[:l] + e.word[l + 1:] for l in range(e.length)]:
            assert loop_count(n, word) == _ref_loop_count(n, word, steps), word


@pytest.mark.parametrize("family", ["H", "B"])
def test_loop_count_matches_compose_on_fc_words_and_deletions(family):
    _check_loop_count_on_deletions(family, 4)


@pytest.mark.skipif(not os.environ.get("TLBASES_SLOW"),
                    reason="set TLBASES_SLOW=1 for the H5 loop-count cross-check")
def test_loop_count_matches_compose_on_h5_deletions():
    _check_loop_count_on_deletions("H", 5)


def test_loop_count_rejects_letters_out_of_range():
    for word in ((1, 0), (4,), (2, 4, 1)):
        with pytest.raises(ValueError, match="out of range for 4 strands"):
            loop_count(4, word)
        with pytest.raises(ValueError, match="out of range for 4 strands"):
            _ref_loop_count(4, word)


def test_loop_count_changes_by_at_most_one_under_deletion():
    rng = random.Random(30)
    for _ in range(150):
        n = rng.choice((3, 4))
        word = tuple(rng.randint(1, n - 1) for _ in range(rng.randint(1, 9)))
        base = loop_count(n, word)
        for i in range(len(word)):
            hat = word[:i] + word[i + 1:]
            assert abs(loop_count(n, hat) - base) <= 1


def test_classify_diagram_examples():
    ident = identity_tangle(3)
    assert classify_diagram(ident).H_admissible and _ref_b_canonical_class(ident) == "C1"

    u1 = generator_U("B", 3, 1)
    assert classify_diagram(u1).H_admissible and _ref_b_canonical_class(u1) == "C2"

    # a decorated edge with every edge propagating is inadmissible
    bad = Tangle(2, 2, [(("N", 1), ("S", 1), ("c",)), (("N", 2), ("S", 2), ())])
    assert not classify_diagram(bad).H_admissible

    sq = tangle_of("n=3; N1-S1[s]; N2-N3; S2-S3")
    info = classify_diagram(sq)
    assert _ref_b_canonical_class(sq) == "C1'"
    assert not info.H_admissible
    assert info.edge_types == ("p3", "p3", "p1")


def test_homomorphism_on_random_words():
    rng = random.Random(31)
    for family, calc, rules in (("H", CALC_H, RULES_H), ("B", CALC_B, RULES_B)):
        for n in (3, 4):
            alg = TLAlgebra(CoxeterGraph(family, n - 1))
            for _ in range(25):
                word = tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 8)))
                lhs = calc.evaluate_word(n, word)
                rhs = DiagramElement(family, n, {})
                for x, c in alg.word_to_basis(word).coords:
                    rhs = rhs + calc.evaluate_word(n, x).scale(rules.lift(c))
                assert lhs == rhs, (family, n, word)


def test_admissible_counts_match_fc_counts():
    for n in (3, 4):
        fc_h = TLAlgebra(CoxeterGraph("H", n - 1)).fc_elements()
        assert len(enumerate_h_admissible(n)) == len(fc_h)
        fc_b = TLAlgebra(CoxeterGraph("B", n - 1)).fc_elements()
        assert len(enumerate_b_canonical(n)) == len(fc_b)


def test_b_canonical_set_at_three_strands():
    cans = enumerate_b_canonical(3)
    assert len(cans) == 7
    squared = [t for t, lam in cans if t.has_squares()]
    assert len(squared) == 2  # the C1' diagram and one C2 diagram with a square
    lams = sorted(lam for _, lam in cans)
    assert lams == [1, 1, 1, 2, 2, 2, 2]


def test_recognize_b_canonical_round_trip():
    for n in (3, 4):
        for t, lam in enumerate_b_canonical(n):
            elem = expand_squares(t, RULES_B).scale(lam)
            hit = recognize_b_canonical(elem, RULES_B)
            assert hit == (t, lam), t
    # something that is not canonical: a bare diagram without its factor 2
    u1 = generator_U("B", 3, 1)
    elem = DiagramElement("B", 3, {u1: RULES_B.one()})
    assert recognize_b_canonical(elem, RULES_B) is None


def test_iota_examples():
    assert iota(CALC_B.one(3), RULES_B) == CALC_H.one(3)
    img = iota(CALC_B.evaluate_word(3, (1,)), RULES_B)
    assert img == DiagramElement("H", 3, {generator_U("H", 3, 1): ONE})


def test_iota_injective_on_canonical_set():
    for n in (3, 4):
        images = set()
        for t, lam in enumerate_b_canonical(n):
            elem = expand_squares(t, RULES_B).scale(lam)
            images.add(iota(elem, RULES_B))
        assert len(images) == len(enumerate_b_canonical(n))


def _b_elements(n):
    for t, lam in enumerate_b_canonical(n):
        yield t, lam, expand_squares(t, RULES_B).scale(lam)


def test_iota_equivariance_propagating_edge_move():
    # configuration: propagating edge out of north node p, north p+1,p+2 a cup;
    # when p = 1 and the edge is decorated the stated surgery result leaves the
    # canonical set, so those instances are outside the move's scope
    checked = 0
    for n in (3, 4, 5):
        for t, lam, elem in _b_elements(n):
            for a, b, decs in t.edges:
                if a[0] == "N" and b[0] == "S":
                    p = a[1]
                    cup = next((e for e in t.edges
                                if e[0] == ("N", p + 1) and e[1] == ("N", p + 2)), None)
                    if cup is None or (p == 1 and decs):
                        continue
                    assert cup[2] == ()  # shielded, hence undecorated
                    checked += 1
                    lhs = iota(CALC_B.apply_gen(elem, p, side="left"), RULES_B)
                    rhs = CALC_H.apply_gen(iota(elem, RULES_B), p, side="left")
                    assert lhs == rhs, (n, t, p)
                    if p > 1:
                        # the stated surgery: cup moves under the strand
                        edges = []
                        for e in t.edges:
                            if e == cup:
                                continue
                            if e == (a, b, decs):
                                edges.append((("N", p + 2), b, decs))
                            else:
                                edges.append(e)
                        edges.append((("N", p), ("N", p + 1), ()))
                        expected = Tangle(n, n, edges)
                        got = CALC_B.apply_gen(elem, p, side="left")
                        assert got == expand_squares(expected, RULES_B).scale(lam)
    assert checked > 0


def test_iota_equivariance_square_exchange():
    # i > 1, north i,i+1 squared edge, north i+2,i+3 plain: b_i b_{i+1} swaps
    # them; a squared cup needs west exposure, so the smallest instances live
    # on six strands
    found = 0
    n = 6
    for t, lam, elem in _b_elements(n):
        for i in range(2, n - 2):
            e1 = next((e for e in t.edges
                       if e[0] == ("N", i) and e[1] == ("N", i + 1) and e[2] == ("s",)), None)
            e2 = next((e for e in t.edges
                       if e[0] == ("N", i + 2) and e[1] == ("N", i + 3) and e[2] == ()), None)
            if e1 is None or e2 is None:
                continue
            found += 1
            prod = CALC_B.apply_gen(CALC_B.apply_gen(elem, i + 1, side="left"), i, side="left")
            swapped = []
            for e in t.edges:
                if e == e1:
                    swapped.append((e[0], e[1], ()))
                elif e == e2:
                    swapped.append((e[0], e[1], ("s",)))
                else:
                    swapped.append(e)
            expected = expand_squares(Tangle(n, n, swapped), RULES_B).scale(lam)
            assert prod == expected
            # the stated inverse identity: b_{i+2} b_{i+1} (b_i b_{i+1} D) = D
            inv = CALC_B.apply_gen(CALC_B.apply_gen(prod, i + 1, side="left"),
                                   i + 2, side="left")
            assert inv == elem
            assert iota(prod, RULES_B) == CALC_H.apply_gen(
                CALC_H.apply_gen(iota(elem, RULES_B), i + 1, side="left"), i, side="left")
    assert found > 0


def test_iota_equivariance_square_creation():
    # north 1,2 circled and north 3,4 plain: (b_1 b_2 - 1) D squares the 3,4 edge
    found = 0
    for n in (4, 5):
        for t, lam, elem in _b_elements(n):
            e1 = next((e for e in t.edges
                       if e[0] == ("N", 1) and e[1] == ("N", 2) and e[2] == ("c",)), None)
            e2 = next((e for e in t.edges
                       if e[0] == ("N", 3) and e[1] == ("N", 4) and e[2] == ()), None)
            if e1 is None or e2 is None:
                continue
            found += 1
            prod = CALC_B.apply_gen(CALC_B.apply_gen(elem, 2, side="left"), 1, side="left") - elem
            squared = [e if e != e2 else (e[0], e[1], ("s",)) for e in t.edges]
            assert prod == expand_squares(Tangle(n, n, squared), RULES_B).scale(lam)
            h_elem = iota(elem, RULES_B)
            h_prod = CALC_H.apply_gen(CALC_H.apply_gen(h_elem, 2, side="left"), 1, side="left") - h_elem
            assert iota(prod, RULES_B) == h_prod
    assert found > 0


def test_iota_equivariance_cup_absorption():
    # north i,i+1 plain cup enclosed by an edge j..k: D factors as b_i D'
    for n in (3, 4):
        for t, lam, elem in _b_elements(n):
            for i in range(1, n):
                e1 = next((e for e in t.edges
                           if e[0] == ("N", i) and e[1] == ("N", i + 1) and e[2] == ()), None)
                if e1 is None:
                    continue
                enclosing = [
                    e for e in t.edges
                    if e[0][0] == "N" and e[1][0] == "N"
                    and e[0][1] < i and e[1][1] > i + 1
                ]
                if not enclosing:
                    continue
                e2 = min(enclosing, key=lambda e: e[1][1] - e[0][1])
                j, k = e2[0][1], e2[1][1]
                edges = []
                for e in t.edges:
                    if e == e1:
                        edges.append((("N", i + 1), ("N", k), ()))
                    elif e == e2:
                        edges.append((("N", j), ("N", i), e2[2]))
                    else:
                        edges.append(e)
                dprime = Tangle(n, n, edges)
                dprime_elem = expand_squares(dprime, RULES_B).scale(lam)
                assert CALC_B.apply_gen(dprime_elem, i, side="left") == elem
                assert iota(elem, RULES_B) == CALC_H.apply_gen(
                    iota(dprime_elem, RULES_B), i, side="left")


def test_generate_by_procedures():
    closure_h = generate_by_procedures("H", 3, RULES_H)
    assert len(closure_h) == 9
    singles = {e.coeffs[0][0] for e in closure_h}
    assert singles == set(enumerate_h_admissible(3))

    closure_b = generate_by_procedures("B", 3, RULES_B)
    expected = {expand_squares(t, RULES_B).scale(lam) for t, lam in enumerate_b_canonical(3)}
    assert set(closure_b) == expected

    # the gated moves need generators 1 and 2
    with pytest.raises(ValueError):
        generate_by_procedures("H", 2, RULES_H)

    # applying a single right multiplication to the identity yields a generator
    ids = CALC_H.one(3)
    for i in (1, 2):
        e = CALC_H.apply_gen(ids, i, side="right")
        assert e == CALC_H.evaluate_word(3, (i,))


def test_canonical_structure_constants_positive_in_diagram_form():
    # products of canonical-set elements expand with nonnegative coefficients
    cans = [expand_squares(t, RULES_B).scale(lam) for t, lam in enumerate_b_canonical(3)]
    index = {}
    for t, lam in enumerate_b_canonical(3):
        index[max(expand_squares(t, RULES_B).scale(lam).support(),
                  key=lambda s: (s.decoration_count(), s.sort_key()))] = (t, lam)
    for a in cans:
        for b in cans:
            prod = CALC_B.multiply(a, b)
            rem = prod
            while not rem.is_zero():
                shadow = max(rem.support(), key=lambda s: (s.decoration_count(), s.sort_key()))
                t, lam = index[shadow]
                exp = expand_squares(t, RULES_B).scale(lam)
                lead = exp.coeff(shadow)
                mu = rem.coeff(shadow) * (Fraction(1) / lead.terms[0][1])
                coeffs = mu.to_integral()
                assert all(c >= 0 for _, c in coeffs.terms), (a, b)
                rem = rem - exp.scale(mu)


def test_render_goldens():
    assert render(identity_tangle(2)) == " |   |\n"
    assert render(generator_U("H", 3, 1)) == " +o--+   |\n         |\n +o--+   |\n"
    svg = render(generator_U("H", 3, 1), "svg")
    assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg" width="160" height="200">')
    assert '<circle cx="60.0" cy="40.0" r="5"' in svg
    assert svg.endswith("</svg>\n")


def test_render_bent_propagating_edges_turn_at_corners():
    # a bent edge runs down from its north end, along its lane and down to
    # its south end; both ends of the lane are corners
    assert render(parse_tangle("n=3; N1-N2; N3-S1; S2-S3")) == \
        " +---+   |\n +-------+\n |   +---+\n"
    assert render(parse_tangle("n=4; N1-N2[c]; N3-S1; N4-S2; S3-S4")) == \
        " +o--+   |   |\n +-------+   |\n |   +-------+\n |   |   +---+\n"


def test_render_round_trip_byte_identical():
    cases = [
        identity_tangle(2),
        generator_U("H", 4, 1),
        parse_tangle("n=4; N1-N4[s]; N2-N3; S1-S2[c]; S3-S4"),
    ]
    for t in cases:
        for fmt in ("ascii", "svg"):
            once = render(t, fmt)
            again = render(parse_tangle(format_tangle(t)), fmt)
            assert once == again


def test_deletion_laws_family_b():
    from tlbases.verify import run_suite
    res = run_suite("prop-3.1.9", family="B", rank=3)
    assert res.passed, [c.detail for c in res.checks if not c.passed]


def test_deletion_suite_records_loops_in_reduced_words(monkeypatch):
    import tlbases.verify as verify_mod
    monkeypatch.setattr(verify_mod, "loop_count", lambda n, word: 1)
    res = verify_mod.run_suite("prop-3.1.9", family="H", rank=2)
    check = next(c for c in res.checks if c.name == "H2-reduced-words-loop-free")
    assert not check.passed and check.counterexample["words"]
    assert not res.passed


@pytest.mark.parametrize("suite, form", [("thm-2.1.3", "single-diagram"),
                                         ("thm-2.2.5", "canonical-form")])
def test_transport_suites_at_default_strands(suite, form):
    from tlbases.verify import run_suite
    res = run_suite(suite)
    assert res.passed, [c.to_json() for c in res.checks if not c.passed]
    assert [c.name for c in res.checks] == [
        f"strands-{n}-{kind}" for n in (3, 4) for kind in (form, "image-set")]


@pytest.fixture
def fresh_index():
    # the index is cached per (rule set, strands); a patched enumeration
    # must be read afresh, and must not outlive the test
    tangles_mod._canonical_index.cache_clear()
    yield
    tangles_mod._canonical_index.cache_clear()


def test_transport_fails_with_a_counterexample_when_the_enumeration_drops_a_diagram(
        monkeypatch, fresh_index):
    from tlbases.verify import run_suite
    full = tangles_mod.enumerate_h_admissible
    monkeypatch.setattr(tangles_mod, "enumerate_h_admissible", lambda n: full(n)[:-1])
    res = run_suite("thm-2.1.3")
    assert not res.passed
    failed = next(c for c in res.checks if not c.passed)
    assert failed.name == "strands-3-single-diagram"
    assert failed.detail.endswith("is not a single admissible diagram with coefficient 1")
    word = failed.counterexample["word"]
    image = failed.counterexample["image"]
    assert word and format_tangle(full(3)[-1]) in image


# ---------------------------------------------------------------------------
# references for the canonical-diagram index: the recognizers it replaced


def _ref_b_canonical_class(t):
    """The class rules that ``classify_diagram`` applied before
    ``enumerate_b_canonical`` became their one encoding: "C1", "C1'", "C2"
    or "none"."""
    if any(len(e[2]) > 1 for e in t.edges):
        return "none"
    types = classify_diagram(t).edge_types
    p1 = [e for e, ty in zip(t.edges, types) if ty == "p1"]
    p2 = [e for e, ty in zip(t.edges, types) if ty == "p2"]
    n_decs = t.decoration_count()
    if p1:
        if n_decs == 0:
            return "C1"
        has_nonprop = any(not t.is_propagating(e) for e in t.edges)
        return "C1'" if p1[0][2] == ("s",) and n_decs == 1 and has_nonprop else "none"
    if len(p2) == 2 and all(e[2] == ("c",) for e in p2) and all(
            e[2] in ((), ("s",)) for e, ty in zip(t.edges, types) if ty != "p2"):
        return "C2"
    return "none"


def _ref_b_canonical_candidate(shadow, rules):
    """The canonical diagram whose expansion leads with ``shadow``.

    Circles stay on the two node-1 edges and every other circle came from a
    square.  Returns (candidate, normalization factor, normalized expansion)
    or None when the rebuilt diagram is not in the canonical set.
    """
    if shadow.has_squares():
        return None
    edges = []
    for (a, b, decs), ty in zip(shadow.edges, classify_diagram(shadow).edge_types):
        if len(decs) > 1:
            return None
        edges.append((a, b, decs and (("c",) if ty == "p2" else ("s",))))
    candidate = Tangle(shadow.n_north, shadow.n_south, edges)
    cls = _ref_b_canonical_class(candidate)
    if cls == "none":
        return None
    lam = 2 if cls == "C2" else 1
    return candidate, lam, expand_squares(candidate, rules).scale(lam)


def _ref_recognize_b(elem, rules):
    """(diagram, factor) by rebuilding the candidate from the leading tangle."""
    if elem.is_zero():
        return None
    shadow = max(elem.support(), key=lambda t: (t.decoration_count(), t.sort_key()))
    hit = _ref_b_canonical_candidate(shadow, rules)
    return None if hit is None or hit[2] != elem else hit[:2]


def _ref_h_accepts(elem):
    """The family-H closure acceptor: one admissible diagram, coefficient 1."""
    if len(elem.coeffs) == 1 and elem.coeffs[0][1] == ONE:
        t = elem.coeffs[0][0]
        if classify_diagram(t).H_admissible:
            return t
    return None


def _ref_accepts(elem, rules):
    if rules.family == "H":
        return _ref_h_accepts(elem)
    hit = _ref_recognize_b(elem, rules)
    return hit and hit[0]


def _accepts(elem, rules):
    hit = tangles_mod._match_canonical(tangles_mod._canonical_index(rules, elem.n), elem)
    return hit and hit[0]


def _check_against_references(elem, rules):
    expected = _ref_accepts(elem, rules)
    assert _accepts(elem, rules) == expected, elem
    if rules.family == "B":
        assert recognize_b_canonical(elem, rules) == _ref_recognize_b(elem, rules), elem
    return expected


def _canonical_images(rules, n):
    """Each canonical diagram's normalized image, built without the index."""
    if rules.family == "H":
        return [(t, DiagramElement("H", n, {t: ONE})) for t in enumerate_h_admissible(n)]
    return [(t, expand_squares(t, rules).scale(lam)) for t, lam in enumerate_b_canonical(n)]


@pytest.mark.parametrize("family, n", [("H", 3), ("H", 4), ("H", 5),
                                       ("B", 3), ("B", 4), ("B", 5)])
def test_closure_acceptor_agrees_with_the_references(family, n, monkeypatch):
    # every candidate the closure weighs, kept or not, gets the references' verdict
    rules = {"H": RULES_H, "B": RULES_B}[family]
    seen = []
    match = tangles_mod._match_canonical

    def recorded(index, elem):
        seen.append(elem)
        return match(index, elem)

    monkeypatch.setattr(tangles_mod, "_match_canonical", recorded)
    closure = generate_by_procedures(family, n, rules)
    monkeypatch.undo()
    verdicts = Counter(_check_against_references(e, rules) is not None for e in seen)
    assert verdicts[True] >= len(closure) and verdicts[False] > 0


@pytest.mark.parametrize("n", [3, 4, 5])
def test_index_recognizes_every_canonical_image(n):
    for rules in (RULES_H, RULES_B):
        for t, image in _canonical_images(rules, n):
            assert _check_against_references(image, rules) == t


@pytest.mark.parametrize("n", [3, 4])
def test_index_rejects_sums_and_rescalings(n):
    # each fake shares its leading tangle, its term count or both with a
    # canonical image, and is none
    for rules in (RULES_H, RULES_B):
        images = [image for _, image in _canonical_images(rules, n)]
        for k, image in enumerate(images):
            other = images[(k + 1) % len(images)]
            lead = tangles_mod._leading_tangle(image)
            fakes = [image.scale(rules.const(2)), image.scale(rules.lift(DELTA)),
                     image + other, image - other,
                     DiagramElement(rules.family, n, {lead: image.coeff(lead)})]
            for t, c in image.coeffs:
                # one coefficient changed, or one term dropped
                fakes.append(image + DiagramElement(rules.family, n, {t: rules.one()}))
                if len(image.coeffs) > 1:
                    fakes.append(image - DiagramElement(rules.family, n, {t: c}))
            for fake in fakes:
                if fake not in images:
                    assert _check_against_references(fake, rules) is None, fake


def test_b_enumeration_equals_the_classifier_filter():
    # the constructive enumeration against the class rules over every
    # matching with each west-exposed edge bare, circled or squared
    for n in range(2, 7):
        ref = []
        for t in tangles_mod.all_matchings(n):
            exposed = [i for i, e in enumerate(t.edges) if _ref_west_exposed(t, e)]
            for decs in itertools.product(((), ("c",), ("s",)), repeat=len(exposed)):
                edges = list(t.edges)
                for i, d in zip(exposed, decs):
                    edges[i] = edges[i][:2] + (d,)
                cand = Tangle(n, n, edges)
                cls = _ref_b_canonical_class(cand)
                if cls != "none":
                    ref.append((cand, 2 if cls == "C2" else 1))
        ref.sort(key=lambda tc: tc[0].sort_key())
        assert enumerate_b_canonical(n) == ref, n


def test_h_enumeration_builds_valid_canonical_tangles():
    # the enumerations build their candidates with the trusted constructor
    for n in range(2, 7):
        for t in enumerate_h_admissible(n) + [t for t, _ in enumerate_b_canonical(n)]:
            assert Tangle(n, n, t.edges) == t, t


def test_west_exposed_matches_the_pairwise_scan():
    tangles = [t for a in range(5) for b in range(5) if (a + b) % 2 == 0
               for t in _decorated_tangles(a, b)]
    tangles += [t for n in range(7) for t in tangles_mod.all_matchings(n)]
    edges = 0
    for t in tangles:
        for edge in t.edges:
            assert t.west_exposed(edge) == _ref_west_exposed(t, edge), (t, edge)
            edges += 1
    assert edges == 7_658


def test_rule_set_family_must_match():
    with pytest.raises(ValueError, match="rule set family does not match"):
        generate_by_procedures("H", 3, RULES_B)
    with pytest.raises(ValueError, match="rule set family does not match"):
        generate_by_procedures("B", 3, RULES_H)
    with pytest.raises(ValueError, match="rule set family does not match"):
        iota(CALC_B.one(3), RULES_H)


# ---------------------------------------------------------------------------
# references for the one-fold calculus: the per-rule recursions it replaced


def _ref_loop_value(rules, decs):
    """Loop value by recursing on loops: first square, else the last two circles."""
    if "s" in decs:
        if rules.family != "B":
            raise ReductionError("square decorations only occur in family B")
        k = decs.index("s")
        with_c = decs[:k] + ("c",) + decs[k + 1:]
        without = decs[:k] + decs[k + 1:]
        return rules.sigma * _ref_loop_value(rules, with_c) + \
            rules.tau * _ref_loop_value(rules, without)
    k = len(decs)
    if k == 0:
        return rules.plain_loop
    if k == 1:
        return rules.circle_loop
    return rules.alpha * _ref_loop_value(rules, decs[:k - 1]) + \
        rules.beta * _ref_loop_value(rules, decs[:k - 2])


def _ref_expand_edges(t, rules):
    """Rewrite one decorated edge at a time through intermediate tangles."""
    pending = [(rules.one(), t)]
    done = {}
    while pending:
        coeff, cur = pending.pop()
        target = None
        for idx, edge in enumerate(cur.edges):
            if "s" in edge[2] or len(edge[2]) >= 2:
                target = (idx, edge)
                break
        if target is None:
            s = done.get(cur)
            s = coeff if s is None else s + coeff
            if s:
                done[cur] = s
            elif cur in done:
                del done[cur]
            continue
        idx, (a, b, decs) = target
        others = [e for k, e in enumerate(cur.edges) if k != idx]
        if "s" in decs:
            if rules.family != "B":
                raise ReductionError("square decorations only occur in family B")
            k = decs.index("s")
            steps = ((rules.sigma, decs[:k] + ("c",) + decs[k + 1:]),
                     (rules.tau, decs[:k] + decs[k + 1:]))
        else:
            steps = ((rules.alpha, decs[:-1]), (rules.beta, decs[:-2]))
        for scalar, new in steps:
            pending.append((coeff * scalar,
                            Tangle(cur.n_north, cur.n_south, others + [(a, b, new)])))
    return done


def _ref_reduce(tangle, loops, rules):
    scalar = rules.one()
    for loop in loops:
        scalar = scalar * _ref_loop_value(rules, loop)
    if not scalar:
        return DiagramElement(rules.family, tangle.n_north, {})
    return DiagramElement(rules.family, tangle.n_north,
                          {t: c * scalar for t, c in _ref_expand_edges(tangle, rules).items()})


def _ref_apply_gen(rules, elem, i, side):
    """The per-term compose loop: one reduced composition per support tangle."""
    u = generator_U(rules.family, elem.n, i)
    scale = rules.const(2) if (rules.family == "B" and i == 1) else rules.one()
    acc = DiagramElement(rules.family, elem.n, {})
    for t, c in elem.coeffs:
        raw, loops = compose_raw(*((t, u) if side == "right" else (u, t)))
        acc = acc + _ref_reduce(raw, loops, rules).scale(c * scale)
    return acc


def _symbolic_rules(family):
    alpha, beta, cl = (_SymPoly.var(x) for x in ("alpha", "beta", "cl"))
    # square scalars distinct from every other scalar, so no rule hides another
    return RuleSet(family, _SymPoly.from_integral(DELTA), cl, alpha, beta,
                   alpha * beta, _SymPoly.from_integral(LaurentPoly.monomial(1)))


def _terms(x):
    return x.terms if isinstance(x, _SymPoly) else x


def _elem_terms(elem):
    return {t: _terms(c) for t, c in elem.coeffs}


def _decoration_words(max_len=4):
    for k in range(max_len + 1):
        yield from itertools.product("cs", repeat=k)


RULE_SETS = [("H", RULES_H), ("B", RULES_B),
             ("H-symbolic", _symbolic_rules("H")), ("B-symbolic", _symbolic_rules("B"))]


@pytest.mark.parametrize("name,rules", RULE_SETS, ids=[n for n, _ in RULE_SETS])
def test_fold_matches_per_rule_references(name, rules):
    def cup_tangle(decs):
        return Tangle(3, 3, [(("N", 1), ("N", 2), decs), (("S", 1), ("S", 2), ()),
                             (("N", 3), ("S", 3), ())])

    for decs in _decoration_words():
        decorated = cup_tangle(decs)
        if rules.family == "H" and "s" in decs:
            for call in (lambda: rules.fold(decs), lambda: rules.loop_value(decs),
                         lambda: expand_squares(decorated, rules),
                         lambda: _ref_loop_value(rules, decs)):
                with pytest.raises(ReductionError, match="only occur in family B"):
                    call()
            continue
        # fold is the edge rewrite: plain on the bare edge, circle on one circle
        plain, circle = rules.fold(decs)
        want = {cup_tangle(()): plain, cup_tangle(("c",)): circle}
        if len(decs) <= 1 and "s" not in decs:
            want = {decorated: rules.one()}
        assert {t: _terms(c) for t, c in _ref_expand_edges(decorated, rules).items()} == \
            {t: _terms(c) for t, c in want.items() if c}, decs
        assert _terms(rules.loop_value(decs)) == _terms(_ref_loop_value(rules, decs)), decs


def _ref_fold(rules, decs):
    """The recursive fold the memo replaced: each call folds its words anew."""
    if "s" in decs:
        if rules.family != "B":
            raise ReductionError("square decorations only occur in family B")
        k = decs.index("s")
        x, y = rules.sigma, rules.tau
        (p1, c1), (p2, c2) = (_ref_fold(rules, decs[:k] + ("c",) + decs[k + 1:]),
                              _ref_fold(rules, decs[:k] + decs[k + 1:]))
    elif len(decs) <= 1:
        return (rules.const(0), rules.one()) if decs else (rules.one(), rules.const(0))
    else:
        x, y = rules.alpha, rules.beta
        (p1, c1), (p2, c2) = _ref_fold(rules, decs[:-1]), _ref_fold(rules, decs[:-2])
    return x * p1 + y * p2, x * c1 + y * c2


@pytest.mark.parametrize("name,rules", RULE_SETS, ids=[n for n, _ in RULE_SETS])
def test_memoized_fold_matches_the_recursive_fold(name, rules):
    # every word over {c, s} up to length 7 in B, circle words up to length
    # 10 in H; a fresh rule set per family so no earlier fold is remembered
    fresh = RuleSet(**{f: getattr(rules, f) for f in
                       ("family", "plain_loop", "circle_loop", "alpha", "beta", "sigma", "tau")})
    if rules.family == "B":
        words = list(_decoration_words(7))
    else:
        words = [("c",) * k for k in range(11)]
    for decs in reversed(words):
        got, want = fresh.fold(decs), _ref_fold(rules, decs)
        assert [_terms(x) for x in got] == [_terms(x) for x in want], decs


def test_fold_folds_each_decoration_word_once(monkeypatch):
    # the recursion reached c^k along every path down from c^10: 177 folds
    # for 11 words
    calls = Counter()
    inner = RuleSet._fold

    def counted(self, decs):
        calls[decs] += 1
        return inner(self, decs)
    monkeypatch.setattr(RuleSet, "_fold", counted)
    rules = RuleSet(**{f: getattr(RULES_B, f) for f in
                       ("family", "plain_loop", "circle_loop", "alpha", "beta", "sigma", "tau")})
    rules.fold(("c",) * 10)
    assert set(calls) == {("c",) * k for k in range(11)} and set(calls.values()) == {1}
    rules.fold(("s", "c", "s"))
    rules.fold(("c",) * 10)
    assert set(calls.values()) == {1}


@pytest.mark.parametrize("name,rules", RULE_SETS, ids=[n for n, _ in RULE_SETS])
def test_reduce_composition_matches_references(name, rules):
    words = [d for d in _decoration_words() if rules.family == "B" or "s" not in d]
    short = [d for d in words if len(d) <= 2]
    rng = random.Random(50)
    for decs in words:
        # the word under test on one edge and in a loop, short words elsewhere
        t = Tangle(3, 3, [(("N", 1), ("N", 2), decs), (("S", 1), ("S", 2), rng.choice(short)),
                          (("N", 3), ("S", 3), rng.choice(short))])
        for loops in ((), (decs, rng.choice(short))):
            got = reduce_composition(t, loops, rules)
            assert _elem_terms(got) == _elem_terms(_ref_reduce(t, loops, rules)), (t, loops)


@pytest.mark.parametrize("name,rules", RULE_SETS, ids=[n for n, _ in RULE_SETS])
def test_apply_gen_matches_per_term_compose_loop(name, rules):
    # the generator action against whole-tangle composition on the images of
    # every FC word of ranks 3 and 4, with calibrated and symbolic scalars
    def key(elem):  # symbolic scalars compare by their terms
        return elem.family, elem.n, _elem_terms(elem)

    calc = DiagramCalculus(rules)
    for n in (4, 5):
        for w in TLAlgebra(CoxeterGraph(rules.family, n - 1)).fc_words():
            elem = DiagramElement(rules.family, n, {identity_tangle(n): rules.one()})
            for s in w:
                elem = _ref_apply_gen(rules, elem, s, "right")
            assert key(calc.evaluate_word(n, w)) == key(elem), w
            for i in range(1, n):
                for side in ("left", "right"):
                    assert key(calc.apply_gen(elem, i, side)) == \
                        key(_ref_apply_gen(rules, elem, i, side)), (w, i, side)
