"""Word combinatorics: commutation classes, FC tests, taxonomy, Bruhat order."""

import itertools
import os
import random
from unittest import mock

import pytest

from group_oracle import oracle
from tlbases import coxeter
from tlbases.algebra import STRATEGIES, TLAlgebra
from tlbases.coxeter import (
    ClassSizeError,
    CoxeterGraph,
    FcElement,
    _first_factor,
    _Heap,
    bruhat_leq,
    bruhat_leq_word,
    classify_letters,
    commutation_class,
    enumerate_fc,
    is_fc_reduced,
    normal_form,
    right_justify,
)

SLOW = pytest.mark.skipif(not os.environ.get("TLBASES_SLOW"),
                          reason="set TLBASES_SLOW=1 for the large heap cross-checks")

H3 = CoxeterGraph("H", 3)
H2 = CoxeterGraph("H", 2)
B2 = CoxeterGraph("B", 2)
B3 = CoxeterGraph("B", 3)
A2 = CoxeterGraph("A", 2)


def catalan(n):
    from math import comb
    return comb(2 * n, n) // (n + 1)


def test_bond_table():
    assert H3.bond(1, 2) == 5 and H3.bond(2, 3) == 3 and H3.bond(1, 3) == 2
    assert B3.bond(1, 2) == 4 and B3.bond(2, 1) == 4
    assert A2.bond(1, 2) == 3
    assert H3.bond(2, 2) == 1
    assert all(H3.bond(i, j) in (1, 2, 3, 4, 5) for i in (1, 2, 3) for j in (1, 2, 3))


def test_bond_matrix_matches_bond():
    for family in ("A", "B", "H"):
        for rank in range(1, 6):
            g = CoxeterGraph(family, rank)
            assert len(g.bonds) == rank + 1
            for i in g.generators:
                assert g.bonds[i][1:] == tuple(g.bond(i, j) for j in g.generators)
    with pytest.raises(ValueError):
        H3.bond(1, 4)  # the public lookup keeps its range check


def test_commutation_class_examples():
    assert commutation_class(H3, (1, 3)) == {(1, 3), (3, 1)}
    assert commutation_class(H3, (1, 2)) == {(1, 2)}
    assert (1, 2, 1, 3, 2, 1, 2) in commutation_class(H3, (1, 2, 3, 1, 2, 1, 2))


def test_is_fc_reduced_examples():
    assert not is_fc_reduced(H3, (2, 3, 2))
    assert is_fc_reduced(H3, (1, 2, 1, 2))
    assert not is_fc_reduced(H3, (1, 2, 1, 2, 1))
    assert not is_fc_reduced(B3, (1, 2, 1, 2))
    assert is_fc_reduced(B3, (1, 2, 1))
    assert not is_fc_reduced(H3, (1, 1))


def test_is_fc_reduced_against_group_oracle():
    rng = random.Random(10)
    for family, rank in [("A", 3), ("B", 3), ("H", 3), ("H", 2), ("B", 2)]:
        g = CoxeterGraph(family, rank)
        orc = oracle(family, rank)
        for _ in range(300):
            word = tuple(rng.randint(1, rank) for _ in range(rng.randint(0, 8)))
            expected = orc.is_reduced(word) and orc.is_fully_commutative(
                orc.word_to_element(word)
            )
            assert is_fc_reduced(g, word) == expected, word


def test_enumerate_fc_counts():
    assert len(enumerate_fc(A2)) == 5
    words = {e.word for e in enumerate_fc(A2)}
    assert words == {(), (1,), (2,), (1, 2), (2, 1)}
    assert len(enumerate_fc(B2)) == 7
    assert {e.word for e in enumerate_fc(B2)} == {
        (), (1,), (2,), (1, 2), (2, 1), (1, 2, 1), (2, 1, 2)
    }
    assert len(enumerate_fc(H2)) == 9


def test_enumerate_fc_h2_against_dihedral_brute_force():
    orc = oracle("H", 2)
    assert len(orc.elements) == 10
    assert len(orc.fully_commutative_elements()) == 9
    assert len(enumerate_fc(H2)) == 9


def test_enumerate_fc_catalan_type_a():
    for n in range(1, 7):
        g = CoxeterGraph("A", n)
        assert len(enumerate_fc(g)) == catalan(n + 1), n


def test_enumerate_fc_matches_oracle_ranks_up_to_3():
    for family, rank in [("A", 3), ("B", 3), ("H", 3)]:
        g = CoxeterGraph(family, rank)
        orc = oracle(family, rank)
        assert len(enumerate_fc(g)) == len(orc.fully_commutative_elements())


def test_fc_element_fields():
    e = FcElement(H3, (1, 2, 1, 3, 2, 1, 2))
    assert e.word == normal_form(H3, (1, 2, 1, 3, 2, 1, 2))
    assert e.length == 7
    assert e.content == {1, 2, 3}
    assert 2 in e.right_descents
    assert 1 in e.left_descents


def test_fc_class_members_all_reduced_and_same_content():
    for g in (H3, B3, CoxeterGraph("H", 4), CoxeterGraph("B", 4), CoxeterGraph("B", 5)):
        for e in enumerate_fc(g):
            cls = commutation_class(g, e.word)
            for member in cls:
                assert is_fc_reduced(g, member)
                assert set(member) == set(e.content)
                assert len(member) == e.length


def test_commutation_class_is_all_reduced_words_small_ranks():
    # full commutativity: the class of the normal word is the complete set of
    # reduced words, checked against group arithmetic
    for family, rank in [("B", 2), ("A", 2), ("H", 2), ("B", 3)]:
        g = CoxeterGraph(family, rank)
        orc = oracle(family, rank)
        for e in enumerate_fc(g):
            elem = orc.word_to_element(e.word)
            assert set(orc.reduced_words(elem)) == set(commutation_class(g, e.word))


def test_classification_seven_letter_example():
    cls = classify_letters(H3, (1, 2, 3, 1, 2, 1, 2))
    assert [i + 1 for i in range(7) if cls.is_internal(i)] == [2, 5, 6]
    assert [i + 1 for i in range(7) if cls.is_lateral(i)] == [1, 4, 7]
    assert [i + 1 for i in range(7) if cls.is_bilateral(i)] == [4]
    assert cls.category[2] == "plain"


def test_bad_letter_example():
    cls = classify_letters(H3, (1, 2, 3, 1, 2, 1, 2, 3))
    assert [i for i in range(8) if cls.bad[i]] == [6]
    assert cls.critical[6] in ("ii", "iii")


def test_single_letter_classification():
    cls = classify_letters(H3, (1,))
    assert cls.category == ("plain",)
    assert cls.critical == ("none",)
    assert cls.bad == (False,)


def test_bilateral_only_generator_one():
    for g in (H3, B3):
        for e in enumerate_fc(g):
            cls = classify_letters(g, e.word)
            for i in range(e.length):
                if cls.is_bilateral(i):
                    assert e.word[i] == 1
                if cls.bad[i]:
                    assert e.word[i] == 2 and cls.is_lateral(i)


def test_no_three_consecutive_internal_letters():
    for e in enumerate_fc(H3):
        cls = classify_letters(H3, e.word)
        for member in commutation_class(H3, e.word):
            mcls = classify_letters(H3, member)
            run = 0
            for i in range(len(member)):
                run = run + 1 if mcls.is_internal(i) else 0
                assert run < 3, member
        del cls


def test_right_justify_examples():
    rj = right_justify(H3, (1, 2, 1, 3, 2, 1, 2))
    assert rj.word == (1, 2, 3, 1, 2, 1, 2)
    assert [(b.start, b.stop, b.shape, b.distinguished) for b in rj.blocks] == [
        (0, 2, 1, False),
        (3, 7, 4, True),
    ]
    rj2 = right_justify(B3, (2, 1, 2))
    assert rj2.word == (2, 1, 2)
    assert [(b.shape, b.distinguished) for b in rj2.blocks] == [(3, False)]


def test_right_justify_idempotent_and_in_class():
    for g in (H3, B3):
        for e in enumerate_fc(g):
            rj = right_justify(g, e.word)
            assert rj.word in commutation_class(g, e.word)
            again = right_justify(g, rj.word)
            assert again.word == rj.word
            assert again.blocks == rj.blocks


def test_block_shapes_in_type_b_never_exceed_three_letters():
    for e in enumerate_fc(B3):
        rj = right_justify(B3, e.word)
        for b in rj.blocks:
            assert b.shape in (1, 2, 3, 5)
            assert b.stop - b.start <= 3


def test_bruhat_examples():
    elems = {e.word: e for e in enumerate_fc(B2)}
    e = elems[()]
    for w in elems.values():
        assert bruhat_leq(B2, e, w)
    assert bruhat_leq(B2, elems[(1,)], elems[(2, 1, 2)])
    assert not bruhat_leq(B2, elems[(1, 2)], elems[(2, 1)])
    assert not bruhat_leq(B2, elems[(2, 1)], elems[(1, 2)])


@pytest.mark.parametrize("family, rank, letter", [("B", 3, 3), ("B", 4, 4), ("H", 4, 4)])
def test_bruhat_rejects_an_element_of_another_graph(family, rank, letter):
    # B3's (3,) was read as H3's and found below 1,2,3; a letter past H3's
    # rank raised IndexError
    x, y = FcElement(CoxeterGraph(family, rank), (letter,)), FcElement(H3, (1, 2, 3))
    for leq in (lambda: bruhat_leq(H3, x, y), lambda: bruhat_leq(H3, y, x),
                lambda: bruhat_leq_word(H3, x, (1, 2, 3))):
        with pytest.raises(ValueError, match="graph mismatch"):
            leq()


def test_bruhat_leq_word_checks_the_word():
    # a letter past the rank was skipped by the embedding and read as true
    x = FcElement(H3, (1,))
    with pytest.raises(ValueError, match="out of range"):
        bruhat_leq_word(H3, x, (7, 1))
    with pytest.raises(ValueError, match="not an integer"):
        bruhat_leq_word(H3, x, (1.0,))


def test_fc_element_rejects_a_bool_letter():
    # True == 1 passed the range check and printed as FcElement(H3, True)
    with pytest.raises(ValueError, match="not an integer"):
        FcElement(H3, (True,))


def test_is_fc_reduced_rejects_a_float_letter():
    # 1.5 passed the range check and raised TypeError in the heap
    with pytest.raises(ValueError, match="not an integer"):
        is_fc_reduced(H3, (1.5,))


def test_graph_rejects_a_rank_that_is_not_an_int():
    # 2.0 and 2.5 were accepted and raised TypeError in enumerate_fc (2.0
    # also equalled the rank-2 graph), True was rank 1 and "3" a TypeError
    for rank in (2.0, 2.5, True, "3"):
        with pytest.raises(ValueError, match="is not an integer"):
            CoxeterGraph("H", rank)
    for rank in (0, -1):
        with pytest.raises(ValueError, match="rank must be positive"):
            CoxeterGraph("H", rank)


def test_bruhat_against_lifting_oracle():
    for family, rank in [("A", 3), ("B", 2), ("B", 3), ("H", 2), ("H", 3)]:
        g = CoxeterGraph(family, rank)
        orc = oracle(family, rank)
        fc = enumerate_fc(g)
        if len(fc) > 30:
            rng = random.Random(11)
            fc = rng.sample(list(fc), 30)
        for x in fc:
            ex = orc.word_to_element(x.word)
            for y in fc:
                ey = orc.word_to_element(y.word)
                assert bruhat_leq(g, x, y) == orc.bruhat_leq(ex, ey), (x, y)


def test_class_cap_raises(monkeypatch):
    monkeypatch.setattr(coxeter, "CLASS_CAP", 4)
    with pytest.raises(ClassSizeError):
        commutation_class(CoxeterGraph("A", 6), (1, 3, 5, 1, 3, 5))


def _ref_factors(graph, letters):
    """Every reducible factor (start, length), ss pairs before half-braids."""
    out = []
    for i in range(len(letters) - 1):
        s, t = letters[i], letters[i + 1]
        if s == t:
            out.append((i, 2))
            continue
        m = graph.bond(s, t)
        if m >= 3 and letters[i:i + m] == tuple(s if k % 2 == 0 else t for k in range(m)):
            out.append((i, m))
    return out


def test_first_factor_scans_in_the_given_order():
    rng = random.Random(24)
    for graph in (H3, B3, CoxeterGraph("H", 4), CoxeterGraph("B", 4)):
        for _ in range(400):
            letters = tuple(rng.randint(1, graph.rank) for _ in range(rng.randint(0, 10)))
            starts = range(len(letters) - 1)
            found = _ref_factors(graph, letters)
            assert _first_factor(graph, letters, starts) == (found[0] if found else None)
            assert _first_factor(graph, letters, starts[::-1]) == (found[-1] if found else None)


# ---------------------------------------------------------------------------
# heaps against the class scan they replace: the references below build the
# whole commutation class


def _ref_discovery(graph, word):
    """The class members in depth-first adjacent-swap discovery order from ``word``."""
    members, stack = {word: None}, [word]
    while stack:
        u = stack.pop()
        for i in range(len(u) - 1):
            if graph.bonds[u[i]][u[i + 1]] == 2:
                nxt = u[:i] + (u[i + 1], u[i]) + u[i + 2:]
                if nxt not in members:
                    members[nxt] = None
                    stack.append(nxt)
    return list(members)


def _ref_class(graph, word):
    return frozenset(_ref_discovery(graph, tuple(word)))


def _ref_fc(graph, word):
    return all(_first_factor(graph, m, range(len(m) - 1)) is None
               for m in _ref_class(graph, word))


def _ref_normal_form(graph, word):
    return min(_ref_class(graph, word))


def _ref_descents(graph, word):
    members = _ref_class(graph, word)
    return ({u[0] for u in members if u}, {u[-1] for u in members if u})


def _is_subword(sub, word):
    i = 0
    for c in word:
        if i < len(sub) and sub[i] == c:
            i += 1
    return i == len(sub)


def _ref_bruhat_leq_word(graph, x, word):
    return any(_is_subword(u, tuple(word)) for u in _ref_class(graph, x.word))


def _ref_class_enumerate_fc(graph):
    """Length by length, testing and normalizing candidates on their classes."""
    current, out = [()], [()]
    while current:
        nxt = {}
        for w in current:
            for s in graph.generators:
                if _ref_fc(graph, w + (s,)):
                    nxt[_ref_normal_form(graph, w + (s,))] = None
        out.extend(nxt)
        current = list(nxt)
    return sorted(out, key=lambda w: (len(w), w))


def _check_heap_against_scan(graph, words):
    for w in words:
        fc = _ref_fc(graph, w)
        assert is_fc_reduced(graph, w) == fc, w
        assert normal_form(graph, w) == _ref_normal_form(graph, w), w
        if fc:
            e = FcElement(graph, w)
            assert (e.left_descents, e.right_descents) == _ref_descents(graph, w), w


def _words(rank, max_len):
    for n in range(max_len + 1):
        yield from itertools.product(range(1, rank + 1), repeat=n)


@pytest.mark.parametrize("family", "ABH")
@pytest.mark.parametrize("rank, max_len", [(2, 8), (3, 6), (4, 5)])
def test_heap_agrees_with_class_scan_on_all_short_words(family, rank, max_len):
    _check_heap_against_scan(CoxeterGraph(family, rank), _words(rank, max_len))


@pytest.mark.parametrize("family, rank", [("A", 5), ("B", 4), ("H", 4)])
def test_heap_agrees_with_class_scan_on_enumeration_candidates(family, rank):
    g = CoxeterGraph(family, rank)
    _check_heap_against_scan(
        g, (e.word + (s,) for e in enumerate_fc(g) for s in g.generators))


def test_enumerate_fc_builds_no_class(monkeypatch):
    a4 = CoxeterGraph("A", 4)
    assert max(len(commutation_class(a4, e.word)) for e in enumerate_fc(a4)) == 5
    monkeypatch.setattr(coxeter, "CLASS_CAP", 1)
    assert len(enumerate_fc(a4)) == catalan(5)


def _ref_enumerate_fc(graph):
    """Length by length, building each candidate's heap from its word, then
    its witness scan and its normal form."""
    current, out = [()], [()]
    while current:
        nxt = {}
        for w in current:
            for s in graph.generators:
                heap = _Heap(graph, w + (s,))
                if heap.witness() is None:
                    nxt[heap.normal_form()] = None
        out.extend(nxt)
        current = list(nxt)
    return sorted(out, key=lambda w: (len(w), w))


def _fields(elements):
    return [(e.word, e.length, e.content, e.left_descents, e.right_descents)
            for e in elements]


def _check_enumeration_against_the_candidate_loop(graph):
    assert _fields(enumerate_fc(graph)) == \
        _fields(FcElement(graph, w) for w in _ref_enumerate_fc(graph))


@pytest.mark.parametrize("family, rank", [
    *(("A", r) for r in range(1, 8)), *(("B", r) for r in range(2, 7)),
    *(("H", r) for r in range(2, 6))])
def test_enumerate_fc_matches_the_candidate_loop(family, rank):
    _check_enumeration_against_the_candidate_loop(CoxeterGraph(family, rank))


@SLOW
@pytest.mark.parametrize("family, rank", [("A", 8), ("B", 7), ("H", 6)])
def test_enumerate_fc_matches_the_candidate_loop_at_large_ranks(family, rank):
    _check_enumeration_against_the_candidate_loop(CoxeterGraph(family, rank))


@pytest.mark.parametrize("family, rank", [("A", 5), ("B", 5), ("H", 4)])
def test_enumerate_fc_carries_the_heaps_of_its_words(family, rank, monkeypatch):
    """Every carried heap has the masks of a fresh one, and every candidate
    test reads the latest and previous occurrences of the parent's word."""
    g = CoxeterGraph(family, rank)
    heaps, tests = [], []
    of_heap, top_witness = FcElement._of_normal_heap, _Heap._top_witness

    def record_heap(heap):
        heaps.append(heap)
        return of_heap(heap)

    def record_test(heap, j, s, under, last, prev):
        assert j == len(heap.word)
        tests.append((heap.word, s, under, list(heap.above), list(last), list(prev)))
        return top_witness(heap, j, s, under, last, prev)

    monkeypatch.setattr(FcElement, "_of_normal_heap", staticmethod(record_heap))
    monkeypatch.setattr(_Heap, "_top_witness", record_test)
    fc = enumerate_fc(g)
    assert sorted(h.word for h in heaps) == sorted(e.word for e in fc)
    for heap in heaps:
        fresh = _Heap(g, heap.word)
        assert (heap.below, heap.above) == (fresh.below, fresh.above), heap.word
    assert len(tests) == len(fc) * rank
    for w, s, under, above, last, prev in tests:
        assert under == _Heap(g, w + (s,)).below[len(w)], (w, s)
        assert above == _Heap(g, w).above, w
        assert last == [max((j for j, t in enumerate(w) if t == u), default=-1)
                        for u in range(rank + 1)], w
        assert prev == [max((i for i in range(j) if w[i] == t), default=-1)
                        for j, t in enumerate(w)], w


def test_enumerate_fc_builds_no_heap_from_a_word(monkeypatch):
    def refuse(self, graph, word):
        raise AssertionError(f"heap built from {word}")

    monkeypatch.setattr(_Heap, "__init__", refuse)
    assert len(enumerate_fc(CoxeterGraph("H", 4))) == 195


def _ref_run_witness(heap):
    """The witness scan that keeps, per bond, the alternating run of its two
    letters ending at the latest occurrence."""
    word, below, above = heap.word, heap.below, heap.above
    rank, bonds = heap.graph.rank, heap.graph.bonds
    last = [-1] * (rank + 1)
    runs = [[] for _ in range(rank + 1)]
    for j, s in enumerate(word):
        i = last[s]
        if i >= 0 and not above[i] & below[j]:
            return (i, j)
        last[s] = j
        for lo in (s - 1, s):
            if lo < 1 or lo >= rank:
                continue
            run = runs[lo]
            if run and word[run[-1]] == s:
                run.clear()
            run.append(j)
            m = bonds[lo][lo + 1]
            if len(run) >= m and (above[run[-m]] & below[j]).bit_count() == m - 2:
                return tuple(run[-m:])
    return None


@pytest.mark.parametrize("family", "ABH")
def test_witness_matches_the_run_scan(family):
    g4 = CoxeterGraph(family, 4)
    cases = [(g4, w) for w in _words(4, 6)]
    for rank in (5, 6):
        g = CoxeterGraph(family, rank)
        cases += [(g, e.word + (s,)) for e in enumerate_fc(g) for s in g.generators]
    for g, w in cases:
        heap = _Heap(g, w)
        assert heap.witness() == _ref_run_witness(heap), w


def _check_bruhat_against_class_members(graph):
    # the (x, w) pairs of the descent-support check: w is an FC normal word,
    # possibly followed by one more generator
    fc = enumerate_fc(graph)
    for y in fc:
        for w in [y.word] + [y.word + (i,) for i in graph.generators]:
            for x in fc:
                assert bruhat_leq_word(graph, x, w) == \
                    _ref_bruhat_leq_word(graph, x, w), (x, w)


@pytest.mark.parametrize("family, rank", [("A", 4), ("B", 4), ("H", 3)])
def test_bruhat_heap_embedding_agrees_with_class_members(family, rank):
    _check_bruhat_against_class_members(CoxeterGraph(family, rank))


@SLOW
@pytest.mark.parametrize("family", "ABH")
def test_heap_agrees_with_class_scan_rank_4_length_8(family):
    _check_heap_against_scan(CoxeterGraph(family, 4), _words(4, 8))


@SLOW
@pytest.mark.parametrize("family, rank", [("A", 6), ("B", 5), ("H", 5)])
def test_enumerate_fc_agrees_with_class_scan_enumeration(family, rank):
    g = CoxeterGraph(family, rank)
    assert [e.word for e in enumerate_fc(g)] == _ref_class_enumerate_fc(g)


@SLOW
def test_bruhat_heap_embedding_agrees_with_class_members_h4():
    _check_bruhat_against_class_members(CoxeterGraph("H", 4))


# ---------------------------------------------------------------------------
# ordered class searches on heap extensions against the class scan they
# replace: the reference orders every class member of the whole class


def _positions(word, member):
    """``member`` as a position order of ``word``: its k-th s is the k-th s of ``word``."""
    queues = {}
    for j in range(len(word) - 1, -1, -1):
        queues.setdefault(word[j], []).append(j)
    return tuple(queues[s].pop() for s in member)


def _ref_orders(graph, word, discovery=False):
    """The class of ``word`` as position orders of it, sorted by letter word or
    in the discovery order from the normal form."""
    members = _ref_discovery(graph, normal_form(graph, word))
    assert set(members) == commutation_class(graph, word)
    if not discovery:
        members.sort()
    return [_positions(word, u) for u in members]


def _ref_pick_factor(graph, word, strategy):
    """The first factor of the first class member that has one, from the
    left of the least or from the right of the greatest member."""
    members = sorted(_ref_class(graph, word))
    last = strategy == "lex-greatest-rightmost"
    if last:
        members.reverse()
    for u in members:
        found = _ref_factors(graph, u)
        if found:
            return u, found[-1 if last else 0]
    return None


def _fc_and_candidates(graph):
    """Every FC element and every enumeration candidate (FC or not)."""
    fc = enumerate_fc(graph)
    return [e.word for e in fc] + [e.word + (s,) for e in fc for s in graph.generators]


@pytest.mark.parametrize("family", "ABH")
@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_heap_extensions_are_the_sorted_class(family, rank, monkeypatch):
    g = CoxeterGraph(family, rank)
    for w in _fc_and_candidates(g):
        heap = _Heap(g, w)
        ref = _ref_orders(g, w)
        assert list(heap.extensions()) == ref, w
        assert list(heap.extensions(True)) == ref[::-1], w
        assert heap.lex_least_order() == ref[0], w
        with monkeypatch.context() as m:
            m.setattr(coxeter, "CLASS_CAP", len(ref))
            assert len(list(heap.extensions())) == len(ref)
            m.setattr(coxeter, "CLASS_CAP", len(ref) - 1)
            with pytest.raises(ClassSizeError):
                list(heap.extensions(True))


LEXICOGRAPHIC = ("lex-least-leftmost", "lex-greatest-rightmost")


def _check_pick_factor(alg, words):
    """The lexicographic strategies against the class scan; the witness route
    by its member, its factor and its expansion."""
    g = alg.graph
    assert sorted(STRATEGIES) == sorted(LEXICOGRAPHIC + ("heap-witness",))
    for w in words:
        heap = _Heap(g, w)
        witness = heap.witness()
        for strategy in LEXICOGRAPHIC:
            assert alg._pick_factor(heap, witness, strategy) == \
                _ref_pick_factor(g, w, strategy), (w, strategy)
        order, start = heap.witness_order(witness)
        assert order in _ref_orders(g, w), w
        assert order[start:start + len(witness)] == witness, w
        member, factor = alg._pick_factor(heap, witness, "heap-witness")
        assert member == tuple(w[j] for j in order) and factor == (start, len(witness)), w
        assert factor in _ref_factors(g, member), (w, member, factor)
        assert alg.word_to_basis(w, "heap-witness") == \
            alg.word_to_basis(w, "lex-least-leftmost"), w


@pytest.mark.parametrize("family", "ABH")
def test_pick_factor_agrees_with_class_scan_on_all_short_words(family):
    g = CoxeterGraph(family, 3)
    _check_pick_factor(TLAlgebra(g), (w for w in _words(3, 7) if not is_fc_reduced(g, w)))


@pytest.mark.parametrize("family", "BH")
def test_pick_factor_agrees_with_class_scan_on_random_words(family):
    g = CoxeterGraph(family, 4)
    rng = random.Random(8)
    words = []
    while len(words) < 300:
        w = tuple(rng.randint(1, 4) for _ in range(rng.randint(6, 14)))
        if not is_fc_reduced(g, w):
            words.append(w)
    _check_pick_factor(TLAlgebra(g), words)


def test_pick_factor_cap_bounds_the_members_walked(monkeypatch):
    alg = TLAlgebra(CoxeterGraph("A", 4))
    # the least member of the class of 2 1 1 3 already holds the factor 1 1
    assert len(commutation_class(alg.graph, (2, 1, 1, 3))) == 3
    # the class of 1 3 2 1 holds its only factor in its greatest member, which
    # the ascending search reaches second
    assert len(commutation_class(alg.graph, (1, 3, 2, 1))) == 2
    monkeypatch.setattr(coxeter, "CLASS_CAP", 1)
    first = _Heap(alg.graph, (2, 1, 1, 3))
    for strategy in ("lex-least-leftmost", "heap-witness"):
        assert alg._pick_factor(first, first.witness(), strategy) == ((2, 1, 1, 3), (1, 2))
    second = _Heap(alg.graph, (1, 3, 2, 1))
    with pytest.raises(ClassSizeError):
        alg._pick_factor(second, second.witness(), "lex-least-leftmost")
    # the witness route walks no class: it places the pieces below the
    # witness 1 2 1 first
    for strategy in ("lex-greatest-rightmost", "heap-witness"):
        assert alg._pick_factor(second, second.witness(), strategy) == ((3, 1, 2, 1), (1, 3))
    monkeypatch.setattr(coxeter, "CLASS_CAP", 2)
    for strategy in STRATEGIES:
        assert alg._pick_factor(second, second.witness(), strategy) == ((3, 1, 2, 1), (1, 3))
    with pytest.raises(ValueError):
        alg._pick_factor(_Heap(alg.graph, (1, 1)), (0, 1), "nonsense")


# ---------------------------------------------------------------------------
# the letter taxonomy against the per-idea scans it replaces: internal,
# lateral, bad and critical letters and the r-set, each read by its own walk
# over the class members


def _ref_letters(word, perm):
    return tuple(word[j] for j in perm)


def _ref_internal_positions(graph, word, perms):
    found = set()
    for perm in perms:
        letters = _ref_letters(word, perm)
        for idx in range(1, len(letters) - 1):
            p = letters[idx]
            q = letters[idx - 1]
            if q == letters[idx + 1] and q != p and graph.bond(p, q) >= 3:
                found.add(perm[idx])
    return frozenset(found)


def _ref_lateral_witnesses(graph, word, perms, internal):
    """For each external position, the set of internal positions it flanks."""
    wit = {}
    for perm in perms:
        letters = _ref_letters(word, perm)
        for idx in range(1, len(letters) - 1):
            mid = perm[idx]
            if mid not in internal:
                continue
            q = letters[idx]
            p = letters[idx - 1]
            if p == letters[idx + 1] and p != q and graph.bond(p, q) >= 3:
                for side in (perm[idx - 1], perm[idx + 1]):
                    if side not in internal:
                        wit.setdefault(side, set()).add(mid)
    return wit


_REF_BAD_PATTERNS = (((3, 1, 2, 1, 2, 3), 4), ((3, 2, 1, 2, 1, 3), 1))


def _ref_bad_positions(graph, word, perms):
    if graph.rank < 3:
        return frozenset()
    found = set()
    for perm in perms:
        letters = _ref_letters(word, perm)
        for pattern, tracked in _REF_BAD_PATTERNS:
            for i in range(len(letters) - 5):
                if letters[i:i + 6] == pattern:
                    found.add(perm[i + tracked])
    return frozenset(found)


def _ref_critical_positions(graph, word, perms):
    """Positions matching the three loop-creating deletion patterns."""
    res = {}
    rank = graph.rank
    n = len(word)

    def odds(top):
        return tuple(range(1, top + 1, 2))

    def evens(top):
        return tuple(range(2, top + 1, 2))

    for perm in perms:
        letters = _ref_letters(word, perm)
        # type (i): odds(2k-1) evens(2k) odds(2k-1), tracked = last even, 2k > 2
        for k in range(2, rank // 2 + 1):
            pat = odds(2 * k - 1) + evens(2 * k) + odds(2 * k - 1)
            size = len(pat)
            for i in range(n - size + 1):
                if letters[i:i + size] == pat:
                    res.setdefault(perm[i + 2 * k - 1], "i")
        # types (ii)/(iii): head with odds up to 2k+1, separated tracked letter
        for k in range(1, (rank - 1) // 2 + 1):
            g, h = 2 * k, 2 * k + 1
            head = odds(h) + evens(g) + odds(2 * k - 1)
            size = len(head)
            for i in range(n - size + 1):
                if letters[i:i + size] != head:
                    continue
                j = i + size
                while j < n - 1:
                    if letters[j] == g and letters[j + 1] == h:
                        res.setdefault(perm[j], "ii")
                        break
                    if graph.bond(letters[j], h) != 2:
                        break
                    j += 1
            tail = odds(2 * k - 1) + evens(g) + odds(h)
            size = len(tail)
            for i in range(n - size + 1):
                if letters[i:i + size] != tail:
                    continue
                j = i - 1
                while j > 0:
                    if letters[j] == g and letters[j - 1] == h:
                        res.setdefault(perm[j], "iii")
                        break
                    if graph.bond(letters[j], h) != 2:
                        break
                    j -= 1
    return res


def _ref_classify(graph, w, perms):
    """The taxonomy read off the class members, given as position orders of ``w``."""
    internal = _ref_internal_positions(graph, w, perms)
    lateral = _ref_lateral_witnesses(graph, w, perms, internal)
    bad = _ref_bad_positions(graph, w, perms)
    crit = _ref_critical_positions(graph, w, perms)

    cats = []
    for i in range(len(w)):
        if i in internal:
            cats.append("internal")
        elif i in lateral:
            cats.append("bilateral" if len(lateral[i]) >= 2 else "lateral")
        else:
            cats.append("plain")
    criticals = []
    for i in range(len(w)):
        if i in internal:
            criticals.append("iv")
        else:
            criticals.append(crit.get(i, "none"))

    cls = coxeter.LetterClassification(
        w, tuple(cats), tuple(i in bad for i in range(len(w))), tuple(criticals))
    for i in range(len(w)):
        if cls.is_bilateral(i) and w[i] != 1:
            raise AssertionError(f"bilateral letter at {i} is not generator 1 in {w}")
        if cls.bad[i] and not (w[i] == 2 and cls.is_lateral(i)):
            raise AssertionError(f"bad letter at {i} is not a lateral 2 in {w}")
    return cls


def _ref_r_set(graph, word, perms, cls_by_pid):
    """Internal letters that sit in t s t with the right t bilateral."""
    out = set()
    for perm in perms:
        letters = _ref_letters(word, perm)
        for idx in range(1, len(letters) - 1):
            pid = perm[idx]
            if cls_by_pid[pid] != "internal":
                continue
            s = letters[idx]
            t = letters[idx - 1]
            if t == letters[idx + 1] and t != s and graph.bond(s, t) >= 3:
                if cls_by_pid[perm[idx + 1]] == "bilateral":
                    out.add(pid)
    return frozenset(out)


def _ref_one_pass_taxonomy(graph, w, orders):
    """The taxonomy and the r-set of ``w`` read in one pass over its class
    members, given as position orders of ``w``: the list-based reading that
    the heap runs replaced.

    Each member contributes its flanks, the factors q p q with m(p, q) >= 3,
    as (left, middle, right) positions, and its bad and critical pattern hits
    (a position keeps the first critical label found).
    """
    bonds, n, rank = graph.bonds, len(w), graph.rank

    def odds(top):
        return tuple(range(1, top + 1, 2))

    def evens(top):
        return tuple(range(2, top + 1, 2))

    # (label, pattern, step, a, h): type (i) tracks offset a of the pattern;
    # types (ii)/(iii) track a letter a followed (preceded) by h after
    # (before) the pattern, possibly separated by letters commuting with h
    critical_patterns = [("i", odds(2 * k - 1) + evens(2 * k) + odds(2 * k - 1), 0, 2 * k - 1, 0)
                         for k in range(2, rank // 2 + 1)]
    for k in range(1, (rank - 1) // 2 + 1):
        g, h = 2 * k, 2 * k + 1
        critical_patterns.append(("ii", odds(h) + evens(g) + odds(2 * k - 1), 1, g, h))
        critical_patterns.append(("iii", odds(2 * k - 1) + evens(g) + odds(h), -1, g, h))
    flanks = set()
    bad = set()
    crit = {}
    for order in orders:
        letters = _ref_letters(w, order)
        for i in range(1, n - 1):
            q = letters[i - 1]
            if q == letters[i + 1] and bonds[q][letters[i]] >= 3:
                flanks.add(order[i - 1:i + 2])
        for pattern, tracked in _REF_BAD_PATTERNS:
            for i in range(n - 5):
                if letters[i:i + 6] == pattern:
                    bad.add(order[i + tracked])
        for label, pattern, step, a, h in critical_patterns:
            size = len(pattern)
            for i in range(n - size + 1):
                if letters[i:i + size] != pattern:
                    continue
                if not step:
                    crit.setdefault(order[i + a], label)
                    continue
                j = i + size if step > 0 else i - 1
                while 0 < j < n - 1:
                    if letters[j] == a and letters[j + step] == h:
                        crit.setdefault(order[j], label)
                        break
                    if bonds[letters[j]][h] != 2:
                        break
                    j += step

    internal = {mid for _, mid, _ in flanks}
    witnesses = {}
    for left, mid, right in flanks:
        for side in (left, right):
            if side not in internal:
                witnesses.setdefault(side, set()).add(mid)
    category = tuple(
        "internal" if i in internal
        else "plain" if i not in witnesses
        else "bilateral" if len(witnesses[i]) >= 2 else "lateral"
        for i in range(n))
    cls = coxeter.LetterClassification(
        w, category, tuple(i in bad for i in range(n)),
        tuple("iv" if i in internal else crit.get(i, "none") for i in range(n)))
    for i in range(n):
        if cls.is_bilateral(i) and w[i] != 1:
            raise AssertionError(f"bilateral letter at {i} is not generator 1 in {w}")
        if cls.bad[i] and not (w[i] == 2 and cls.is_lateral(i)):
            raise AssertionError(f"bad letter at {i} is not a lateral 2 in {w}")
    rset = frozenset(mid for _, mid, right in flanks if category[right] == "bilateral")
    return cls, rset


def _check_taxonomy_against_class_scan(graph):
    for e in enumerate_fc(graph):
        # positions refer to the input word, normal or not
        for w in (e.word, max(commutation_class(graph, e.word))):
            # the classification read the members in discovery order, the
            # r-set and the right-justification search the sorted members
            bfs, lex = _ref_orders(graph, w, discovery=True), _ref_orders(graph, w)
            ref_cls = _ref_classify(graph, w, bfs)
            ref_rset = _ref_r_set(graph, w, lex, ref_cls.category)
            assert classify_letters(graph, w) == ref_cls, w
            assert coxeter._taxonomy(_Heap(graph, w)) == ref_cls, w
            assert _ref_one_pass_taxonomy(graph, w, lex) == (ref_cls, ref_rset), w
            assert right_justify(graph, w) == \
                _right_justify_on(graph, w, ref_cls, ref_rset, lex), w
            labels = {}
            for order in bfs:
                for pos, label in _ref_critical_positions(graph, w, [order]).items():
                    labels.setdefault(pos, set()).add(label)
            assert all(len(v) == 1 for v in labels.values()), (w, labels)


def _right_justify_on(graph, word, cls, rset, orders):
    """``_ref_right_justify`` run on the given taxonomy, r-set and member orders."""
    with mock.patch.object(_Heap, "extensions", lambda self, descending=False: iter(orders)), \
            mock.patch.object(coxeter, "_taxonomy", lambda heap: cls):
        return _ref_right_justify(graph, word, rset)


def _ref_heap_r_set(heap, category):
    """The internal letters p of the flanks q p q of the heap whose right q is
    bilateral: the r-set as the search read it off its flanks."""
    w, out, last = heap.word, set(), {}
    for j, q in enumerate(w):
        i, last[q] = last.get(q, j), j
        between = heap.above[i] & heap.below[j]
        p = between.bit_length() - 1
        if between.bit_count() == 1 and heap.graph.bonds[q][w[p]] >= 3 \
                and category[j] == "bilateral":
            out.add(p)
    return frozenset(out)


def _ref_right_justify(graph, word, rset=None):
    """The lazy walk: every class member in lexicographic order, each given
    the neighbour scan, which keeps the r-set rule, and parsed into blocks,
    up to the first that passes.  The r-set is read off the heap's flanks
    unless given."""
    heap = coxeter._fc_heap(graph, word)
    cls = coxeter._taxonomy(heap)
    if rset is None:
        rset = _ref_heap_r_set(heap, cls.category)
    w, n = heap.word, len(heap.word)

    def parse_blocks(letters, lr):
        blocks = []
        i = 0
        n = len(letters)
        while i < n:
            if lr[i] == "plain":
                i += 1
                continue
            j = i
            while j < n and lr[j] != "plain":
                j += 1
            key = tuple((letters[k], lr[k] == "internal") for k in range(i, j))
            shape = coxeter._SHAPES.get(key)
            if shape is None:
                return None
            # every bilateral letter must begin its block
            for k in range(i, j):
                if lr[k] == "bilateral" and k != i:
                    return None
            blocks.append(coxeter.Block(i, j, shape, lr[i] == "bilateral"))
            i = j
        return tuple(blocks)

    for perm in heap.extensions():
        lr = tuple(cls.category[pid] for pid in perm)
        # an internal letter needs a non-plain left neighbour, and a non-plain
        # right one too unless it is in the r-set
        if any(role == "internal" and (
                idx == 0 or lr[idx - 1] == "plain"
                or perm[idx] not in rset and (idx + 1 == n or lr[idx + 1] == "plain"))
               for idx, role in enumerate(lr)):
            continue
        letters = coxeter._letters(w, perm)
        blocks = parse_blocks(letters, lr)
        if blocks is not None:
            return coxeter.RightJustified(letters, blocks)
    raise AssertionError(f"no right-justified expression found for {w}")


def _check_right_justify_against_the_lazy_walk(graph):
    for e in enumerate_fc(graph):
        assert right_justify(graph, e.word) == _ref_right_justify(graph, e.word), e.word


@pytest.mark.parametrize("family", "ABH")
@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_right_justify_agrees_with_the_lazy_walk(family, rank):
    _check_right_justify_against_the_lazy_walk(CoxeterGraph(family, rank))


@SLOW
@pytest.mark.parametrize("family, rank", [("H", 5), ("B", 6), ("H", 6)])
def test_right_justify_agrees_with_the_lazy_walk_at_large_ranks(family, rank):
    # the lazy walk visits 2,219,830 class members over the FC elements of H6
    _check_right_justify_against_the_lazy_walk(CoxeterGraph(family, rank))


@pytest.mark.parametrize("family", "ABH")
@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_taxonomy_agrees_with_class_scan(family, rank):
    _check_taxonomy_against_class_scan(CoxeterGraph(family, rank))


@SLOW
@pytest.mark.parametrize("family", "ABH")
def test_taxonomy_agrees_with_class_scan_rank_5(family):
    _check_taxonomy_against_class_scan(CoxeterGraph(family, 5))


@SLOW
def test_taxonomy_agrees_with_the_one_pass_reading_b6():
    # B6 has 1,055 FC elements, some with classes of thousands of members
    b6 = CoxeterGraph("B", 6)
    for e in enumerate_fc(b6):
        lex = _ref_orders(b6, e.word)
        ref_cls, ref_rset = _ref_one_pass_taxonomy(b6, e.word, lex)
        assert coxeter._taxonomy(_Heap(b6, e.word)) == ref_cls, e.word
        assert right_justify(b6, e.word) == \
            _right_justify_on(b6, e.word, ref_cls, ref_rset, lex), e.word


@pytest.mark.parametrize("family", "ABH")
def test_taxonomy_agrees_with_class_scan_on_words_that_are_not_fc(family):
    # an FC word never holds q p q with m(p, q) = 3 (a braid), so the flank
    # condition m(p, q) >= 3 is pinned here, on the classes of every word up
    # to length 6 at rank 3, read off their heaps
    g = CoxeterGraph(family, 3)
    for w in _words(3, 6):
        orders = _ref_orders(g, w)
        try:
            ref_cls = _ref_classify(g, w, orders)
        except AssertionError as exc:
            with pytest.raises(AssertionError) as got:
                coxeter._taxonomy(_Heap(g, w))
            assert str(got.value) == str(exc), w
            continue
        assert coxeter._taxonomy(_Heap(g, w)) == ref_cls, w


@pytest.mark.parametrize("word", [(1, 3, 2, 1, 5, 4, 3, 2, 1, 2, 3, 4, 5),
                                  (5, 4, 3, 2, 1, 2, 1, 3, 2, 1, 4, 3, 5)])
def test_critical_search_crosses_letters_commuting_with_h(word):
    # these H5 elements hold a type (ii) or (iii) hit only across a letter that
    # commutes with h; no FC element of rank 4 or less needs one
    h5 = CoxeterGraph("H", 5)
    lex = _ref_orders(h5, word)
    ref_cls = _ref_classify(h5, word, lex)
    assert {"ii", "iii"} & set(ref_cls.critical)
    assert coxeter._taxonomy(_Heap(h5, word)) == ref_cls


def test_classify_letters_builds_no_class(monkeypatch):
    # the taxonomy is read off the heap: no class member is produced
    h4 = CoxeterGraph("H", 4)
    expected = {e.word: classify_letters(h4, e.word) for e in enumerate_fc(h4)}

    def no_walk(self, descending=False):
        raise AssertionError("a commutation class was walked")

    monkeypatch.setattr(coxeter, "CLASS_CAP", 1)
    monkeypatch.setattr(_Heap, "extensions", no_walk)
    for w, cls in expected.items():
        assert classify_letters(h4, w) == cls, w


def test_right_justify_cap_bounds_the_members_walked(monkeypatch):
    # the search counts the member it stops at and each branch it cuts; a cut
    # branch holds members before that one, the k-th in lexicographic order,
    # so the count k' is at most k: it passes under a cap of k' and trips below
    h4 = CoxeterGraph("H", 4)
    walk = _Heap.extensions
    cuts = []

    def counting(self, descending=False, admit=None):
        def counted(order, j):
            ok = admit(order, j)
            cuts[-1] += not ok
            return ok
        return walk(self, descending, counted)

    deep = pruned = 0
    for e in enumerate_fc(h4):
        cuts.append(0)
        with monkeypatch.context() as m:
            m.setattr(_Heap, "extensions", counting)
            rj = right_justify(h4, e.word)
        k = sorted(commutation_class(h4, e.word)).index(rj.word) + 1
        k_cut = cuts[-1] + 1
        assert k_cut <= k, e.word
        deep += k_cut > 1
        pruned += k_cut < k
        with monkeypatch.context() as m:
            m.setattr(coxeter, "CLASS_CAP", k_cut)
            assert right_justify(h4, e.word) == rj
            m.setattr(coxeter, "CLASS_CAP", k_cut - 1)
            with pytest.raises(ClassSizeError):
                right_justify(h4, e.word)
    assert deep and pruned, (deep, pruned)
