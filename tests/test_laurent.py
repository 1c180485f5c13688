"""Scalar-ring tests: exact arithmetic, the bar involution, lattice predicates."""

import random
from fractions import Fraction

import pytest

from tlbases.laurent import (
    DELTA,
    ONE,
    V,
    V_INV,
    ZERO,
    LaurentPoly,
    NarrowingError,
    RationalLaurent,
    _digit,
    _normalized,
    _pack,
    _unpack,
    invariant_completion,
)


def naive_convolution(a: dict, b: dict) -> dict:
    """Independent multiplication oracle straight from the definition."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def random_poly(rng, span=8, nterms=5, bound=9):
    return LaurentPoly(
        {rng.randint(-span, span): rng.randint(-bound, bound) for _ in range(rng.randint(0, nterms))}
    )


def test_delta_square_expansion():
    assert DELTA * DELTA == LaurentPoly({2: 1, 0: 2, -2: 1})


def test_add_zero_identity():
    rng = random.Random(1)
    for _ in range(50):
        p = random_poly(rng)
        assert p + ZERO == p
        assert ZERO + p == p


def test_mul_matches_naive_convolution_oracle():
    rng = random.Random(2)
    for _ in range(200):
        p, q = random_poly(rng), random_poly(rng)
        expected = LaurentPoly(naive_convolution(dict(p.terms), dict(q.terms)))
        assert p * q == expected
    # the delta identity from the oracle: delta^2 - 2 - (v^2 + v^-2) == 0
    d2 = LaurentPoly(naive_convolution(dict(DELTA.terms), dict(DELTA.terms)))
    assert d2 - 2 - LaurentPoly({2: 1, -2: 1}) == ZERO


def test_unit_factor_returns_the_other_operand():
    # multiplying by the unit shares the other factor instead of building a copy
    p = LaurentPoly({3: 2, -1: -5})
    assert ONE * p is p
    assert p * ONE is p
    assert p * 1 is p
    assert 1 * p is p
    assert ONE * ZERO == ZERO
    q = RationalLaurent({2: Fraction(1, 2), 0: 3})
    assert RationalLaurent.const(1) * q is q
    assert q * RationalLaurent.const(1) is q
    assert q * 1 is q
    # the rule never crosses the two types
    with pytest.raises(TypeError):
        RationalLaurent.const(1) * p  # type: ignore[operator]


def test_ring_axioms_randomized():
    rng = random.Random(3)
    for _ in range(100):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_bar_examples():
    assert LaurentPoly({2: 1}).bar() == LaurentPoly({-2: 1})
    assert DELTA.bar() == DELTA
    assert LaurentPoly({1: 3, -4: -1}).bar() == LaurentPoly({-1: 3, 4: -1})


def test_bar_is_involutive_ring_automorphism():
    rng = random.Random(4)
    for _ in range(100):
        a, b = random_poly(rng), random_poly(rng)
        assert a.bar().bar() == a
        assert (a * b).bar() == a.bar() * b.bar()
        assert (a + b).bar() == a.bar() + b.bar()


def test_bar_fixed_elements_are_delta_polynomials():
    # any bar-fixed polynomial rewrites exactly as an integer combination of
    # powers of delta; check by explicit elimination of the top degree
    rng = random.Random(5)
    for _ in range(60):
        p = random_poly(rng, span=10)
        a = p + p.bar()  # bar-fixed by construction
        r = a
        while r.degree > 0:
            top = r.coeff(r.degree)
            r = r - top * DELTA ** r.degree
        assert r == LaurentPoly.const(r.coeff(0))
        # remainder is a constant, i.e. delta^0 term: rewriting terminates at 0
        assert r - r.coeff(0) == ZERO


def test_invariant_completion_examples():
    assert invariant_completion(LaurentPoly({2: 1, 0: 5})) == LaurentPoly({2: 1, -2: 1, 0: 5})
    assert invariant_completion(LaurentPoly({-3: 1})) == ZERO


def test_invariant_completion_properties():
    rng = random.Random(6)
    for _ in range(1000):
        a = random_poly(rng)
        mu = invariant_completion(a)
        assert mu.bar() == mu
        diff = a - mu
        assert all(e <= -1 for e, _ in diff.terms)
        assert invariant_completion(mu) == mu
    for _ in range(200):
        a, b = random_poly(rng), random_poly(rng)
        assert invariant_completion(a + b) == invariant_completion(a) + invariant_completion(b)


def test_text_round_trip_and_grammar():
    cases = [
        LaurentPoly({2: 3, 0: -1, -3: 2}),
        ZERO,
        ONE,
        -ONE,
        V,
        V_INV,
        DELTA,
        LaurentPoly({5: -7, 1: 1}),
    ]
    for p in cases:
        assert LaurentPoly.parse(str(p)) == p
    assert str(LaurentPoly({2: 3, 0: -1, -3: 2})) == "3*v^2 - 1 + 2*v^-3"
    assert LaurentPoly.parse("3*v^2-1+2*v^-3") == LaurentPoly({2: 3, 0: -1, -3: 2})
    assert LaurentPoly.parse("v") == V
    assert LaurentPoly.parse("-v^-1") == -V_INV


def test_degree_and_valuation():
    p = LaurentPoly({3: 1, -2: 4})
    assert p.degree == 3 and p.valuation == -2
    assert ZERO.degree == float("-inf")
    assert ZERO.valuation == float("inf")
    # the lattice and positivity readings the package takes off a polynomial
    assert LaurentPoly({-1: 1, -3: 2}).degree == -1 and LaurentPoly({-1: 1, -3: 2}).nonneg
    assert DELTA.degree == 1 and DELTA.nonneg and DELTA.bar() == DELTA
    assert not (DELTA - 3).nonneg and ZERO.nonneg


def test_rational_laurent_dyadic_invariant():
    h = RationalLaurent({0: Fraction(1, 2)})
    assert h + h == RationalLaurent.const(1)
    with pytest.raises(ValueError):
        RationalLaurent({0: Fraction(1, 3)})


def test_rational_narrowing():
    p = RationalLaurent({1: Fraction(1, 2), -1: Fraction(1, 2)})
    doubled = p * 2
    assert doubled.to_integral() == DELTA
    with pytest.raises(NarrowingError):
        p.to_integral()


def test_no_silent_mixing():
    q = RationalLaurent.from_integral(DELTA)
    with pytest.raises(TypeError):
        q * DELTA  # type: ignore[operator]


def test_immutability():
    with pytest.raises(AttributeError):
        ONE.terms = ()  # type: ignore[misc]


def test_public_constructor_validates():
    with pytest.raises(TypeError):
        LaurentPoly({1.0: 1})
    with pytest.raises(TypeError):
        LaurentPoly({1: True})
    with pytest.raises(TypeError):
        LaurentPoly({1: Fraction(1, 2)})
    with pytest.raises(TypeError):
        RationalLaurent({Fraction(1): 1})
    with pytest.raises(TypeError):
        RationalLaurent({1: False})
    with pytest.raises(TypeError):
        RationalLaurent({1: 0.5})
    with pytest.raises(ValueError):
        RationalLaurent([(0, Fraction(1, 2)), (1, Fraction(1, 6))])
    with pytest.raises(TypeError):
        ONE.shift(0.5)


def random_rational(rng, span=6, nterms=5):
    return RationalLaurent({rng.randint(-span, span):
                            Fraction(rng.randint(-9, 9), 2 ** rng.randint(0, 3))
                            for _ in range(rng.randint(0, nterms))})


def _same(got, want):
    # ``want`` comes from the validating public constructor; compare exact
    # term tuples: order, no zeros, and the coefficient types too
    assert type(got) is type(want)
    assert got.terms == want.terms
    assert [type(c) for _, c in got.terms] == [type(c) for _, c in want.terms]


@pytest.mark.parametrize("cls", [LaurentPoly, RationalLaurent])
def test_kernel_operations_match_validating_constructor(cls):
    rng = random.Random(7)
    make = random_poly if cls is LaurentPoly else random_rational
    for _ in range(300):
        a, b = make(rng), make(rng)
        k = rng.randint(-4, 4)
        neg_b = [(e, -c) for e, c in b.terms]
        _same(a + b, cls(a.terms + b.terms))
        _same(a + k, cls(a.terms + ((0, k),)))
        _same(a - b, cls(a.terms + tuple(neg_b)))
        _same(k - a, cls([(0, k)] + [(e, -c) for e, c in a.terms]))
        _same(-b, cls(neg_b))
        _same(a * b, cls([(e1 + e2, c1 * c2)
                                    for e1, c1 in a.terms for e2, c2 in b.terms]))
        _same(a * k, cls([(e, c * k) for e, c in a.terms]))
        _same(a.bar(), cls([(-e, c) for e, c in a.terms]))
        _same(a.shift(k), cls([(e + k, c) for e, c in a.terms]))
        _same(a ** 2, cls([(e1 + e2, c1 * c2)
                                     for e1, c1 in a.terms for e2, c2 in a.terms]))
        _same(invariant_completion(a), cls(
            [(e, c) for e, c in a.terms if e >= 0]
            + [(-e, c) for e, c in a.terms if e > 0]))
        assert (a == b) == (a.terms == cls(b.terms).terms)
    if cls is RationalLaurent:
        for _ in range(100):
            a = make(rng)
            f = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 6)))
            try:
                want = cls([(e, c * f) for e, c in a.terms])
            except ValueError:
                with pytest.raises(ValueError):
                    a * f
            else:
                _same(a * f, want)
            whole = cls([(e, Fraction(c.numerator)) for e, c in a.terms])
            _same(whole.to_integral(), LaurentPoly([(e, int(c)) for e, c in whole.terms]))
            _same(RationalLaurent.from_integral(whole.to_integral()), whole)


def test_exact_div_round_trip():
    rng = random.Random(31)
    for _ in range(300):
        a, b = random_poly(rng), random_poly(rng)
        if not b:
            continue
        assert (a * b)._exact_div(b) == a
    assert LaurentPoly({2: 1, 0: -1})._exact_div(LaurentPoly({1: 1, 0: -1})) == V + 1
    assert (DELTA * DELTA)._exact_div(DELTA) == DELTA
    assert ZERO._exact_div(V_INV) == ZERO


def test_exact_div_raises_when_inexact():
    rng = random.Random(32)
    for _ in range(200):
        a, b = random_poly(rng), random_poly(rng)
        if len(b.terms) < 2:
            continue
        # b is not a unit, so it does not divide a*b + 1
        with pytest.raises(ValueError):
            (a * b + ONE)._exact_div(b)
    with pytest.raises(ValueError):
        LaurentPoly.const(3)._exact_div(LaurentPoly.const(2))
    with pytest.raises(ValueError):
        ONE._exact_div(V + 1)
    with pytest.raises(ValueError):
        (V * V + 1)._exact_div(V + 1)
    with pytest.raises(ZeroDivisionError):
        ONE._exact_div(ZERO)


def _ref_normalized(acc) -> tuple:
    """The sort-and-filter normalization the fast path replaced."""
    return tuple(sorted(((e, c) for e, c in acc.items() if c), reverse=True))


def test_normalized_matches_the_sort_and_filter_reference():
    rng = random.Random(34)
    for trial in range(3000):
        size = rng.choice((0, 1, 1, 2, 3, 6))
        acc = {}
        for _ in range(size):
            c = rng.choice((0, 0, rng.randint(-5, 5)))
            if trial % 3 == 0:
                c = Fraction(c, rng.choice((1, 2, 4)))
            acc[rng.randint(-6, 6)] = c
        got = _normalized(acc)
        assert got == _ref_normalized(acc) and type(got) is tuple, acc
        assert all(type(a) is type(b) for (_, a), (_, b) in zip(got, _ref_normalized(acc)))


def test_pack_round_trips_in_balanced_digits():
    rng = random.Random(35)
    for width in (3, 8, 32):
        bound = (1 << (width - 1)) - 1
        for _ in range(300):
            off = rng.randint(0, 6)
            p = LaurentPoly({rng.randint(-off, 5): rng.randint(-bound, bound)
                             for _ in range(rng.randint(0, 6))})
            packed = _pack(p, width, off)
            assert _unpack(packed, width, off) == p
            for e in range(-off, 7):
                assert _digit(packed, width, e + off) == p.coeff(e), (p, e)


def test_packing_is_a_ring_homomorphism_up_to_scaling():
    # sums add, products multiply at twice the offset, and v^k is a shift
    rng = random.Random(36)
    width, off = 16, 8
    for _ in range(200):
        a, b = random_poly(rng, span=4, bound=9), random_poly(rng, span=4, bound=9)
        pa, pb = _pack(a, width, off), _pack(b, width, off)
        assert pa + pb == _pack(a + b, width, off)
        assert pa * pb == _pack(a * b, width, 2 * off)
        assert pa << width == _pack(a.shift(1), width, off)
        assert _unpack(pa * pb, width, 2 * off) == a * b
