"""sympy as an independent reference for the exact Laurent and calibration code.

sympy is a development dependency only: the package computes without it, and
these helpers import it when a reference test calls them.
"""

from fractions import Fraction

from tlbases.laurent import LaurentPoly, RationalLaurent


def laurent_to_sympy(p, v):
    import sympy
    return sum((sympy.Integer(c) * v ** e for e, c in p.terms), sympy.Integer(0))


def sympy_to_laurent(expr, v, ring):
    """A solved scalar in ``ring`` (LaurentPoly or RationalLaurent); None if
    it is not in it."""
    import sympy
    try:
        expr = sympy.together(sympy.expand(expr))
        num, den = sympy.fraction(expr)
        den_poly = sympy.Poly(den, v)
        if len(den_poly.monoms()) != 1:
            return None
        (dexp,), dcoeff = den_poly.monoms()[0], den_poly.coeffs()[0]
        terms = {}
        for (e,), c in sympy.Poly(num, v).terms():
            q = sympy.Rational(c, dcoeff)
            terms[e - dexp] = Fraction(int(q.p), int(q.q))
        # the dyadic constructor and the integral narrowing reject the rest
        p = RationalLaurent(terms)
        return p.to_integral() if ring is LaurentPoly else p
    except (sympy.PolynomialError, TypeError, ValueError):
        return None


def solve_in_ring(equations, ring):
    """Every solution (alpha, beta, c) of a calibration system, by
    ``sympy.solve``, whose three values narrow into ``ring``; sorted.

    Each equation maps (i, j, k) to its LaurentPoly coefficient of
    alpha^i beta^j c^k.  A solution that leaves an unknown free does not
    narrow and is dropped.
    """
    import sympy
    v, sa, sb, sc = sympy.symbols("v a b c")
    sym_eqs = [sympy.expand(sum((laurent_to_sympy(p, v) * sa ** i * sb ** j * sc ** k
                                 for (i, j, k), p in eq.items()), sympy.Integer(0)))
               for eq in equations]
    out = set()
    for sol in sympy.solve(sym_eqs, [sa, sb, sc], dict=True):
        vals = tuple(sympy_to_laurent(sol.get(x, x), v, ring) for x in (sa, sb, sc))
        if None not in vals:
            out.add(vals)
    return sorted(out, key=repr)
