import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Poly, Symbol
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_factor as sympy_gf_factor

from sadiclab import polyarith as pa

x = Symbol("x")


def test_divmod_exact_roundtrip():
    random.seed(0)
    for _ in range(50):
        p = [Fraction(random.randint(-9, 9)) for _ in range(6)]
        q = [Fraction(random.randint(-9, 9)) for _ in range(3)]
        pa.trim(p), pa.trim(q)
        if not q:
            continue
        quot, rem = pa.divmod_exact(p, q)
        assert pa.add(pa.mul(quot, q), rem) == pa.trim(list(p))


def test_int_resultant_matches_sympy():
    # convention: int_resultant(p, q) = lc(p)^deg(q) * prod q(p-roots);
    # sympy's PRS agrees whenever deg p >= deg q
    random.seed(1)
    for _ in range(60):
        p = [random.randint(-6, 6) for _ in range(random.randint(2, 5))]
        q = [random.randint(-6, 6) for _ in range(random.randint(2, 5))]
        pa.trim(p), pa.trim(q)
        if not p or not q or pa.degree(p) < max(pa.degree(q), 1):
            continue
        want = Poly(list(reversed(p)), x).resultant(Poly(list(reversed(q)), x))
        assert pa.int_resultant(p, q) == int(want)


def test_int_resultant_product_of_roots():
    # independent oracle for the convention: p = 4(x-1), q arbitrary
    p = [-4, 4]
    q = [-5, 5, -1, 5]
    assert pa.int_resultant(p, q) == 4 ** 3 * pa.evaluate(q, 1)


def test_real_root_isolation_quadratics():
    # x^2 - 2: two roots separated by the isolating intervals
    intervals = pa.isolate_real_roots([Fraction(-2), Fraction(0), Fraction(1)])
    assert len(intervals) == 2
    for (lo, hi), sign in zip(intervals, (-1, 1)):
        lo2, hi2 = pa.refine_real_root(
            [Fraction(-2), Fraction(0), Fraction(1)], lo, hi, Fraction(1, 10 ** 12))
        mid = float((lo2 + hi2) / 2)
        assert abs(abs(mid) - 2 ** 0.5) < 1e-10
        assert (mid > 0) == (sign > 0)


def test_real_root_isolation_no_real_roots():
    assert pa.isolate_real_roots([Fraction(1), Fraction(0), Fraction(1)]) == []


@pytest.mark.parametrize("p", [
    [0, 0, Fraction(7, 3), 20, Fraction(17, 7), 1],   # x^2 times a cubic
    [1, -2, 1],                                        # (x - 1)^2
])
def test_real_root_isolation_rejects_a_repeated_root(p):
    with pytest.raises(ValueError, match="not squarefree"):
        pa.isolate_real_roots([Fraction(c) for c in p])


def _textbook_sturm_signs(p, x):
    """Signs of the textbook Sturm sequence p, p', -rem(...), ... at x,
    over Fractions."""
    chain = [list(p), pa.derivative(p)]
    while chain[-1]:
        chain.append(pa.neg(pa.poly_mod(chain[-2], chain[-1])))
    chain.pop()
    return [(v > 0) - (v < 0) for v in (pa.evaluate(q, x) for q in chain)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.fractions(min_value=-30, max_value=30, max_denominator=7),
                min_size=2, max_size=8),
       st.lists(st.fractions(min_value=-40, max_value=40, max_denominator=9),
                min_size=1, max_size=4))
def test_integer_sturm_chain_keeps_the_textbook_signs(p, points):
    # the integer chain's members are positive multiples of the textbook's
    pa.trim(p)
    if pa.degree(p) < 1:
        return
    chain = pa.sturm_chain(p)
    assert all(type(c) is int for q in chain for c in q)
    for x in points:
        signs = [(v > 0) - (v < 0) for v in (pa.evaluate(q, x) for q in chain)]
        assert signs == _textbook_sturm_signs(p, x)


def test_hensel_lift_gaussian_split():
    m = [1, 0, 1]                               # x^2 + 1
    lifted = pa.hensel_lift_factors(m, [[2, 1], [3, 1]], 5, 20)
    mod = 5 ** 20
    prod = pa._mul_mod(lifted[0], lifted[1], mod)
    assert prod == pa._mod_poly(m, mod)
    for fac, orig in zip(lifted, [[2, 1], [3, 1]]):
        assert [c % 5 for c in fac] == orig
        # the root of x + c satisfies c^2 = -1 mod 5^20
        c = fac[0]
        assert (c * c + 1) % mod == 0


def test_hensel_lift_three_factors():
    # x^3 - x = x (x-1) (x+1) splits mod 7
    m = [0, -1, 0, 1]
    facs = [[0, 1], [6, 1], [1, 1]]
    lifted = pa.hensel_lift_factors(m, facs, 7, 12)
    mod = 7 ** 12
    prod = [1]
    for f in lifted:
        prod = pa._mul_mod(prod, f, mod)
    assert prod == pa._mod_poly(m, mod)


def test_hensel_rejects_non_coprime():
    with pytest.raises(ValueError):
        pa.hensel_lift_factors([1, 2, 1], [[1, 1], [1, 1]], 2, 8)


# ---------------------------------------------------------------------------
# Factorization over F_p, discriminant and irreducibility against sympy

def _coeffs(n):
    return st.lists(st.integers(-30, 30), min_size=n, max_size=n)


@st.composite
def _monic(draw, lo, hi):
    """Monic integer polynomials of degree lo..hi, about 40% built as products."""
    d = draw(st.integers(lo, hi))
    if d >= 2 and draw(st.integers(0, 9)) < 4:
        k = draw(st.integers(1, d - 1))
        return pa.mul(draw(_coeffs(k)) + [1], draw(_coeffs(d - k)) + [1])
    return draw(_coeffs(d)) + [1]


@settings(max_examples=300, deadline=None)
@given(f=_monic(1, 8), p=st.sampled_from([2, 3, 5, 7, 101]))
def test_gf_factor_matches_sympy(f, p):
    _, facs = sympy_gf_factor([c % p for c in reversed(f)], p, ZZ)
    if any(mult > 1 for _, mult in facs):
        want = None
    else:
        want = sorted((list(reversed([int(c) for c in g])) for g, _ in facs),
                      key=lambda h: (len(h), h))
    assert pa.gf_factor(f, p) == want


@settings(max_examples=300, deadline=None)
@given(f=_monic(2, 8))
def test_irreducible_and_discriminant_match_sympy(f):
    poly = Poly(list(reversed(f)), x)
    assert pa.discriminant(f) == int(poly.discriminant())
    assert pa.is_irreducible(f) == poly.is_irreducible


@pytest.mark.parametrize("f, irreducible", [
    ([1, 0, 0, 0, 1], True),                      # x^4 + 1: splits mod every p
    ([1, 0, 0, 0, 0, 0, 0, 0, 1], True),          # x^8 + 1
    ([1, 0, -10, 0, 1], True),                    # minimal polynomial of sqrt2 + sqrt3
    ([9, 0, -10, 0, 1], False),                   # (x^2 - 1)(x^2 - 9)
    # (x^2 - 5)(x^4 - 2x^3 - 3x^2 - 5x + 2): the quadratic factor is the
    # product of two of the three factors mod 11, more than half of them
    ([-10, 25, 17, 5, -8, -2, 1], False),
    ([0, 0, 1], False),                           # x^2: zero discriminant
    ([1, 0, 2, 0, 1], False),                     # (x^2 + 1)^2
    ([5, 1], True),
])
def test_is_irreducible_pinned(f, irreducible):
    assert pa.is_irreducible(f) is irreducible
    assert pa.is_irreducible(f) == Poly(list(reversed(f)), x).is_irreducible


def test_gf_factor_rejects_repeated_factors():
    assert pa.gf_factor([1, 0, 1], 2) is None      # x^2 + 1 = (x + 1)^2 mod 2
    assert pa.gf_factor([1, 0, 1], 5) == [[2, 1], [3, 1]]
