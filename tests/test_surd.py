import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sadiclab.surd import QuadraticSurd

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=20)


def surds(d):
    return st.builds(lambda a, b: QuadraticSurd(a, b, d), fractions, fractions)


@settings(max_examples=60, deadline=None)
@given(surds(2), surds(2))
def test_ring_ops_match_floats(a, b):
    for op in ("__add__", "__sub__", "__mul__"):
        got = float(getattr(a, op)(b))
        want = getattr(float(a), op)(float(b))
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(surds(5))
def test_inverse(a):
    if a.is_zero():
        return
    assert (a * a.inverse()) == QuadraticSurd(1)


@settings(max_examples=80, deadline=None)
@given(surds(3))
def test_sign_matches_float(a):
    f = float(a)
    if abs(f) > 1e-9:
        assert a.sign() == (1 if f > 0 else -1)
    else:
        # near-zero floats: the exact sign decides, zero only if exactly zero
        assert (a.sign() == 0) == a.is_zero()


@settings(max_examples=80, deadline=None)
@given(surds(2), surds(2), fractions)
def test_equality_is_zero_difference(a, b, q):
    # __eq__ compares canonical coordinates; the rational case takes a shortcut
    assert (a == b) == (a - b).is_zero()
    assert (a == q) == (a - q).is_zero() == (q == a)
    assert (a == int(q)) == (a - int(q)).is_zero()
    assert (QuadraticSurd(q) == q) and (a == a.a) == (a.b == 0)


def test_sqrt_of_square_is_rational():
    assert QuadraticSurd.sqrt(9) == QuadraticSurd(3)
    assert not QuadraticSurd.sqrt(2).is_rational()


def test_incompatible_radicands_rejected():
    with pytest.raises(ValueError):
        QuadraticSurd.sqrt(2) + QuadraticSurd.sqrt(3)


def test_golden_ratio_identity():
    phi = QuadraticSurd(Fraction(1, 2), Fraction(1, 2), 5)
    assert phi * phi == phi + 1
    assert float(phi) == pytest.approx((1 + math.sqrt(5)) / 2)


def test_high_precision_value():
    s = QuadraticSurd.sqrt(2).to_mpf(50)
    assert abs(s * s - 2) < 1e-48


@pytest.mark.parametrize("a, b, d, want", [
    (0, 1, 1, 1),
    (Fraction(1, 2), -3, 1, Fraction(-5, 2)),
    (-2, 1, 4, 0),
    (1, Fraction(1, 3), 36, 3),
])
def test_square_radicand_folds(a, b, d, want):
    s = QuadraticSurd(a, b, d)
    assert (s.a, s.b, s.d) == (Fraction(want), 0, 1)
    assert s.is_rational()
    assert s.is_zero() == (want == 0)
    # a rational surd equals its Fraction, so hashes as it
    assert hash(s) == hash(QuadraticSurd(want)) == hash(Fraction(want))
    assert len({s, want}) == 1


def test_folded_radicand_mixes_with_any_other():
    root2 = QuadraticSurd(0, 1, 2)
    assert QuadraticSurd(0, 1, 1) * root2 == root2
    product = QuadraticSurd(0, 1, 4) * root2
    assert (product.a, product.b, product.d) == (0, 2, 2)
    assert QuadraticSurd(0, 1, 8).d == 8      # not a square: left as is
