"""Differential tests of `sadiclab.linalg` against sympy's exact matrices.

The oracle is sympy's `DomainMatrix` (the exact engine behind `Matrix`)
over the matching field: QQ, QQ(sqrt(d)), QQ(i) or QQ(2^(1/3)), where it
decides zero by arithmetic in the field, not by simplification.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf
from sympy import I, QQ, cbrt, sqrt
from sympy.polys.matrices import DomainMatrix

from sadiclab import linalg
from sadiclab import numberfield as nf
from sadiclab.surd import QuadraticSurd

GAUSS = nf.create_field([1, 0, 1])
CUBIC = nf.create_field([-2, 0, 0, 1])
# each domain's generator is the image of the package's power-basis root
DOMAINS = {"rational": QQ,
           "surd2": QQ.algebraic_field(sqrt(2)),
           "surd5": QQ.algebraic_field(sqrt(5)),
           "gauss": QQ.algebraic_field(I),
           "cubic": QQ.algebraic_field(cbrt(2))}
KINDS = list(DOMAINS)

small = st.integers(-3, 3)
fractions = st.builds(Fraction, small, st.integers(1, 3))


def _entries(kind):
    zero = st.just(0)
    if kind == "rational":
        return st.one_of(zero, small, fractions)
    if kind.startswith("surd"):
        d = int(kind[4:])
        return st.one_of(zero, small, st.builds(
            lambda a, b: QuadraticSurd(a, b, d), fractions, fractions))
    field = GAUSS if kind == "gauss" else CUBIC
    return st.one_of(zero, st.lists(fractions, min_size=field.degree,
                                    max_size=field.degree).map(field.element))


@st.composite
def matrices(draw, kind, square=False):
    """1-4 x 1-5 matrices with zero rows and columns and dependent rows."""
    entry = _entries(kind)
    nrows = draw(st.integers(1, 4))
    ncols = nrows if square else draw(st.integers(1, 5))
    mat = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    for c in draw(st.sets(st.integers(0, ncols - 1), max_size=ncols)):
        for row in mat:                  # zero columns, leading ones force swaps
            row[c] = 0
    if nrows > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(nrows)))[:2]
        k = draw(small)
        mat[i] = [a + k * b for a, b in zip(mat[i], mat[j])]
    if draw(st.booleans()):
        mat[draw(st.integers(0, nrows - 1))] = [0] * ncols
    return mat


def _element(x, domain):
    """x in the oracle's domain, from its coordinates over the generator."""
    if isinstance(x, nf.FieldElement):
        coords = x.coords
    elif isinstance(x, QuadraticSurd):
        coords = (x.a, x.b)
    else:
        coords = (Fraction(x),)
    coeffs = [QQ(c.numerator, c.denominator) for c in reversed(coords)]
    return coeffs[0] if domain is QQ else domain(coeffs)


def _oracle(mat, kind):
    domain = DOMAINS[kind]
    return DomainMatrix([[_element(c, domain) for c in row] for row in mat],
                        (len(mat), len(mat[0])), domain)


def _matvec(mat, v):
    return [sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in mat]


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rank_and_kernel_match_sympy(kind, data):
    mat = data.draw(matrices(kind))
    assert linalg.rank(mat) == _oracle(mat, kind).rank()


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_det_and_inverse_match_sympy(kind, data):
    mat = data.draw(matrices(kind, square=True))
    n = len(mat)
    want = _oracle(mat, kind).det()
    det = linalg.det(mat)
    assert _element(det, DOMAINS[kind]) == want
    if det == 0:
        with pytest.raises(ZeroDivisionError):
            linalg.inverse(mat)
        return
    inv = linalg.inverse(mat)
    for j in range(n):
        column = _matvec(mat, [row[j] for row in inv])
        assert all(x == int(i == j) for i, x in enumerate(column))


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_insert_counts_the_rank_of_each_prefix(kind, data):
    ncols = data.draw(st.integers(1, 5))
    vectors = data.draw(st.lists(st.lists(_entries(kind), min_size=ncols,
                                          max_size=ncols), min_size=1, max_size=6))
    echelon, grown = [], 0
    for k, vec in enumerate(vectors, 1):
        grown += linalg.insert(echelon, vec)
        assert grown == _oracle(vectors[:k], kind).rank()


@settings(max_examples=100, deadline=None)
@given(matrices("rational"))
def test_float_rank_equals_exact_rank_on_small_integers(mat):
    mat = [[int(Fraction(c) * 6) for c in row] for row in mat]
    rank = linalg.rank(mat)
    assert linalg.float_rank([[float(c) for c in row] for row in mat], 1e-9) == rank
    with mp.workdps(60):
        assert linalg.float_rank([[mpf(c) for c in row] for row in mat],
                                 mpf(10) ** (-20)) == rank


def test_det_keeps_the_sign_of_a_row_swap():
    assert linalg.det([[0, 1], [1, 0]]) == -1
    assert linalg.det([[0, 0, 2], [0, 3, 0], [5, 0, 0]]) == -30


def test_kernel_and_inverse_keep_the_entry_type():
    one, i = GAUSS.one(), GAUSS.element([0, 1])
    inv = linalg.inverse([[one, i], [i * 0, one]])
    assert all(isinstance(c, nf.FieldElement) for row in inv for c in row)
    assert inv == [[one, -i], [GAUSS.zero(), one]]
