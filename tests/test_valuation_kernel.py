"""Differential tests of the finite-place valuation kernel of `PointCloud`.

The cloud values every image coordinate at a finite place from its residues
mod the Hensel-lifted factor, one int64 matmul per place.  The reference
below is the exact per-point formula that kernel replaced: the exact
mat-vec of the enumerated point, then `FinitePlace.valuation` (a resultant)
per nonzero coordinate.  Valuations must agree exactly.  A second reference
is the kernel's own earlier set-up, which multiplied every entry by every
basis element in K where the kernel now scales the place's basis residues
for a rational entry: valuations and fallback counts must agree.
"""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sadiclab import lattice as lt
from sadiclab import numberfield as nf
from sadiclab import polyarith as pa
from sadiclab.errors import NotUnimodular
from sadiclab.scalars import to_field

# (min_poly, integral basis or None, prime): split (f = 1) and inert (f = 2)
# places in quadratic and cubic fields, and Q.
CASES = {
    "Q at 2": ([0, 1], None, 2),
    "Q at 3": ([0, 1], None, 3),
    "Q(i) at 5": ([1, 0, 1], None, 5),
    "Q(i) at 3": ([1, 0, 1], None, 3),
    "Q(sqrt2) at 7": ([-2, 0, 1], None, 7),
    "Q(sqrt2) at 3": ([-2, 0, 1], None, 3),
    "Q(sqrt5), basis (1, (1+sqrt5)/2), at 11": (
        [-5, 0, 1], [[1, 0], [Fraction(1, 2), Fraction(1, 2)]], 11),
    "x^2+x+1 at 2": ([1, 1, 1], None, 2),
    "x^3-2 at 5": ([-2, 0, 0, 1], None, 5),
    "x^3-x-1 at 7": ([-1, -1, 0, 1], None, 7),
}


@functools.lru_cache(maxsize=None)
def _field_and_places(name):
    min_poly, basis, p = CASES[name]
    field = nf.create_field(min_poly, basis)
    return field, nf.finite_places(field, p)


def matvec_exact(mat, z, field):
    """The exact image of one point, as the per-point path computed it."""
    out = []
    for row in mat:
        acc = field.zero()
        for c, zj in zip(row, z):
            if isinstance(c, nf.FieldElement):
                acc = acc + c * zj
            elif c != 0:
                acc = acc + zj * Fraction(c)
        out.append(acc)
    return out


def reference_valuations(cloud, place, mat):
    vals = np.empty((cloud.count, cloud.n), dtype=np.int64)
    for i in range(cloud.count):
        w = matvec_exact(mat, cloud.point(i), cloud.field)
        for j in range(cloud.n):
            vals[i, j] = lt._ZERO_VAL if w[j].is_zero() else place.valuation(w[j])
    return vals


def assert_matches_reference(cloud):
    assert len(cloud.fin) == len(cloud.lat.finite_places)
    for (place, vals, p, f), mat in zip(
            cloud.fin, [m for pl, m in zip(cloud.lat.places, cloud.lat.g)
                        if pl.kind == "finite"]):
        assert (p, f) == (place.p, place.residue_degree)
        np.testing.assert_array_equal(vals, reference_valuations(cloud, place, mat))


def _p_power(p):
    return st.integers(-3, 3).map(lambda k: Fraction(p) ** k)


@st.composite
def entries(draw, field, p):
    """int, Fraction and FieldElement entries with p in numerators and denominators.

    Entries p^(+-40) give valuations beyond the kernel's int64 residues.
    """
    small = st.integers(-4, 4)
    kind = draw(st.sampled_from(["zero", "int", "fraction", "element", "huge"]))
    if kind == "zero":
        return 0
    if kind == "huge":
        return Fraction(p) ** draw(st.sampled_from([-40, 40]))
    if kind == "int":
        return draw(small) * int(draw(_p_power(p).filter(lambda q: q >= 1)))
    if kind == "fraction":
        num = draw(small.filter(bool))
        den = draw(st.integers(1, 4))
        return Fraction(num, den) * draw(_p_power(p))
    coords = [Fraction(draw(small), draw(st.integers(1, 3))) * draw(_p_power(p))
              for _ in range(field.degree)]
    return field.element(coords)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_kernel_matches_exact_path(data):
    name = data.draw(st.sampled_from(sorted(CASES)), label="case")
    field, places = _field_and_places(name)
    d, p = field.degree, places[0].p
    n = data.draw(st.sampled_from([2, 3] if d == 1 else [2]), label="n")
    H = data.draw(st.integers(1, {1: 4 if n == 2 else 2, 2: 2, 3: 1}[d]), label="H")
    E = data.draw(st.integers(0, 2), label="E")
    mats = [data.draw(st.lists(st.lists(entries(field, p), min_size=n, max_size=n),
                               min_size=n, max_size=n), label=place.name)
            for place in places]
    try:
        lat = lt.SLattice(field, places, n, mats, unimodular=False)
    except NotUnimodular:
        assume(False)
    assert_matches_reference(lt.PointCloud(lat, lt.HeightWindow(H, E)))


def _gauss_cloud(matrix, E):
    field, places = _field_and_places("Q(i) at 5")
    arch = nf.archimedean_places(field)
    n = len(matrix)
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    lat = lt.SLattice(field, arch + places, n, [eye, matrix, matrix])
    return lt.PointCloud(lat, lt.HeightWindow(2, E))


@pytest.mark.parametrize("E", [0, 1, 2])
def test_high_valuations_take_the_counted_fallback(E):
    # 5^40 z_0 has valuation >= 40 at both places over 5, beyond what the
    # int64 residues resolve, so every nonzero first coordinate falls back.
    big = Fraction(5) ** 40
    cloud = _gauss_cloud([[big, 0], [0, 1 / big]], E)
    assert_matches_reference(cloud)
    nonzero_first = sum(int((vals[:, 0] < lt._ZERO_VAL).sum())
                        for _, vals, _, _ in cloud.fin)
    assert cloud.valuation_fallbacks == nonzero_first > 0
    assert all((vals[:, 0] < lt._ZERO_VAL).any() and (vals == lt._ZERO_VAL).any()
               for _, vals, _, _ in cloud.fin)


@pytest.mark.parametrize("matrix", [
    [[1, 0], [0, 1]],
    [[2, 1], [1, 1]],
    [[40, 39], [41, 40]],
    [[31, 27], [8, 7]],
])
def test_sl2z_window_needs_no_fallback(matrix):
    # the shape of the benchmark's cloud ops: Q(i), S = {inf, both places
    # over 5}, H = 2, E = 1, SL2(Z) entries up to 40
    cloud = _gauss_cloud(matrix, 1)
    assert cloud.valuation_fallbacks == 0
    assert_matches_reference(cloud)


def product_path_valuations(cloud, place, mat):
    """(vals, fallbacks) at one finite place as the kernel's earlier set-up
    found them: every product g_jk b_l formed in K, the products of a row
    cleared of their common denominator D_j, reduced mod (h, p^K) one by
    one, and the exact valuation of each nonzero coordinate whose residues
    all vanish."""
    field, d = cloud.field, cloud.d
    p, f = place.p, place.residue_degree
    bound = cloud.n * d * int(np.abs(cloud.numerators).max())
    K = 0
    while K < place.precision and bound * p ** (K + 1) < 2 ** 63:
        K += 1
    exact, resid, den_val = [], [], []
    for row in mat:
        prods = [to_field(c, field) * b for c in row for b in field.integral_basis]
        D = math.lcm(*(c.denominator for e in prods for c in e.coords))
        ints = [[int(c * D) for c in e.coords] for e in prods]
        exact.append(ints)
        resid.append([place.residue(u, K) for u in ints])
        v = 0
        while D % p ** (v + 1) == 0:
            v += 1
        den_val.append(v)
    A = np.concatenate([np.array(r, dtype=np.int64) for r in resid], axis=1)
    C = (cloud.numerators @ A) % p ** K
    G = np.gcd.reduce(C.reshape(cloud.count, len(mat), f), axis=2)
    shift = np.array(den_val)[None, :] + cloud.eexp[:, cloud.primes.index(p)][:, None]
    vals = np.full(G.shape, lt._ZERO_VAL, dtype=np.int64)
    live = G != 0
    vals[live] = f * (lt._vp_array(G[live], p) - shift[live])
    M = np.concatenate([np.array(e, dtype=object) for e in exact], axis=1)
    img = (cloud.numerators.astype(object) @ M).reshape(cloud.count, len(mat), d)
    fallbacks = 0
    for r, j in zip(*np.nonzero(~live & (img != 0).any(axis=2))):
        vals[r, j] = place.valuation(field.element(list(img[r, j]))) - f * shift[r, j]
        fallbacks += 1
    return vals, fallbacks


def assert_matches_product_path(cloud):
    fallbacks = 0
    for (place, vals, _, _), mat in zip(
            cloud.fin, [m for pl, m in zip(cloud.lat.places, cloud.lat.g)
                        if pl.kind == "finite"]):
        want, count = product_path_valuations(cloud, place, mat)
        np.testing.assert_array_equal(vals, want)
        fallbacks += count
    assert cloud.valuation_fallbacks == fallbacks


@st.composite
def rational_entries(draw, p):
    """Rationals a/b p^k: p in denominators (k < 0), and high powers of p
    in numerators (k >= 30), beyond every place's int64 residues."""
    num = draw(st.integers(-6, 6))
    den = draw(st.integers(1, 6))
    k = draw(st.sampled_from([-3, -2, -1, 0, 0, 0, 1, 2, 30, 41]))
    return Fraction(num, den) * Fraction(p) ** k


PRODUCT_PATH_CASES = ["Q at 2", "Q at 3", "Q(i) at 5",
                      "Q(sqrt5), basis (1, (1+sqrt5)/2), at 11"]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_basis_residues_match_the_product_path(data):
    name = data.draw(st.sampled_from(PRODUCT_PATH_CASES), label="case")
    field, places = _field_and_places(name)
    p = places[0].p
    # an element of K that is not rational takes the product path in a
    # row beside rational entries
    entry = st.one_of(rational_entries(p), entries(field, p)) if field.degree > 1 \
        else rational_entries(p)
    E = data.draw(st.integers(0, 2), label="E")
    mats = [data.draw(st.lists(st.lists(entry, min_size=2, max_size=2),
                               min_size=2, max_size=2), label=place.name)
            for place in places]
    try:
        lat = lt.SLattice(field, places, 2, mats, unimodular=False)
    except NotUnimodular:
        assume(False)
    H = 2 if field.degree == 1 else 1
    assert_matches_product_path(lt.PointCloud(lat, lt.HeightWindow(H, E)))


@pytest.mark.parametrize("name", PRODUCT_PATH_CASES)
def test_product_path_fallbacks_are_counted_alike(name):
    # p^41 and p^-1 p^30 in one column value every nonzero first coordinate
    # by the exact fallback; the second column is an ordinary rational one
    field, places = _field_and_places(name)
    p = places[0].p
    mat = [[Fraction(p) ** 41, Fraction(3, p)], [Fraction(p) ** 29, Fraction(1, 2)]]
    lat = lt.SLattice(field, places, 2, [mat] * len(places), unimodular=False)
    cloud = lt.PointCloud(lat, lt.HeightWindow(1, 1))
    assert cloud.valuation_fallbacks > 0
    assert_matches_product_path(cloud)
    assert_matches_reference(cloud)


# `FinitePlace.residue` reduces mod the monic lifted factor with integer
# arithmetic mod p^K; the reference divides over Q with `poly_mod`, then
# reduces.
RESIDUE_PLACES = [place for coeffs, p in [([1, 0, 1], 5), ([-2, 0, 0, 1], 5),
                                          ([-2, 0, 0, 1], 31)]
                  for place in nf.finite_places(nf.create_field(coeffs), p)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(RESIDUE_PLACES),
       st.lists(st.integers(-10 ** 12, 10 ** 12), max_size=8),
       st.integers(1, nf.HENSEL_DEFAULT_N))
def test_residue_matches_rational_division(place, u, K):
    modulus, f = place.p ** K, place.residue_degree
    r = [int(c) % modulus for c in pa.poly_mod(u, list(place.lifted_factor))]
    assert place.residue(u, K) == r + [0] * (f - len(r))
