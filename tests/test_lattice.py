import functools
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sadiclab import lattice as lt
from sadiclab import linalg
from sadiclab import numberfield as nf
from sadiclab import sadic as sd
from sadiclab.errors import NotUnimodular, ShapeMismatch, WindowTooLarge
from sadiclab.scalars import to_field, to_float
from sadiclab.surd import QuadraticSurd


def eye(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def diag_lattice(field, places, entries):
    n = len(entries)
    mats = []
    for place in places:
        if place.kind == "finite":
            mats.append(eye(n))
        else:
            mats.append([[entries[i] if i == j else 0.0 for j in range(n)]
                         for i in range(n)])
    return lt.SLattice(field, places, n, mats)


class TestEnumeration:
    def test_identity_height_one(self, rationals, q_inf):
        lat = lt.SLattice(rationals, q_inf, 2, [eye(2)])
        pts = {tuple(c.coords[0] for c in z)
               for z, _ in lt.enumerate_points(lat, lt.HeightWindow(1))}
        assert pts == {(1, 0), (0, 1), (1, 1), (1, -1)}

    def test_half_integers(self, rationals, q_inf2):
        lat = lt.SLattice(rationals, q_inf2, 1, [eye(1), eye(1)])
        pts = [z[0].coords[0]
               for z, _ in lt.enumerate_points(lat, lt.HeightWindow(1, 1))]
        assert pts == [Fraction(1), Fraction(1, 2)]

    def test_sign_class_count(self, rationals, q_inf):
        lat = lt.SLattice(rationals, q_inf, 2, [eye(2)])
        count = sum(1 for _ in lt.enumerate_points(lat, lt.HeightWindow(2)))
        assert count == 12

    def test_irrational_surd_matrix_takes_the_float_branch(self, rationals,
                                                          q_inf):
        # [[1, sqrt2], [0, 1]] is not over K = Q: its images are floats
        s2 = QuadraticSurd.sqrt(2)
        lat = lt.SLattice(rationals, q_inf, 2, [[[1, s2], [0, 1]]])
        window = lt.HeightWindow(1)
        images = [img for _, img in lt.enumerate_points(lat, window)]
        identity = lt.SLattice(rationals, q_inf, 2, [eye(2)])
        assert len(images) == sum(1 for _ in lt.enumerate_points(identity,
                                                                 window))
        least = min(float(sd.sup_norm(img)) for img in images)
        assert least == lt.systole(lat, window).min_supnorm == 1.0

    def test_window_cap(self, rationals, q_inf):
        lat = lt.SLattice(rationals, q_inf, 2, [eye(2)])
        with pytest.raises(WindowTooLarge):
            lt.systole(lat, lt.HeightWindow(10 ** 5))

    def test_shape_validation(self, rationals, q_inf2):
        with pytest.raises(Exception):
            lt.SLattice(rationals, q_inf2, 2, [eye(2)])   # one matrix missing
        with pytest.raises(ValueError):
            lt.SLattice(rationals, q_inf2, 2,
                        [[[2, 0], [0, 1]], eye(2)])       # det 2

    def test_integer_sl2z_matrices_accepted(self, rationals, q_inf2):
        rng = random.Random(20260517)
        for _ in range(200):
            while True:
                a, c = rng.randint(-40, 40), rng.randint(-40, 40)
                if math.gcd(a, c) == 1:
                    break
            # a*x + c*y == 1 by the extended Euclidean algorithm
            r0, r1, x0, x1, y0, y1 = a, c, 1, 0, 0, 1
            while r1:
                q = r0 // r1
                r0, r1 = r1, r0 - q * r1
                x0, x1 = x1, x0 - q * x1
                y0, y1 = y1, y0 - q * y1
            x, y = r0 * x0, r0 * y0
            mat = [[a, -y], [c, x]]
            assert max(abs(e) for row in mat for e in row) <= 40
            lt.SLattice(rationals, q_inf2, 2, [mat, mat])

    def test_determinant_two_rejected(self, rationals, q_inf2):
        with pytest.raises(NotUnimodular, match=r"det at r0 is 2, not 1"):
            lt.SLattice(rationals, q_inf2, 2, [[[2, 0], [0, 1]], eye(2)])

    def _root2_place(self, field, positive):
        # r1 embeds sqrt2 as +1.414..., r0 as -1.414...
        places = nf.archimedean_places(field)
        return [p for p in places
                if (to_float(field.element([0, 1]), p) > 0) == positive][0]

    def test_rational_surd_beside_field_element_lifts_into_k(self, root2_field):
        K = root2_field
        for positive in (False, True):
            place = self._root2_place(K, positive)
            lt.SLattice(K, [place], 2, [[[K.element([1]), 0],
                                         [0, QuadraticSurd(1)]]])
            lt.SLattice(K, [place], 2, [[[K.element([2]), 0],
                                         [0, QuadraticSurd(Fraction(1, 2))]]])
        with pytest.raises(NotUnimodular,
                           match=r"^det at r1 is 2, not 1$"):
            lt.SLattice(K, [self._root2_place(K, True)], 2,
                        [[[K.element([2]), 0], [0, QuadraticSurd(1)]]])
        # at a finite place too
        places = nf.finite_places(K, 7)
        lt.SLattice(K, places, 2, [[[K.element([1]), QuadraticSurd(3)],
                                    [0, QuadraticSurd(1)]]] * len(places))

    def test_irrational_surd_beside_field_element_takes_float_det(self,
                                                                 root2_field):
        K = root2_field
        s2 = QuadraticSurd.sqrt(2)
        plus = self._root2_place(K, True)
        lat = lt.SLattice(K, [plus], 2, [[[K.element([0, 1]), 0], [0, 1 / s2]]])
        assert lat.g[0][1][1] == 1 / s2
        with pytest.raises(NotUnimodular, match=r"^det at r1 is 2\.0\d*, not 1$"):
            lt.SLattice(K, [plus], 2, [[[K.element([0, 1]), 0], [0, s2]]])
        with pytest.raises(NotUnimodular, match=r"^det at r0 is -1\.0\d*, not 1$"):
            lt.SLattice(K, [self._root2_place(K, False)], 2,
                        [[[K.element([0, 1]), 0], [0, 1 / s2]]])

    def test_singular_exact_matrix_rejected(self, rationals, q_inf2):
        with pytest.raises(NotUnimodular, match=r"^singular matrix at p2_0$"):
            lt.SLattice(rationals, q_inf2, 2, [eye(2), [[1, 2], [2, 4]]])

    def test_finite_place_entries_must_be_exact(self, rationals, q_inf2):
        with pytest.raises(TypeError):
            lt.SLattice(rationals, q_inf2, 2, [eye(2),
                                               [[1.0, 0.0], [0.0, 1.0]]])


class TestSystole:
    def test_one_square_matrix_per_place(self, rationals, q_inf2):
        with pytest.raises(ShapeMismatch, match="^one matrix per place required$"):
            lt.SLattice(rationals, q_inf2, 2, [eye(2)])
        with pytest.raises(ShapeMismatch, match="^matrix at p2_0 is not 2x2$"):
            lt.SLattice(rationals, q_inf2, 2, [eye(2), [[1, 0, 0], [0, 1, 0]]])

    def test_identity_witness(self, rationals, q_inf):
        lat = lt.SLattice(rationals, q_inf, 2, [eye(2)])
        rep = lt.systole(lat, lt.HeightWindow(5))
        assert rep.min_supnorm == pytest.approx(1.0, abs=1e-14)
        assert rep.supnorm_witness == "(1, 0)"

    def test_diagonal_contraction(self, rationals, q_inf):
        lat = diag_lattice(rationals, q_inf, [math.exp(5), math.exp(-5)])
        rep = lt.systole(lat, lt.HeightWindow(50))
        assert rep.min_supnorm == pytest.approx(math.exp(-5), rel=1e-13)
        assert rep.supnorm_witness == "(0, 1)"

    def test_anisotropic_rows_floor(self, rationals, q_inf):
        s2 = QuadraticSurd.sqrt(2)
        g = [[QuadraticSurd(1), s2], [QuadraticSurd(1), -s2]]
        lat = lt.SLattice(rationals, q_inf, 2, [g], unimodular=False)
        rep = lt.systole(lat, lt.HeightWindow(50))
        # |x^2 - 2y^2| >= 1 forces Euclidean norm >= sqrt(2)
        assert rep.min_supnorm == pytest.approx(math.sqrt(2), rel=1e-12)
        assert rep.supnorm_witness == "(1, 0)"

    def test_gamma_invariance(self, rationals, q_inf):
        lat = diag_lattice(rationals, q_inf, [math.e, 1 / math.e])
        base = lt.systole(lat, lt.HeightWindow(30))
        for gamma in ([[1, 1], [0, 1]], [[0, 1], [-1, 0]], [[1, 0], [2, 1]]):
            g2 = [[sum(lat.g[0][i][k] * gamma[k][j] for k in range(2))
                   for j in range(2)] for i in range(2)]
            lat2 = lt.SLattice(rationals, q_inf, 2, [g2])
            rep = lt.systole(lat2, lt.HeightWindow(30))
            assert abs(rep.min_supnorm - base.min_supnorm) < 1e-9
            assert abs(rep.min_content - base.min_content) < 1e-9

    def test_unit_twist_invariance(self, rationals, q_inf2):
        lat = lt.SLattice(rationals, q_inf2, 2, [eye(2), eye(2)])
        base = lt.systole(lat, lt.HeightWindow(20, 4))
        twisted = lt.SLattice(
            rationals, q_inf2, 2,
            [[[2, 0], [0, 2]], [[2, 0], [0, 2]]], unimodular=False)
        rep = lt.systole(twisted, lt.HeightWindow(20, 4))
        assert abs(rep.min_content - base.min_content) < 1e-9

    def test_quadratic_field_identity(self, root2_field):
        places = nf.archimedean_places(root2_field)
        lat = lt.SLattice(root2_field, places, 2, [eye(2), eye(2)])
        rep = lt.systole(lat, lt.HeightWindow(3))
        assert rep.min_supnorm == pytest.approx(1.0, abs=1e-12)

    def test_complex_place_squared_norms(self, gauss):
        places = nf.archimedean_places(gauss)
        lat = lt.SLattice(gauss, places, 2, [eye(2)])
        rep = lt.systole(lat, lt.HeightWindow(3))
        assert rep.min_supnorm == pytest.approx(1.0, abs=1e-12)
        assert rep.supnorm_witness == "(1, 0)"
        shrunk = lt.SLattice(gauss, places, 2, [[[2.0, 0.0], [0.0, 0.5]]])
        rep2 = lt.systole(shrunk, lt.HeightWindow(3))
        # normalized complex norm is the squared modulus
        assert rep2.min_supnorm == pytest.approx(0.25, rel=1e-12)
        assert rep2.supnorm_witness == "(0, 1)"


class TestMahler:
    def test_bounded_family_passes(self, rationals, q_inf):
        fam = [diag_lattice(rationals, q_inf, [t, Fraction(1, t)])
               for t in range(1, 11)]
        rep = lt.mahler_test(fam, 0.05, lt.HeightWindow(25))
        assert rep.family_precompact_at_scale
        assert rep.first_failure == -1

    def test_exponential_family_fails_at_three(self, rationals, q_inf):
        fam = [diag_lattice(rationals, q_inf, [math.exp(s), math.exp(-s)])
               for s in range(9)]
        rep = lt.mahler_test(fam, 0.05, lt.HeightWindow(25))
        assert not rep.family_precompact_at_scale
        assert rep.first_failure == 3
        v = rep.verdicts[3]
        assert v.supnorm_systole == pytest.approx(math.exp(-3), abs=1e-12)
        assert v.supnorm_witness == "(0, 1)"
        assert v.content_systole == pytest.approx(math.exp(-3), abs=1e-12)

    def test_co_failure_of_content_and_ball_forms(self, rationals, q_inf):
        lat = diag_lattice(rationals, q_inf, [math.exp(5), math.exp(-5)])
        rep = lt.mahler_test([lat], 0.05, lt.HeightWindow(25))
        v = rep.verdicts[0]
        assert v.content_systole < 0.05 and v.supnorm_systole < 0.05

    def test_failure_monotone_in_window(self, rationals, q_inf):
        lat = diag_lattice(rationals, q_inf, [math.exp(4), math.exp(-4)])
        small = lt.mahler_test([lat], 0.05, lt.HeightWindow(10))
        large = lt.mahler_test([lat], 0.05, lt.HeightWindow(40))
        assert not small.verdicts[0].passes
        assert not large.verdicts[0].passes
        assert large.verdicts[0].content_systole <= \
            small.verdicts[0].content_systole + 1e-15


class TestNilpotentSpan:
    def test_empty_intersection_is_vacuous(self, rationals, q_inf):
        lat = lt.SLattice(rationals, q_inf, 2, [eye(2)])
        rep = lt.nilpotent_span_check(lat, 0.5, lt.HeightWindow(2))
        assert rep.is_nilpotent_span and rep.kept == 0

    def test_contracted_root_space(self, rationals, q_inf):
        lat = diag_lattice(rationals, q_inf, [math.exp(5), math.exp(-5)])
        rep = lt.nilpotent_span_check(lat, 0.5, lt.HeightWindow(2))
        assert rep.is_nilpotent_span and rep.kept > 0
        # every kept point is a multiple of the lower root space
        for pt in rep.witness_basis:
            mat = pt.matrix
            assert mat[0][0].is_zero() and mat[0][1].is_zero() \
                and mat[1][1].is_zero()

    def test_full_algebra_not_nilpotent(self, rationals, q_inf):
        lat = lt.SLattice(rationals, q_inf, 2, [eye(2)])
        rep = lt.nilpotent_span_check(lat, 3.0, lt.HeightWindow(2))
        assert not rep.is_nilpotent_span

    # Values pinned from the implementation that preceded sadiclab.linalg.
    # Only these cases have a finite place, where g^-1 is inverted over K;
    # the Q(i) case runs the span test over a field of degree 2.
    @pytest.mark.parametrize("case, nilpotent, kept, sup_norms", [
        ("contracted", True, ["0 1 0", "0 1/2 0", "0 2 0"],
         [0.0625, 0.125, 0.125]),
        ("identity", False,
         ["1 -1 -1", "1/2 -1/2 -1/2", "1 0 -1", "1/2 0 -1/2", "0 1 -1",
          "0 1/2 -1/2", "1 1 -1", "1/2 1/2 -1/2", "1 -1 0", "1/2 -1/2 0",
          "1 0 0", "1/2 0 0", "0 1 0", "0 1/2 0", "1 1 0", "1/2 1/2 0",
          "1 -1 1", "1/2 -1/2 1/2", "0 0 1", "0 0 1/2", "1 0 1", "1/2 0 1/2",
          "0 1 1", "0 1/2 1/2", "1 1 1", "1/2 1/2 1/2"],
         [2.0, 2.0, 3 ** 0.5, 2.0, 3 ** 0.5, 2.0, 2.0, 2.0, 2 ** 0.5, 2.0,
          1.0, 2.0, 1.0, 2.0, 2 ** 0.5, 2.0, 2.0, 2.0, 2 ** 0.5, 2.0,
          3 ** 0.5, 2.0, 3 ** 0.5, 2.0, 2.0, 2.0]),
        ("gauss", False, ["1,0 0,0 0,0", "0,1 0,0 0,0", "0,0 1,0 0,0",
                          "0,0 0,1 0,0"], [1.0] * 4),
    ])
    def test_pinned_cases_with_finite_places(self, rationals, q_inf2, gauss,
                                             case, nilpotent, kept, sup_norms):
        F = Fraction
        if case == "contracted":
            lat = lt.SLattice(rationals, q_inf2, 2, [[[4, 0], [0, F(1, 4)]],
                                                     [[F(1, 4), 0], [0, 4]]])
            rep = lt.nilpotent_span_check(lat, 0.5, lt.HeightWindow(2, 1))
        elif case == "identity":
            lat = lt.SLattice(rationals, q_inf2, 2, [eye(2), eye(2)])
            rep = lt.nilpotent_span_check(lat, 3.0, lt.HeightWindow(1, 1))
        else:
            places = nf.archimedean_places(gauss) + nf.finite_places(gauss, 5)
            assert [p.name for p in places] == ["c0", "p5_0", "p5_1"]
            lat = lt.SLattice(gauss, places, 2, [eye(2)] * 3)
            rep = lt.nilpotent_span_check(lat, 1.5, lt.HeightWindow(1, 1))
        assert rep.is_nilpotent_span is nilpotent
        assert rep.kept == len(kept)
        assert [" ".join(",".join(map(str, co)) for co in pt.coords)
                for pt in rep.witness_basis] == kept
        assert [pt.sup_norm for pt in rep.witness_basis] == sup_norms

    def test_dimension_cap(self, rationals, q_inf):
        lat = lt.SLattice(rationals, q_inf, 5, [eye(5)])
        with pytest.raises(ValueError):
            lt.nilpotent_span_check(lat, 1.0, lt.HeightWindow(1))

    def test_calibration_at_identity(self, rationals, q_inf):
        lat = lt.SLattice(rationals, q_inf, 2, [eye(2)])
        # the shortest nonzero integral trace-zero matrix has norm 1
        assert lt.nilpotent_span_check(lat, 1.0, lt.HeightWindow(2)).is_nilpotent_span
        assert not lt.nilpotent_span_check(lat, 4.0,
                                           lt.HeightWindow(2)).is_nilpotent_span


# ---------------------------------------------------------------------------
# nilpotent_span_check against the per-point loop it replaced
#
# The check now values one `PointCloud` of Ad(g).  The reference below is
# the loop it replaced: every window point built as an exact trace-zero X,
# g X g^-1 formed at every place (floats at archimedean places, exact over
# K at finite ones), each finite entry valued by `FinitePlace.valuation`.
# Verdicts, kept coordinates and their order must agree.  The sup norms of
# the two formulas are bit-equal where every float operation is exact
# (dyadic g); otherwise they agree within `_arch_tolerance`/
# `_finite_tolerance`, and radii are drawn farther than that from every
# sup value.

U = 2.0 ** -53


def _gamma(k):
    return k * U / (1 - k * U)


def _arch_tolerance(place, gf, gfi, coeffs, basis, norm):
    """Bound on |norm - norm'| for the cloud's norm' of the same point.

    With X = sum_b x_b B_b, the loop computes fl(fl(gf fl(X)) gfi): within
    gamma_(2n+1) |gf| |X| |gfi| of gf X gfi, entrywise.  The cloud computes
    fl(sum_b fl(x_b) M_b), M_b = fl(fl(gf B_b) gfi) with gf B_b exact:
    within gamma_(n^2+n) R, R = sum_b |x_b| |gf| |B_b| |gfi| >= |gf||X||gfi|.
    A complex product errs by at most sqrt(2) gamma_2 < gamma_3 and a
    complex sum by u, so a complex multiply-add counts as four roundings,
    twice a real one: the counts double.  So the images differ by at most
    e_F in the
    Frobenius norm.  The place norm is sqrt(sum |W_ij|^2) (n^2 + 1
    roundings) at a real place and sum |W_ij|^2 (2 n^2) at a complex one;
    with a = ||W|| the bound below follows from | ||W|| - ||W'|| | <= e_F.
    The factor 1.001 covers evaluating the bound itself in floats.
    """
    n = len(gf)
    c = 2 if place.kind == "complex" else 1
    R = sum(abs(to_float(x, place)) * (np.abs(gf) @ np.abs(B) @ np.abs(gfi))
            for x, B in zip(coeffs, np.array(basis, dtype=np.float64)))
    e_F = (_gamma(c * (2 * n + 1)) + _gamma(c * (n * n + n))) \
        * float(np.sqrt((R * R).sum()))
    if place.kind == "real":
        g = _gamma(n * n + 1)
        return 1.001 * (e_F * (1 + 2 * g) + 2 * g * norm / (1 - g))
    g = _gamma(2 * n * n)
    a = math.sqrt(norm / (1 - g))
    return 1.001 * ((1 + g) * e_F * (2 * a + e_F) + g * (a * a + (a + e_F) ** 2))


def _finite_tolerance(norm):
    # float(Fraction(p) ** -v) is correctly rounded; the cloud's
    # np.power(p, -v) is within one ulp, counted as two roundings
    return _gamma(3) * norm / (1 - U)


def reference_points(lat, window):
    """Every window point of the replaced loop: (coeffs, X, sup_norm, tol).

    A copy of that loop without its radius test (and without its trace
    assertion); tol bounds the distance to the cloud's sup norm.
    """
    n = lat.n
    field = lat.field
    d = field.degree
    basis = lt._sl_basis(n)
    ncoords = len(basis) * d
    primes = sorted({p.p for p in lat.finite_places})
    E = window.E if primes else 0
    window.check(ncoords, len(primes) if E else 0)
    arch_data = []
    fin_data = []
    for place, mat in zip(lat.places, lat.g):
        if place.kind == "finite":
            gK = [[to_field(c, field, place.name) for c in row] for row in mat]
            fin_data.append((place, gK, linalg.inverse(gK)))
        else:
            gf = np.array([[to_float(c, place) for c in row] for row in mat],
                          dtype=np.complex128 if place.kind == "complex" else np.float64)
            arch_data.append((place, gf, np.linalg.inv(gf)))
    Y = lt._numerator_grid(ncoords, window.H)
    ecombos = list(itertools.product(range(E + 1), repeat=len(primes))) or [()]
    out = []
    for row in Y:
        for ecombo in ecombos:
            if any(e > 0 and all(int(c) % p == 0 for c in row)
                   for p, e in zip(primes, ecombo)):
                continue
            denom = Fraction(1)
            for p, e in zip(primes, ecombo):
                denom *= Fraction(p) ** e
            coeffs = []
            for k in range(len(basis)):
                coeffs.append(field.from_integral_coords(
                    [int(c) for c in row[k * d:(k + 1) * d]]) * (1 / denom))
            X = [[field.zero() for _ in range(n)] for _ in range(n)]
            for c, b in zip(coeffs, basis):
                if c.is_zero():
                    continue
                for i in range(n):
                    for j in range(n):
                        if b[i][j]:
                            X[i][j] = X[i][j] + c * b[i][j]
            sup = tol = 0.0
            for place, gf, gfi in arch_data:
                Xf = np.array([[to_float(c, place) for c in rowX] for rowX in X],
                              dtype=gf.dtype)
                W = gf @ Xf @ gfi
                if place.kind == "real":
                    norm = float(np.sqrt((W * W).sum()))
                else:
                    norm = float((W.real ** 2 + W.imag ** 2).sum())
                sup = max(sup, norm)
                tol = max(tol, _arch_tolerance(place, gf, gfi, coeffs, basis, norm))
            for place, gK, giK in fin_data:
                W = lt._matmul_field(gK, lt._matmul_field(X, giK, field), field)
                vals = [place.valuation(c) for rowW in W for c in rowW
                        if not c.is_zero()]
                norm = float(Fraction(place.p) ** (-min(vals))) if vals else 0.0
                sup = max(sup, norm)
                tol = max(tol, _finite_tolerance(norm))
            out.append((tuple(tuple(c.coords) for c in coeffs), X, sup, tol))
    return out


def _kernel(rows, ncols, field):
    """Basis of {v in K^ncols : rows . v = 0}, one vector per non-pivot
    column c of the reduced echelon form: 1 at c, 0 at the other ones."""
    m, pivots = linalg._reduce(rows, ncols)
    basis = []
    for c in range(ncols):
        if c not in pivots:
            v = [field.zero()] * ncols
            v[c] = field.one()
            for r, pc in enumerate(pivots):
                v[pc] = -m[r][c]
            basis.append(v)
    return basis


def reference_verdict(kept, field, n):
    """The replaced check: bracket closure, then iterated common kernels.

    The span of the kept matrices is closed under the Lie bracket; the
    closure is nilpotent when K^n has a common kernel of it whose
    quotient, in a completed basis, again has one, down to dimension 0.
    """
    def bracket(a, b):
        return [[sum((a[i][k] * b[k][j] - b[i][k] * a[k][j] for k in range(n)),
                     field.zero()) for j in range(n)] for i in range(n)]

    span_rows = []
    mats = []
    for X in kept:
        mat = [list(row) for row in X]
        if linalg.insert(span_rows, lt._flatten_to_q(mat)):
            mats.append(mat)
    changed = True
    while changed:
        changed = False
        for a, b in itertools.combinations(list(mats), 2):
            br = bracket(a, b)
            if linalg.insert(span_rows, lt._flatten_to_q(br)):
                mats.append(br)
                changed = True
    dim = n
    while dim > 0 and mats:
        kernel = _kernel([row for m in mats for row in m], dim, field)
        if not kernel:
            return False
        # complete the kernel to a basis of K^dim with the standard vectors
        # at the non-pivot columns of its echelon form
        echelon = []
        for v in kernel:
            linalg.insert(echelon, v)
        leads = {lead for lead, _ in echelon}
        cols = kernel + [[field.one() if i == j else field.zero() for i in range(dim)]
                         for j in range(dim) if j not in leads]
        P = [[cols[c][r] for c in range(dim)] for r in range(dim)]
        Pinv = linalg.inverse(P)
        w = len(kernel)
        blocks = []
        for m in mats:
            mm = lt._matmul_field(Pinv, lt._matmul_field(m, P, field), field)
            blocks.append([[mm[r][c] for c in range(w, dim)] for r in range(w, dim)])
        mats = [m for m in blocks if any(not c.is_zero() for row in m for c in row)]
        dim -= w
    return True


@functools.lru_cache(maxsize=None)
def _setting(name):
    if name == "gauss":
        field = nf.create_field([1, 0, 1])
        return field, nf.archimedean_places(field) + nf.finite_places(field, 5)
    field = nf.create_field([0, 1])
    p = {"q2": 2, "q3": 3}[name]
    return field, nf.archimedean_places(field) + nf.finite_places(field, p)


def _matmul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


@st.composite
def dyadic_matrix(draw, n):
    """D U: U unit upper triangular with dyadic entries, D = diag(+-2^a_i).

    Triangular with power-of-two pivots, so np.linalg.inv is exact and so
    is every float operation of both formulas on small windows.
    """
    entry = st.builds(lambda k, e: Fraction(k, 2 ** e),
                      st.integers(-4, 4), st.integers(0, 2))
    U_ = [[Fraction(int(i == j)) if i >= j else draw(entry) for j in range(n)]
          for i in range(n)]
    exps = draw(st.lists(st.integers(-2, 2), min_size=n - 1, max_size=n - 1))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n - 1, max_size=n - 1))
    exps.append(-sum(exps))
    signs.append(math.prod(signs))
    D = [[Fraction(signs[i] * 2 ** exps[i]) if i == j else Fraction(0)
          for j in range(n)] for i in range(n)]
    return _matmul(D, U_)


@st.composite
def rational_matrix(draw, n, dens):
    """A product of unit lower and upper triangular rational matrices."""
    entry = st.builds(Fraction, st.integers(-3, 3), st.sampled_from(dens))
    L = [[Fraction(int(i == j)) if i <= j else draw(entry) for j in range(n)]
         for i in range(n)]
    U_ = [[Fraction(int(i == j)) if i >= j else draw(entry) for j in range(n)]
          for i in range(n)]
    return _matmul(L, U_)


@st.composite
def adjoint_case(draw, n):
    """(lattice, window, exact): exact when every float operation is exact."""
    kind = draw(st.sampled_from(["dyadic", "q2", "q3", "flow", "gauss"]
                                if n == 2 else ["dyadic", "q2", "q3"]))
    small = n == 2
    if kind == "dyadic":
        field, places = _setting("q2")
        mats = [draw(dyadic_matrix(n)) for _ in places]
        H, E = (draw(st.integers(1, 2)), draw(st.integers(0, 2))) if small else (1, 0)
    elif kind in ("q2", "q3"):
        field, places = _setting(kind)
        dens = [1, 2, 4] if kind == "q2" else [1, 3]
        mats = [draw(rational_matrix(n, dens)) for _ in places]
        H, E = (draw(st.integers(1, 3)), draw(st.integers(0, 1))) if small else (1, 0)
    elif kind == "flow":
        field, places = _setting("q2")
        t = draw(st.floats(-6, 6))
        mats = [[[math.exp(t), 0.0], [0.0, math.exp(-t)]], draw(dyadic_matrix(2))]
        H, E = draw(st.integers(1, 2)), draw(st.integers(0, 1))
    else:
        field, places = _setting("gauss")
        i_ = field.element([0, 1])
        g = draw(st.sampled_from([eye(2), [[1, i_], [0, 1]], [[2, 1], [1, 1]],
                                  [[1, 0], [1 + i_, 1]]]))
        mats = [g] * len(places)
        H, E = 1, draw(st.integers(0, 1))
    lat = lt.SLattice(field, places, n, mats)
    return lat, lt.HeightWindow(H, E), kind == "dyadic"


def _check_against_reference(data, lat, window, exact, radii):
    points = reference_points(lat, window)
    sups = np.array([s for _, _, s, _ in points])
    tols = np.array([t for _, _, _, t in points])
    distinct = np.unique(sups)
    # radii clear of every sup value by more than its tolerance; when the
    # sups are bit-equal, the first radius is exactly a sup value, which
    # the strict test `sup < radius` must leave out
    candidates = [r for r in np.concatenate([(distinct[:-1] + distinct[1:]) / 2,
                                             [distinct[-1] * 2 + 1]])
                  if (np.abs(r - sups) > tols).all()]
    pools = [distinct if exact and k == 0 else candidates for k in range(radii)]
    for pool in pools:
        radius = float(data.draw(st.sampled_from(pool), label="radius"))
        rep = lt.nilpotent_span_check(lat, radius, window)
        kept = [pt for pt in points if pt[2] < radius]
        assert rep.kept == len(kept)
        assert [pt.coords for pt in rep.witness_basis] == [pt[0] for pt in kept]
        assert [pt.matrix for pt in rep.witness_basis] == \
            [tuple(tuple(row) for row in pt[1]) for pt in kept]
        for pt, (_, _, sup, tol) in zip(rep.witness_basis, kept):
            assert type(pt.sup_norm) is float
            if exact:
                assert pt.sup_norm == sup
            else:
                assert abs(pt.sup_norm - sup) <= tol
        assert rep.is_nilpotent_span is reference_verdict(
            [pt[1] for pt in kept], lat.field, lat.n)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_nilpotent_check_matches_per_point_loop(data):
    lat, window, exact = data.draw(adjoint_case(2), label="case")
    _check_against_reference(data, lat, window, exact, radii=3)


@settings(max_examples=3, deadline=None)
@given(st.data())
def test_nilpotent_check_matches_per_point_loop_sl3(data):
    lat, window, exact = data.draw(adjoint_case(3), label="case")
    _check_against_reference(data, lat, window, exact, radii=2)


@st.composite
def engel_case(draw):
    """(field, n, mats, expected): a span built without a window.

    "shared": strictly upper-triangular matrices conjugated by one
    invertible P over the integers, nilpotent; "diagonal": the same with
    one nonzero diagonal entry in one of them, not nilpotent; "separate"
    (two matrices, n <= 3, where the oracle stays fast): each conjugated
    by its own P, which the oracle alone decides (None).
    """
    field = _setting(draw(st.sampled_from(["q2", "gauss"])))[0]
    n = draw(st.integers(2, 4))
    one, zero = field.one(), field.zero()

    def entry(bound):
        return field.element(draw(st.lists(st.integers(-bound, bound),
                                           min_size=field.degree,
                                           max_size=field.degree)))

    def conjugator():
        L = [[entry(1) if i > j else one if i == j else zero for j in range(n)]
             for i in range(n)]
        U_ = [[entry(1) if i < j else one if i == j else zero for j in range(n)]
              for i in range(n)]
        P = lt._matmul_field(L, U_, field)
        return P, linalg.inverse(P)

    kind = draw(st.sampled_from(["shared", "diagonal", "separate"] if n < 4
                                else ["shared", "diagonal"]))
    tris = [[[entry(2) if i < j else zero for j in range(n)] for i in range(n)]
            for _ in range(2 if kind == "separate" else draw(st.integers(1, 3)))]
    if kind == "diagonal":
        k = draw(st.integers(0, n - 1))
        tris[0][k][k] = one * draw(st.sampled_from([-2, -1, 1, 2]))
    shared = conjugator()
    mats = []
    for T in tris:
        P, Pinv = conjugator() if kind == "separate" else shared
        X = lt._matmul_field(P, lt._matmul_field(T, Pinv, field), field)
        mats.append(tuple(tuple(row) for row in X))
    return field, n, mats, {"shared": True, "diagonal": False, "separate": None}[kind]


@settings(max_examples=20, deadline=None)
@given(engel_case())
def test_nilpotent_span_matches_bracket_closure(case):
    field, n, mats, expected = case
    verdict = lt._nilpotent_span(mats, field, n)
    assert verdict is reference_verdict(mats, field, n)
    if expected is not None:
        assert verdict is expected


# The window memo: `_window_rows` keeps the last window it enumerated, with
# its points embedded at each archimedean place that read it, and a cloud
# over that window reuses both.  A cloud must read as one built anew.


@st.composite
def memo_case(draw):
    """(two lattices over one field and S, window): ncoords <= 4, primes
    a subset of {2, 3, 5} (2 is ramified in Q(i)), H <= 6, E <= 3."""
    gauss = draw(st.booleans())
    field = nf.create_field([1, 0, 1] if gauss else [0, 1])
    n = 2 if gauss else draw(st.integers(2, 4))
    ncoords = n * field.degree
    primes = draw(st.lists(st.sampled_from([3, 5] if gauss else [2, 3, 5]),
                           unique=True).map(sorted))
    E = draw(st.integers(0, 3))
    counted = len(primes) if E and primes else 0
    top = max(h for h in range(1, 7)
              if lt.HeightWindow(h, E).size(ncoords, counted) <= 6000 or h == 1)
    window = lt.HeightWindow(draw(st.integers(1, top)), E)
    places = nf.archimedean_places(field) + [
        place for p in primes for place in nf.finite_places(field, p)]
    lats = [lt.SLattice.from_rational(field, places, n,
                                      draw(rational_matrix(n, [1, 2, 3])))
            for _ in range(2)]
    # the primes of a window of the same size enumerated just before
    before = draw(st.lists(st.sampled_from([3, 5] if gauss else [2, 3, 5]),
                           unique=True).map(sorted))
    return lats, window, before


def _cloud_bits(cloud):
    """Everything a cloud computes, as bytes and values: its window, the
    images at each place, and its systoles under the identity step and
    under a three-step schedule (which reads the skyline)."""
    n_out = len(cloud.maps[0])
    arch = [(np.array([[1.0] * n_out, [2.0] + [0.5] * (n_out - 1)]),
             np.array([0, 1, 1])) for _ in cloud.arch]
    return ([cloud.numerators.tobytes(), cloud.eexp.tobytes()]
            + [W.tobytes() for _, W in cloud.arch]
            + [vals.tobytes() for _, vals, _, _ in cloud.fin]
            + list(cloud.systoles_under([None] * len(cloud.arch),
                                        [None] * len(cloud.fin)))
            + list(cloud.systoles_under(arch, [None] * len(cloud.fin))))


@settings(max_examples=30, deadline=None)
@given(memo_case())
def test_memoised_window_equals_a_fresh_build(case):
    lats, window, before = case
    lt._WINDOWS.clear()
    lt._window_rows(lats[0].n * lats[0].field.degree, before, window)
    clouds = [lt.PointCloud(lat, window) for lat in lats]
    assert clouds[0].numerators is clouds[1].numerators
    shared = [_cloud_bits(cloud) for cloud in clouds]
    ncoords, primes = clouds[0].n * clouds[0].d, clouds[0].primes
    rows = [a.tobytes() for a in lt._window_rows(ncoords, primes, window)]
    fresh = []
    for lat in lats:
        lt._WINDOWS.clear()
        fresh.append(_cloud_bits(lt.PointCloud(lat, window)))
    lt._WINDOWS.clear()
    assert rows == [a.tobytes() for a in lt._window_rows(ncoords, primes, window)]
    assert shared == fresh


def test_window_arrays_are_read_only(monkeypatch, gauss):
    monkeypatch.setattr(lt, "_WINDOWS", {})
    places = nf.archimedean_places(gauss) + nf.finite_places(gauss, 5)
    window = lt.HeightWindow(2, 1)
    cloud = lt.PointCloud(lt.SLattice.identity(gauss, places, 2), window)
    numerators, eexp = lt._window_rows(4, [5], window)
    assert numerators is cloud.numerators and eexp is cloud.eexp
    [(_, _, embedded)] = lt._WINDOWS.values()
    assert list(embedded) == [places[0]]
    for array in (numerators, eexp, embedded[places[0]]):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_window_cap_checked_on_every_call(monkeypatch, rationals, q_inf2):
    monkeypatch.setattr(lt, "_WINDOWS", {})
    lat = lt.SLattice.identity(rationals, q_inf2, 2)
    size = lt.HeightWindow(3, 2).size(2, 1)
    lt.systole(lat, lt.HeightWindow(3, 2))
    small = lt.HeightWindow(3, 2, cap=size - 1)
    with pytest.raises(WindowTooLarge):
        lt._window_rows(2, [2], small)
    with pytest.raises(WindowTooLarge):
        lt.systole(lat, small)
    with pytest.raises(WindowTooLarge):
        lt.mahler_test([lat], 0.1, small)
    rows, _ = lt._window_rows(2, [2], lt.HeightWindow(3, 2, cap=size))
    assert len(rows) < size


def test_fields_from_one_polynomial_never_share_an_embedding(monkeypatch):
    monkeypatch.setattr(lt, "_WINDOWS", {})
    # equal fields (one polynomial), the last with the basis {1, 1 + i}
    fields = [nf.NumberField([1, 0, 1]), nf.NumberField([1, 0, 1]),
              nf.NumberField([1, 0, 1], [[1, 0], [1, 1]])]
    assert fields[0] == fields[1] == fields[2]
    window = lt.HeightWindow(2)
    clouds = [lt.PointCloud(lt.SLattice.identity(field, nf.archimedean_places(field), 2),
                            window) for field in fields]
    places = [cloud.arch[0][0] for cloud in clouds]
    [(_, _, embedded)] = lt._WINDOWS.values()
    assert list(embedded) == places and len(set(map(id, places))) == 3
    assert not np.array_equal(embedded[places[0]], embedded[places[2]])
    for cloud in clouds:
        lt._WINDOWS.clear()
        fresh = lt.PointCloud(cloud.lat, window)
        assert fresh.arch[0][1].tobytes() == cloud.arch[0][1].tobytes()


def test_one_enumeration_per_window(monkeypatch, gauss):
    monkeypatch.setattr(lt, "_WINDOWS", {})
    calls = []
    grid = lt._numerator_grid
    monkeypatch.setattr(lt, "_numerator_grid",
                        lambda *args: calls.append(args) or grid(*args))
    places = nf.archimedean_places(gauss) + nf.finite_places(gauss, 5)
    family = [lt.SLattice(gauss, places, 2, [[[1, k], [0, 1]]] * len(places))
              for k in range(3)]
    lt.mahler_test(family, 0.1, lt.HeightWindow(3, 1))
    assert calls == [(4, 3)]
    calls.clear()
    # the `cloud` workload's window: H = 2, E = 1 over Q(i), S = {c0, both places over 5}
    for lat in family + family[:2]:
        lt.systole(lat, lt.HeightWindow(2, 1))
    assert calls == [(4, 2)]


def test_window_rejects_a_height_below_one_or_a_negative_exponent():
    with pytest.raises(ValueError, match="H >= 1 and E >= 0"):
        lt.HeightWindow(0)
    with pytest.raises(ValueError, match="H >= 1 and E >= 0"):
        lt.HeightWindow(1, -1)


def test_mahler_test_rejections(rationals, q_inf, q_inf2):
    lat = lt.SLattice.identity(rationals, q_inf, 2)
    window = lt.HeightWindow(2)
    for r in (0, -1.0):
        with pytest.raises(ValueError, match="radius must be positive"):
            lt.mahler_test([lat], r, window)
    with pytest.raises(ValueError, match="at least one lattice"):
        lt.mahler_test([], 0.1, window)
    root2, root3 = nf.create_field([-2, 0, 1]), nf.create_field([-3, 0, 1])
    mixed = [
        [lt.SLattice.identity(f, nf.archimedean_places(f), 2) for f in (root2, root3)],
        [lat, lt.SLattice.identity(rationals, q_inf2, 2)],
        [lat, lt.SLattice.identity(rationals, q_inf, 3)],
    ]
    for family in mixed:
        with pytest.raises(ShapeMismatch, match="share field, S and dimension"):
            lt.mahler_test(family, 0.1, window)
