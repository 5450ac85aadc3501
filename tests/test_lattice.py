import math
import random
from fractions import Fraction

import pytest

from sadiclab import lattice as lt
from sadiclab import numberfield as nf
from sadiclab import sadic as sd
from sadiclab.errors import NotUnimodular, WindowTooLarge
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

    def test_singular_exact_matrix_rejected(self, rationals, q_inf2):
        with pytest.raises(NotUnimodular, match=r"^singular matrix at p2_0$"):
            lt.SLattice(rationals, q_inf2, 2, [eye(2), [[1, 2], [2, 4]]])

    def test_finite_place_entries_must_be_exact(self, rationals, q_inf2):
        with pytest.raises(TypeError):
            lt.SLattice(rationals, q_inf2, 2, [eye(2),
                                               [[1.0, 0.0], [0.0, 1.0]]])


class TestSystole:
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
    # the Q(i) case runs the span closure over a field of degree 2.
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
        t = lt.calibrate_nilpotent_radius(lat, lt.HeightWindow(2))
        # the shortest nonzero integral trace-zero matrix has norm 1
        assert t is not None and t <= 1.0
        assert lt.nilpotent_span_check(lat, t, lt.HeightWindow(2)).is_nilpotent_span
        assert not lt.nilpotent_span_check(lat, 4.0,
                                           lt.HeightWindow(2)).is_nilpotent_span
