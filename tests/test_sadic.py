import math
import random
from fractions import Fraction

import pytest

from sadiclab import numberfield as nf
from sadiclab import sadic as sd
from sadiclab.errors import ZeroComponent


@pytest.fixture(scope="module")
def q3_places(rationals, q_inf):
    return q_inf + nf.finite_places(rationals, 3)


class TestSupNormAndContent:
    def test_zero_vector(self, q_inf2):
        x = sd.SAdicVector(q_inf2, [(0, 0), (0, 0)])
        assert sd.sup_norm(x) == 0
        assert sd.content(x) == 0

    def test_mixed_places_max(self, q3_places):
        x = sd.SAdicVector(q3_places, [(3, 4), (2, 6)])
        assert abs(sd.sup_norm(x) - 5) < 1e-40

    def test_complex_squared_convention(self, gauss):
        place = nf.archimedean_places(gauss)
        x = sd.SAdicVector(place, [(gauss.element([3, 4]),)], 1)
        assert abs(sd.sup_norm(x) - 25) < 1e-40

    def test_content_product(self, q_inf2):
        x = sd.SAdicVector(q_inf2, [(8,), (1,)], 1)
        assert abs(sd.content(x) - 8) < 1e-40

    def test_content_unit_scaling_fixture(self, rationals, q_inf2):
        x = sd.SAdicVector(q_inf2, [(8,), (1,)], 1)
        xi = rationals.element([2])
        assert abs(sd.content(x.scaled(xi)) - sd.content(x)) < 1e-30

    def test_content_unit_invariance_random(self, rationals, q_inf2):
        random.seed(7)
        units = nf.s_unit_group(rationals, q_inf2)
        for _ in range(200):
            coords = [Fraction(random.randint(1, 40), random.randint(1, 9))
                      for _ in range(2)]
            x = sd.SAdicVector(q_inf2, [tuple(coords), tuple(coords)], 2)
            xi = units.power_product([random.randint(-3, 3)])
            if random.random() < 0.5:
                xi = xi * units.torsion_generator
            c0 = sd.content(x)
            c1 = sd.content(x.scaled(xi))
            assert abs(c1 - c0) < 1e-9 * c0

    def test_content_bounded_by_supnorm_power(self, q_inf2):
        random.seed(8)
        m = len(q_inf2)
        for _ in range(50):
            comps = [(Fraction(random.randint(1, 50), random.randint(1, 7)),)
                     for _ in q_inf2]
            x = sd.SAdicVector(q_inf2, comps, 1)
            assert sd.content(x) <= sd.sup_norm(x) ** m * (1 + 1e-12)
        # equality iff every local norm agrees
        x_eq = sd.SAdicVector(q_inf2, [(2,), (1,)], 1)   # |2|_inf=2, |2|_2=... pick norms equal
        x_eq = sd.SAdicVector(q_inf2, [(1,), (1,)], 1)
        assert abs(sd.content(x_eq) - sd.sup_norm(x_eq) ** m) < 1e-30
        x_neq = sd.SAdicVector(q_inf2, [(3,), (1,)], 1)
        assert sd.content(x_neq) < sd.sup_norm(x_neq) ** m


class TestPseudoball:
    def test_zero_inside_any_radius(self, q_inf2):
        x = sd.SAdicVector(q_inf2, [(0,), (0,)], 1)
        assert sd.pseudoball_contains(1.0, x)

    def test_boundary_is_strict(self, q_inf2):
        x = sd.SAdicVector(q_inf2, [(8,), (1,)], 1)
        assert not sd.pseudoball_contains(8.0, x)
        assert sd.pseudoball_contains(8.01, x)

    def test_radius_must_be_positive(self, q_inf2):
        x = sd.SAdicVector(q_inf2, [(1,), (1,)], 1)
        with pytest.raises(ValueError):
            sd.pseudoball_contains(0.0, x)


class TestUnitBalance:
    def test_eight_one_fixture(self, rationals, q_inf2):
        units = nf.s_unit_group(rationals, q_inf2)
        x = sd.SAdicVector(q_inf2, [(8,), (1,)], 1)
        target = sd.BalancingTarget(q_inf2, [2 * math.sqrt(2)] * 2)
        xi, ratio = sd.unit_balance(x, target, units, exponent_bound=10)
        assert abs(xi.coords[0]) == Fraction(1, 4)
        assert abs(ratio - math.sqrt(2)) < 1e-10

    def test_already_balanced(self, rationals, q_inf2):
        units = nf.s_unit_group(rationals, q_inf2)
        x = sd.SAdicVector(q_inf2, [(2,), (1,)], 1)   # norms 2 and 1
        target = sd.BalancingTarget(q_inf2, [2.0, 1.0])
        xi, ratio = sd.unit_balance(x, target, units, exponent_bound=5)
        assert xi == rationals.one()
        assert abs(ratio - 1) < 1e-12

    def test_equal_split_specialization(self, rationals, q_inf2):
        units = nf.s_unit_group(rationals, q_inf2)
        x = sd.SAdicVector(q_inf2, [(8,), (1,)], 1)
        target = sd.BalancingTarget.equal_split(q_inf2, sd.content(x))
        xi, ratio = sd.unit_balance(x, target, units, exponent_bound=10)
        assert abs(xi.coords[0]) == Fraction(1, 4)
        scaled = x.scaled(xi)
        for norm in sd.local_norms(scaled):
            assert math.sqrt(8) / 2 <= float(norm) <= 2 * math.sqrt(8)

    def test_zero_component_rejected(self, rationals, q_inf2):
        units = nf.s_unit_group(rationals, q_inf2)
        x = sd.SAdicVector(q_inf2, [(0,), (1,)], 1)
        with pytest.raises(ZeroComponent):
            sd.unit_balance(
                x, sd.BalancingTarget(q_inf2, [1.0, 1.0]), units)

    def test_ratio_within_kappa_random(self, rationals, q_inf2):
        random.seed(9)
        units = nf.s_unit_group(rationals, q_inf2)
        kappa = sd.balancing_constant(units)
        assert abs(kappa - math.sqrt(2)) < 1e-12
        for _ in range(100):
            n = random.randint(1, 3)
            arch = tuple(random.uniform(-16, 16) or 1.0 for _ in range(n))
            fin = tuple(Fraction(2) ** random.randint(-4, 4)
                        * Fraction(random.choice([1, 3, 5]),
                                   random.choice([1, 3, 7]))
                        for _ in range(n))
            x = sd.SAdicVector(q_inf2, [arch, fin], n)
            if any(v == 0 for v in sd.local_norms(x)):
                continue
            target = sd.BalancingTarget.equal_split(q_inf2, sd.content(x))
            xi, ratio = sd.unit_balance(x, target, units, exponent_bound=20)
            assert float(ratio) <= kappa * (1 + 1e-9)

    def test_kappa_for_real_quadratic(self, root2_field):
        places = nf.archimedean_places(root2_field)
        units = nf.s_unit_group(root2_field, places)
        kappa = sd.balancing_constant(units)
        assert abs(kappa - math.sqrt(1 + math.sqrt(2))) < 1e-9

    def test_kappa_trivial_for_single_place(self, gauss):
        units = nf.s_unit_group(gauss, nf.archimedean_places(gauss))
        assert sd.balancing_constant(units) == 1.0

