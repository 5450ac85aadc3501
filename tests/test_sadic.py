import functools
import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from sadiclab import numberfield as nf
from sadiclab import sadic as sd
from sadiclab.errors import ShapeMismatch, ZeroComponent


@pytest.fixture(scope="module")
def q3_places(rationals, q_inf):
    return q_inf + nf.finite_places(rationals, 3)


@functools.lru_cache(maxsize=None)
def _s_units(k):
    """S = {inf} and the first k of the primes 2, 3, 5, 7 over Q, and its units."""
    q = nf.create_field([0, 1])
    places = nf.archimedean_places(q)
    for p in (2, 3, 5, 7)[:k]:
        places = places + nf.finite_places(q, p)
    return places, nf.s_unit_group(q, places)


class TestSAdicVector:
    @pytest.mark.parametrize("components", [[(1,)], [(1,), (1,), (5,)]])
    def test_one_component_per_place(self, q_inf2, components):
        with pytest.raises(ValueError, match="^one component per place required$"):
            sd.SAdicVector(q_inf2, components, 1)

    def test_components_share_a_dimension(self, q_inf2):
        with pytest.raises(ValueError, match="^components must share a common dimension$"):
            sd.SAdicVector(q_inf2, [(1, 2), (1,)])


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
        xi, ratio = sd.unit_balance(x, target, units)
        assert abs(xi.coords[0]) == Fraction(1, 4)
        assert abs(ratio - math.sqrt(2)) < 1e-10

    def test_already_balanced(self, rationals, q_inf2):
        units = nf.s_unit_group(rationals, q_inf2)
        x = sd.SAdicVector(q_inf2, [(2,), (1,)], 1)   # norms 2 and 1
        target = sd.BalancingTarget(q_inf2, [2.0, 1.0])
        xi, ratio = sd.unit_balance(x, target, units)
        assert xi == rationals.one()
        assert abs(ratio - 1) < 1e-12

    def test_no_generators(self, rationals, q_inf):
        # S = {inf}: the one exponent vector is the empty one
        units = nf.s_unit_group(rationals, q_inf)
        x = sd.SAdicVector(q_inf, [(-3,)], 1)
        xi, ratio = sd.unit_balance(x, sd.BalancingTarget(q_inf, [3.0]), units)
        assert xi == rationals.one()
        assert abs(ratio - 1) < 1e-12

    @pytest.mark.parametrize("e", [50, 60])
    def test_far_from_balanced(self, rationals, q_inf2, e):
        # an optimum beyond any fixed exponent box: xi = 2^(-e/2), ratio 1
        units = nf.s_unit_group(rationals, q_inf2)
        x = sd.SAdicVector(q_inf2, [(2 ** e,), (1,)], 1)
        target = sd.BalancingTarget(q_inf2, [2.0 ** (e / 2)] * 2)
        xi, ratio = sd.unit_balance(x, target, units)
        assert xi.coords[0] == Fraction(1, 2 ** (e // 2))
        assert abs(ratio - 1) < 1e-12

    def test_places_must_be_the_units_places(self, rationals, q_inf, q_inf2):
        q_inf3 = q_inf + nf.finite_places(rationals, 3)
        x = sd.SAdicVector(q_inf2, [(8,), (1,)], 1)
        for x_places, target_places in [(q_inf2, q_inf3), (q_inf3, q_inf2)]:
            units = nf.s_unit_group(rationals, x_places)
            with pytest.raises(ShapeMismatch, match="^x, the targets and the unit group "
                                                    "have different places$"):
                sd.unit_balance(x, sd.BalancingTarget(target_places, [8.0, 1.0]), units)

    def test_dependent_generators_rejected(self, rationals, q_inf2):
        units = nf.s_unit_group(rationals, q_inf2, supplied=[[2], [4]])
        x = sd.SAdicVector(q_inf2, [(8,), (1,)], 1)
        with pytest.raises(ValueError, match="^the unit generators' log vectors are dependent$"):
            sd.unit_balance(x, sd.BalancingTarget(q_inf2, [8.0, 1.0]), units)

    @pytest.mark.parametrize("targets, line", [
        ([math.nan, 1.0], "targets must be positive and finite"),
        ([math.inf, 1.0], "targets must be positive and finite"),
        ([0.0, 1.0], "targets must be positive and finite"),
        ([1.0], "one target per place required"),
    ])
    def test_targets_rejected(self, q_inf2, targets, line):
        with pytest.raises(ValueError, match=f"^{line}$"):
            sd.BalancingTarget(q_inf2, targets)

    def test_targets_must_match_the_content(self, rationals, q_inf2):
        units = nf.s_unit_group(rationals, q_inf2)
        x = sd.SAdicVector(q_inf2, [(8,), (1,)], 1)
        with pytest.raises(ValueError, match="^product of targets 9.0 does not match content 8"):
            sd.unit_balance(x, sd.BalancingTarget(q_inf2, [9.0, 1.0]), units)

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_within_kappa_and_minimal_for_every_exponent(self, data):
        # x = u * x0 for an S-unit u with exponents up to +-200; on k <= 2,
        # the exponents equal a brute force over a box that holds every
        # minimizer
        k = data.draw(st.integers(1, 4))
        places, units = _s_units(k)
        n = data.draw(st.integers(1, 2))
        entry = st.fractions(-60, 60, max_denominator=60).filter(bool)
        x0 = sd.SAdicVector(places, [data.draw(st.lists(entry, min_size=n, max_size=n))
                                     for _ in places], n)
        u = units.power_product(data.draw(st.lists(st.integers(-200, 200),
                                                   min_size=k, max_size=k)))
        x = x0.scaled(u)
        target = sd.BalancingTarget.equal_split(places, sd.content(x))
        with mock.patch.object(sd, "_objective", wraps=sd._objective) as objective:
            xi, ratio = sd.unit_balance(x, target, units)
        assert float(ratio) <= sd.balancing_constant(units) * (1 + 1e-9)
        if k > 2:
            return
        vecs, y = objective.call_args.args[1:]
        # over Q, the generator p_i moves only inf and its own place 1 + i,
        # so |e_i v_i - y_(1+i)| <= obj(e) <= obj(e') for a minimizer e and
        # any e', with v_i = -log p_i
        assert all(vecs[i][j] == 0 for i in range(k) for j in range(1, k + 1) if j != 1 + i)
        steps = [vecs[i][1 + i] for i in range(k)]
        bound = sd._objective([round(y[1 + i] / v) for i, v in enumerate(steps)], vecs, y)
        box = []
        for i, v in enumerate(steps):
            lo, hi = sorted([(y[1 + i] - bound) / v, (y[1 + i] + bound) / v])
            box.append(range(math.floor(lo) - 1, math.ceil(hi) + 2))
        best = None
        for exps in itertools.product(*box):
            obj = sd._objective(exps, vecs, y)
            if best is None or obj < best[0] - 1e-15:
                best = obj, exps
        assert xi == units.power_product(best[1])

    def test_equal_split_specialization(self, rationals, q_inf2):
        units = nf.s_unit_group(rationals, q_inf2)
        x = sd.SAdicVector(q_inf2, [(8,), (1,)], 1)
        target = sd.BalancingTarget.equal_split(q_inf2, sd.content(x))
        xi, ratio = sd.unit_balance(x, target, units)
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
            xi, ratio = sd.unit_balance(x, target, units)
            assert float(ratio) <= kappa * (1 + 1e-9)

    def test_kappa_for_real_quadratic(self, root2_field):
        places = nf.archimedean_places(root2_field)
        units = nf.s_unit_group(root2_field, places)
        kappa = sd.balancing_constant(units)
        assert abs(kappa - math.sqrt(1 + math.sqrt(2))) < 1e-9

    def test_kappa_infinite_for_too_few_generators(self, rationals):
        # 2 alone spans one of the two dimensions of S = {inf, 2, 3}
        places, _ = _s_units(2)
        units = nf.s_unit_group(rationals, places, supplied=[[2]])
        assert sd.balancing_constant(units) == math.inf

    def test_kappa_trivial_for_single_place(self, gauss):
        units = nf.s_unit_group(gauss, nf.archimedean_places(gauss))
        assert sd.balancing_constant(units) == 1.0

