import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from sympy import Poly, Symbol

from sadiclab import numberfield as nf
from sadiclab.errors import (
    NotMonic,
    RamifiedOrBadPrime,
    Reducible,
    UnsupportedFieldWithoutConfig,
)

x = Symbol("x")


def _disc_oracle(coeffs):
    """(-1)^(d(d-1)/2) Res(m, m') for monic m: the textbook discriminant."""
    m = Poly(list(reversed(coeffs)), x)
    d = m.degree()
    res = m.resultant(m.diff(x))
    return int((-1) ** (d * (d - 1) // 2) * res)


class TestCreateField:
    def test_degree_one_is_rationals(self, rationals):
        assert rationals.degree == 1
        assert rationals.discriminant == 1

    @pytest.mark.parametrize("coeffs", [[1, 0, 1], [-1, -1, 1], [-2, 0, 1],
                                        [1, 1, 0, 1]])
    def test_discriminant_against_resultant_oracle(self, coeffs):
        field = nf.create_field(coeffs)
        assert field.discriminant == _disc_oracle(coeffs)

    def test_gauss_and_golden_values(self, gauss, golden_field):
        assert gauss.discriminant == -4
        assert golden_field.discriminant == 5

    def test_reducible_rejected(self):
        with pytest.raises(Reducible):
            nf.create_field([-1, 0, 1])        # x^2 - 1

    def test_singular_integral_basis_rejected(self):
        with pytest.raises(ValueError, match=r"^integral basis matrix is singular$"):
            nf.create_field([1, 0, 1], integral_basis=[[1, 2], [Fraction(1, 2), 1]])

    def test_non_monic_rejected(self):
        with pytest.raises(NotMonic):
            nf.create_field([1, 0, 2])


class TestArchimedeanPlaces:
    def test_gauss_single_complex(self, gauss):
        places = nf.archimedean_places(gauss)
        assert [p.kind for p in places] == ["complex"]

    def test_root2_two_real(self, root2_field):
        places = nf.archimedean_places(root2_field)
        assert [p.kind for p in places] == ["real", "real"]
        roots = sorted(float(p.root(30)) for p in places)
        assert abs(roots[0] + 2 ** 0.5) < 1e-12
        assert abs(roots[1] - 2 ** 0.5) < 1e-12

    def test_rationals_one_real(self, q_inf):
        assert [p.kind for p in q_inf] == ["real"]

    def test_signature_identity(self):
        field = nf.create_field([1, 1, 0, 1])   # one real, one complex pair
        places = nf.archimedean_places(field)
        r1 = sum(1 for p in places if p.kind == "real")
        r2 = sum(1 for p in places if p.kind == "complex")
        assert r1 + 2 * r2 == field.degree


class TestFinitePlaces:
    def test_gauss_split_at_five(self, gauss):
        places = nf.finite_places(gauss, 5)
        assert [(p.factor_mod_p, p.residue_degree) for p in places] == \
            [((2, 1), 1), ((3, 1), 1)]

    def test_gauss_inert_at_three(self, gauss):
        places = nf.finite_places(gauss, 3)
        assert len(places) == 1
        assert places[0].residue_degree == 2

    def test_gauss_ramified_at_two(self, gauss):
        with pytest.raises(RamifiedOrBadPrime):
            nf.finite_places(gauss, 2)

    @pytest.mark.parametrize("coeffs,p", [([1, 0, 1], 5), ([1, 0, 1], 3),
                                          ([-2, 0, 1], 7), ([-1, -1, 1], 11),
                                          ([1, 1, 0, 1], 5)])
    def test_degree_identity(self, coeffs, p):
        field = nf.create_field(coeffs)
        places = nf.finite_places(field, p)
        assert sum(pl.ramification_index * pl.residue_degree
                   for pl in places) == field.degree


@pytest.mark.parametrize("coords", [[0, 0], [3, 0], [0, 1], [3, 1], ["1/2", 0]])
@pytest.mark.parametrize("q", [0, 3, Fraction(1, 2), Fraction(3)])
def test_equality_with_rationals(gauss, coords, q):
    # the rational shortcut in FieldElement.__eq__ agrees with a zero difference
    x = gauss.element(coords)
    assert (x == q) == (x - q).is_zero() == (q == x)


@pytest.mark.parametrize("coords, text", [
    ([0, 0], "0"), ([3, 0], "3"), (["-1/2", 0], "-1/2"),
    ([0, 1], "(0,1)"), (["1/2", -3], "(1/2,-3)")])
def test_str_spells_elements_as_witnesses_do(gauss, coords, text):
    assert str(gauss.element(coords)) == text


class TestLocalAbs:
    def test_two_plus_i_above_five(self, gauss):
        v1, v2 = nf.finite_places(gauss, 5)
        e = gauss.element([2, 1])
        values = sorted([nf.local_abs(e, v1), nf.local_abs(e, v2)])
        assert values == [Fraction(1, 5), Fraction(1)]
        # product over places above 5 equals |N(2+i)|_5 = 1/5
        assert values[0] * values[1] == Fraction(1, 5)

    def test_complex_norm_is_squared_modulus(self, gauss):
        place = nf.archimedean_places(gauss)[0]
        val = nf.local_abs(gauss.element([3, 4]), place)
        assert abs(val - 25) < 1e-40

    def test_one_plus_i_at_inert_three(self, gauss):
        place = nf.finite_places(gauss, 3)[0]
        assert nf.local_abs(gauss.element([1, 1]), place) == 1

    def test_precision_retry_on_deep_valuation(self, gauss):
        place = nf.finite_places(gauss, 5, precision=10)
        e = gauss.element([2, 1]) * Fraction(5 ** 15)
        # valuation 16 exceeds the starting precision; retry must resolve it
        assert place[0].valuation(e) in (16, 15)
        vals = sorted(pl.valuation(e) for pl in place)
        assert vals == [15, 16]

    def test_escalations_lift_once_per_precision(self, gauss, monkeypatch):
        lifts = []
        lift = nf._lift_place_factor

        def counting_lift(field, p, factor, precision):
            lifts.append(precision)
            return lift(field, p, factor, precision)

        monkeypatch.setattr(nf, "_lift_place_factor", counting_lift)
        place = nf.finite_places(gauss, 5)[0]
        deep, deeper = gauss.element([5 ** 40]), gauss.element([5 ** 100])
        for _ in range(2):
            assert place.valuation(deep) == 40
            assert place.valuation(deeper) == 100
        assert lifts == [60, 120]

    def test_multiplicativity_random(self, gauss):
        random.seed(3)
        places = nf.archimedean_places(gauss) + nf.finite_places(gauss, 5)
        for _ in range(100):
            a = gauss.element([random.randint(-9, 9), random.randint(-9, 9)])
            b = gauss.element([random.randint(-9, 9), random.randint(-9, 9)])
            if a.is_zero() or b.is_zero():
                continue
            for v in places:
                lhs = nf.local_abs(a * b, v)
                rhs = nf.local_abs(a, v) * nf.local_abs(b, v)
                if v.kind == "finite":
                    assert lhs == rhs
                else:
                    assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


class TestFieldNorm:
    def test_fixtures(self, rationals, gauss, root2_field):
        assert nf.field_norm(rationals.element([1])) == 1
        assert nf.field_norm(gauss.element([2, 1])) == 5
        assert nf.field_norm(root2_field.element([1, 1])) == -1

    def test_multiplicative(self, golden_field):
        random.seed(4)
        for _ in range(50):
            a = golden_field.element([random.randint(-9, 9), random.randint(-9, 9)])
            b = golden_field.element([random.randint(-9, 9), random.randint(-9, 9)])
            assert nf.field_norm(a * b) == nf.field_norm(a) * nf.field_norm(b)

    def test_norm_consistency_at_finite_places(self, golden_field):
        random.seed(5)
        places = nf.finite_places(golden_field, 11) + \
            nf.finite_places(golden_field, 13)
        by_p = {}
        for v in places:
            by_p.setdefault(v.p, []).append(v)
        for _ in range(100):
            a = golden_field.element([Fraction(random.randint(-20, 20),
                                               random.choice([1, 1, 11])),
                                      random.randint(-20, 20)])
            if a.is_zero():
                continue
            n = nf.field_norm(a)
            for p, group in by_p.items():
                prod = Fraction(1)
                for v in group:
                    prod *= nf.local_abs(a, v)
                vp = 0
                num, den = abs(n.numerator), n.denominator
                while num % p == 0:
                    num //= p
                    vp += 1
                while den % p == 0:
                    den //= p
                    vp -= 1
                want = Fraction(1, p ** vp) if vp >= 0 else Fraction(p ** (-vp))
                assert prod == want


class TestSUnitGroup:
    def test_rationals_with_two(self, rationals, q_inf2):
        group = nf.s_unit_group(rationals, q_inf2)
        assert group.rank == 1
        assert [u.coords for u in group.generators] == [(Fraction(2),)]
        assert group.torsion_generator.coords == (Fraction(-1),)

    def test_root2_fundamental_unit(self, root2_field):
        places = nf.archimedean_places(root2_field)
        group = nf.s_unit_group(root2_field, places)
        assert group.rank == 1
        assert group.generators[0].coords == (Fraction(1), Fraction(1))

    def test_golden_fundamental_unit(self, golden_field):
        group = nf.s_unit_group(golden_field,
                                nf.archimedean_places(golden_field))
        assert group.generators[0].coords == (Fraction(0), Fraction(1))

    @pytest.mark.parametrize("d, unit", [
        (31, (1520, 273)), (43, (3482, 531)), (46, (24335, 3588)),
        (94, (2143295, 221064))])
    def test_fundamental_unit_past_the_direct_sweep(self, d, unit):
        # y of x^2 - 4d y^2 = +-4 is above the sweep's bound of 200, so
        # the continued fraction of sqrt(4d) finds the unit
        field = nf.create_field([-d, 0, 1])
        assert nf._pell_fundamental_unit(field).coords == tuple(
            Fraction(c) for c in unit)

    def test_gauss_torsion_only(self, gauss):
        group = nf.s_unit_group(gauss, nf.archimedean_places(gauss))
        assert group.rank == 0
        i = group.torsion_generator
        assert i * i * i * i == 1 and not (i * i == 1)

    def test_gauss_with_split_prime(self, gauss):
        places = nf.archimedean_places(gauss) + nf.finite_places(gauss, 5)
        group = nf.s_unit_group(gauss, places)
        assert group.rank == 2
        assert len(group.generators) == 2

    def test_unsupported_degree_needs_config(self):
        field = nf.create_field([1, 1, 0, 1])
        with pytest.raises(UnsupportedFieldWithoutConfig):
            nf.s_unit_group(field, nf.archimedean_places(field))

    def test_supplied_generators_are_verified(self, rationals, q_inf2):
        group = nf.s_unit_group(rationals, q_inf2, supplied=[[2]])
        assert group.rank == 1
        from sadiclab.errors import GeneratorInvariantViolated
        with pytest.raises(GeneratorInvariantViolated):
            nf.s_unit_group(rationals, q_inf2, supplied=[[3]])

    def test_product_formula_on_power_products(self, rationals, root2_field,
                                               gauss, q_inf2):
        random.seed(6)
        configs = [
            (rationals, q_inf2),
            (root2_field, nf.archimedean_places(root2_field)),
            (gauss, nf.archimedean_places(gauss) + nf.finite_places(gauss, 5)),
        ]
        for field, places in configs:
            group = nf.s_unit_group(field, places)
            gens = group.generators
            for _ in range(30):
                exps = [random.randint(-3, 3) for _ in gens]
                u = group.power_product(exps)
                fin = Fraction(1)
                arch = 1.0
                for v in places:
                    a = nf.local_abs(u, v)
                    if v.kind == "finite":
                        fin *= a
                    else:
                        arch *= float(a)
                assert abs(arch * float(fin) - 1) < 1e-10


def test_reducible_message_names_the_polynomial():
    with pytest.raises(Reducible, match=r"^x\*\*4 - 10\*x\*\*2 \+ 9 factors over Q$"):
        nf.create_field([9, 0, -10, 0, 1])
    with pytest.raises(Reducible, match=r"^x\*\*2 - 1 factors over Q$"):
        nf.create_field([-1, 0, 1])


@given(st.lists(st.integers(-12, 12), min_size=1, max_size=7))
def test_poly_text_reads_like_sympy(low):
    coeffs = low + [1]
    assert nf._poly_text(coeffs) == str(Poly(list(reversed(coeffs)), x).as_expr())
