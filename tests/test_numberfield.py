import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import mp, mpf
from sympy import Poly, Symbol

from sadiclab import numberfield as nf
from sadiclab import polyarith as pa
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


class TestSharedFields:
    """Fields and their places are values built once per process."""

    def test_one_field_per_polynomial_and_basis(self):
        # the reference is built here: the shared `gauss` fixture may
        # have left the LRU cache after FIELD_CACHE_SIZE other fields
        gauss = nf.create_field([1, 0, 1])
        assert nf.create_field([1, 0, 1]) is gauss
        assert nf.create_field((1, 0, 1, 0)) is gauss
        assert nf.create_field([Fraction(1), 0, 1]) is gauss
        basis = [[1, 0], [Fraction(1, 2), Fraction(1, 2)]]
        golden = nf.create_field([-5, 0, 1], basis)
        assert nf.create_field([-5, 0, 1], basis) is golden
        plain = nf.create_field([-5, 0, 1])
        assert plain is not golden and plain == golden
        assert plain.integral_basis != golden.integral_basis
        assert nf.NumberField([1, 0, 1]) is not gauss

    @pytest.mark.parametrize("coeffs, basis, error", [
        ([-1, 0, 1], None, Reducible),
        ([1, 0, 2], None, NotMonic),
        (["1", 0, 1], None, NotMonic),
        ([1, 0, 1], [[1, 2], [Fraction(1, 2), 1]], ValueError),
        # a coefficient that is not an integer value, before int() truncates it
        ([3, 1.5, 1], None, NotMonic),
        ([0.5, 1], None, NotMonic),
        ([Fraction(1, 2), 0, 1], None, NotMonic),
        # a coefficient int() cannot read, where int() raised its own error
        (["1.5", 0, 1], None, NotMonic),
        (["1/2", 0, 1], None, NotMonic),
        ([math.inf, 0, 1], None, NotMonic)])
    def test_failed_builds_raise_on_every_call(self, coeffs, basis, error):
        for _ in range(3):
            with pytest.raises(error):
                nf.create_field(coeffs, basis)

    def test_place_lists_are_fresh_lists_of_shared_places(self, gauss):
        first = nf.archimedean_places(gauss)
        first.extend(nf.finite_places(gauss, 5))
        first.append("not a place")
        again = nf.archimedean_places(gauss)
        assert len(again) == 1 and again[0] is first[0]
        fin = nf.finite_places(gauss, 5)
        fin.pop()
        assert nf.finite_places(gauss, 5) == first[1:3]
        assert all(a is b for a, b in zip(nf.finite_places(gauss, 5), first[1:3]))

    def test_precisions_give_distinct_places(self, gauss):
        low, high = nf.finite_places(gauss, 5, 10), nf.finite_places(gauss, 5, 20)
        assert [v.precision for v in low + high] == [10, 10, 20, 20]
        assert not {id(v) for v in low} & {id(v) for v in high}
        assert [v.lifted_factor for v in low] != [v.lifted_factor for v in high]
        assert nf.finite_places(gauss, 5, 10)[0] is low[0]

    def test_second_parse_config_builds_nothing(self, monkeypatch):
        # the `cloud` benchmark's config: a complex place and both places
        # over 5; the first parse (and the roots the cloud reads) may build,
        # a second one finds every field and place built.  A cache of its
        # own makes the first parse build a field no other test has built.
        import functools
        from sadiclab import cli

        monkeypatch.setattr(nf, "_shared_field", functools.lru_cache(
            maxsize=nf.FIELD_CACHE_SIZE)(nf.NumberField))
        calls = []
        for module, name in [(pa, "gf_factor"), (pa, "hensel_lift_factors"),
                             (nf, "_float_roots"), (nf, "_horner_mp")]:
            def counted(*args, _fn=getattr(module, name), _name=name):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(module, name, counted)
        config = {"min_poly": [1, 0, 1],
                  "places": {"archimedean": "all", "finite_primes": [5]}}
        for round_ in range(2):
            cfg = cli.parse_config(config)
            assert [v.name for v in cfg.places] == ["c0", "p5_0", "p5_1"]
            cfg.places[0].root_float()
            if round_ == 0:
                assert calls
                calls.clear()
        assert calls == []


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


# ---------------------------------------------------------------------------
# Complex places against a 70-digit polyroots reference.  The places once
# took their Newton start from mpmath's polyroots at DEFAULT_DPS + 20
# digits; `_polyroots_places` rebuilds those places, so `root_float` of the
# float-seeded places can be compared with theirs bit for bit.

SEEDED_FIELDS = [
    [1, 0, 1],                      # Q(i)
    [5, 0, 1],                      # Q(sqrt-5)
    [1, 1, 1],                      # x^2 + x + 1
    [-2, 0, 0, 1],                  # x^3 - 2
    [1, 1, 0, 1],                   # x^3 + x + 1
    [1, 0, 0, 0, 1],                # x^4 + 1
    [1, 0, -1, 0, 1],               # x^4 - x^2 + 1
    [1, 0, 3, 0, 1],                # x^4 + 3x^2 + 1: roots on the imaginary axis only
    [2, 0, 0, 0, 0, 0, 1],          # x^6 + 2
    [1, 1, 1, 1, 1, 1, 1],          # the 7th cyclotomic polynomial
    [5, 10, 9, 4, 1],               # x^4 + 3x^2 + 1 at x + 1: roots on Re x = -1
    [-1, -1, 0, 1],                 # x^3 - x - 1
    [-3, 1, 0, 0, 0, 1],            # x^5 + x - 3
    [-2, 0, 1], [-1, -1, 1], [-5, 0, 1], [0, 1],
]


def _reference_roots(coeffs):
    """(real roots ascending, upper roots by (real, imaginary) part), by
    polyroots at 70 digits.  Real parts are compared to 40 decimals, so a
    tie that the rounding of the reference leaves is kept a tie."""
    with mp.workdps(70):
        roots = mp.polyroots([mpf(c) for c in reversed(coeffs)],
                             maxsteps=200, extraprec=80)
        real = sorted(mp.re(r) for r in roots if mp.im(r) == 0)
        upper = sorted((r for r in roots if mp.im(r) > 0),
                       key=lambda r: (mp.nint(mp.re(r) * 10 ** 40), mp.im(r)))
    return real, upper


def _polyroots_places(field, upper):
    with mp.workdps(70):
        return [nf.ArchimedeanPlace(field, "complex", i, (Fraction(str(mp.re(r))),
                                                          Fraction(str(mp.im(r)))))
                for i, r in enumerate(upper)]


def _check_against_reference(coeffs):
    field = nf.create_field(coeffs)
    places = nf.archimedean_places(field)
    real, upper = _reference_roots(coeffs)
    assert [p.name for p in places] == \
        [f"r{i}" for i in range(len(real))] + [f"c{i}" for i in range(len(upper))]
    for place, ref in zip(places, real + upper):
        for dps in (17, 50):
            with mp.workdps(70):
                assert abs(place.root(dps) - ref) <= \
                    mpf(10) ** -(dps + 10) * max(1, abs(ref))
        if place.kind == "complex" and mp.re(ref) == 0:
            assert mp.re(place.root(17)) == 0 and mp.re(place.root(50)) == 0
            assert place.root_float().real == 0.0
    return field, places, upper


@pytest.mark.parametrize("coeffs", SEEDED_FIELDS, ids=str)
def test_complex_places_match_polyroots(coeffs):
    field, places, upper = _check_against_reference(coeffs)
    complex_places = [p for p in places if p.kind == "complex"]
    assert [p.root_float() for p in complex_places] == \
        [p.root_float() for p in _polyroots_places(field, upper)]


@st.composite
def _irreducible_monic(draw):
    d = draw(st.integers(2, 6))
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=d, max_size=d)) + [1]
    assume(pa.is_irreducible(coeffs))
    return coeffs


@settings(max_examples=60, deadline=None)
@given(_irreducible_monic())
def test_drawn_complex_places_match_polyroots(coeffs):
    real, upper = _reference_roots(coeffs)
    # two upper roots with one real part off a line of symmetry have no
    # order that float noise does not decide, here or in the reference
    keys = [mp.nint(mp.re(r) * 10 ** 40) for r in upper]
    c = Fraction(-coeffs[-2], len(coeffs) - 1)
    assume(all(keys.count(k) == 1 or abs(mp.re(r) - mpf(c.numerator) / c.denominator)
               < mpf(10) ** -40 for k, r in zip(keys, upper)))
    _check_against_reference(coeffs)


def test_complex_pairing_checks_the_seeds(monkeypatch):
    # a field of its own: the shared one may hold its places already, and
    # the planted seeds must reach the pairing check
    field = nf.NumberField([1, 1, 1, 1, 1, 1, 1])
    seeds = nf._float_roots(field.min_poly)
    upper = max(seeds, key=lambda z: z.imag)
    for bad in ([upper] * 6,                            # one root six times
                [upper, upper + 1e-12] + seeds[2:],     # two seeds of one root
                [complex(z.real) for z in seeds]):      # no upper root
        monkeypatch.setattr(nf, "_float_roots", lambda coeffs, bad=bad: bad)
        with pytest.raises(ArithmeticError, match="complex root pairing failed"):
            nf.archimedean_places(field)


def test_line_roots_must_be_counted_exactly(monkeypatch):
    # x^4 + 3x^2 + 1 has both upper roots on the imaginary axis; a seed off
    # the axis by more than the tolerance is not taken for one of them
    # (a field of its own, as above)
    field = nf.NumberField([1, 0, 3, 0, 1])
    seeds = [z + 1e-3 if z.imag > 0 and z.imag < 1 else z
             for z in nf._float_roots(field.min_poly)]
    monkeypatch.setattr(nf, "_float_roots", lambda coeffs: seeds)
    with pytest.raises(ArithmeticError, match="complex root pairing failed"):
        nf.archimedean_places(field)


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
    # the rational shortcut in FieldElement.__eq__ agrees with a zero
    # difference, and hashing agrees with equality
    x = gauss.element(coords)
    assert (x == q) == (x - q).is_zero() == (q == x)
    assert hash(x) == hash(gauss.element(coords))
    assert len({x, q}) == 2 - (x == q)


@pytest.mark.parametrize("coords, text", [
    ([0, 0], "0"), ([3, 0], "3"), (["-1/2", 0], "-1/2"),
    ([0, 1], "(0,1)"), (["1/2", -3], "(1/2,-3)")])
def test_str_spells_elements_as_witnesses_do(gauss, coords, text):
    assert str(gauss.element(coords)) == text


class TestLocalAbs:
    def test_two_plus_i_above_five(self, gauss):
        v1, v2 = nf.finite_places(gauss, 5)
        e = gauss.element([2, 1])
        values = sorted([v1.abs_value(e), v2.abs_value(e)])
        assert values == [Fraction(1, 5), Fraction(1)]
        # product over places above 5 equals |N(2+i)|_5 = 1/5
        assert values[0] * values[1] == Fraction(1, 5)

    def test_complex_norm_is_squared_modulus(self, gauss):
        place = nf.archimedean_places(gauss)[0]
        val = place.abs_value(gauss.element([3, 4]))
        assert abs(val - 25) < 1e-40

    def test_one_plus_i_at_inert_three(self, gauss):
        place = nf.finite_places(gauss, 3)[0]
        assert place.abs_value(gauss.element([1, 1])) == 1

    def test_precision_retry_on_deep_valuation(self, gauss):
        place = nf.finite_places(gauss, 5, precision=10)
        e = gauss.element([2, 1]) * Fraction(5 ** 15)
        # valuation 16 exceeds the starting precision; retry must resolve it
        assert place[0].valuation(e) in (16, 15)
        vals = sorted(pl.valuation(e) for pl in place)
        assert vals == [15, 16]

    def test_escalations_lift_once_per_precision(self, monkeypatch):
        # a field of its own, whose places no other test has refined; the
        # lift recurses on halves of the factor list, so only the lifts of
        # the whole minimal polynomial (all places over 5 together) count
        gauss = nf.NumberField([1, 0, 1])
        lifts = []
        lift = pa.hensel_lift_factors

        def counting_lift(f, factors, p, N):
            if tuple(f) == gauss.min_poly:
                lifts.append(N)
            return lift(f, factors, p, N)

        monkeypatch.setattr(pa, "hensel_lift_factors", counting_lift)
        place = nf.finite_places(gauss, 5)[0]
        deep, deeper = gauss.element([5 ** 40]), gauss.element([5 ** 100])
        for _ in range(2):
            assert place.valuation(deep) == 40
            assert place.valuation(deeper) == 100
        assert lifts == [30, 60, 120]

    @pytest.mark.parametrize("coeffs, p", [([1, 0, 1], 5), ([-2, 0, 0, 1], 5),
                                           ([-2, 0, 1], 7), ([1, 1, 1], 7)])
    def test_refined_places_are_lifts_of_the_same_factors(self, coeffs, p):
        field = nf.create_field(coeffs)
        places = nf.finite_places(field, p)
        for N in (60, 120, 240):
            places = [v.refined() for v in places]
            modulus = p ** N
            assert [v.precision for v in places] == [N] * len(places)
            assert places == nf.finite_places(field, p, N)
            for v in places:
                assert tuple(c % p for c in v.lifted_factor) == v.factor_mod_p
            product = [1]
            for v in places:
                product = [c % modulus for c in pa.mul(product, list(v.lifted_factor))]
            assert product == [c % modulus for c in field.min_poly]

    def test_multiplicativity_random(self, gauss):
        random.seed(3)
        places = nf.archimedean_places(gauss) + nf.finite_places(gauss, 5)
        for _ in range(100):
            a = gauss.element([random.randint(-9, 9), random.randint(-9, 9)])
            b = gauss.element([random.randint(-9, 9), random.randint(-9, 9)])
            if a.is_zero() or b.is_zero():
                continue
            for v in places:
                lhs = v.abs_value(a * b)
                rhs = v.abs_value(a) * v.abs_value(b)
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
                    prod *= v.abs_value(a)
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
        # the rank is Dirichlet's, not the number of generators
        assert nf.s_unit_group(rationals, q_inf2, supplied=[[2], [4]]).rank == 1
        assert nf.s_unit_group(rationals, q_inf2, supplied=[]).rank == 1
        from sadiclab.errors import GeneratorInvariantViolated
        with pytest.raises(GeneratorInvariantViolated):
            nf.s_unit_group(rationals, q_inf2, supplied=[[3]])

    def test_supplied_generators_are_verified_exactly(self, rationals, q_inf, q_inf2,
                                                       root2_field, gauss):
        from sadiclab.errors import GeneratorInvariantViolated
        # |1 - 10^-14| lies within 1e-12 of 1 but is not 1
        with pytest.raises(GeneratorInvariantViolated, match=r"^product of \|u\|_v over S is "
                                                             r"99999999999999/10{14}, not 1"):
            nf.s_unit_group(rationals, q_inf, supplied=[[1 - Fraction(1, 10 ** 14)]])
        # 6 / 2^k is off by the factor 3 of a prime outside S = {inf, 2}
        nf.s_unit_group(rationals, q_inf2, supplied=[[Fraction(1, 4)], [-8]])
        with pytest.raises(GeneratorInvariantViolated, match="^product of .* is 3, not 1"):
            nf.s_unit_group(rationals, q_inf2, supplied=[[Fraction(6, 8)]])
        # 1 + sqrt2 has norm -1; 2 + i has norm 5, and each place over 5 takes 1/5 of it
        nf.s_unit_group(root2_field, nf.archimedean_places(root2_field), supplied=[[1, 1]])
        nf.s_unit_group(gauss, nf.archimedean_places(gauss) + nf.finite_places(gauss, 5),
                        supplied=[[2, 1], [2, -1]])
        with pytest.raises(GeneratorInvariantViolated, match="^product of .* is 5, not 1"):
            nf.s_unit_group(gauss, nf.archimedean_places(gauss), supplied=[[2, 1]])

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
                    a = v.abs_value(u)
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
