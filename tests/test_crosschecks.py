"""Dual-route checks: the vectorized backends against exact slow paths."""

import math
import random
from fractions import Fraction

import pytest

from sadiclab import dynamics as dy
from sadiclab import forms as fm
from sadiclab import lattice as lt
from sadiclab import numberfield as nf
from sadiclab import sadic as sd


def eye(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def brute_systole(lat, window):
    """Systole via the exact enumeration stream and the sadic norms."""
    best_c = best_s = None
    for _, image in lt.enumerate_points(lat, window):
        c = float(sd.content(image))
        s = float(sd.sup_norm(image))
        best_c = c if best_c is None else min(best_c, c)
        best_s = s if best_s is None else min(best_s, s)
    return best_c, best_s


def test_cloud_agrees_with_exact_norms_rationals(rationals, q_inf2):
    g = [[Fraction(1), Fraction(1, 2)], [Fraction(0), Fraction(1)]]
    lat = lt.SLattice(rationals, q_inf2, 2, [g, g])
    window = lt.HeightWindow(4, 2)
    rep = lt.systole(lat, window)
    want_c, want_s = brute_systole(lat, window)
    assert rep.min_content == pytest.approx(want_c, rel=1e-10)
    assert rep.min_supnorm == pytest.approx(want_s, rel=1e-10)


def test_cloud_agrees_with_exact_norms_quadratic(root2_field):
    places = nf.archimedean_places(root2_field)
    theta = root2_field.element([0, 1])
    g = [[root2_field.one(), theta], [root2_field.zero(), root2_field.one()]]
    lat = lt.SLattice(root2_field, places, 2, [g, g])
    window = lt.HeightWindow(2)
    rep = lt.systole(lat, window)
    want_c, want_s = brute_systole(lat, window)
    assert rep.min_content == pytest.approx(want_c, rel=1e-10)
    assert rep.min_supnorm == pytest.approx(want_s, rel=1e-10)


def test_cloud_agrees_with_exact_norms_gauss_finite(gauss):
    places = nf.archimedean_places(gauss) + nf.finite_places(gauss, 5)
    lat = lt.SLattice(gauss, places, 1, [eye(1)] * 3)
    window = lt.HeightWindow(3, 1)
    rep = lt.systole(lat, window)
    want_c, want_s = brute_systole(lat, window)
    assert rep.min_content == pytest.approx(want_c, rel=1e-10)
    assert rep.min_supnorm == pytest.approx(want_s, rel=1e-10)


def test_cubic_field_arithmetic_against_sympy():
    from sympy import Poly, Rational, Symbol, rem

    x = Symbol("x")
    field = nf.create_field([1, 1, 0, 1])            # x^3 + x + 1
    random.seed(23)
    modulus = Poly(x ** 3 + x + 1, x)
    for _ in range(20):
        a = [Fraction(random.randint(-9, 9), random.randint(1, 4))
             for _ in range(3)]
        b = [Fraction(random.randint(-9, 9), random.randint(1, 4))
             for _ in range(3)]
        ours = (field.element(a) * field.element(b)).coords
        pa = Poly(sum(Rational(str(c)) * x ** k for k, c in enumerate(a)), x)
        pb = Poly(sum(Rational(str(c)) * x ** k for k, c in enumerate(b)), x)
        want = rem(pa * pb, modulus, x)
        for k in range(3):
            c = want.coeff_monomial(x ** k) if k else want.coeff_monomial(1)
            assert ours[k] == Fraction(int(c.p), int(c.q))


def test_cubic_norm_consistency_at_finite_places():
    field = nf.create_field([1, 1, 0, 1])
    random.seed(24)
    for p in (3, 5, 11):
        places = nf.finite_places(field, p)
        assert sum(v.residue_degree for v in places) == 3
        for _ in range(25):
            a = field.element([random.randint(-15, 15) for _ in range(3)])
            if a.is_zero():
                continue
            n = nf.field_norm(a)
            prod = Fraction(1)
            for v in places:
                prod *= v.abs_value(a)
            vp = 0
            num, den = abs(n.numerator), n.denominator
            while num % p == 0:
                num //= p
                vp += 1
            assert den % p != 0
            assert prod == Fraction(1, p ** vp)


def test_rank_two_balancing(rationals):
    # units of Z[1/6]: rank two log-lattice inside the sum-zero plane of R^3
    places = nf.archimedean_places(rationals) + \
        nf.finite_places(rationals, 2) + nf.finite_places(rationals, 3)
    units = nf.s_unit_group(rationals, places)
    assert units.rank == 2
    kappa = sd.balancing_constant(units)
    assert math.isfinite(kappa) and kappa > 1
    random.seed(25)
    for _ in range(30):
        arch = (random.uniform(0.1, 30),)
        f2 = (Fraction(2) ** random.randint(-4, 4) * random.choice([1, 3, 5]),)
        f3 = (Fraction(3) ** random.randint(-4, 4) * random.choice([1, 2, 5]),)
        x = sd.SAdicVector(places, [arch, f2, f3], 1)
        target = sd.BalancingTarget.equal_split(places, sd.content(x))
        _, ratio = sd.unit_balance(x, target, units)
        assert float(ratio) <= kappa * (1 + 1e-9)


def test_three_dimensional_flow(rationals, q_inf):
    lat = lt.SLattice(rationals, q_inf, 3,
                      [[[math.exp(2), 0.0, 0.0],
                        [0.0, 1.0, 0.0],
                        [0.0, 0.0, math.exp(-2)]]])
    rep = lt.systole(lat, lt.HeightWindow(6))
    assert rep.min_supnorm == pytest.approx(math.exp(-2), rel=1e-12)
    assert rep.supnorm_witness == "(0, 0, 1)"


def test_three_dimensional_nilpotent_span(rationals, q_inf):
    # contract the full upper-triangular corner: span must stay nilpotent
    g = [[math.exp(4), 0.0, 0.0],
         [0.0, 1.0, 0.0],
         [0.0, 0.0, math.exp(-4)]]
    lat = lt.SLattice(rationals, q_inf, 3, [g])
    rep = lt.nilpotent_span_check(lat, 0.5, lt.HeightWindow(1))
    assert rep.is_nilpotent_span and rep.kept > 0
    # at a huge radius the whole trace-zero algebra enters: not nilpotent
    rep2 = lt.nilpotent_span_check(lat, 200.0, lt.HeightWindow(1))
    assert not rep2.is_nilpotent_span


def test_value_spectrum_matches_direct_product_of_places(rationals, q_inf2):
    form = fm.make_form(rationals, q_inf2,
                        [[(1, 1), (1, -1)], [(1, 1), (1, -1)]])
    spec = fm.value_spectrum(form, lt.HeightWindow(6, 1))
    # oracle: (x+y)(x-y) evaluated exactly, magnitudes multiplied by hand
    mags = set()
    for z, _ in lt.enumerate_points(
            lt.SLattice(rationals, q_inf2, 2, [eye(2), eye(2)]),
            lt.HeightWindow(6, 1)):
        a, b = z[0].coords[0], z[1].coords[0]
        val = (a + b) * (a - b)
        if val == 0:
            continue
        v2 = 0
        num, den = abs(val.numerator), val.denominator
        while num % 2 == 0:
            num //= 2
            v2 += 1
        while den % 2 == 0:
            den //= 2
            v2 -= 1
        mags.add(float(abs(val) * Fraction(2) ** -v2))
    assert len(mags) == len(spec.entries)
    got = sorted(spec.magnitudes())
    for a, b in zip(sorted(mags), got):
        assert a == pytest.approx(b, rel=1e-12)


def test_trajectory_matches_per_step_lattices(rationals, q_inf2):
    x = dy.locally_divergent_example(rationals, q_inf2)
    ray = dy.RaySchedule(q_inf2, [(1, -1), (1, -1)],
                         [[s * 0.7 for s in range(6)], [s % 3 for s in range(6)]])
    window = lt.HeightWindow(8, 2)
    rows = dy.trajectory(x, ray, window)
    for i, row in enumerate(rows):
        t = ray.torus_element(rationals, 2, i)
        moved = dy.act(t, x)
        direct = lt.systole(moved, window)
        assert direct.min_content == pytest.approx(row.min_content, rel=1e-9)
        assert direct.min_supnorm == pytest.approx(row.min_supnorm, rel=1e-9)
