import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import mp, mpf
from sympy import Poly, Symbol, resultant, symbols

from sadiclab import forms as fm
from sadiclab import lattice as lt
from sadiclab import linalg
from sadiclab import numberfield as nf
from sadiclab import polyarith as pa
from sadiclab.errors import (
    DegenerateBasis,
    DependentFactors,
    ShapeMismatch,
    TooFewWindows,
    WindowTooLarge,
)
from sadiclab.surd import QuadraticSurd

S2 = QuadraticSurd.sqrt(2)
PHI = QuadraticSurd(Fraction(1, 2), Fraction(1, 2), 5)


@pytest.fixture(scope="module")
def sqrt2_form(rationals, q_inf):
    return fm.make_form(rationals, q_inf, [[(1, 0), (S2, -1)]])


@pytest.fixture(scope="module")
def pell_form(rationals, q_inf):
    return fm.make_form(rationals, q_inf, [[(1, S2), (1, -S2)]])


class TestMakeForm:
    def test_product_of_coordinates(self, rationals, q_inf):
        form = fm.make_form(rationals, q_inf, [[(1, 0), (0, 1)]])
        assert form.expansions[0] == (Fraction(0), Fraction(1), Fraction(0))

    def test_difference_of_squares(self, rationals, q_inf):
        form = fm.make_form(rationals, q_inf, [[(1, -1), (1, 1)]])
        assert form.expansions[0] == (Fraction(1), Fraction(0), Fraction(-1))

    def test_dependent_factors_rejected(self, rationals, q_inf):
        # x * x * (phi x - y): three factors of rank two
        with pytest.raises(DependentFactors):
            fm.make_form(rationals, q_inf,
                         [[(1, 0), (1, 0), (PHI, -1)]])
        with pytest.raises(DependentFactors):
            fm.make_form(rationals, q_inf, [[(1, 0), (2, 0)]])

    def test_one_factor_list_per_place(self, root2_field):
        # one list for the two real places of Q(sqrt2) used to be accepted,
        # and `evaluate` then ended in IndexError
        r0, r1 = nf.archimedean_places(root2_field)
        rows = [(1, 0), (0, 1)]
        with pytest.raises(ShapeMismatch, match="1 per-place lists for 2 places"):
            fm.make_form(root2_field, [r0, r1], [rows])
        with pytest.raises(ShapeMismatch):
            fm.make_form(root2_field, [r0], [rows, rows])
        with pytest.raises(ShapeMismatch):
            fm.DecomposableForm.from_expansion(root2_field, [r0, r1], 2, 2,
                                               [(0, 1, 0)])

    def test_per_place_factor_counts_agree(self, root2_field):
        places = nf.archimedean_places(root2_field)
        with pytest.raises(DependentFactors, match="per-place factor counts differ"):
            fm.DecomposableForm(root2_field, places, 2,
                                [[(1, 0), (0, 1)], [(1, 0)]])

    def test_gauss_conjugate_pair(self, gauss):
        places = nf.archimedean_places(gauss)
        i = gauss.element([0, 1])
        form = fm.make_form(gauss, places, [[(gauss.one(), i),
                                             (gauss.one(), -i)]])
        val = fm.evaluate_form(form, [1, 1])[0]
        assert val == gauss.element([2])


class TestEvaluate:
    def test_pell_value(self, pell_form):
        assert fm.evaluate_form(pell_form, [1, 1])[0] == QuadraticSurd(-1)

    def test_surd_value(self, sqrt2_form):
        val = fm.evaluate_form(sqrt2_form, [5, 7])[0]
        assert float(val) == pytest.approx(0.3553390593273762, rel=1e-12)

    def test_inexact_coefficients_keep_50_digits(self, rationals, q_inf):
        # (sqrt2 x + y)(x/3 + y): a surd times an mpf is an mpf, not a float
        third = mpf(1) / 3
        form = fm.DecomposableForm(rationals, q_inf, 2,
                                   [[(S2, 1), (third, 1)]])
        x2, xy, y2 = form.expansions[0]
        assert y2 == 1
        with mp.workdps(60):
            for got, want in [(x2, mp.sqrt(2) * third),
                              (xy, mp.sqrt(2) + third)]:
                assert type(got) is type(want)
                assert abs(got - want) < mpf(10) ** -45

    def test_magnitudes_product(self, rationals, q_inf2, sqrt2_form):
        form = fm.make_form(rationals, q_inf2,
                            [[(1, 0), (0, 1)], [(1, 0), (0, 1)]])
        mags, total = form.magnitudes([2, 3])
        # |6|_inf * |6|_2 = 6 * 1/2
        assert abs(float(total) - 3.0) < 1e-30


class TestValueSpectrum:
    def test_pell_values_are_integers(self, pell_form):
        spec = fm.value_spectrum(pell_form, lt.HeightWindow(20))
        assert spec.min_nonzero == pytest.approx(1.0, abs=1e-30)
        for entry in spec.entries:
            assert abs(entry.magnitude - round(entry.magnitude)) < 1e-25

    def test_convergent_magnitudes_present(self, sqrt2_form):
        spec = fm.value_spectrum(sqrt2_form, lt.HeightWindow(100))
        mags = spec.magnitudes()
        # values at the continued-fraction convergents of sqrt2, frozen from
        # the exact surd evaluations x |x sqrt2 - y|
        expected = [
            0.41421356237309505,     # (1, 1): sqrt2 - 1
            0.34314575050761980,     # (2, 3): 6 - 4 sqrt2
            0.35533905932737622,     # (5, 7): 25 sqrt2 - 35
            0.35324701827431297,     # (12, 17): 204 - 144 sqrt2
            0.35360595577293604,     # (29, 41): 841 sqrt2 - 1189
        ]
        for want in expected:
            assert any(abs(m - want) < 1e-12 for m in mags)

    def test_scaled_pell_minimum(self, rationals, q_inf):
        # the det-one rescaling of the Pell rows scales values by 1/(2 sqrt2)
        s = QuadraticSurd(0, Fraction(1, 4), 2)       # sqrt2/4 = 1/(2 sqrt2)
        form = fm.DecomposableForm.from_expansion(
            rationals, q_inf, 2, 2, [(s, QuadraticSurd(0), -2 * s)])
        spec = fm.value_spectrum(form, lt.HeightWindow(50))
        assert spec.min_nonzero == pytest.approx(1 / (2 * math.sqrt(2)),
                                                 rel=1e-12)
        # the minimum sits on the |x^2 - 2y^2| = 1 class
        assert spec.entries[0].witness in ("(1, 0)", "(1, -1)")

    def test_capped_fast_scan_agrees_with_exact(self, sqrt2_form):
        full = fm.value_spectrum(sqrt2_form, lt.HeightWindow(40))
        capped = fm.value_spectrum(sqrt2_form, lt.HeightWindow(40),
                                   magnitude_cap=0.9)
        want = [m for m in full.magnitudes() if m <= 0.9]
        got = capped.magnitudes()
        assert len(want) == len(got)
        assert all(abs(a - b) < 1e-25 for a, b in zip(want, got))

    @pytest.mark.parametrize("rows", [[(1, 0), (1, -1)],
                                      [(1, 0, 0), (1, -1, 0), (0, 0, 1)]])
    def test_negative_cap_rejected_on_every_path(self, rationals, q_inf, rows):
        # the planar kernel's prefilter would keep no zero under a negative
        # cap while the other paths count them all
        form = fm.make_form(rationals, q_inf, [rows])
        with pytest.raises(ValueError, match="magnitude cap must be >= 0"):
            fm.value_spectrum(form, lt.HeightWindow(3), magnitude_cap=-1)
        zeros = [fm.value_spectrum(form, lt.HeightWindow(3),
                                   magnitude_cap=cap).zero_count
                 for cap in (0, None)]
        assert zeros[0] == zeros[1] > 0

    @pytest.mark.parametrize("cap, message", [
        (None, "window size 441 exceeds cap 50"),
        (1e9, "capped scan of 220 points exceeds cap 50")])
    def test_window_bound_holds_on_every_path(self, sqrt2_form, cap, message):
        # the capped planar scan visits the box x in [0, 10], y in [-10, 10]
        # (220 sign classes), the uncapped one enumerates all 21^2 points
        with pytest.raises(WindowTooLarge, match=f"^{message}$"):
            fm.value_spectrum(sqrt2_form, lt.HeightWindow(10, 0, 50), magnitude_cap=cap)

    @pytest.mark.parametrize("H, cap, visited", [(10, 1e9, 220), (1000, 0.9, 2341)])
    def test_capped_scan_is_bounded_by_the_points_it_visits(self, sqrt2_form, H, cap,
                                                            visited):
        # under cap 1e9 the scan visits the whole box at H = 10; under cap
        # 0.9 only the strips, 2,341 of the 4,004,001 points of the window
        # at H = 1000
        spec = fm.value_spectrum(sqrt2_form, lt.HeightWindow(H, 0, visited),
                                 magnitude_cap=cap)
        assert spec.entries
        with pytest.raises(WindowTooLarge, match=f"^capped scan of {visited} points"):
            fm.value_spectrum(sqrt2_form, lt.HeightWindow(H, 0, visited - 1),
                              magnitude_cap=cap)

    def test_scaled_integers_min_gap(self, rationals, q_inf):
        form = fm.make_form(rationals, q_inf, [[(3, 0), (0, 1)]])
        spec = fm.value_spectrum(form, lt.HeightWindow(10))
        assert spec.min_nonzero == pytest.approx(3.0, abs=1e-25)
        assert spec.min_gap == pytest.approx(3.0, abs=1e-25)


class TestDiscreteness:
    def test_sqrt2_form_accumulates(self, sqrt2_form):
        rep = fm.discreteness_report(sqrt2_form, [10, 100, 1000])
        assert rep.verdict == "accumulation-detected"
        assert rep.cluster.center == pytest.approx(1 / (2 * math.sqrt(2)),
                                                   abs=1e-3)

    def test_dependent_probe_is_discrete(self):
        probes = fm.builtin_probes()
        probe = probes["dependent-factors"]
        assert "hypothesis violated" in probe.label
        rep = fm.discreteness_report(probe, [10, 100, 1000])
        assert rep.verdict == "discrete-trend"
        assert rep.min_nonzero == pytest.approx(2 - (1 + math.sqrt(5)) / 2,
                                                abs=1e-9)

    def test_indecomposable_probe_is_discrete(self):
        probe = fm.builtin_probes()["indecomposable"]
        rep = fm.discreteness_report(probe, [10, 50, 200])
        assert rep.verdict == "discrete-trend"

    def test_pell_is_discrete(self, pell_form):
        rep = fm.discreteness_report(pell_form, [10, 100, 1000])
        assert rep.verdict == "discrete-trend"

    def test_reconstructing_form_that_accumulates_is_an_anomaly(self, sqrt2_form,
                                                               monkeypatch):
        # plant a reconstruction of x(sqrt2 x - y): the report must flag it
        monkeypatch.setattr(fm, "rationality_reconstruct", lambda form:
                            fm.ReconstructionResult("reconstructed", g=(1, -1, 0)))
        rep = fm.discreteness_report(sqrt2_form, [10, 100, 1000])
        assert rep.verdict == "accumulation-detected"
        assert rep.anomaly == ("form reconstructs to a rational multiple of "
                               "(1, -1, 0) yet shows accumulation")

    def test_capped_windows_may_visit_their_box(self, sqrt2_form):
        # 441 points at H = 10; the boxes at H = 100 and 1000 are larger
        rep = fm.discreteness_report(sqrt2_form, [10, 100, 1000], cap=441)
        assert rep == fm.discreteness_report(sqrt2_form, [10, 100, 1000])

    def test_needs_three_windows(self, pell_form):
        with pytest.raises(TooFewWindows):
            fm.discreteness_report(pell_form, [10, 100])

    @pytest.mark.parametrize("heights", [[10, 1000, 1000], [1000, 1000, 1000],
                                         [10, 10, 100, 1000]])
    def test_repeated_heights_are_too_few_windows(self, sqrt2_form, heights):
        # a repeated top height never gains values, which read as
        # discrete-trend for a form that accumulates at [10, 100, 1000]
        with pytest.raises(TooFewWindows) as info:
            fm.discreteness_report(sqrt2_form, heights)
        assert str(info.value) == f"need at least three distinct heights, got {heights}"

    def test_thm_consistency_pairing(self, sqrt2_form, pell_form):
        # reconstructed forms look discrete; irrational ones accumulate
        cases = [(pell_form, "reconstructed", "discrete-trend"),
                 (sqrt2_form, "no-rational-reconstruction",
                  "accumulation-detected")]
        for form, status, verdict in cases:
            assert fm.rationality_reconstruct(form).status == status
            rep = fm.discreteness_report(form, [10, 100, 1000])
            assert rep.verdict == verdict
            assert not rep.anomaly


class TestNormForm:
    def test_root2(self, root2_field):
        form = fm.norm_form(root2_field)
        assert form.expansions[0] == (Fraction(1), Fraction(0), Fraction(-2))

    def test_gauss(self, gauss):
        form = fm.norm_form(gauss)
        assert form.expansions[0] == (Fraction(1), Fraction(0), Fraction(1))

    def test_golden(self, golden_field):
        form = fm.norm_form(golden_field)
        assert form.expansions[0] == (Fraction(1), Fraction(1), Fraction(-1))

    def test_degenerate_basis_rejected(self, root2_field):
        with pytest.raises(DegenerateBasis):
            fm.norm_form(root2_field, [root2_field.one(),
                                       root2_field.element([3])])

    @pytest.mark.parametrize("coeffs", [[-2, 0, 1], [-1, -1, 1], [1, 0, 1]])
    def test_values_equal_field_norm(self, coeffs):
        field = nf.create_field(coeffs)
        form = fm.norm_form(field)
        random.seed(17)
        for _ in range(60):
            z = [random.randint(-40, 40), random.randint(-40, 40)]
            val = fm.evaluate_form(form, z)[0]
            assert Fraction(val) == nf.field_norm(field.element(z))

    def test_cubic_field(self):
        field = nf.create_field([1, 1, 0, 1])     # x^3 + x + 1
        form = fm.norm_form(field)
        random.seed(18)
        for _ in range(20):
            z = [random.randint(-10, 10) for _ in range(3)]
            val = fm.evaluate_form(form, z)[0]
            assert Fraction(val) == nf.field_norm(field.element(z))


def _sympy_norm_terms(min_poly, basis):
    """Nonzero terms of Res_t(min_poly, sum_k x_k mu_k(t)), by sympy.

    For monic min_poly this resultant is the norm of sum_k x_k mu_k; the
    basis rows are the integer power-basis coordinates of the mu_k.
    """
    t, xs = Symbol("t"), symbols(f"x0:{len(basis)}")
    lin = sum(x * sum(c * t ** j for j, c in enumerate(row))
              for x, row in zip(xs, basis))
    res = resultant(Poly(list(reversed(min_poly)), t),
                    Poly(lin, t, domain=f"ZZ[{','.join(map(str, xs))}]"))
    return {e: Fraction(int(c)) for e, c in Poly(res.as_expr(), *xs).terms()}


def _norm_terms(min_poly, basis):
    field = nf.create_field(min_poly)
    form = fm.norm_form(field, [field.element(row) for row in basis])
    return {e: c for e, c in zip(form.basis, form.expansions[0]) if c}


@st.composite
def _field_and_basis(draw):
    """A monic irreducible polynomial of degree 2..4 and a full-rank basis."""
    d = draw(st.integers(2, 4))
    min_poly = draw(st.lists(st.integers(-6, 6), min_size=d, max_size=d)) + [1]
    assume(pa.is_irreducible(min_poly))
    basis = draw(st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d),
                          min_size=d, max_size=d))
    assume(linalg.rank(basis) == d)
    return min_poly, basis


@settings(max_examples=40, deadline=None)
@given(_field_and_basis())
def test_norm_form_matches_sympy_resultant(case):
    assert _norm_terms(*case) == _sympy_norm_terms(*case)


@pytest.mark.parametrize("min_poly, basis", [
    ([-3, 1, 0, 0, 0, 1], None),                           # x^5 + x - 3
    ([-3, 1, 0, 0, 0, 1], [[1, 0, 0, 0, 0], [1, 1, 0, 0, 0], [0, 2, 1, 0, 0],
                           [0, 0, -1, 1, 0], [1, 0, 0, 1, 1]]),
    ([2, 0, 0, 0, 0, 0, 1], None),                         # x^6 + 2
    ([2, 0, 0, 0, 0, 0, 1], [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0],
                             [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0],
                             [1, 0, 0, 0, 1, 0], [0, -1, 0, 0, 0, 1]]),
])
def test_high_degree_norm_forms_match_sympy(min_poly, basis):
    d = len(min_poly) - 1
    basis = basis or [[int(i == j) for j in range(d)] for i in range(d)]
    assert _norm_terms(min_poly, basis) == _sympy_norm_terms(min_poly, basis)


def test_non_integral_norm_form_rejected(root2_field):
    # N(x1 (1 + sqrt2)/2 + x2 sqrt2) has the coefficient -1/4 on x1^2
    basis = [root2_field.element([Fraction(1, 2), Fraction(1, 2)]),
             root2_field.element([0, 1])]
    with pytest.raises(ArithmeticError, match="not integral"):
        fm.norm_form(root2_field, basis)


_SQUAREFREE = [d for d in range(2, 31) if all(d % (q * q) for q in range(2, 6))]


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from(_SQUAREFREE), half=st.booleans(),
       basis=st.lists(st.lists(st.integers(-6, 6), min_size=2, max_size=2),
                      min_size=2, max_size=2))
def test_embedding_factors_expand_to_the_norm_form(d, half, basis):
    # `_strip_factors` rests on it: a real quadratic norm form's factors
    # multiply out to its expansion, over Z[sqrt d] or Z[(1 + sqrt d) / 2]
    assume(linalg.rank(basis) == 2)
    field = nf.create_field([-(d - 1) // 4, -1, 1] if half and d % 4 == 1 else [-d, 0, 1])
    form = fm.norm_form(field, [field.element(row) for row in basis])
    assert form._expand(form.factors[0]) == form.expansions[0]
    assert form._strip_factors is not None


class TestGLInvariance:
    def test_capped_value_sets_match(self, rationals, q_inf, pell_form):
        gamma = [[1, 1], [0, 1]]
        composed = pell_form.compose(gamma)
        cap = 20.0
        a = fm.value_spectrum(composed, lt.HeightWindow(30), magnitude_cap=cap)
        b = fm.value_spectrum(pell_form, lt.HeightWindow(90), magnitude_cap=cap)
        for m in a.magnitudes():
            assert any(abs(m - x) < 1e-20 for x in b.magnitudes())
        c = fm.value_spectrum(pell_form, lt.HeightWindow(30), magnitude_cap=cap)
        d = fm.value_spectrum(composed, lt.HeightWindow(90), magnitude_cap=cap)
        for m in c.magnitudes():
            assert any(abs(m - x) < 1e-20 for x in d.magnitudes())


class TestReconstruction:
    def test_numeric_scalar_multiple(self, rationals, q_inf):
        with mp.workdps(50):
            pi = +mp.pi
            coeffs = (pi, mpf(0), -pi)
        form = fm.DecomposableForm.from_expansion(rationals, q_inf, 2, 2,
                                                  [coeffs])
        rep = fm.rationality_reconstruct(form)
        assert rep.status == "reconstructed"
        assert rep.g == (1, 0, -1)
        assert abs(rep.alpha[0] - math.pi) < 1e-12

    def test_exact_surd_multiple(self, rationals, q_inf):
        form = fm.make_form(rationals, q_inf, [[(S2, S2), (S2, -S2)]])
        rep = fm.rationality_reconstruct(form)
        assert rep.status == "reconstructed"
        assert rep.g == (1, 0, -1)
        assert rep.alpha[0] == Fraction(2)

    @pytest.mark.parametrize("second", [(0, 0, 0), (1, 0, -1)])
    def test_zero_form(self, rationals, q_inf2, monkeypatch, second):
        # a place whose coefficients are all 0 has no pivot to divide by
        form = fm.DecomposableForm.from_expansion(
            rationals, q_inf2, 2, 2, [(0, 0, 0), second])
        rep = fm.rationality_reconstruct(form)
        assert (rep.status, rep.evidence) == ("no-rational-reconstruction",
                                              "zero form")
        seen = []
        reconstruct = fm.rationality_reconstruct
        monkeypatch.setattr(fm, "rationality_reconstruct",
                            lambda *a, **k: seen.append(reconstruct(*a, **k))
                            or seen[-1])
        report = fm.discreteness_report(form, [4, 8, 16])
        assert seen == [rep]
        assert (report.verdict, report.anomaly) == ("discrete-trend", "")

    def test_sqrt2_ratio_rejected(self, sqrt2_form):
        rep = fm.rationality_reconstruct(sqrt2_form)
        assert rep.status == "no-rational-reconstruction"
        assert "pivot" in rep.evidence

    def test_round_trip_random(self, rationals, q_inf2):
        random.seed(19)
        with mp.workdps(50):
            for _ in range(25):
                g = [random.randint(-200, 200) for _ in range(3)]
                if not any(g):
                    continue
                g0 = math.gcd(*[abs(v) for v in g if v])
                g = [v // g0 for v in g]
                if next(v for v in g if v) < 0:
                    g = [-v for v in g]
                alphas = [mpf(10) ** random.uniform(-3, 3) *
                          random.choice([1, -1]) for _ in range(2)]
                form = fm.DecomposableForm.from_expansion(
                    rationals, q_inf2, 2, 2,
                    [tuple(a * c for c in g) for a in [alphas[0]]] +
                    [tuple(Fraction(g_i) * Fraction(7, 3) for g_i in g)])
                rep = fm.rationality_reconstruct(form)
                assert rep.status == "reconstructed"
                assert list(rep.g) == g

    def test_disagreeing_places_rejected(self, rationals, q_inf2):
        form = fm.DecomposableForm.from_expansion(
            rationals, q_inf2, 2, 2,
            [(Fraction(1), Fraction(0), Fraction(-1)),
             (Fraction(1), Fraction(0), Fraction(-2))])
        rep = fm.rationality_reconstruct(form)
        assert rep.status == "no-rational-reconstruction"
        assert "disagrees" in rep.evidence

    def test_float_coefficients_go_through_the_continued_fraction(
            self, rationals, q_inf, monkeypatch):
        # floats become 50-digit mpfs, so only the numeric path recognizes
        # the ratios 1 and -0.25 / 0.75 to the pivot; 0 is below 10^-45
        seen = []
        recognize = fm._cf_recognize
        monkeypatch.setattr(fm, "_cf_recognize",
                            lambda x: seen.append(x) or recognize(x))
        form = fm.DecomposableForm.from_expansion(rationals, q_inf, 2, 2,
                                                  [(0.75, 0.0, -0.25)])
        rep = fm.rationality_reconstruct(form)
        assert (rep.status, rep.g) == ("reconstructed", (3, 0, -1))
        assert rep.alpha[0] == 0.25
        with mp.workdps(50):
            assert seen == [1, mpf(-1) / 3]

    def test_exact_coefficients_decide_without_the_continued_fraction(
            self, rationals, q_inf, monkeypatch):
        monkeypatch.setattr(fm, "_cf_recognize", None)
        for coeffs, evidence in [
                # (1 + 10^-45 sqrt2) / 1 is irrational, though within 10^-44
                # of 1
                ((1, 1 + S2 / 10 ** 45, 0), "coefficient 0"),
                # |1 + 10^-60 sqrt2| > 1 decides the pivot, which 50 digits
                # cannot tell from 1
                ((1 + S2 / 10 ** 60, -1, 0), "coefficient 1"),
                ((-1, 1 + S2 / 10 ** 60, 0), "coefficient 0"),
                ((S2, -S2, 0), None)]:
            form = fm.DecomposableForm.from_expansion(rationals, q_inf, 2, 2,
                                                      [coeffs])
            rep = fm.rationality_reconstruct(form)
            if evidence is None:
                assert (rep.status, rep.g, rep.alpha) == (
                    "reconstructed", (1, -1, 0), [S2])
            else:
                assert rep.evidence == (f"{evidence} at r0 has no bounded-"
                                        "denominator ratio to the pivot")

    @pytest.mark.parametrize("x, want", [
        # 0.1 in float arithmetic: 1 / 0.1 is exactly 10.0, so the fraction
        # ends at [0; 10], whose 1/10 is 5.6e-18 from x's binary value
        (lambda: 0.1, None),
        (lambda: mpf(0.1), None),     # its denominators pass 10^6
        (lambda: mpf(-3) / 7, Fraction(-3, 7))])
    def test_continued_fraction_returns(self, x, want):
        with mp.workdps(50):
            assert fm._cf_recognize(x()) == want

    def test_complex_ratio_rejected(self, gauss):
        # x (i x - y) at c0: the ratio -1 / i = i of coefficient 1 to the
        # pivot i is not real, whether i is exact or an mpc
        c0 = nf.archimedean_places(gauss)[0]
        for i in (gauss.element([0, 1]), mp.mpc(0, 1)):
            form = fm.make_form(gauss, [c0], [[(1, 0), (i, -1)]])
            rep = fm.rationality_reconstruct(form)
            assert (rep.status, rep.evidence) == (
                "no-rational-reconstruction",
                "coefficient 1 at c0 has no bounded-denominator ratio to the "
                "pivot")


class TestLittlewood:
    def test_rational_alpha_hits_zero(self):
        res = fm.littlewood_scan(Fraction(1, 2), QuadraticSurd.sqrt(3), 10)
        assert res.minimum == 0.0
        assert res.argmin == 2

    def test_matches_direct_scan(self):
        def brute(a, b, N):
            best, bn = None, None
            with mp.workdps(60):
                av, bv = a.to_mpf(60), b.to_mpf(60)
                for k in range(1, N + 1):
                    da = abs(k * av - mp.nint(k * av))
                    db = abs(k * bv - mp.nint(k * bv))
                    v = k * da * db
                    if best is None or v < best:
                        best, bn = v, k
            return float(best), bn

        for a, b, N in [(QuadraticSurd.sqrt(2), QuadraticSurd.sqrt(2), 100),
                        (QuadraticSurd.sqrt(2), QuadraticSurd.sqrt(3), 400),
                        (PHI, QuadraticSurd.sqrt(2), 250)]:
            want = brute(a, b, N)
            got = fm.littlewood_scan(a, b, N)
            assert got.argmin == want[1]
            assert got.minimum == pytest.approx(want[0], rel=1e-12)

    def test_records_monotone_and_positive(self):
        res = fm.littlewood_scan(QuadraticSurd.sqrt(2),
                                 QuadraticSurd.sqrt(3), 20000)
        values = [v for _, v in res.records]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v > 0 for v in values)
        assert res.records[-1][0] == res.argmin

    def test_spec_defaults_a_to_zero(self):
        # {"b": 1, "d": 5} is 0 + 1*sqrt(5), as in a config
        got = fm.littlewood_scan({"b": 1, "d": 5}, Fraction(1, 3), 500)
        want = fm.littlewood_scan(QuadraticSurd.sqrt(5), Fraction(1, 3), 500)
        assert got == want

    def test_decimal_string_spec(self):
        res = fm.littlewood_scan("0.5", "0.25", 8)
        assert res.minimum == 0.0
        assert res.argmin == 2

    REALS = st.one_of(
        st.fractions(-3, 3, max_denominator=12),
        st.builds(QuadraticSurd, st.fractions(-3, 3, max_denominator=4),
                  st.fractions(-2, 2, max_denominator=4).filter(bool),
                  st.sampled_from([2, 3, 5, 7, 13])))

    @settings(max_examples=40, deadline=None)
    @given(REALS, REALS, st.integers(1, 600), st.integers(1, 100))
    def test_records_equal_exact_scan(self, alpha, beta, N, chunk):
        # every k evaluated at the scan's precision; chunks of 1..100
        # carry the prefix minimum across chunk boundaries
        dps = fm.DEFAULT_DPS + max(0, int(math.log10(max(N, 10))))
        a, b = fm.parse_real(alpha), fm.parse_real(beta)
        records = []
        with mp.workdps(dps):
            for k in range(1, N + 1):
                val = k * fm._dist_frac(a, k, dps) * fm._dist_frac(b, k, dps)
                if not records or val < records[-1][1]:
                    records.append((k, val))
                    if val == 0:
                        break
        got = fm.littlewood_scan(alpha, beta, N, chunk=chunk)
        assert got.records == [(k, float(v)) for k, v in records]
        assert (got.argmin, got.minimum) == (records[-1][0],
                                             float(records[-1][1]))
