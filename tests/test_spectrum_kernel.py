"""The value-spectrum kernels against exact evaluation.

`forms._planar_candidates` keeps the points of the strips (or the box)
that a float64 prefilter with a derived error bound cannot rule out, and
`forms._integer_refine` counts the exact integer zeros among them and
computes the other magnitudes from exact integers.  The references here
evaluate every point with `DecomposableForm.magnitudes`: the capped scan
in the box's order (x = 0..H, then y = -H..H; x = 0 only with y > 0), the
uncapped one in `lattice._window_rows`' height-shell order.  Patching
`_strips` to return None forces the box.
"""

import math
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from mpmath import mp

from sadiclab import forms as fm
from sadiclab import lattice as lt
from sadiclab import numberfield as nf
from sadiclab.errors import DependentFactors
from sadiclab.surd import QuadraticSurd

Q = nf.create_field([0, 1])
REAL = nf.archimedean_places(Q)
SMALL = st.fractions(min_value=-4, max_value=4, max_denominator=4)


def box(H):
    return [(x, y) for x in range(H + 1) for y in range(-H, H + 1)
            if x > 0 or y > 0]


def exact_scan(form, H):
    """(nonzero (magnitude, witness) pairs, zero points), scan order."""
    pairs, zeros = [], []
    with mp.workdps(fm.DEFAULT_DPS + 5):
        for x, y in box(H):
            z = [Fraction(x), Fraction(y)]
            total = form.magnitudes(z)[1]
            if total == 0:
                zeros.append((x, y))
            else:
                pairs.append((total, lt.witness_text(z)))
    return pairs, zeros


def entries(spec):
    return [(e.magnitude, e.witness, e.count) for e in spec.entries]


@st.composite
def planar_forms(draw):
    """Planar forms over Q at one or two copies of the real place."""
    per_place = []
    degree3 = draw(st.integers(0, 3)) == 0
    for _ in range(draw(st.integers(1, 2))):
        d = draw(st.sampled_from([None, 2, 3, 5]))

        def coeff():
            a = draw(SMALL)
            if d is None:
                return Q.element([a]) if draw(st.integers(0, 4)) == 0 else a
            if draw(st.booleans()):
                return QuadraticSurd(a)
            return QuadraticSurd(a, draw(SMALL.filter(bool)), d)

        if degree3:
            per_place.append(tuple(coeff() for _ in range(4)))
            continue
        rows = [[coeff(), coeff()] for _ in range(2)]
        if draw(st.booleans()):
            rows[0] = [1, 0]                  # f vanishes on the row x = 0
        if draw(st.booleans()):
            scale = coeff()                   # a scaled form alpha * g
            rows[1] = [scale * c for c in rows[1]]
        per_place.append(rows)
    places = REAL * len(per_place)
    if degree3:
        return fm.DecomposableForm.from_expansion(Q, places, 2, 3, per_place)
    try:
        return fm.make_form(Q, places, per_place)
    except DependentFactors:
        return draw(st.nothing())


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(planar_forms(), st.integers(1, 40), st.data())
def test_capped_scan_equals_exact_scan(form, H, data):
    pairs, zeros = exact_scan(form, H)
    mags = sorted(float(m) for m, _ in pairs)
    cap = data.draw(st.one_of(
        st.floats(0, 2 * mags[-1] if mags else 1.0),
        st.sampled_from(mags or [0.0]).flatmap(lambda v: st.sampled_from(
            [v, math.nextafter(v, math.inf), math.nextafter(v, -math.inf)]))))
    window = lt.HeightWindow(H)
    capped = fm.value_spectrum(form, window, magnitude_cap=cap)
    want = fm._spectrum_from_pairs(
        [(m, w) for m, w in pairs if m <= cap], window, len(zeros), 0)
    assert entries(capped) == entries(want)
    assert (capped.min_nonzero, capped.min_gap) == (want.min_nonzero,
                                                    want.min_gap)
    assert capped.zero_count == len(zeros)
    kernel_zeros = np.zeros(len(box(H)), dtype=bool)
    for A, B in fm._integer_values(form, np.array(box(H), dtype=np.int64)):
        kernel_zeros |= (A == 0) & (B == 0)
    assert [p for p, z in zip(box(H), kernel_zeros) if z] == zeros
    # the uncapped scan (height-shell order) restricted to the cap, judged
    # on the exact magnitude of each entry's witness
    full = fm.value_spectrum(form, window)
    kept = [e for e in full.entries if form.magnitudes(
        [Fraction(c) for c in e.witness[1:-1].split(", ")])[1] <= cap]
    assert [(e.magnitude, e.count) for e in kept] == \
        [(e.magnitude, e.count) for e in capped.entries]
    assert [e.witness for e in kept if e.count == 1] == \
        [e.witness for e in capped.entries if e.count == 1]
    assert full.zero_count == capped.zero_count


def test_dependent_factors_probe_matches_exact_scan():
    form = fm.builtin_probes()["dependent-factors"]
    pairs, zeros = exact_scan(form, 30)
    window = lt.HeightWindow(30)
    capped = fm.value_spectrum(form, window, magnitude_cap=5.0)
    want = fm._spectrum_from_pairs([(m, w) for m, w in pairs if m <= 5.0],
                                   window, len(zeros), 0)
    assert entries(capped) == entries(want) and capped.entries
    assert capped.zero_count == len(zeros) == 30


def test_cap_at_a_cancelling_value_keeps_its_witness():
    # Terms near 1e10 cancel to |f(116, 82)| = 1638.59236351...; its float
    # estimate 1638.59236908 exceeds the cap by more than a fixed slack of
    # cap * 1e-9 + 1e-6, so such a slack drops the point.
    s2 = QuadraticSurd.sqrt(2)
    form = fm.make_form(Q, REAL, [[(10 ** 6, -10 ** 6 * s2),
                                   (1, -(s2 + Fraction(1, 1000)))]])
    value = abs(fm.evaluate_form(form, [116, 82])[0])
    cap = math.nextafter(float(value), math.inf)
    spec = fm.value_spectrum(form, lt.HeightWindow(116), magnitude_cap=cap)
    assert len(spec.entries) == 7
    last = spec.entries[-1]
    assert last.witness == "(116, 82)"
    assert last.magnitude == float(value.to_mpf(50))
    assert last.magnitude == pytest.approx(1638.592363517295, rel=1e-15)


def test_candidates_are_zeros_plus_refined_points(monkeypatch):
    form = fm.make_form(Q, REAL, [[(1, 0), (QuadraticSurd.sqrt(2), -1)]])
    calls = []
    refined = fm._refined_magnitude
    monkeypatch.setattr(fm, "_refined_magnitude", lambda *args: (
        calls.append(args[1]) or refined(*args)))
    spec = fm.value_spectrum(form, lt.HeightWindow(100), magnitude_cap=0.9)
    assert spec.zero_count == 100                # the row x = 0
    assert spec.candidates == spec.zero_count + len(calls)
    assert 0 < len(calls) < 20


@pytest.mark.parametrize("factors, cap", [
    ([(1, 0), (QuadraticSurd.sqrt(2), -1)], 0.9),
    ([(1, 0), (QuadraticSurd.sqrt(2), -1)], None),
    ([(Q.element([1]), 0), (Fraction(1, 3), Q.element([Fraction(-1, 5)]))], 2.0),
    ([(1, 0, 0), (0, 1, 1), (1, QuadraticSurd.sqrt(3), 0)], 3.0),
    ([(1, 0, 0), (0, 1, 1), (1, QuadraticSurd.sqrt(3), 0)], None),
])
def test_integer_forms_make_no_magnitudes_call(monkeypatch, factors, cap):
    # a field-element coefficient is embedded with its own rounding, so the
    # points of such a form take `magnitudes` and never the direct formula
    form = fm.make_form(Q, REAL, [factors])
    if any(isinstance(c, nf.FieldElement) for row in factors for c in row):
        monkeypatch.setattr(fm, "_refined_magnitude", None)
    else:
        monkeypatch.setattr(fm.DecomposableForm, "magnitudes", None)
    spec = fm.value_spectrum(form, lt.HeightWindow(6), magnitude_cap=cap)
    assert spec.entries and spec.candidates > spec.zero_count


def box_scan(form, H, cap):
    with mock.patch.object(fm, "_strips", lambda *args: None):
        return fm.value_spectrum(form, lt.HeightWindow(H), magnitude_cap=cap)


def assert_same_spectrum(got, want):
    assert entries(got) == entries(want)
    assert (got.min_nonzero, got.min_gap, got.zero_count) == \
        (want.min_nonzero, want.min_gap, want.zero_count)
    assert got.candidates <= want.candidates


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(planar_forms(), st.integers(1, 60), st.data())
def test_strips_equal_box(form, H, data):
    full = fm.value_spectrum(form, lt.HeightWindow(H))
    mags = [e.magnitude for e in full.entries]
    cap = data.draw(st.one_of(
        st.floats(0, 2 * mags[-1] if mags else 1.0),
        st.sampled_from(mags or [0.0]).flatmap(lambda v: st.sampled_from(
            [v, math.nextafter(v, math.inf), math.nextafter(v, -math.inf)])),
        st.just(4 * (mags[-1] if mags else 1.0) + 1e6)))   # the box is smaller
    got = fm.value_spectrum(form, lt.HeightWindow(H), magnitude_cap=cap)
    assert_same_spectrum(got, box_scan(form, H, cap))


def test_strips_fall_back_to_the_box():
    s2 = QuadraticSurd.sqrt(2)
    form = fm.make_form(Q, REAL, [[(1, 0), (s2, -1)]])
    assert fm._strips(form, 100, 0.9) is not None
    for cap in (1e9, -1.0, math.inf, math.nan):
        assert fm._strips(form, 100, cap) is None
    # no factors whose product is the expansion: a probe, or the norm form
    # of a field that is not real quadratic
    assert fm._strips(fm.builtin_probes()["dependent-factors"], 30, 5.0) is None
    cubic = fm.norm_form(nf.create_field([-2, 0, 0, 1]))
    assert fm._strips(cubic, 5, 2.0) is None


def test_strips_of_a_real_quadratic_norm_form_equal_box():
    # the norm form's factors are the two embeddings of the basis
    form = fm.norm_form(nf.create_field([-1, -1, 1]))
    strips = fm._strips(form, 200, 1.5)
    assert sum(int(np.maximum(hi - lo + 1, 0).sum())
               for lo, hi in strips) < 200 * 402 // 50
    got = fm.value_spectrum(form, lt.HeightWindow(200), magnitude_cap=1.5)
    assert_same_spectrum(got, box_scan(form, 200, 1.5))
    assert [e.witness for e in got.entries] == ["(0, 1)"]   # the units


def test_two_copies_of_the_real_place_strips_equal_box():
    s2 = QuadraticSurd.sqrt(2)
    form = fm.make_form(Q, REAL * 2, [[(1, 0), (s2, -1)],
                                      [(1, 1), (1 - s2, 2)]])
    for cap in (0.0, 0.5, 3.0, 40.0):
        got = fm.value_spectrum(form, lt.HeightWindow(150), magnitude_cap=cap)
        assert_same_spectrum(got, box_scan(form, 150, cap))


@pytest.mark.parametrize("min_poly, norm", [
    ([-2, 0, 1], lambda a, b: abs(a * a - 2 * b * b)),   # two real places
    ([1, 0, 1], lambda a, b: a * a + b * b),             # one complex place
])
def test_spectrum_over_a_quadratic_field_is_the_norm(min_poly, norm):
    # f = x1 at every archimedean place of K: |f| over the places is
    # |N(x1)|, and the window's points are the pairs (x1, x2) of elements
    # a + b theta with a, b in [-H, H], one per sign class
    K = nf.create_field(min_poly)
    places = nf.archimedean_places(K)
    form = fm.make_form(K, places, [[(1, 0)]] * len(places))
    H, side = 2, 5
    spec = fm.value_spectrum(form, lt.HeightWindow(H))
    norms = Counter(norm(a, b) for a in range(-H, H + 1)
                    for b in range(-H, H + 1))
    assert [(e.magnitude, e.count) for e in spec.entries] == [
        (float(v), norms[v] * side ** 2 // 2) for v in sorted(norms) if v]
    assert spec.zero_count == (side ** 2 - 1) // 2
    assert spec.candidates == (side ** 4 - 1) // 2


def window_scan(form, H):
    """(magnitude, witness) pairs and zero count of the per-point loop."""
    rows, _ = lt._window_rows(form.n, [], lt.HeightWindow(H))
    pairs, zeros = [], 0
    for row in rows.tolist():
        total = form.magnitudes([Fraction(c) for c in row])[1]
        if total == 0:
            zeros += 1
        else:
            pairs.append((total, lt.witness_text(row)))
    return pairs, zeros


@st.composite
def integer_forms(draw):
    """Forms over Q with n = 2 or 3 at one or two copies of the real place,
    with field-element and surd coefficients; some vanish on a line."""
    n = draw(st.integers(2, 3))
    m = draw(st.integers(1, n))
    per_place = []
    for _ in range(draw(st.integers(1, 2))):
        d = draw(st.sampled_from([None, 2, 5]))

        def coeff():
            a = draw(SMALL)
            if d is None:
                return Q.element([a]) if draw(st.booleans()) else a
            return QuadraticSurd(a, draw(SMALL), d)

        rows = [[coeff() for _ in range(n)] for _ in range(m)]
        if draw(st.booleans()):
            rows[0] = [1] + [0] * (n - 1)     # f vanishes on x1 = 0
        per_place.append(rows)
    try:
        return fm.make_form(Q, REAL * len(per_place), per_place)
    except DependentFactors:
        return draw(st.nothing())


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(integer_forms(), st.integers(1, 5))
def test_uncapped_refine_equals_per_point_magnitudes(form, H):
    pairs, zeros = window_scan(form, H)
    rows, _ = lt._window_rows(form.n, [], lt.HeightWindow(H))
    got, got_zeros, _ = fm._integer_refine(form, rows)
    assert got_zeros == zeros
    assert [w for _, w in got] == [w for _, w in pairs]
    assert all(a == b for (a, _), (b, _) in zip(got, pairs))   # mpf bits
    spec = fm.value_spectrum(form, lt.HeightWindow(H))
    want = fm._spectrum_from_pairs(pairs, lt.HeightWindow(H), zeros, 0)
    assert entries(spec) == entries(want) and spec.zero_count == zeros


def test_refine_past_the_direct_bound_equals_per_point_magnitudes():
    # f = K x + y / 3 with K of 200 bits: A = 3K at (1, 0) has more bits
    # than the 55-digit mantissa, and mpf(3K) / 3 rounds twice where the
    # reduced value K rounds once
    K = 1117337328787321713974493634819752073672934530097637441045133
    form = fm.make_form(Q, REAL, [[(K, Fraction(1, 3))]])
    rows, _ = lt._window_rows(2, [], lt.HeightWindow(3))
    got, zeros, _ = fm._integer_refine(form, rows)
    assert (got, zeros) == window_scan(form, 3)
    with mp.workdps(fm.DEFAULT_DPS + 5):
        direct = fm._refined_magnitude(form, [(3 * K, 0)], [mp.mpf(1)])
    assert direct != dict((w, m) for m, w in got)["(1, 0)"]


def test_field_element_coefficients_keep_their_own_rounding():
    # At 60 digits 865603/1048579 rounds onto a tie of the 55-digit grid,
    # so a field element, embedded at 60 digits and rounded again, and the
    # same rational, rounded once, differ in the last bit at (1, 0)
    c = Fraction(865603, 1048579)
    rows, _ = lt._window_rows(2, [], lt.HeightWindow(1))
    got = []
    for coeff in (Q.element([c]), c):
        form = fm.make_form(Q, REAL, [[(coeff, 1)]])
        pairs = fm._integer_refine(form, rows)[0]
        assert pairs == window_scan(form, 1)[0]
        got.append(dict((w, m) for m, w in pairs)["(1, 0)"])
    assert got[0] != got[1]


def test_mixed_radicands_raise_like_exact_evaluation():
    form = fm.DecomposableForm.from_expansion(
        Q, REAL, 2, 2, [(QuadraticSurd.sqrt(2), QuadraticSurd.sqrt(3), 0)])
    with pytest.raises(ValueError, match="incompatible radicands"):
        form.magnitudes([Fraction(1), Fraction(1)])
    with pytest.raises(ValueError, match="incompatible radicands 2 and 3"):
        fm.value_spectrum(form, lt.HeightWindow(5), magnitude_cap=1.0)


def test_integer_expansion_of_mixed_scalar_types():
    coeffs = (Q.element([Fraction(1, 6)]), QuadraticSurd(Fraction(1, 2), 3, 7),
              Fraction(-2, 3))
    form = fm.DecomposableForm.from_expansion(Q, REAL, 2, 2, [coeffs])
    assert form._integer_expansions == [((1, 3, -4), (0, 18, 0), 6, 7)]


# `_integer_values` works in int64 when the bound W T of `_value_bound`
# is below 2^63, in object dtype otherwise; both against Python integers


def python_values(form, points):
    """Per place (A, B) as lists of Python ints, term by term."""
    out = []
    for P, Qs, _, _ in form._integer_expansions:
        monos = [[math.prod(z ** e for z, e in zip(row, expo))
                  for expo in form.basis] for row in points.tolist()]
        out.append(tuple([sum(c * x for c, x in zip(C, row)) for row in monos]
                         for C in (P, Qs)))
    return out


def assert_values(form, points):
    W, T = fm._value_bound(form, points)
    got = fm._integer_values(form, points)
    assert [(A.tolist(), B.tolist()) for A, B in got] == \
        python_values(form, points)
    int64 = max(W, T, W * T) < 2 ** 63
    assert all(A.dtype == B.dtype == (np.int64 if int64 else object)
               for A, B in got)
    return int64


BIG = st.integers(0, 66).flatmap(lambda k: st.integers(-2 ** k, 2 ** k))


@st.composite
def wide_forms(draw):
    """`_integer_ok` forms by expansion, n = 2 or 3, m = 1..3, with
    rational or surd coefficients of up to 66 bits over small D."""
    n, m = draw(st.integers(2, 3)), draw(st.integers(1, 3))
    per_place = []
    for _ in range(draw(st.integers(1, 2))):
        d = draw(st.sampled_from([None, 2, 5]))

        def coeff():
            a = Fraction(draw(BIG), draw(st.integers(1, 6)))
            if d is None:
                return a
            return QuadraticSurd(a, Fraction(draw(BIG), draw(st.integers(1, 6))),
                                 d)

        per_place.append(tuple(coeff()
                               for _ in range(len(fm.monomial_basis(n, m)))))
    return fm.DecomposableForm.from_expansion(Q, REAL * len(per_place), n, m,
                                              per_place)


@settings(max_examples=200, deadline=None)
@given(wide_forms(), st.data())
def test_integer_values_equal_python_integers(form, data):
    top = data.draw(st.integers(0, 2 ** data.draw(st.integers(0, 24))))
    rows = data.draw(st.lists(st.tuples(*[st.integers(-top, top)] * form.n),
                              min_size=1, max_size=8))
    assert_values(form, np.array(rows, dtype=np.int64).reshape(-1, form.n))


@pytest.mark.parametrize("c, x, int64", [
    ((2 ** 63 - 1) // 49, 7, True),      # 2^63 - 1 = 7^2 73 127 337 92737 649657
    (2 ** 57, 8, False),
    (2 ** 63 - 1, 1, True),
    (2 ** 63, 1, False)])
def test_integer_values_at_the_int64_edge(c, x, int64):
    # f = c x^m, m = 2 (m = 1 when x = 1), at rows with max |z| = x:
    # W T = c x^m is 2^63 - 1 or 2^63, and f(x, 0) reaches it
    m = 2 if x > 1 else 1
    form = fm.DecomposableForm.from_expansion(Q, REAL, 2, m,
                                              [(c,) + (0,) * m])
    rows = np.array([(x, 0), (-x, 1), (x, -x), (1, x)], dtype=np.int64)
    assert fm._value_bound(form, rows) == (c, x ** m)
    assert assert_values(form, rows) is int64
    assert fm._integer_values(form, rows)[0][0][0] == c * x ** m
