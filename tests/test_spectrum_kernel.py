"""The capped planar value-spectrum scan against exact evaluation.

`forms._value_spectrum_fast` keeps the points that a float64 prefilter
with a derived error bound cannot rule out, counts the exact integer
zeros among them and refines the rest with `DecomposableForm.magnitudes`.
The reference here evaluates every point of the box exactly, in the
scan's order (x = 0..H, then y = -H..H; x = 0 only with y > 0).
"""

import math
from fractions import Fraction

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
                pairs.append((total, fm._format_z(z)))
    return pairs, zeros


def entries(spec):
    return [(e.magnitude, e.witness, e.count, e.exact) for e in spec.entries]


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
        [(m, w) for m, w in pairs if m <= cap], window, cap)
    assert entries(capped) == entries(want)
    assert (capped.min_nonzero, capped.min_gap) == (want.min_nonzero,
                                                    want.min_gap)
    assert capped.zero_count == len(zeros)
    xs, ys = np.array(box(H), dtype=np.int64).T
    kernel_zeros = fm._exact_zeros(form, xs, ys)
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
                                   window, 5.0)
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


def test_candidates_are_zeros_plus_exact_refinements(monkeypatch):
    form = fm.make_form(Q, REAL, [[(1, 0), (QuadraticSurd.sqrt(2), -1)]])
    calls = []
    magnitudes = form.magnitudes
    monkeypatch.setattr(form, "magnitudes", lambda z, dps=None: (
        calls.append(z) or magnitudes(z, dps)))
    spec = fm.value_spectrum(form, lt.HeightWindow(100), magnitude_cap=0.9)
    assert spec.zero_count == 100                # the row x = 0
    assert spec.candidates == spec.zero_count + len(calls)
    assert 0 < len(calls) < 20


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
