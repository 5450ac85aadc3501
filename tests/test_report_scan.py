"""`discreteness_report`'s scans against the pipeline they replace.

The report caps every window's spectrum at 2.5 m, m the least nonzero
magnitude at the first height.  The reference pipeline (`reference`)
takes m from the uncapped scan of the first window and makes five
separate `value_spectrum` calls: that window, one capped scan per height
and the caller's own capped spectrum at the largest height.  With its
mpf sort as the reference order, it is the pipeline that the report's
scans replaced.  For a planar form with exact coefficients the report
makes one scan of the largest height, at 2.5 U (U from
`_least_value_bound`) or the caller's cap, and reads m, every window and
the caller's spectrum off it; `two_scan_reference` first scans the
first height for m instead.  All feed `_report_from_spectra`, so the
reports and every spectrum must agree in all but the `candidates`
telemetry.
"""

import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from mpmath import mp, mpf

from sadiclab import forms as fm
from sadiclab import lattice as lt
from sadiclab import numberfield as nf
from sadiclab.errors import DependentFactors, TooFewWindows, WindowTooLarge
from sadiclab.surd import QuadraticSurd

Q = nf.create_field([0, 1])
REAL = nf.archimedean_places(Q)
REAL_2 = REAL + nf.finite_places(Q, 2)
SQUAREFREE = [2, 3, 5, 6, 7, 10, 11, 13]
SMALL = st.fractions(min_value=-4, max_value=4, max_denominator=4)
SLOW = settings(max_examples=100, deadline=None,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.filter_too_much])


def sqrt2_form():
    return fm.make_form(Q, REAL, [[(1, 0), (QuadraticSurd.sqrt(2), -1)]])


def reference(form, heights, E=0, cap=lt.WINDOW_CAP, spectrum_cap=None):
    """(report, spectra, spectrum) of the five-call pipeline, mpf-sorted."""
    with pytest.MonkeyPatch.context() as mpatch:
        mpatch.setattr(fm, "_order_keys", list)      # sort by the mpfs
        heights = sorted(heights)
        spectrum = None
        if spectrum_cap is not None:
            spectrum = fm.value_spectrum(
                form, lt.HeightWindow(heights[-1], E, cap),
                magnitude_cap=spectrum_cap)
        first = fm.value_spectrum(form, lt.HeightWindow(heights[0], E, cap))
        mag_cap = 2.5 * first.min_nonzero if first.entries else 1.0
        spectra = [fm.value_spectrum(
            form, lt.HeightWindow(h, E, max(cap, h * (2 * h + 2))),
            magnitude_cap=mag_cap) for h in heights]
        report = fm._report_from_spectra(form, spectra, mag_cap, None)
    return report, spectra, spectrum


def new(form, heights, **kwargs):
    """(report, spectra) of `discreteness_report`, its spectra recorded."""
    seen = []
    build = fm._report_from_spectra

    def recording(form, spectra, mag_cap, spectrum):
        seen.append(spectra)
        return build(form, spectra, mag_cap, spectrum)

    with pytest.MonkeyPatch.context() as mpatch:
        mpatch.setattr(fm, "_report_from_spectra", recording)
        report = fm.discreteness_report(form, heights, **kwargs)
    return report, seen[0]


def same_spectrum(got, want):
    key = lambda s: ([(e.magnitude, e.witness, e.count) for e in s.entries],
                     s.zero_count, s.min_gap, s.min_nonzero,
                     (s.window.H, s.window.E, s.window.cap))
    assert key(got) == key(want)


def assert_same(form, heights, E=0, cap=lt.WINDOW_CAP, spectrum_cap=None):
    want, want_spectra, want_spectrum = reference(form, heights, E, cap,
                                                  spectrum_cap)
    got, got_spectra = new(form, heights, E=E, cap=cap,
                           spectrum_cap=spectrum_cap)
    assert dataclasses.replace(got, spectrum=None) == want
    assert len(got_spectra) == len(want_spectra)
    for a, b in zip(got_spectra, want_spectra):
        same_spectrum(a, b)
    if spectrum_cap is None:
        assert got.spectrum is None
    else:
        same_spectrum(got.spectrum, want_spectrum)


@st.composite
def forms(draw):
    """x(sqrt(d) x - y), x(a x - b y), or a planar make_form with surds."""
    kind = draw(st.sampled_from(["sqrt", "rational", "surds"]))
    if kind == "sqrt":
        d = draw(st.sampled_from(SQUAREFREE))
        return fm.make_form(Q, REAL, [[(1, 0), (QuadraticSurd(0, 1, d), -1)]])
    if kind == "rational":
        a = draw(st.fractions(min_value=1, max_value=9, max_denominator=9))
        b = draw(st.fractions(min_value=1, max_value=9, max_denominator=9))
        return fm.make_form(Q, REAL, [[(1, 0), (a, -b)]])
    per_place = []
    for _ in range(draw(st.integers(1, 2))):
        d = draw(st.sampled_from([2, 3, 5]))

        def coeff():
            if draw(st.booleans()):
                return QuadraticSurd(draw(SMALL))
            return QuadraticSurd(draw(SMALL), draw(SMALL.filter(bool)), d)

        per_place.append([[coeff(), coeff()] for _ in range(2)])
    try:
        return fm.make_form(Q, REAL * len(per_place), per_place)
    except DependentFactors:
        return draw(st.nothing())


# distinct heights half the time; else [h, h, h] or [a, a, b], which the
# report rejects
HEIGHTS = st.one_of(
    st.lists(st.integers(1, 20), min_size=3, max_size=4, unique=True),
    st.one_of(st.integers(1, 20).map(lambda h: [h, h, h]),
              st.tuples(st.integers(1, 12), st.integers(1, 20)).map(
                  lambda t: [t[0], t[0], t[1]])))


@SLOW
@given(forms(), HEIGHTS, st.data())
def test_report_and_spectrum_equal_the_five_call_pipeline(form, heights, data):
    heights = sorted(heights)
    if len(set(heights)) < len(heights):
        # a repeated height never gains values, so it gets no report
        with pytest.raises(TooFewWindows):
            fm.discreteness_report(form, heights, spectrum_cap=1.0)
        return
    first = fm.value_spectrum(form, lt.HeightWindow(heights[0]))
    mag_cap = 2.5 * first.min_nonzero if first.entries else 1.0
    attained = fm.value_spectrum(form, lt.HeightWindow(heights[-1]),
                                 magnitude_cap=3 * mag_cap).magnitudes()
    spectrum_cap = data.draw(st.one_of(
        st.none(),
        st.just(mag_cap),
        st.floats(0, 1).map(lambda t: t * mag_cap),
        st.floats(1, 4).map(lambda t: t * mag_cap),
        st.sampled_from(attained or [0.0]).flatmap(lambda v: st.sampled_from(
            [v, math.nextafter(v, math.inf), math.nextafter(v, -math.inf)]))))
    assert_same(form, heights, spectrum_cap=spectrum_cap)


@pytest.mark.parametrize("name, heights", [("dependent-factors", [10, 30, 60]),
                                           ("indecomposable", [10, 50, 200])])
@pytest.mark.parametrize("spectrum_cap", [None, 0.5, 5.0])
def test_builtin_probes_equal_the_five_call_pipeline(name, heights,
                                                     spectrum_cap):
    assert_same(fm.builtin_probes()[name], heights, spectrum_cap=spectrum_cap)


def recorded_caps(monkeypatch):
    """The caps of the `_scan` calls made from here on, in order."""
    caps, scan = [], fm._scan
    monkeypatch.setattr(fm, "_scan", lambda form, window, cap, *plan:
                        caps.append(cap) or scan(form, window, cap, *plan))
    return caps


def test_workload_heights_equal_the_five_call_pipeline(monkeypatch):
    # one scan of the largest height at 2.5 U finds m: U bounds the least
    # value, which that scan keeps
    caps = recorded_caps(monkeypatch)
    fm.discreteness_report(sqrt2_form(), [10, 100, 1000])
    bound = fm._least_value_bound(sqrt2_form(), 10)
    assert caps == [2.5 * bound]
    assert fm.value_spectrum(sqrt2_form(), lt.HeightWindow(10)).min_nonzero \
        <= bound
    assert_same(sqrt2_form(), [10, 100, 1000], spectrum_cap=0.9)
    assert_same(fm.make_form(Q, REAL, [[(1, 0), (Fraction(9), Fraction(-7, 9))]]),
                [10, 100, 1000], spectrum_cap=0.9)


def two_scan_reference(form, heights, spectrum_cap):
    """The report of a planar `_integer_ok` form from two scans: the first
    height's at 2.5 U for m (the uncapped scan of the first window when no
    point is proven nonzero or that scan keeps no value), then the largest
    height's at max(2.5 m, spectrum_cap), off which every window is read."""
    heights = sorted(heights)
    windows = {h: lt.HeightWindow(h, 0, max(lt.WINDOW_CAP, h * (2 * h + 2)))
               for h in heights}
    least = None
    bound = fm._least_value_bound(form, heights[0])
    if bound is not None:
        pairs = fm._scan(form, windows[heights[0]], 2.5 * bound)[0]
        least = min((mag for mag, _ in pairs), default=None)
    if least is None:
        pairs = fm._scan(form, lt.HeightWindow(heights[0]), None)[0]
        least = min((mag for mag, _ in pairs), default=None)
    mag_cap = 1.0 if least is None else 2.5 * float(least)
    top_cap = mag_cap if spectrum_cap is None else max(mag_cap, spectrum_cap)
    scan = fm._scan(form, windows[heights[-1]], top_cap)
    spectra = [fm._read_spectrum(scan, windows[h], mag_cap) for h in heights]
    spectrum = None if spectrum_cap is None else fm._read_spectrum(
        scan, lt.HeightWindow(heights[-1]), spectrum_cap)
    return fm._report_from_spectra(form, spectra, mag_cap, spectrum), spectra


@st.composite
def one_scan_forms(draw):
    """A rational control x(a x - b y), x(sqrt(d) x - y), x(x - sqrt(d) y),
    or a random pair of factors with rational or surd coefficients."""
    kind = draw(st.sampled_from(["rational", "sqrt-x", "sqrt-y", "pair"]))
    root = QuadraticSurd.sqrt(draw(st.sampled_from(SQUAREFREE)))
    if kind == "rational":
        a, b = (draw(st.fractions(min_value=1, max_value=9, max_denominator=9))
                for _ in range(2))
        rows = [(1, 0), (a, -b)]
    elif kind == "sqrt-x":
        rows = [(1, 0), (root, -1)]
    elif kind == "sqrt-y":
        rows = [(1, 0), (1, -root)]
    else:
        def coeff():
            if draw(st.booleans()):
                return QuadraticSurd(draw(SMALL))
            return draw(SMALL.filter(bool)) * root + draw(SMALL)

        rows = [(coeff(), coeff()) for _ in range(2)]
    try:
        return fm.make_form(Q, REAL, [rows])
    except DependentFactors:
        return draw(st.nothing())


@SLOW
@given(one_scan_forms(), st.lists(st.integers(1, 40), min_size=3, max_size=3,
                                  unique=True), st.data())
def test_one_scan_report_equals_the_two_scan_reference(form, heights, data):
    first = fm.value_spectrum(form, lt.HeightWindow(min(heights)))
    spectrum_cap = data.draw(st.one_of(
        st.sampled_from([None, 0.9]),
        st.floats(0.99, 1.01).map(lambda t: t * 2.5 * first.min_nonzero)))
    want, want_spectra = two_scan_reference(form, heights, spectrum_cap)
    got, got_spectra = new(form, heights, spectrum_cap=spectrum_cap)
    assert (got.verdict, got.min_nonzero, got.cluster, got.anomaly) == \
        (want.verdict, want.min_nonzero, want.cluster, want.anomaly)
    for a, b in zip(got_spectra, want_spectra):
        same_spectrum(a, b)
    if spectrum_cap is None:
        assert got.spectrum is want.spectrum is None
    else:
        same_spectrum(got.spectrum, want.spectrum)


# ---------------------------------------------------------------------------
# Forms that keep the uncapped first window


@pytest.mark.parametrize("spectrum_cap", [None, 2.0])
def test_three_variable_form_keeps_the_uncapped_first_window(spectrum_cap,
                                                             monkeypatch):
    form = fm.make_form(Q, REAL, [[(1, 0, 0), (0, 1, 0),
                                   (1, QuadraticSurd.sqrt(2), -1)]])
    assert_same(form, [1, 2, 3], spectrum_cap=spectrum_cap)
    least = fm.value_spectrum(form, lt.HeightWindow(1)).min_nonzero
    caps = recorded_caps(monkeypatch)
    fm.discreteness_report(form, [1, 2, 3], spectrum_cap=spectrum_cap)
    assert caps == [None, max(2.5 * least, spectrum_cap or 0)]


def test_inexact_form_keeps_the_uncapped_first_window():
    # an mpf coefficient: not `_integer_ok`, refined point by point
    with mp.workdps(fm.DEFAULT_DPS):
        form = fm.make_form(Q, REAL, [[(1, 0), (+mp.pi, -1)]])
    assert not fm._integer_ok(form)
    assert_same(form, [2, 3, 4], spectrum_cap=0.5)


def test_zero_form_has_no_bound_and_no_least_value(monkeypatch):
    # every box point is 0, so none is proven nonzero: the uncapped scan
    # finds no value, and every window is capped at 1
    zero = fm.DecomposableForm.from_expansion(Q, REAL, 2, 2, [(0, 0, 0)])
    assert fm._least_value_bound(zero, 5) is None
    caps = recorded_caps(monkeypatch)
    report = fm.discreteness_report(zero, [5, 6, 7])
    assert caps == [None, 1.0] and report.min_nonzero == math.inf


@pytest.mark.parametrize("bound", [1e-300, 0.3])
def test_a_bound_below_the_least_value_costs_a_scan_not_a_value(monkeypatch,
                                                                bound):
    # x(sqrt2 x - y) has least value m = 0.343 at H = 10.  Under the cap 0.9
    # the one scan keeps m and 2.5 m = 0.858.  Without it, the scan at
    # 2.5e-300 keeps no value, so the uncapped scan of the first window
    # finds m; the scan at 0.75 keeps m but is below 2.5 m: either way the
    # largest height is scanned again at 2.5 m
    least = fm.value_spectrum(sqrt2_form(), lt.HeightWindow(10)).min_nonzero
    monkeypatch.setattr(fm, "_least_value_bound", lambda form, H: bound)
    uncapped = [None] if bound < least / 2.5 else []
    for spectrum_cap, scans in [(0.9, [0.9]),
                                (None, [2.5 * bound, *uncapped, 2.5 * least])]:
        assert_same(sqrt2_form(), [10, 20, 40], spectrum_cap=spectrum_cap)
        with monkeypatch.context() as patch:
            caps = recorded_caps(patch)
            fm.discreteness_report(sqrt2_form(), [10, 20, 40],
                                   spectrum_cap=spectrum_cap)
        assert caps == scans


@pytest.mark.parametrize("E", [0, 1, 2])
@pytest.mark.parametrize("spectrum_cap", [None, 0.5, 3.0])
def test_finite_place_form_equals_the_five_call_pipeline(E, spectrum_cap):
    # a finite place: every window is enumerated in height-shell order,
    # with its denominator exponents, and refined point by point
    form = fm.make_form(Q, REAL_2, [[(1, 0), (3, -1)]] * 2)
    assert_same(form, [2, 4, 6], E=E, spectrum_cap=spectrum_cap)


# ---------------------------------------------------------------------------
# The bound U


@st.composite
def planar_forms(draw):
    """Planar `_integer_ok` forms at one or two copies of the real place,
    by factors or (degree 3) by expansion, rational or surd coefficients."""
    per_place = []
    degree3 = draw(st.integers(0, 3)) == 0
    for _ in range(draw(st.integers(1, 2))):
        d = draw(st.sampled_from([None, 2, 3, 5]))

        def coeff():
            if d is None or draw(st.booleans()):
                return draw(SMALL)
            return QuadraticSurd(draw(SMALL), draw(SMALL.filter(bool)), d)

        if degree3:
            per_place.append(tuple(coeff() for _ in range(4)))
        else:
            per_place.append([[coeff(), coeff()] for _ in range(2)])
    places = REAL * len(per_place)
    if degree3:
        return fm.DecomposableForm.from_expansion(Q, places, 2, 3, per_place)
    try:
        return fm.make_form(Q, places, per_place)
    except DependentFactors:
        return draw(st.nothing())


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(planar_forms(), st.integers(1, 30))
def test_bound_is_above_the_least_nonzero_magnitude(form, H):
    pairs = fm._scan(form, lt.HeightWindow(H), None)[0]
    bound = fm._least_value_bound(form, H)
    if bound is None:
        return
    assert pairs and min(mag for mag, _ in pairs) <= bound


def test_bound_of_the_sqrt2_form_is_close():
    # the least value at H = 10 is 2 (3 - 2 sqrt2) = 0.3431..., at (2, 3)
    bound = fm._least_value_bound(sqrt2_form(), 10)
    with mp.workdps(30):
        least = 2 * (3 - 2 * mp.sqrt(2))
        assert least <= bound <= least * (1 + mpf(10) ** -12)


# ---------------------------------------------------------------------------
# Where WindowTooLarge fires


def test_first_window_is_checked_as_an_enumerated_window():
    # 21^2 = 441 points at H = 10 although the capped scan visits its box
    with pytest.raises(WindowTooLarge, match="^window size 441 exceeds cap 300$"):
        fm.discreteness_report(sqrt2_form(), [10, 100, 1000], cap=300)
    assert fm.discreteness_report(sqrt2_form(), [10, 100, 1000], cap=441).verdict \
        == "accumulation-detected"


def test_callers_scan_is_checked_against_its_own_strips():
    # at H = 1000 the strips of cap 0.1 hold 1,447 points; the merged scan
    # runs at 2.5 U = 0.858 and visits 2,310, under the larger bound of the
    # report's window
    form = sqrt2_form()
    rep = fm.discreteness_report(form, [10, 100, 1000], cap=1447,
                                 spectrum_cap=0.1)
    assert (rep.spectrum.entries, rep.spectrum.zero_count) == ([], 1000)
    with pytest.raises(WindowTooLarge,
                       match="^capped scan of 1447 points exceeds cap 1446$"):
        fm.discreteness_report(form, [10, 100, 1000], cap=1446,
                               spectrum_cap=0.1)
    with pytest.raises(WindowTooLarge,
                       match="^capped scan of 1447 points exceeds cap 1446$"):
        fm.value_spectrum(form, lt.HeightWindow(1000, 0, 1446),
                          magnitude_cap=0.1)


@pytest.mark.parametrize("cap, message", [
    (342, "window size 343 exceeds cap 342"),
    # the first window (27 points) fails too; the caller's scan is first
    (26, "window size 343 exceeds cap 26")])
def test_callers_enumerated_window_is_checked_first(cap, message):
    form = fm.make_form(Q, REAL, [[(1, 0, 0), (0, 1, 0), (1, 1, -1)]])
    with pytest.raises(WindowTooLarge, match=f"^{message}$"):
        fm.discreteness_report(form, [1, 2, 3], cap=cap, spectrum_cap=1.0)


def test_strips_are_planned_once_per_height_and_cap(monkeypatch):
    # 2.5 U = 0.858 at H = 10 is below the spectrum cap 0.9, so the one
    # scan runs at 0.9 and takes the plan that checked the caller's window
    plans, strips = [], fm._strips
    monkeypatch.setattr(fm, "_strips", lambda form, H, cap:
                        plans.append((H, cap)) or strips(form, H, cap))
    fm.discreteness_report(sqrt2_form(), [10, 100, 1000], spectrum_cap=0.9)
    assert plans == [(1000, 0.9)]


def test_windows_are_checked_in_ascending_height():
    # Q at S = {inf, 2}: H = 10 holds 441 points, H = 20 1,681 and H = 40
    # 6,561, over the top window's own bound of 40 * 82 = 3,280; the
    # middle window fails first, as its separate scan did
    form = fm.make_form(Q, REAL_2, [[(1, 0), (3, -1)]] * 2)
    with pytest.raises(WindowTooLarge,
                       match="^window size 1681 exceeds cap 1000$"):
        fm.discreteness_report(form, [10, 20, 40], cap=1000)


def test_negative_spectrum_cap_is_rejected():
    with pytest.raises(ValueError, match="magnitude cap must be >= 0"):
        fm.discreteness_report(sqrt2_form(), [10, 20, 40], spectrum_cap=-1)


# ---------------------------------------------------------------------------
# The sort key


def _neighbours(x, prec):
    """x and the mpfs one ulp below and above it at `prec` bits."""
    _, man, exp, bc = x._mpf_
    shift = prec - bc
    man, exp = man << shift, exp - shift
    return [mpf((man + k, exp)) for k in (-1, 0, 1)]


POSITIVE = st.tuples(
    st.one_of(st.floats(min_value=1e-300, max_value=1e300),
              st.integers(1, 10 ** 6).map(float)),
    st.integers(53, 240))


@settings(max_examples=200, deadline=None)
@given(st.lists(POSITIVE, min_size=1, max_size=12))
def test_order_keys_order_as_the_mpfs(draws):
    # the spectrum's magnitudes are positive: zeros are counted apart
    mags = []
    for v, prec in draws:
        with mp.workprec(prec):
            x = mpf(v) / 3 * 3
            mags.extend(_neighbours(x, prec))
            mags.append(+x)                       # an equal value again
    keys = fm._order_keys(mags)
    for a, ka in zip(mags, keys):
        for b, kb in zip(mags, keys):
            assert (ka < kb) == (a < b)
            assert (ka == kb) == (a == b)
