"""Differential tests of the schedule kernel against point-by-point evaluation.

`PointCloud.systoles_under` takes one (steps, n) stack per place and
evaluates each step in range on the cloud's skyline only, the others on the
whole cloud, in blocks; the reference below evaluates every point at every
step with the row formula that `PointCloud._norms` reproduces a column at a
time (real-place rows rescaled by a power of two before squaring, sums
along the last axis) and takes the first index of each minimum.  Values and
witness indices must agree exactly.  The column-wise `_norms` is compared
with the row formula bit for bit on maps with 1 to 16 image coordinates,
and the skyline with its definition by brute force.
"""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sadiclab import lattice as lt
from sadiclab import numberfield as nf

LN2 = math.log(2)

DIRECTIONS = {2: [(1, -1), (-1, 1)], 3: [(1, 0, -1), (2, -1, -1), (0, 1, -1)]}


def _eye(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


@functools.lru_cache(maxsize=None)
def _cloud(name):
    q = nf.create_field([0, 1])
    q2 = nf.archimedean_places(q) + nf.finite_places(q, 2)
    gauss = nf.create_field([1, 0, 1])
    g5 = nf.archimedean_places(gauss) + nf.finite_places(gauss, 5)
    if name == "q-identity":
        lat, window = lt.SLattice(q, q2, 2, [_eye(2)] * 2), lt.HeightWindow(12, 3)
    elif name == "q-rational":
        g = [[2, 3], [1, 2]]
        lat, window = lt.SLattice(q, q2, 2, [g, g]), lt.HeightWindow(6, 2)
    elif name == "q-float-shear":
        lat = lt.SLattice(q, q2, 2, [[[1.0, 0.37], [0.0, 1.0]], _eye(2)])
        window = lt.HeightWindow(6, 2)
    elif name == "q-tiny-shear":
        # |W|^2 of the sheared coordinate underflows for points with x = 0
        lat = lt.SLattice(q, q2, 2, [[[1.0, 1e-170], [0.0, 1.0]], _eye(2)])
        window = lt.HeightWindow(4, 1)
    elif name == "q-identity-n3":
        lat, window = lt.SLattice(q, q2, 3, [_eye(3)] * 2), lt.HeightWindow(2, 1)
    elif name == "gauss-identity":
        lat, window = lt.SLattice(gauss, g5, 2, [_eye(2)] * 3), lt.HeightWindow(2, 1)
    else:
        g = [[2, 1], [1, 1]]
        lat, window = lt.SLattice(gauss, g5, 2, [g] * 3), lt.HeightWindow(1, 1)
    return lt.PointCloud(lat, window)


CLOUDS = ["q-identity", "q-rational", "q-float-shear", "q-tiny-shear",
          "q-identity-n3", "gauss-identity", "gauss-sl2z"]


def reference_norms(cloud, arch_mults, fin_shifts, rows=slice(None)):
    """The row formula: (content, supnorm) of the points `rows`.

    A multiplier or shift is None, one length-n row, or a (steps, n) stack,
    which gives (steps, points) results.
    """
    content, supnorm = 1.0, 0.0
    for k, (place, W) in enumerate(cloud.arch):
        mult = arch_mults[k]
        W = W[rows]
        scaled = W if mult is None else W * np.asarray(mult)[..., None, :]
        if place.kind == "real":
            _, e = np.frexp(np.abs(scaled).max(axis=-1))
            unit = np.ldexp(scaled, -e[..., None])
            norm = np.ldexp(np.sqrt((unit * unit).sum(axis=-1)), e)
        else:
            norm = (scaled.real ** 2 + scaled.imag ** 2).sum(axis=-1)
        content = content * norm
        supnorm = np.maximum(supnorm, norm)
    for k, (place, vals, p, f) in enumerate(cloud.fin):
        shift = fin_shifts[k]
        vals = vals[rows]
        shifted = vals if shift is None else np.where(
            vals >= lt._ZERO_VAL, vals, vals + np.asarray(shift)[..., None, :])
        norm = np.power(float(p), -shifted.min(axis=-1).astype(np.float64))
        content = content * norm
        supnorm = np.maximum(supnorm, norm)
    return content, supnorm


def reference_systole(cloud, arch_mults, fin_shifts):
    """Every point evaluated with the row formula; first-index argmin."""
    content, supnorm = reference_norms(cloud, arch_mults, fin_shifts)
    ic = int(np.argmin(content))
    isup = int(np.argmin(supnorm))
    return (float(content[ic]), ic, float(supnorm[isup]), isup)


def stacks(cloud, schedule):
    """The kernel's per-place (steps, n) stacks of a list of steps.

    A step is (arch_mults, fin_shifts), one row or None (unscaled) per
    place, as `systole_under` takes it.
    """
    n = len(cloud.maps[0])
    arch = [np.array([np.ones(n) if a[k] is None else a[k] for a, _ in schedule],
                     dtype=np.float64).reshape(-1, n) for k in range(len(cloud.arch))]
    fin = [np.array([np.zeros(n) if f[k] is None else f[k] for _, f in schedule],
                    dtype=np.int64).reshape(-1, n) for k in range(len(cloud.fin))]
    return arch, fin


# Archimedean ray parameters: moderate, long (content under- and overflow),
# and multiples of ln 2 that balance a 2-adic shift into near-ties.
_PARAMS = st.one_of(st.none(), st.floats(-12, 12), st.floats(-340, 340),
                    st.integers(-40, 40).map(lambda k: k * LN2))
_SHIFTS = st.one_of(st.none(), st.integers(-15, 15), st.integers(-1100, 1100))


@st.composite
def steps(draw, cloud):
    dirs = DIRECTIONS[cloud.n]
    if draw(st.booleans()):
        # matched step: the same k at every place, as on a balanced ray
        k, d = draw(st.integers(-40, 40)), draw(st.sampled_from(dirs))
        arch = [np.array([math.exp(k * LN2 * c) for c in d]) for _ in cloud.arch]
        fin = [np.array([f * k * c for c in d], dtype=np.int64)
               for _, _, _, f in cloud.fin]
        return arch, fin
    arch = []
    for _ in cloud.arch:
        par, d = draw(_PARAMS), draw(st.sampled_from(dirs))
        arch.append(None if par is None else
                    np.array([math.exp(par * c) for c in d]))
    fin = []
    for _, _, _, f in cloud.fin:
        k, d = draw(_SHIFTS), draw(st.sampled_from(dirs))
        fin.append(None if k is None else
                   np.array([f * k * c for c in d], dtype=np.int64))
    return arch, fin


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_schedule_kernel_matches_point_by_point(data):
    cloud = _cloud(data.draw(st.sampled_from(CLOUDS)))
    schedule = data.draw(st.lists(steps(cloud), min_size=1, max_size=80))
    with np.errstate(all="ignore"):
        got = cloud.systoles_under(*stacks(cloud, schedule))
        want = [reference_systole(cloud, *step) for step in schedule]
    assert [repr(t) for t in got] == [repr(t) for t in want]


def test_blocks_cover_long_schedules():
    cloud = _cloud("q-identity")
    block = lt._BLOCK_ELEMENTS // len(cloud.skyline)
    # periodic parameters keep every step in range, so the skyline path
    # runs three full blocks and a last one of a single step
    schedule = [([np.array([math.exp(0.1 * (i % 100)), math.exp(-0.1 * (i % 100))])],
                 [np.array([i % 7, -(i % 7)], dtype=np.int64)])
                for i in range(3 * block + 1)]
    got = cloud.systoles_under(*stacks(cloud, schedule))
    assert got == [reference_systole(cloud, *step) for step in schedule]
    assert cloud.systole_under(*schedule[-1]) == got[-1]


def test_one_step_reads_the_whole_cloud_without_a_skyline():
    q = nf.create_field([0, 1])
    places = nf.archimedean_places(q) + nf.finite_places(q, 2)
    cloud = lt.PointCloud(lt.SLattice(q, places, 2, [_eye(2)] * 2),
                          lt.HeightWindow(6, 2))
    step = ([np.array([2.0, 0.5])], [np.array([1, -1], dtype=np.int64)])
    assert cloud.systole_under(*step) == reference_systole(cloud, *step)
    assert "skyline" not in vars(cloud)
    assert cloud.systoles_under(*stacks(cloud, [step])) == [cloud.systole_under(*step)]
    assert "skyline" in vars(cloud)


def test_out_of_range_steps_alone_and_mixed():
    cloud = _cloud("gauss-identity")
    underflow = ([None], [None, np.array([410, -410], dtype=np.int64)])
    plain = ([None], [None, None])
    for schedule in ([underflow], [underflow, plain, underflow]):
        with np.errstate(all="ignore"):
            got = cloud.systoles_under(*stacks(cloud, schedule))
            want = [reference_systole(cloud, *step) for step in schedule]
        assert [repr(t) for t in got] == [repr(t) for t in want]


def test_long_ray_step_keeps_underflowing_squares():
    # (e^-400, e^200, e^200): the square of the first coordinate of (1, 0, 0)
    # underflows, but its norm e^-400 is a normal float
    cloud = _cloud("q-identity-n3")
    step = ([np.array([math.exp(-400.0), math.exp(200.0), math.exp(200.0)])],
            [None])
    with np.errstate(all="ignore"):
        got = cloud.systoles_under(*stacks(cloud, [step]))
        want = [reference_systole(cloud, *step)]
    assert [repr(t) for t in got] == [repr(t) for t in want]
    content, idx = got[0][:2]
    assert math.isclose(content, math.exp(-400.0), rel_tol=1e-12)
    assert cloud.format_point(idx) == "(1, 0, 0)"


def test_out_of_range_blocks_cover_long_schedules():
    # every step leaves the range, so the whole cloud runs three full
    # blocks and a last one of a single step
    cloud = _cloud("q-identity")
    block = lt._BLOCK_ELEMENTS // cloud.count
    schedule = [([np.array([math.exp(0.5 * (i % 9)), math.exp(-0.5 * (i % 9))])],
                 [np.array([400 + i, -400 - i], dtype=np.int64)])
                for i in range(3 * block + 1)]
    with np.errstate(all="ignore"):
        got = cloud.systoles_under(*stacks(cloud, schedule))
        want = [reference_systole(cloud, *step) for step in schedule]
    assert [repr(t) for t in got] == [repr(t) for t in want]


@functools.lru_cache(maxsize=None)
def _places(name):
    if name == "q":
        q = nf.create_field([0, 1])
        return q, nf.archimedean_places(q) + nf.finite_places(q, 2) + nf.finite_places(q, 3)
    gauss = nf.create_field([1, 0, 1])
    return gauss, nf.archimedean_places(gauss) + nf.finite_places(gauss, 5)


# mostly inexact entries, so that the order of a sum of squares shows
_ARCH_ENTRIES = st.one_of(st.integers(-10 ** 6, 10 ** 6).map(lambda k: k / 997),
                          st.integers(-3, 3).map(float), st.floats(-1e150, 1e150))
_FIN_ENTRIES = st.one_of(st.integers(-6, 6), st.sampled_from([2, 3, 5]).flatmap(
    lambda p: st.integers(-4, 4).map(lambda k: Fraction(p) ** k)))
# multipliers up to the edge of the float64 range, and underflowing ones
_MULTS = st.one_of(st.floats(-5, 5), st.floats(-709, 709)).map(math.exp)


@st.composite
def image_clouds(draw):
    """A cloud of a random n_out x 2 map per place, n_out from 1 to 16."""
    name = draw(st.sampled_from(["q", "gauss"]))
    field, places = _places(name)
    n_out = draw(st.integers(1, 16))
    maps = []
    for place in places:
        if place.kind == "finite":
            entries = _FIN_ENTRIES
        elif place.kind == "complex":
            entries = st.builds(complex, _ARCH_ENTRIES, _ARCH_ENTRIES)
        else:
            entries = _ARCH_ENTRIES
        maps.append(draw(st.lists(st.lists(entries, min_size=2, max_size=2),
                                  min_size=n_out, max_size=n_out)))
    lat = lt.SLattice(field, places, 2, [_eye(2)] * len(places))
    window = lt.HeightWindow(2, 1) if name == "q" else lt.HeightWindow(1, 1)
    return lt.PointCloud(lat, window, maps)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_column_norms_match_row_formula(data):
    cloud = data.draw(image_clouds())
    n_out = len(cloud.maps[0])
    steps = data.draw(st.integers(1, 4))
    rows = np.array(sorted(data.draw(st.sets(st.integers(0, cloud.count - 1),
                                             min_size=1))))
    arch = [data.draw(st.none() | st.lists(_MULTS, min_size=steps * n_out,
                                           max_size=steps * n_out))
            for _ in cloud.arch]
    fin = [data.draw(st.none() | st.lists(st.integers(-60, 60), min_size=steps * n_out,
                                          max_size=steps * n_out))
           for _ in cloud.fin]
    arch = [None if m is None else np.array(m).reshape(steps, n_out) for m in arch]
    fin = [None if s is None else np.array(s, dtype=np.int64).reshape(steps, n_out)
           for s in fin]
    one_row = ([None if m is None else m[0] for m in arch],
               [None if s is None else s[0] for s in fin])
    unscaled = ([None] * len(arch), [None] * len(fin))
    with np.errstate(all="ignore"):
        for got, want in [
                (cloud._norms(arch, fin, rows), reference_norms(cloud, arch, fin, rows)),
                (cloud.norms_under(*one_row), reference_norms(cloud, *one_row)),
                (cloud.norms_under(), reference_norms(cloud, *unscaled))]:
            assert [repr(np.asarray(a).tolist()) for a in got] == \
                [repr(np.asarray(a).tolist()) for a in want]


@pytest.mark.parametrize("n_out", range(1, 20))
def test_column_sum_takes_numpy_order(n_out):
    rng = np.random.default_rng(n_out)
    a = rng.random((3, 500, n_out)) * 10.0 ** rng.integers(-8, 8, (3, 500, n_out))
    got = lt._column_sum([a[..., j] for j in range(n_out)])
    assert repr(got.tolist()) == repr(a.sum(axis=-1).tolist())


def brute_skyline(features):
    """Rows that no row of smaller index matches or beats in every column."""
    return [i for i in range(len(features))
            if not any((features[k] <= features[i]).all() for k in range(i))]


@st.composite
def feature_matrices(draw):
    # few distinct values and rows drawn from a small pool: many exact ties
    # and duplicate rows at different indices
    cols = draw(st.integers(1, 5))
    pool = draw(st.lists(st.lists(st.integers(-2, 2), min_size=cols, max_size=cols),
                         min_size=1, max_size=8))
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=150))
    return np.array(rows, dtype=np.float64)


@settings(max_examples=200, deadline=None)
@given(feature_matrices())
def test_skyline_matches_definition(features):
    assert lt._skyline(features).tolist() == brute_skyline(features)


@pytest.mark.parametrize("name", CLOUDS)
def test_cloud_skyline_matches_definition(name):
    # features as documented on PointCloud.skyline: |W| at a real place,
    # |Re W| and |Im W| at a complex place, minus the valuation at a finite one
    cloud = _cloud(name)
    columns = []
    for place, W in cloud.arch:
        columns += [np.abs(W.real), np.abs(W.imag)] if place.kind == "complex" \
            else [np.abs(W)]
    columns += [-vals.astype(np.float64) for _, vals, _, _ in cloud.fin]
    features = np.concatenate(columns, axis=1)
    assert cloud.skyline.tolist() == brute_skyline(features)
    assert 0 < len(cloud.skyline) < cloud.count
