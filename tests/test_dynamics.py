import functools
import itertools
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sadiclab import dynamics as dy
from sadiclab import lattice as lt
from sadiclab import numberfield as nf
from sadiclab.surd import QuadraticSurd
from sadiclab.errors import (
    CyclicPositions,
    NeedTwoPlaces,
    RayOverflow,
    ShapeMismatch,
    TooFewSteps,
)


def eye(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


class TestAct:
    def test_identity_action(self, rationals, q_inf2):
        x = lt.SLattice.identity(rationals, q_inf2, 2)
        t = dy.TorusElement.identity(rationals, q_inf2, 2)
        y = dy.act(t, x)
        assert y.g == x.g

    def test_diagonal_representative(self, rationals, q_inf):
        x = lt.SLattice.identity(rationals, q_inf, 2)
        t = dy.TorusElement(rationals, q_inf, 2, [[math.e, 1 / math.e]])
        y = dy.act(t, x)
        assert y.g[0][0][0] == pytest.approx(math.e)
        assert y.g[0][1][1] == pytest.approx(1 / math.e)

    def test_action_axiom(self, rationals, q_inf2):
        random.seed(11)
        x = lt.SLattice.identity(rationals, q_inf2, 2)
        for _ in range(10):
            s1, k1 = random.uniform(-2, 2), random.randint(-3, 3)
            s2, k2 = random.uniform(-2, 2), random.randint(-3, 3)
            t1 = dy.TorusElement(rationals, q_inf2, 2,
                                 [[math.exp(s1), math.exp(-s1)],
                                  [Fraction(2) ** k1, Fraction(2) ** -k1]])
            t2 = dy.TorusElement(rationals, q_inf2, 2,
                                 [[math.exp(s2), math.exp(-s2)],
                                  [Fraction(2) ** k2, Fraction(2) ** -k2]])
            t12 = dy.TorusElement(rationals, q_inf2, 2,
                                  [[math.exp(s1 + s2), math.exp(-s1 - s2)],
                                   [Fraction(2) ** (k1 + k2),
                                    Fraction(2) ** -(k1 + k2)]])
            lhs = dy.act(t1, dy.act(t2, x))
            rhs = dy.act(t12, x)
            for mat_l, mat_r, place in zip(lhs.g, rhs.g, q_inf2):
                for row_l, row_r in zip(mat_l, mat_r):
                    for a, b in zip(row_l, row_r):
                        if place.kind == "finite":
                            assert Fraction(a) == Fraction(b)
                        else:
                            assert abs(float(a) - float(b)) < 1e-10 * max(
                                1, abs(float(b)))

    def test_determinant_enforced(self, rationals, q_inf):
        with pytest.raises(ValueError):
            dy.TorusElement(rationals, q_inf, 2, [[2.0, 1.0]])

    def test_shape_mismatch(self, rationals, gauss, q_inf, q_inf2):
        x = lt.SLattice.identity(rationals, q_inf, 2)
        t = dy.TorusElement(gauss, nf.archimedean_places(gauss), 2,
                            [[gauss.one(), gauss.one()]])
        with pytest.raises(ShapeMismatch):
            dy.act(t, x)
        # p2_0 is a place of Q, but not one of x's places
        t = dy.TorusElement(rationals, q_inf2[1:], 2, [[2, Fraction(1, 2)]])
        with pytest.raises(ShapeMismatch, match=r"^active places \{'p2_0'\} not in S$"):
            dy.act(t, x)

    def test_exactness_downgrade(self, rationals, q_inf, q_inf2):
        # rationality is read off the entries: a float t leaves floats, an
        # exact t exact entries, and t on a subset R of S moves only R
        x = lt.SLattice.identity(rationals, q_inf2, 2)
        t_float = dy.TorusElement(rationals, q_inf, 2, [[math.e, 1 / math.e]])
        y = dy.act(t_float, x)
        assert y.g[1] == x.g[1] and type(y.g[0][0][0]) is float
        assert not dy._is_rational(y)
        t_exact = dy.TorusElement(rationals, q_inf, 2,
                                  [[Fraction(2), Fraction(1, 2)]])
        y = dy.act(t_exact, x)
        assert y.g == (((2, 0), (0, Fraction(1, 2))), x.g[1])
        assert dy._is_rational(y)


class TestMixedScalars:
    def test_rational_surd_beside_field_element(self, root2_field):
        K = root2_field
        places = nf.archimedean_places(K) + nf.finite_places(K, 7)
        for place in places:
            dy.TorusElement(K, [place], 2, [[K.element([2]),
                                             QuadraticSurd(Fraction(1, 2))]])
            with pytest.raises(ValueError, match=r"^det at \w+ is 2, not 1$"):
                dy.TorusElement(K, [place], 2, [[K.element([2]), QuadraticSurd(1)]])

    def test_irrational_surd_beside_field_element(self, root2_field):
        K = root2_field
        s2 = QuadraticSurd.sqrt(2)
        r0, r1 = nf.archimedean_places(K)
        dy.TorusElement(K, [r1], 2, [[K.element([0, 1]), 1 / s2]])
        with pytest.raises(ValueError, match=r"^det at r0 is -1\.0\d*, not 1$"):
            dy.TorusElement(K, [r0], 2, [[K.element([0, 1]), 1 / s2]])

    def test_exact_dets_keep_their_type(self, rationals, q_inf):
        with pytest.raises(ValueError, match=r"^det at r0 is 2, not 1$"):
            dy.TorusElement(rationals, q_inf, 2, [[Fraction(2), 1]])
        with pytest.raises(ValueError, match=r"^det at r0 is 2\.0, not 1$"):
            dy.TorusElement(rationals, q_inf, 2, [[2.0, 1.0]])


def reference_ray(places, direction, steps):
    """RaySchedule's columns and scales, built one step and one place at a time.

    The first failure in step order raises: a finite-place parameter that
    is +-inf or nan, not an integer, or whose shifts move a norm by more
    than SHIFT_BITS / #places bits (a float one is named as given), an
    archimedean one that is nan or whose products with the direction or
    multipliers overflow float64.
    """
    bits = lt.SHIFT_BITS // len(places)
    columns, scales = [[] for _ in places], [[] for _ in places]
    for step in steps:
        for place, direc, par, column, out in zip(places, direction, step, columns, scales):
            if place.kind == "finite":
                given = par
                if isinstance(par, float) and math.isnan(par):
                    raise ValueError(f"ray parameter nan at {place.name} is not a number")
                if isinstance(par, float) and math.isinf(par):
                    raise RayOverflow(float(par), place.name)
                if int(par) != par:
                    raise ValueError("finite-place ray parameters must be integers")
                par = int(par)
                shifts = [place.residue_degree * par * int(c) for c in direc]
                if max(map(abs, shifts)) * math.log2(place.p) > bits:
                    raise RayOverflow(float(given) if isinstance(given, float) else par,
                                      place.name, f"moves a norm over {bits} bits")
                out += shifts
            else:
                par = float(par)
                if math.isnan(par):
                    raise ValueError(f"ray parameter {par!r} at {place.name} is not a number")
                products = [par * c for c in direc]
                try:
                    if not all(map(math.isfinite, products)):
                        raise OverflowError
                    out += [math.exp(v) for v in products]
                except OverflowError:
                    raise RayOverflow(par, place.name) from None
            column.append(par)
    return columns, {
        place.name: np.array(out, dtype=np.int64 if place.kind == "finite"
                             else np.float64).reshape(len(steps), len(direc))
        for place, direc, out in zip(places, direction, scales)}


def _reference(places, direction, columns):
    """reference_ray on the columns zipped into steps, after the shape
    checks that come before any parameter is read."""
    if len(columns) != len(places):
        raise ShapeMismatch("one parameter column per active place")
    if len({len(column) for column in columns}) > 1:
        raise ShapeMismatch("parameter columns of unequal length")
    return reference_ray(places, direction, list(zip(*columns)))


def _columns(steps, width):
    """The parameter columns of a list of steps."""
    return [[step[k] for step in steps] for k in range(width)]


def _ray_outcome(build, *args):
    """repr of the columns and the bits of each stack, or the error's type and text."""
    try:
        columns, scales = build(*args)
    except Exception as e:
        return type(e), str(e)
    return repr(columns), {name: (a.dtype.str, a.shape, a.tobytes())
                           for name, a in scales.items()}


def _built(places, direction, columns):
    """RaySchedule's columns and, per place, its table read at each step."""
    ray = dy.RaySchedule(places, direction, columns)
    return ray.columns, {name: table[index] for name, (table, index) in ray.scales.items()}


@functools.lru_cache(maxsize=None)
def _ray_places():
    q = nf.create_field([0, 1])
    gauss = nf.create_field([1, 0, 1])
    # p3_0 over Q(i) has residue degree 2
    return (nf.archimedean_places(q) + nf.finite_places(q, 2) + nf.finite_places(q, 3),
            nf.archimedean_places(gauss) + nf.finite_places(gauss, 5)
            + nf.finite_places(gauss, 3))


# columns mix ints, floats, Fractions and numpy scalars
_RAY_PARAMS = st.one_of(
    st.integers(-40, 40), st.floats(-40, 40), st.floats(-800, 800),
    st.integers(-2 ** 22, 2 ** 22), st.integers(-2 ** 70, 2 ** 70),
    st.sampled_from([0.5, 3.0, -2.0 ** 21, 2 ** 63, 699050, 699051, 1048576, 1048577]),
    st.fractions(max_denominator=3, min_value=-40, max_value=40),
    st.floats(-800, 800).map(np.float64), st.integers(-2 ** 40, 2 ** 40).map(np.int64),
    st.sampled_from([Fraction(-6), np.float64(-0.0), np.int64(-3), np.float64(2.0)]),
    st.sampled_from([math.inf, -math.inf, math.nan, np.float64(math.inf), "abc"]))


@st.composite
def ray_inputs(draw):
    pool = draw(st.sampled_from(_ray_places()))
    ordered = draw(st.permutations(pool))
    places = ordered[:draw(st.integers(1, len(ordered)))]
    n = draw(st.sampled_from([2, 3]))
    vectors = {2: [(1, -1), (-2, 2), (0, 0)], 3: [(1, 0, -1), (2, -1, -1), (0, 0, 0)]}[n]
    direction = [draw(st.sampled_from(vectors)) for _ in places]
    # a step of one parameter at every place, or of one per place
    step = st.one_of(_RAY_PARAMS.map(lambda par: (par,) * len(places)),
                     st.lists(_RAY_PARAMS, min_size=len(places), max_size=len(places)))
    steps = draw(st.lists(step, max_size=8))
    columns = _columns(steps, len(places))
    if draw(st.integers(0, 3)) == 0:
        # a column cut short or run on, or one column too few or too many
        k = draw(st.integers(0, len(places) - 1))
        columns[k] = columns[k][:draw(st.integers(0, len(steps)))] + draw(
            st.lists(_RAY_PARAMS, max_size=2))
        columns = draw(st.sampled_from([columns, columns[1:], columns + columns[:1]]))
    return places, direction, columns


@st.composite
def stacked_ray_inputs(draw):
    """A survey's table: the steps of several rays in turn, in range but
    for one parameter in a later ray that overflows, at an archimedean
    place (e^710) or at a finite one (beyond 2^22 / #places bits)."""
    pool = draw(st.sampled_from(_ray_places()))
    places = draw(st.permutations(pool))[:draw(st.integers(1, 3))]
    direction = [(1, -1)] * len(places)
    small = st.one_of(st.integers(-30, 30), st.fractions(max_denominator=1,
                                                         min_value=-30, max_value=30),
                      st.integers(-30, 30).map(np.int64))
    rays = [draw(st.lists(st.tuples(*[small] * len(places)), min_size=1, max_size=6))
            for _ in range(draw(st.integers(2, 4)))]
    ray, k = draw(st.integers(1, len(rays) - 1)), draw(st.integers(0, len(places) - 1))
    row = list(draw(st.sampled_from(rays[ray])))
    row[k] = draw(st.sampled_from([2 ** 22 + 1, -(2 ** 40)] if places[k].kind == "finite"
                                  else [710.0, -711, np.float64(800.0)]))
    rays[ray].insert(draw(st.integers(0, len(rays[ray]))), tuple(row))
    return places, direction, _columns([step for steps in rays for step in steps],
                                       len(places))


@st.composite
def repeated_ray_inputs(draw):
    """Steps drawn with repeats from a few parameters per place: +-0.0,
    parameters at and just past the float64 edge of e^(par c) and at and
    just past a finite place's shift cap, and ordinary ones."""
    pool = draw(st.sampled_from(_ray_places()))
    places = draw(st.permutations(pool))[:draw(st.integers(1, 3))]
    n = draw(st.sampled_from([2, 3]))
    vectors = {2: [(1, -1), (-2, 2), (0, 0)], 3: [(1, 0, -1), (2, -1, -1), (0, 0, 0)]}[n]
    direction = [draw(st.sampled_from(vectors)) for _ in places]
    bits = lt.SHIFT_BITS // len(places)
    columns = []
    for place, direc in zip(places, direction):
        top = max(map(abs, direc))
        if place.kind == "finite":
            edge = int(bits / (math.log2(place.p) * place.residue_degree * max(top, 1)))
            values = st.sampled_from([0, -0.0, 0.0, edge, -edge, edge + 1]) | \
                st.integers(-40, 40)
        else:
            edge = math.log(sys.float_info.max) / max(top, 1)
            values = st.sampled_from([0.0, -0.0, edge, -edge, math.nextafter(edge, 0),
                                      math.nextafter(edge, math.inf)]) | \
                st.floats(-40, 40)
        distinct = draw(st.lists(values, min_size=1, max_size=4))
        columns.append(draw(st.lists(st.sampled_from(distinct), min_size=12, max_size=12)))
    length = draw(st.integers(0, 12))
    return places, direction, [column[:length] for column in columns]


class TestRaySchedule:
    @settings(max_examples=200, deadline=None)
    @given(repeated_ray_inputs())
    def test_table_rows_are_the_distinct_parameters(self, inputs):
        # table[index] has the bits of the step-by-step stacks, or the
        # same error is raised; a table holds one row per distinct
        # parameter (one in all at a finite place whose exponents are 0)
        outcome = _ray_outcome(_built, *inputs)
        assert outcome == _ray_outcome(_reference, *inputs)
        if type(outcome[1]) is not dict:
            return
        places, direction, columns = inputs
        ray = dy.RaySchedule(*inputs)
        for place, direc, column in zip(places, direction, columns):
            table, index = ray.scales[place.name]
            distinct = set(column) if any(direc) or place.kind != "finite" else {0}
            assert len(table) == len(distinct if column else ())
            assert sorted(set(index.tolist())) == list(range(len(table)))

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_first_failure_in_step_order(self, q_inf2, order):
        # a nan and an overflow at r0 and a shift past the cap at p2_0, at
        # three different steps between repeated good ones, and again after
        # them: the first in step order is raised
        failures = [((math.nan, 1), ValueError, "ray parameter nan at r0 is not a number"),
                    ((710.0, 1), RayOverflow,
                     "ray parameter 710.0 at r0 overflows float64 in its diagonal entries"),
                    ((0.5, 3_000_000), RayOverflow,
                     "ray parameter 3000000 at p2_0 moves a norm over 2097152 bits")]
        steps = [(0.5, 1)] * 8
        for position, which in zip((1, 3, 4), order):
            steps[position] = failures[which][0]
        steps += [failure for failure, _, _ in failures]
        _, error, line = failures[order[0]]
        with pytest.raises(error) as raised:
            dy.RaySchedule(q_inf2, [(1, -1)] * 2, _columns(steps, 2))
        assert type(raised.value) is error and str(raised.value) == line

    def test_overflowing_archimedean_parameter_rejected(self, q_inf2):
        # e^709 is a float64 and e^710 is not; finite-place parameters stay exact
        direction = [(1, -1), (1, -1)]
        dy.RaySchedule(q_inf2, direction, [[709.0, -709.0], [5000, -5000]])
        for par in (710.0, -710.0):
            with pytest.raises(RayOverflow, match=rf"^ray parameter {par} at r0 "):
                dy.RaySchedule(q_inf2, direction, [[par], [0]])

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(ray_inputs(), stacked_ray_inputs()))
    def test_matches_the_step_by_step_build(self, inputs):
        assert _ray_outcome(_built, *inputs) == _ray_outcome(_reference, *inputs)

    @settings(max_examples=50, deadline=None)
    @given(stacked_ray_inputs())
    def test_overflow_in_a_later_ray_of_a_table(self, inputs):
        assert _ray_outcome(_built, *inputs)[0] is RayOverflow

    @pytest.mark.parametrize("steps, line", [
        ([(0.0, 0), (1.0, 3_000_000), (710.0, 0)],
         "ray parameter 3000000 at p2_0 moves a norm over 2097152 bits"),
        ([(0.0, 0), (710.0, 0), (1.0, 3_000_000)],
         "ray parameter 710.0 at r0 overflows float64 in its diagonal entries"),
        ([(0.0, 0), (-710.0, -3_000_000)],
         "ray parameter -710.0 at r0 overflows float64 in its diagonal entries"),
    ])
    def test_overflow_names_the_first_step(self, q_inf2, steps, line):
        direction = [(1, -1), (1, -1)]
        with pytest.raises(RayOverflow) as raised:
            dy.RaySchedule(q_inf2, direction, _columns(steps, 2))
        assert str(raised.value) == line
        assert _ray_outcome(reference_ray, q_inf2, direction, steps) == (RayOverflow, line)

    @pytest.mark.parametrize("par, error, line", [
        (math.inf, RayOverflow, "ray parameter inf at r0 overflows float64 in its diagonal entries"),
        (-math.inf, RayOverflow, "ray parameter -inf at r0 overflows float64 in its diagonal entries"),
        (math.nan, ValueError, "ray parameter nan at r0 is not a number"),
        (1e308, RayOverflow, "ray parameter 1e+308 at r0 overflows float64 in its diagonal entries"),
        ("abc", ValueError, "could not convert string to float: 'abc'"),
    ])
    def test_archimedean_parameter_that_fails(self, q_inf2, par, error, line):
        # its step fails before a later overflow at r0 and at p2_0, and
        # after an earlier one at p2_0; 1e308 * 2 is an infinite product
        direction = [(2, -1, -1), (1, 0, -1)]
        cases = [([(0.5, 1), (par, 2), (800.0, 3_000_000)], error, line),
                 ([(0.5, 3_000_000), (par, 2)], RayOverflow,
                  "ray parameter 3000000 at p2_0 moves a norm over 2097152 bits")]
        for steps, want, text in cases:
            with pytest.raises(want) as raised:
                dy.RaySchedule(q_inf2, direction, _columns(steps, 2))
            assert str(raised.value) == text
            assert _ray_outcome(reference_ray, q_inf2, direction, steps) == (want, text)

    @pytest.mark.parametrize("par, error, line", [
        ("abc", ValueError, "invalid literal for int() with base 10: 'abc'"),
        pytest.param(math.inf, RayOverflow,
                     "ray parameter inf at p2_0 overflows float64 in its diagonal entries",
                     id="inf"),
        pytest.param(-math.inf, RayOverflow,
                     "ray parameter -inf at p2_0 overflows float64 in its diagonal entries",
                     id="-inf"),
        pytest.param(np.float64(-math.inf), RayOverflow,
                     "ray parameter -inf at p2_0 overflows float64 in its diagonal entries",
                     id="np.float64(-inf)"),
        pytest.param(math.nan, ValueError, "ray parameter nan at p2_0 is not a number",
                     id="nan"),
    ])
    def test_finite_parameter_that_fails_to_convert(self, q_inf2, par, error, line):
        # the failing step comes after one that converts and before one
        # that overflows at r0
        direction = [(1, -1), (1, -1)]
        steps = [(0.5, 1), (0.0, par), (710.0, 2)]
        with pytest.raises(error) as raised:
            dy.RaySchedule(q_inf2, direction, _columns(steps, 2))
        assert type(raised.value) is error and str(raised.value) == line
        assert _ray_outcome(reference_ray, q_inf2, direction, steps) == (error, line)

    def test_checks_of_one_step_in_order(self, q_inf2):
        # a finite parameter both fractional and too large fails as
        # fractional; exponents all 0 shift nothing, however large the
        # parameter
        cases = [(q_inf2, [(1, -1)] * 2, [[0.0], [2.0 ** 23 + 0.5]]),
                 (q_inf2[1:], [(0, 0)], [[2 ** 70, -(2 ** 64)]])]
        for inputs in cases:
            assert _ray_outcome(_built, *inputs) == _ray_outcome(_reference, *inputs)
        with pytest.raises(ValueError, match="^finite-place ray parameters must be integers$"):
            dy.RaySchedule(*cases[0])
        ray = dy.RaySchedule(*cases[1])
        assert ray.columns == [[2 ** 70, -(2 ** 64)]]
        table, index = ray.scales["p2_0"]
        assert table[index].tolist() == [[0, 0], [0, 0]]

    def test_one_direction_per_place_and_no_steps(self, rationals, q_inf2):
        with pytest.raises(ShapeMismatch, match="^one direction per active place$"):
            dy.RaySchedule(q_inf2, [(1, -1)], [[0.0], [0]])
        # a schedule of no steps has empty columns and tables, and no systoles
        inputs = (q_inf2, [(1, -1)] * 2, [[], []])
        assert _ray_outcome(_built, *inputs) == _ray_outcome(_reference, *inputs)
        ray = dy.RaySchedule(*inputs)
        assert ray.columns == [[], []]
        assert [table.shape for table, _ in ray.scales.values()] == [(0, 2), (0, 2)]
        x = lt.SLattice.identity(rationals, q_inf2, 2)
        assert dy.trajectory(x, ray, lt.HeightWindow(3, 1)) == []

    def test_shift_beyond_int64_rejected(self, q_inf2):
        with pytest.raises(RayOverflow, match=r"^ray parameter 9223372036854775808 at p2_0 "):
            dy.RaySchedule(q_inf2, [(1, -1), (1, -1)], [[0.0], [2 ** 63]])

    @pytest.mark.parametrize("par", [1e300, -1e300, 2.0 ** 22, pytest.param(
        np.float64(1e300), id="np.float64(1e300)")])
    def test_float_parameter_named_as_given(self, q_inf2, par):
        # int(1e300) has 301 digits; the error names the float
        steps = [(0.0, 1), (0.0, par)]
        line = f"ray parameter {float(par)!r} at p2_0 moves a norm over 2097152 bits"
        with pytest.raises(RayOverflow) as raised:
            dy.RaySchedule(q_inf2, [(1, -1), (1, -1)], _columns(steps, 2))
        assert str(raised.value) == line
        assert _ray_outcome(reference_ray, q_inf2, [(1, -1), (1, -1)], steps) == \
            (RayOverflow, line)

    def test_shift_beyond_the_kernel_range_rejected(self, rationals, q_inf2):
        # 2^-k sqrt5 at (1, 0) is the least content of the window; at
        # k = 9,000,000 it lies below 2^(_ZERO_EXP / 2), where the kernel
        # reads every content as 0 and mantissas alone pick (15, 0)
        x = lt.SLattice(rationals, q_inf2, 2, [[[2, 1], [1, 1]], eye(2)])
        p2 = q_inf2[1:]
        ray = dy.RaySchedule(p2, [(1, -1)], [[4_000_000]])
        [row] = dy.trajectory(x, ray, lt.HeightWindow(16))
        assert row.content_witness == "(1, 0)"
        with pytest.raises(RayOverflow, match=r"^ray parameter 9000000 at p2_0 moves "
                                              r"a norm over 4194304 bits$"):
            dy.RaySchedule(p2, [(1, -1)], [[9_000_000]])

    def test_needs_an_active_place(self):
        with pytest.raises(ShapeMismatch, match="a ray needs an active place"):
            dy.RaySchedule([], [], [])

    @pytest.mark.parametrize("columns, line", [
        ([[0.0, 1.0], [0]], "parameter columns of unequal length"),
        # before any parameter is read, even one that fails at the first step
        ([[math.nan], [0, 1]], "parameter columns of unequal length"),
        ([[], [0]], "parameter columns of unequal length"),
        ([[0.0]], "one parameter column per active place"),
        ([[0.0], [0], [0]], "one parameter column per active place"),
    ])
    def test_columns_of_another_shape_rejected_up_front(self, q_inf2, columns, line):
        with pytest.raises(ShapeMismatch) as raised:
            dy.RaySchedule(q_inf2, [(1, -1)] * 2, columns)
        assert str(raised.value) == line
        assert _ray_outcome(_reference, q_inf2, [(1, -1)] * 2, columns) == \
            (ShapeMismatch, line)


class TestTrajectory:
    def test_single_place_decay(self, rationals, q_inf):
        x = lt.SLattice.identity(rationals, q_inf, 2)
        ray = dy.RaySchedule(q_inf, [(1, -1)], [list(range(10))])
        rows = dy.trajectory(x, ray, lt.HeightWindow(20))
        for s, row in enumerate(rows):
            assert row.min_content == pytest.approx(math.exp(-s), rel=1e-12)

    def test_matched_two_place_ray_stays_at_one(self, rationals, q_inf2):
        x = lt.SLattice.identity(rationals, q_inf2, 2)
        ray = dy.RaySchedule(q_inf2, [(1, -1), (1, -1)],
                             [[k * math.log(2) for k in range(12)], list(range(12))])
        rows = dy.trajectory(x, ray, lt.HeightWindow(20, 6))
        for row in rows:
            assert abs(row.min_content - 1) < 1e-9

    def test_anisotropic_floor(self, rationals, q_inf):
        x = dy.anisotropic_point(rationals, q_inf)
        ray = dy.RaySchedule(q_inf, [(1, -1)], [[10 * i / 49 for i in range(50)]])
        rows = dy.trajectory(x, ray, lt.HeightWindow(30))
        assert all(r.min_supnorm >= 1.0 for r in rows)

    def test_finite_ray_parameters_must_be_integers(self, rationals, q_inf2):
        with pytest.raises(ValueError):
            dy.RaySchedule(q_inf2, [(1, -1), (1, -1)], [[0.5], [0.5]])

    def test_direction_must_sum_to_zero(self, rationals, q_inf):
        with pytest.raises(ValueError):
            dy.RaySchedule(q_inf, [(1, 1)], [[1.0]])

    def test_direction_sums_to_zero_exactly(self, q_inf):
        # the exponents' binary values sum to 2^-45, not 0
        with pytest.raises(ValueError, match="does not sum to zero$"):
            dy.RaySchedule(q_inf, [(1.0, -1.0 + 2 ** -45)], [[1.0]])
        for direction in [(0.5, 0.25, -0.75), (Fraction(1, 3), Fraction(-1, 3)),
                          (np.int64(2), np.int64(-2))]:
            dy.RaySchedule(q_inf, [direction], [[1.0]])


class TestClassification:
    def test_diverging(self):
        contents = [math.exp(-s) for s in range(12)]
        assert dy.classify_ray(contents) == "diverging-trend"

    def test_bounded(self):
        contents = [1.0] * 12
        assert dy.classify_ray(contents) == "bounded-below"

    def test_recurrent(self):
        contents = [1.0, 1e-4, 0.9] + [1.0] * 9
        assert dy.classify_ray(contents) == "recurrent"

    def test_too_few_steps(self):
        contents = [1.0] * 5
        with pytest.raises(TooFewSteps):
            dy.classify_ray(contents)


class TestSurveys:
    def test_identity_dichotomy(self, rationals, q_inf2):
        # one set of matrices gets one prediction however the point is built
        x = lt.SLattice.identity(rationals, q_inf2, 2)
        t = dy.TorusElement(rationals, q_inf2, 2,
                            [[2, Fraction(1, 2)], [Fraction(1, 4), 4]])
        t_inv = dy.TorusElement(rationals, q_inf2, 2,
                                [[Fraction(1, 2), 2], [4, Fraction(1, 4)]])
        points = [x, lt.SLattice.from_rational(rationals, q_inf2, 2, eye(2)),
                  lt.SLattice(rationals, q_inf2, 2, [eye(2), eye(2)]),
                  dy.act(t_inv, dy.act(t, x))]
        w = lt.HeightWindow(25, 6)
        for y in points:
            assert y.g == x.g
            for active in ([q_inf2[0]], [q_inf2[1]]):
                sv = dy.divergence_survey(y, active, w, steps=14,
                                          heat_s=[0.0], heat_k=[0])
                assert sv.prediction == "all-diverging"
                assert all(c == "diverging-trend"
                           for c in sv.classifications().values())
                assert sv.consistent
            sv = dy.divergence_survey(y, q_inf2, w, steps=14,
                                      heat_s=[0.0], heat_k=[0])
            assert sv.prediction == "non-divergent"
            assert "bounded-below" in sv.classifications().values()
            assert sv.consistent

    def test_points_off_k_get_no_prediction(self, rationals, q_inf, q_inf2):
        # only exact elements of K open the gate: sqrt2 entries, the floats
        # of a float t, and a float 1.0 leave every survey unpredicted and
        # unchecked, whatever its rays show
        t = dy.TorusElement(rationals, q_inf, 2, [[math.e, 1 / math.e]])
        cases = [(dy.anisotropic_point(rationals, q_inf), [q_inf]),
                 (lt.SLattice(rationals, q_inf, 2, [[[1.0, 0], [0, 1]]]), [q_inf]),
                 (dy.act(t, lt.SLattice.identity(rationals, q_inf2, 2)),
                  [q_inf2[:1], q_inf2[1:], q_inf2])]
        for x, actives in cases:
            assert not dy._is_rational(x)
            for active in actives:
                sv = dy.divergence_survey(x, active, lt.HeightWindow(6, 2),
                                          steps=12, heat_s=[0.0], heat_k=[0])
                assert sv.prediction == "" and sv.anomalies == []

    @pytest.mark.parametrize("case", ["q", "gauss"])
    def test_one_kernel_call_gives_the_per_ray_rows(self, case, rationals, q_inf2,
                                                    gauss, monkeypatch):
        if case == "q":
            places, window = q_inf2, lt.HeightWindow(6, 2)
            x = lt.SLattice.from_rational(rationals, places, 2, [[2, 3], [1, 2]])
            # s = +-700 takes some heat-map contents out of the float64 range
            heat_s, heat_k = [-700.0, -3.0, 0.0, 3.0, 700.0], range(-3, 4)
        else:
            places = nf.archimedean_places(gauss) + nf.finite_places(gauss, 5)
            x, window = lt.SLattice.identity(gauss, places, 2), lt.HeightWindow(1, 1)
            heat_s, heat_k = None, None
        calls = []
        kernel = lt.PointCloud.systoles_under
        monkeypatch.setattr(lt.PointCloud, "systoles_under",
                            lambda cloud, *a: calls.append(1) or kernel(cloud, *a))
        sv = dy.divergence_survey(x, places, window, steps=12,
                                  heat_s=heat_s, heat_k=heat_k)
        assert len(calls) == 1
        # each ray, and the heat map, as a schedule of its own
        direction = [(1, -1)] * len(places)
        rays = dy.default_ray_catalog(places, steps=12)
        assert [name for name, _ in rays] == [result.name for result in sv.rays]
        for result, (_, columns) in zip(sv.rays, rays):
            want = dy.trajectory(x, dy.RaySchedule(places, direction, columns), window)
            assert repr(result.contents) == repr(tuple(w.min_content for w in want))
        (s_labels, k_labels), cells = dy._heat_cells(places, heat_s, heat_k, 10.0)
        want = dy.trajectory(x, dy.RaySchedule(places, direction, cells), window)
        assert list(sv.heat) == ["s", "k", "min_content", "min_supnorm", "witness"]
        assert {len(column) for column in sv.heat.values()} == {len(want)}
        got = list(zip(*sv.heat.values()))
        assert repr(got) == repr([(s, k, w.min_content, w.min_supnorm, w.content_witness)
                                  for s, k, w in zip(s_labels, k_labels, want)])
        assert len(calls) == 1 + len(sv.rays) + 1

    @pytest.mark.parametrize("active", [slice(0, 1), slice(1, 2), slice(0, 2)])
    def test_a_survey_builds_one_schedule(self, rationals, q_inf2, monkeypatch, active):
        # every ray and every heat-map cell are steps of one RaySchedule
        built = []
        init = dy.RaySchedule.__init__
        monkeypatch.setattr(dy.RaySchedule, "__init__",
                            lambda ray, *a: built.append(1) or init(ray, *a))
        x = lt.SLattice.identity(rationals, q_inf2, 2)
        sv = dy.divergence_survey(x, q_inf2[active], lt.HeightWindow(4, 1), steps=10)
        assert len(built) == 1
        assert len(sv.rays) == {1: 2, 2: 12}[len(q_inf2[active])]

    def test_locally_divergent_pair(self, rationals, q_inf2):
        x = dy.locally_divergent_example(rationals, q_inf2)
        # not the diagonal identity pair
        assert any(x.g[0][i][j] != x.g[1][i][j]
                   for i in range(2) for j in range(2))
        w = lt.HeightWindow(25, 6)
        for active in ([q_inf2[0]], [q_inf2[1]]):
            sv = dy.divergence_survey(x, active, w, steps=14,
                                      heat_s=[0.0], heat_k=[0])
            assert all(c == "diverging-trend"
                       for c in sv.classifications().values())
        sv = dy.divergence_survey(x, q_inf2, w, steps=14,
                                  heat_s=[0.0], heat_k=[0])
        assert "recurrent" in sv.classifications().values()
        assert sv.consistent

    def test_needs_two_places(self, rationals, q_inf):
        with pytest.raises(NeedTwoPlaces):
            dy.locally_divergent_example(rationals, q_inf)

    def test_rational_points_obey_dichotomy(self, rationals, q_inf2):
        random.seed(13)
        w = lt.HeightWindow(25, 6)
        elementary = [
            lambda c: [[1, c], [0, 1]],
            lambda c: [[1, 0], [c, 1]],
            lambda c: [[Fraction(1, 3), 0], [0, Fraction(3)]],
        ]
        done = 0
        while done < 10:
            q = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
            for _ in range(3):
                e = elementary[random.randint(0, 2)](random.randint(-3, 3))
                q = [[sum(q[i][k] * e[k][j] for k in range(2))
                      for j in range(2)] for i in range(2)]
            # divergence witnesses live at the adjugate columns; keep them
            # inside the H=25 window
            if max(max(abs(c.numerator), c.denominator)
                   for row in q for c in row) > 8:
                continue
            done += 1
            x = lt.SLattice.from_rational(rationals, q_inf2, 2, q)
            for active in ([q_inf2[0]], [q_inf2[1]]):
                sv = dy.divergence_survey(x, active, w, steps=14,
                                          heat_s=[0.0], heat_k=[0])
                assert sv.consistent, (q, sv.anomalies)
            sv = dy.divergence_survey(x, q_inf2, w, steps=14,
                                      heat_s=[0.0], heat_k=[0])
            assert sv.consistent, (q, sv.anomalies)

    def test_real_quadratic_dichotomy(self, root2_field):
        # two archimedean places: the bounded direction is the mixed-sign
        # (norm-one) diagonal, same-sign diagonals escape
        places = nf.archimedean_places(root2_field)
        x = lt.SLattice.identity(root2_field, places, 2)
        w = lt.HeightWindow(6)
        sv1 = dy.divergence_survey(x, [places[0]], w, steps=12,
                                   heat_s=[0.0], heat_k=[0])
        assert sv1.consistent
        assert all(c == "diverging-trend"
                   for c in sv1.classifications().values())
        svS = dy.divergence_survey(x, places, w, steps=12,
                                   heat_s=[0.0], heat_k=[0])
        got = svS.classifications()
        assert got["r0-,r1+"] == "bounded-below"
        assert got["r0+,r1-"] == "bounded-below"
        assert got["r0+,r1+"] == "diverging-trend"
        assert svS.consistent

    def test_equivariance_of_systole(self, rationals, q_inf2):
        x = lt.SLattice.identity(rationals, q_inf2, 2)
        t = dy.TorusElement(rationals, q_inf2, 2,
                            [[math.exp(1.0), math.exp(-1.0)],
                             [Fraction(2), Fraction(1, 2)]])
        y = dy.act(t, x)
        w = lt.HeightWindow(15, 4)
        direct = lt.systole(y, w)
        ray = dy.RaySchedule(q_inf2, [(1, -1), (1, -1)], [[1.0], [1]])
        [row] = dy.trajectory(x, ray, w)
        assert direct.min_content == pytest.approx(row.min_content, rel=1e-12)
        assert direct.min_supnorm == pytest.approx(row.min_supnorm, rel=1e-12)

    def test_gamma_invariance_of_trajectories(self, rationals, q_inf2):
        x = lt.SLattice.identity(rationals, q_inf2, 2)
        gamma = [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]]
        xg = lt.SLattice.from_rational(rationals, q_inf2, 2, gamma)
        ray = dy.RaySchedule(q_inf2, [(1, -1), (1, -1)],
                             [[k * math.log(2) for k in range(10)], list(range(10))])
        w = lt.HeightWindow(25, 5)
        r1 = dy.trajectory(x, ray, w)
        r2 = dy.trajectory(xg, ray, w)
        for a, b in zip(r1, r2):
            assert abs(a.min_content - b.min_content) < 1e-9

    def test_single_place_survey_flags_a_ray_bounded_below(self, rationals,
                                                          q_inf2, monkeypatch):
        # plant a misclassification: the theorem check must catch it
        monkeypatch.setattr(dy, "classify_ray", lambda rep: "bounded-below")
        x = lt.SLattice.identity(rationals, q_inf2, 2)
        sv = dy.divergence_survey(x, q_inf2[:1], lt.HeightWindow(4, 1), steps=10)
        assert sv.prediction == "all-diverging" and sv.anomalies
        assert all(a.endswith("classified bounded-below; a single-place orbit "
                              "at a rational point must diverge")
                   for a in sv.anomalies)
        assert len(sv.anomalies) == len(sv.rays)

    def test_full_survey_flags_no_ray_bounded_below(self, rationals, q_inf2,
                                                    monkeypatch):
        monkeypatch.setattr(dy, "classify_ray", lambda rep: "diverging-trend")
        x = lt.SLattice.identity(rationals, q_inf2, 2)
        sv = dy.divergence_survey(x, q_inf2, lt.HeightWindow(4, 1), steps=10)
        assert sv.prediction == "non-divergent"
        assert sv.anomalies == [
            "no bounded-below ray found; a full-S orbit is never divergent"]


class TestExpanding:
    def test_sl2_fixture(self, rationals, q_inf):
        t = dy.expanding_element([(1, 2)], 2, q_inf[0])
        assert t.entries[0] == (Fraction(2), Fraction(1, 2))

    def test_sl3_fixture(self, rationals, q_inf):
        t = dy.expanding_element([(1, 2), (2, 3), (1, 3)], 3, q_inf[0])
        assert t.entries[0] == (Fraction(9), Fraction(1), Fraction(1, 9))

    def test_finite_place_fixture(self, rationals, q_inf2):
        t = dy.expanding_element([(1, 2)], 5, q_inf2[1])
        assert t.entries[0] == (Fraction(1, 4), Fraction(4))

    def test_expansion_inequality_exact(self, rationals, q_inf2):
        # |t_i / t_j|_v >= tau, checked with exact arithmetic
        cases = [([(1, 2)], Fraction(2), q_inf2[0]),
                 ([(1, 2), (2, 3), (1, 3)], Fraction(3), q_inf2[0]),
                 ([(1, 2)], Fraction(5), q_inf2[1]),
                 ([(1, 3), (2, 3)], Fraction(7), q_inf2[1])]
        for positions, tau, place in cases:
            t = dy.expanding_element(positions, tau, place)
            for (i, j) in positions:
                ti, tj = t.entries[0][i - 1], t.entries[0][j - 1]
                ratio = Fraction(ti) / Fraction(tj)
                if place.kind == "finite":
                    val = 0
                    num, den = ratio.numerator, ratio.denominator
                    p = place.p
                    while num % p == 0:
                        num //= p
                        val += 1
                    while den % p == 0:
                        den //= p
                        val -= 1
                    local = Fraction(p) ** (-val * place.residue_degree)
                else:
                    local = abs(ratio)
                assert local >= tau

    def test_cycle_rejected(self, rationals, q_inf):
        with pytest.raises(CyclicPositions):
            dy.expanding_element([(1, 2), (2, 1)], 2, q_inf[0])
        with pytest.raises(CyclicPositions):
            dy.expanding_element([(1, 2), (2, 3), (3, 1)], 2, q_inf[0])

    @pytest.mark.parametrize("positions, cycle", [
        ([(1, 2), (2, 1)], "1 -> 2 -> 1"),
        ([(1, 2), (2, 3), (3, 1)], "1 -> 2 -> 3 -> 1"),
        ([(4, 1), (3, 4), (1, 2), (2, 3)], "1 -> 2 -> 3 -> 4 -> 1"),
    ])
    def test_cycle_message_names_the_cycle(self, q_inf, positions, cycle):
        with pytest.raises(CyclicPositions) as info:
            dy.expanding_element(positions, 2, q_inf[0])
        assert str(info.value) == f"positions contain the cycle {cycle}"

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 6).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] != e[1]),
        min_size=1, max_size=8, unique=True))))
    def test_entries_match_brute_force_longest_paths(self, q_inf, case):
        _, positions = case
        n = max(map(max, positions))        # the element's size
        levels = _longest_paths(n, positions)
        if levels is None:
            with pytest.raises(CyclicPositions):
                dy.expanding_element(positions, 2, q_inf[0])
            return
        exps = [2 * v - max(levels) for v in levels]
        if sum(exps):
            base = [2 * n * v - 2 * sum(levels) for v in levels]
            g = math.gcd(*base)
            exps = [e // g for e in base]
        t = dy.expanding_element(positions, 2, q_inf[0])
        assert t.entries[0] == tuple(Fraction(2) ** e for e in exps)


def _longest_paths(n, positions):
    """Per node 1..n, the most positions in a chain starting there, found
    by trying every sequence of distinct nodes; None if the positions
    close a cycle."""
    edges = set(positions)
    levels = [0] * n
    for k in range(2, n + 1):
        for path in itertools.permutations(range(1, n + 1), k):
            if all(e in edges for e in zip(path, path[1:])):
                if (path[-1], path[0]) in edges:
                    return None
                levels[path[0] - 1] = max(levels[path[0] - 1], k - 1)
    return levels
