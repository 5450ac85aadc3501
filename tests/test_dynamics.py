import functools
import itertools
import math
import random
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
        x = dy.OrbitPoint.identity(rationals, q_inf2, 2)
        t = dy.TorusElement.identity(rationals, q_inf2, 2)
        y = dy.act(t, x)
        assert y.g == x.g
        assert y.provenance == "identity"

    def test_diagonal_representative(self, rationals, q_inf):
        x = dy.OrbitPoint.identity(rationals, q_inf, 2)
        t = dy.TorusElement(rationals, q_inf, 2, [[math.e, 1 / math.e]])
        y = dy.act(t, x)
        assert y.g[0][0][0] == pytest.approx(math.e)
        assert y.g[0][1][1] == pytest.approx(1 / math.e)

    def test_action_axiom(self, rationals, q_inf2):
        random.seed(11)
        x = dy.OrbitPoint.identity(rationals, q_inf2, 2)
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

    def test_shape_mismatch(self, rationals, gauss, q_inf):
        x = dy.OrbitPoint.identity(rationals, q_inf, 2)
        t = dy.TorusElement(gauss, nf.archimedean_places(gauss), 2,
                            [[gauss.one(), gauss.one()]])
        with pytest.raises(ShapeMismatch):
            dy.act(t, x)

    def test_exactness_downgrade(self, rationals, q_inf):
        x = dy.OrbitPoint.identity(rationals, q_inf, 2)
        t_float = dy.TorusElement(rationals, q_inf, 2, [[math.e, 1 / math.e]])
        assert dy.act(t_float, x).provenance == "explicit"
        t_exact = dy.TorusElement(rationals, q_inf, 2,
                                  [[Fraction(2), Fraction(1, 2)]])
        assert dy.act(t_exact, x).provenance == "identity"


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
    """RaySchedule's steps and scales, built one step and one place at a time.

    The first failure in step order raises: a step of the wrong length, a
    finite-place parameter that is not an integer or whose shifts move a
    norm by more than SHIFT_BITS / #places bits, an archimedean one whose
    multipliers overflow float64.
    """
    bits = lt.SHIFT_BITS // len(places)
    norm_steps, scales = [], [[] for _ in places]
    for step in steps:
        if not isinstance(step, (tuple, list)):
            step = (step,) * len(places)
        if len(step) != len(places):
            raise ShapeMismatch("one parameter per active place in each step")
        row = []
        for place, direc, par, out in zip(places, direction, step, scales):
            if place.kind == "finite":
                if int(par) != par:
                    raise ValueError("finite-place ray parameters must be integers")
                par = int(par)
                shifts = [place.residue_degree * par * int(c) for c in direc]
                if max(map(abs, shifts)) * math.log2(place.p) > bits:
                    raise RayOverflow(par, place.name, f"moves a norm over {bits} bits")
                out += shifts
            else:
                par = float(par)
                try:
                    out += [math.exp(par * c) for c in direc]
                except OverflowError:
                    raise RayOverflow(par, place.name) from None
            row.append(par)
        norm_steps.append(tuple(row))
    return norm_steps, {
        place.name: np.array(out, dtype=np.int64 if place.kind == "finite"
                             else np.float64).reshape(len(norm_steps), len(direc))
        for place, direc, out in zip(places, direction, scales)}


def _ray_outcome(build, *args):
    """repr of the steps and the bits of each stack, or the error's type and text."""
    try:
        steps, scales = build(*args)
    except Exception as e:
        return type(e), str(e)
    return repr(steps), {name: (a.dtype.str, a.shape, a.tobytes())
                         for name, a in scales.items()}


def _built(places, direction, steps):
    ray = dy.RaySchedule(places, direction, steps)
    return ray.steps, ray.scales


@functools.lru_cache(maxsize=None)
def _ray_places():
    q = nf.create_field([0, 1])
    gauss = nf.create_field([1, 0, 1])
    # p3_0 over Q(i) has residue degree 2
    return (nf.archimedean_places(q) + nf.finite_places(q, 2) + nf.finite_places(q, 3),
            nf.archimedean_places(gauss) + nf.finite_places(gauss, 5)
            + nf.finite_places(gauss, 3))


_RAY_PARAMS = st.one_of(
    st.integers(-40, 40), st.floats(-40, 40), st.floats(-800, 800),
    st.integers(-2 ** 22, 2 ** 22), st.integers(-2 ** 70, 2 ** 70),
    st.sampled_from([0.5, 3.0, -2.0 ** 21, 2 ** 63, 699050, 699051, 1048576, 1048577]))


@st.composite
def ray_inputs(draw):
    pool = draw(st.sampled_from(_ray_places()))
    ordered = draw(st.permutations(pool))
    places = ordered[:draw(st.integers(1, len(ordered)))]
    n = draw(st.sampled_from([2, 3]))
    vectors = {2: [(1, -1), (-2, 2), (0, 0)], 3: [(1, 0, -1), (2, -1, -1), (0, 0, 0)]}[n]
    direction = [draw(st.sampled_from(vectors)) for _ in places]
    step = st.one_of(_RAY_PARAMS, st.lists(_RAY_PARAMS, min_size=len(places),
                                           max_size=len(places)).map(tuple),
                     st.lists(_RAY_PARAMS, min_size=0, max_size=len(places) + 1))
    return places, direction, draw(st.lists(step, max_size=8))


class TestRaySchedule:
    def test_overflowing_archimedean_parameter_rejected(self, q_inf2):
        # e^709 is a float64 and e^710 is not; finite-place parameters stay exact
        direction = [(1, -1), (1, -1)]
        dy.RaySchedule(q_inf2, direction, [(709.0, 5000), (-709.0, -5000)])
        for par in (710.0, -710.0):
            with pytest.raises(RayOverflow, match=rf"^ray parameter {par} at r0 "):
                dy.RaySchedule(q_inf2, direction, [(par, 0)])

    @settings(max_examples=300, deadline=None)
    @given(ray_inputs())
    def test_matches_the_step_by_step_build(self, inputs):
        assert _ray_outcome(_built, *inputs) == _ray_outcome(reference_ray, *inputs)

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
            dy.RaySchedule(q_inf2, direction, steps)
        assert str(raised.value) == line
        assert _ray_outcome(reference_ray, q_inf2, direction, steps) == (RayOverflow, line)

    def test_shift_beyond_int64_rejected(self, q_inf2):
        with pytest.raises(RayOverflow, match=r"^ray parameter 9223372036854775808 at p2_0 "):
            dy.RaySchedule(q_inf2, [(1, -1), (1, -1)], [(0.0, 2 ** 63)])

    def test_shift_beyond_the_kernel_range_rejected(self, rationals, q_inf2):
        # 2^-k sqrt5 at (1, 0) is the least content of the window; at
        # k = 9,000,000 it lies below 2^(_ZERO_EXP / 2), where the kernel
        # reads every content as 0 and mantissas alone pick (15, 0)
        x = dy.OrbitPoint(rationals, q_inf2, 2, [[[2, 1], [1, 1]], eye(2)],
                          provenance="rational")
        p2 = q_inf2[1:]
        ray = dy.RaySchedule(p2, [(1, -1)], [4_000_000])
        [row] = dy.trajectory(x, ray, lt.HeightWindow(16)).rows
        assert row.content_witness == "(1, 0)"
        with pytest.raises(RayOverflow, match=r"^ray parameter 9000000 at p2_0 moves "
                                              r"a norm over 4194304 bits$"):
            dy.RaySchedule(p2, [(1, -1)], [9_000_000])

    def test_needs_an_active_place(self):
        with pytest.raises(ShapeMismatch, match="a ray needs an active place"):
            dy.RaySchedule([], [], [()])


class TestTrajectory:
    def test_single_place_decay(self, rationals, q_inf):
        x = dy.OrbitPoint.identity(rationals, q_inf, 2)
        ray = dy.RaySchedule(q_inf, [(1, -1)], [(s,) for s in range(10)])
        rep = dy.trajectory(x, ray, lt.HeightWindow(20))
        for s, row in enumerate(rep.rows):
            assert row.min_content == pytest.approx(math.exp(-s), rel=1e-12)

    def test_matched_two_place_ray_stays_at_one(self, rationals, q_inf2):
        x = dy.OrbitPoint.identity(rationals, q_inf2, 2)
        ray = dy.RaySchedule(q_inf2, [(1, -1), (1, -1)],
                             [(k * math.log(2), k) for k in range(12)])
        rep = dy.trajectory(x, ray, lt.HeightWindow(20, 6))
        for row in rep.rows:
            assert abs(row.min_content - 1) < 1e-9

    def test_anisotropic_floor(self, rationals, q_inf):
        x = dy.anisotropic_point(rationals, q_inf)
        ray = dy.RaySchedule(q_inf, [(1, -1)],
                             [(10 * i / 49,) for i in range(50)])
        rep = dy.trajectory(x, ray, lt.HeightWindow(30))
        assert all(r.min_supnorm >= 1.0 for r in rep.rows)

    def test_finite_ray_parameters_must_be_integers(self, rationals, q_inf2):
        with pytest.raises(ValueError):
            dy.RaySchedule(q_inf2, [(1, -1), (1, -1)], [(0.5, 0.5)])

    def test_direction_must_sum_to_zero(self, rationals, q_inf):
        with pytest.raises(ValueError):
            dy.RaySchedule(q_inf, [(1, 1)], [(1.0,)])


class TestClassification:
    def _report(self, values):
        rows = [dy.StepRecord(i, (float(i),), v, v, "", "")
                for i, v in enumerate(values)]
        return dy.TrajectoryReport(None, None, None, rows)

    def test_diverging(self):
        rep = self._report([math.exp(-s) for s in range(12)])
        assert dy.classify_ray(rep) == "diverging-trend"

    def test_bounded(self):
        rep = self._report([1.0] * 12)
        assert dy.classify_ray(rep) == "bounded-below"

    def test_recurrent(self):
        rep = self._report([1.0, 1e-4, 0.9] + [1.0] * 9)
        assert dy.classify_ray(rep) == "recurrent"

    def test_too_few_steps(self):
        rep = self._report([1.0] * 5)
        with pytest.raises(TooFewSteps):
            dy.classify_ray(rep)


class TestSurveys:
    def test_identity_dichotomy(self, rationals, q_inf2):
        x = dy.OrbitPoint.identity(rationals, q_inf2, 2)
        w = lt.HeightWindow(25, 6)
        for active in ([q_inf2[0]], [q_inf2[1]]):
            sv = dy.divergence_survey(x, active, w, steps=14,
                                      heat_s=[0.0], heat_k=[0])
            assert sv.prediction == "all-diverging"
            assert all(c == "diverging-trend"
                       for c in sv.classifications().values())
            assert sv.consistent
        sv = dy.divergence_survey(x, q_inf2, w, steps=14,
                                  heat_s=[0.0], heat_k=[0])
        assert sv.prediction == "non-divergent"
        assert "bounded-below" in sv.classifications().values()
        assert sv.consistent

    @pytest.mark.parametrize("case", ["q", "gauss"])
    def test_one_kernel_call_gives_the_per_ray_rows(self, case, rationals, q_inf2,
                                                    gauss, monkeypatch):
        if case == "q":
            places, window = q_inf2, lt.HeightWindow(6, 2)
            x = dy.OrbitPoint.from_rational(rationals, places, 2, [[2, 3], [1, 2]])
            # s = +-700 takes some heat-map contents out of the float64 range
            heat_s, heat_k = [-700.0, -3.0, 0.0, 3.0, 700.0], range(-3, 4)
        else:
            places = nf.archimedean_places(gauss) + nf.finite_places(gauss, 5)
            x, window = dy.OrbitPoint.identity(gauss, places, 2), lt.HeightWindow(1, 1)
            heat_s, heat_k = None, None
        calls = []
        kernel = lt.PointCloud.systoles_under
        monkeypatch.setattr(lt.PointCloud, "systoles_under",
                            lambda cloud, *a: calls.append(1) or kernel(cloud, *a))
        sv = dy.divergence_survey(x, places, window, steps=12,
                                  heat_s=heat_s, heat_k=heat_k)
        assert len(calls) == 1
        cloud = lt.PointCloud(x.lattice, window)
        for result in sv.rays:
            want = dy.trajectory(x, result.report.ray, window, cloud=cloud)
            assert repr(result.report.rows) == repr(want.rows)
        cells, heat_ray = dy._heat_schedule(x, places, heat_s, heat_k, 10.0)
        want = dy.trajectory(x, heat_ray, window, cloud=cloud).rows
        assert len(sv.heat) == len(want) == len(cells)
        got = [(r["s"], r["k"], r["min_content"], r["min_supnorm"], r["witness"])
               for r in sv.heat]
        assert repr(got) == repr([(s, k, w.min_content, w.min_supnorm, w.content_witness)
                                  for (s, k), w in zip(cells, want)])
        assert len(calls) == 1 + len(sv.rays) + 1

    def test_locally_divergent_pair(self, rationals, q_inf2):
        x = dy.locally_divergent_example(rationals, q_inf2)
        assert x.provenance == "rational"
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
            x = dy.OrbitPoint.from_rational(rationals, q_inf2, 2, q)
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
        x = dy.OrbitPoint.identity(root2_field, places, 2)
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
        x = dy.OrbitPoint.identity(rationals, q_inf2, 2)
        t = dy.TorusElement(rationals, q_inf2, 2,
                            [[math.exp(1.0), math.exp(-1.0)],
                             [Fraction(2), Fraction(1, 2)]])
        y = dy.act(t, x)
        w = lt.HeightWindow(15, 4)
        direct = lt.systole(y.lattice, w)
        ray = dy.RaySchedule(q_inf2, [(1, -1), (1, -1)], [(1.0, 1)])
        rep = dy.trajectory(x, ray, w)
        assert direct.min_content == pytest.approx(rep.rows[0].min_content,
                                                   rel=1e-12)
        assert direct.min_supnorm == pytest.approx(rep.rows[0].min_supnorm,
                                                   rel=1e-12)

    def test_gamma_invariance_of_trajectories(self, rationals, q_inf2):
        x = dy.OrbitPoint.identity(rationals, q_inf2, 2)
        gamma = [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]]
        xg = dy.OrbitPoint.from_rational(rationals, q_inf2, 2, gamma)
        ray = dy.RaySchedule(q_inf2, [(1, -1), (1, -1)],
                             [(k * math.log(2), k) for k in range(10)])
        w = lt.HeightWindow(25, 5)
        r1 = dy.trajectory(x, ray, w)
        r2 = dy.trajectory(xg, ray, w)
        for a, b in zip(r1.rows, r2.rows):
            assert abs(a.min_content - b.min_content) < 1e-9

    def test_single_place_survey_flags_a_ray_bounded_below(self, rationals,
                                                          q_inf2, monkeypatch):
        # plant a misclassification: the theorem check must catch it
        monkeypatch.setattr(dy, "classify_ray", lambda rep: "bounded-below")
        x = dy.OrbitPoint.identity(rationals, q_inf2, 2)
        sv = dy.divergence_survey(x, q_inf2[:1], lt.HeightWindow(4, 1), steps=10)
        assert sv.prediction == "all-diverging" and sv.anomalies
        assert all(a.endswith("classified bounded-below; a single-place orbit "
                              "at a rational point must diverge")
                   for a in sv.anomalies)
        assert len(sv.anomalies) == len(sv.rays)

    def test_full_survey_flags_no_ray_bounded_below(self, rationals, q_inf2,
                                                    monkeypatch):
        monkeypatch.setattr(dy, "classify_ray", lambda rep: "diverging-trend")
        x = dy.OrbitPoint.identity(rationals, q_inf2, 2)
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
        n, positions = case
        levels = _longest_paths(n, positions)
        if levels is None:
            with pytest.raises(CyclicPositions):
                dy.expanding_element(positions, 2, q_inf[0], n=n)
            return
        exps = [2 * v - max(levels) for v in levels]
        if sum(exps):
            base = [2 * n * v - 2 * sum(levels) for v in levels]
            g = math.gcd(*base)
            exps = [e // g for e in base]
        t = dy.expanding_element(positions, 2, q_inf[0], n=n)
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
