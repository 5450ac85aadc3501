"""Acceptance suite: one test per shipped criterion, at stated tolerances.

Each test prints a single PASS line on success (run with -s to see them);
tolerances are pinned here, not configurable.
"""

import json
import math
import random
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from sadiclab import cli
from sadiclab import dynamics as dy
from sadiclab import forms as fm
from sadiclab import lattice as lt
from sadiclab import numberfield as nf
from sadiclab import sadic as sd
from sadiclab.errors import CyclicPositions
from sadiclab.surd import QuadraticSurd


def _ok(num, text):
    print(f"ACCEPTANCE {num:>2} PASS: {text}")


def test_c01_product_formula(rationals, root2_field, gauss, q_inf2):
    random.seed(101)
    configs = [
        (rationals, q_inf2),
        (root2_field, nf.archimedean_places(root2_field)),
        (gauss, nf.archimedean_places(gauss) + nf.finite_places(gauss, 5)),
    ]
    groups = [(f, p, nf.s_unit_group(f, p)) for f, p in configs]
    checked = 0
    for field, places, group in groups:
        for u in group.generators:
            checked += 1
            _assert_unit_product(u, places)
    while checked < 100 + sum(len(g.generators) for _, _, g in groups):
        field, places, group = groups[checked % 3]
        exps = [random.randint(-3, 3) for _ in group.generators]
        u = group.power_product(exps)
        if random.random() < 0.5:
            u = u * group.torsion_generator
        _assert_unit_product(u, places)
        checked += 1
    _ok(1, "product formula holds for configured generators and "
           "100 random power products (finite exact, archimedean 1e-10)")


def _assert_unit_product(u, places):
    fin = Fraction(1)
    arch = mpf(1)
    with mp.workdps(50):
        for v in places:
            a = v.abs_value(u)
            if v.kind == "finite":
                fin *= a
            else:
                arch *= a
        total = arch * mpf(fin.numerator) / fin.denominator
        assert abs(total - 1) < 1e-10


def test_c02_unit_balancing(rationals, q_inf2):
    random.seed(102)
    units = nf.s_unit_group(rationals, q_inf2)
    kappa = sd.balancing_constant(units)
    # pinned fixture: x = (8, 1) with equal targets
    x = sd.SAdicVector(q_inf2, [(8,), (1,)], 1)
    target = sd.BalancingTarget(q_inf2, [2 * math.sqrt(2)] * 2)
    xi, ratio = sd.unit_balance(x, target, units)
    assert abs(xi.coords[0]) == Fraction(1, 4)
    assert abs(float(ratio) - math.sqrt(2)) < 1e-10
    done = 0
    while done < 100:
        n = done % 3 + 1
        arch = tuple(random.uniform(-12, 12) for _ in range(n))
        fin = tuple(Fraction(2) ** random.randint(-5, 5)
                    * Fraction(random.choice([1, 3, 5, 7]),
                               random.choice([1, 3, 5]))
                    for _ in range(n))
        v = sd.SAdicVector(q_inf2, [arch, fin], n)
        if any(x == 0 for x in sd.local_norms(v)):
            continue
        t = sd.BalancingTarget.equal_split(q_inf2, sd.content(v))
        _, r = sd.unit_balance(v, t, units)
        assert float(r) <= kappa * (1 + 1e-9)
        done += 1
    _ok(2, f"100 random balances within kappa = {kappa:.12f}; "
           "fixture returned xi = 1/4 with ratio sqrt(2) +- 1e-10")


def test_c03_mahler_criterion(rationals, q_inf):
    window = lt.HeightWindow(50)

    def diag(entries):
        n = len(entries)
        return lt.SLattice(rationals, q_inf, n,
                           [[[entries[i] if i == j else 0.0
                              for j in range(n)] for i in range(n)]])

    family = [diag([math.exp(s), math.exp(-s)]) for s in range(9)]
    rep = lt.mahler_test(family, 0.05, window)
    assert not rep.family_precompact_at_scale
    assert rep.first_failure == 3
    v = rep.verdicts[3]
    assert abs(v.supnorm_systole - math.exp(-3)) < 1e-12
    assert abs(v.content_systole - math.exp(-3)) < 1e-12
    assert v.supnorm_witness == "(0, 1)"
    bounded = [diag([t, Fraction(1, t)]) for t in range(1, 11)]
    rep2 = lt.mahler_test(bounded, 0.05, window)
    assert rep2.family_precompact_at_scale
    _ok(3, "exponential family first fails at s=3 with witness (0, 1) and "
           "systole exp(-3) +- 1e-12; bounded family passes at r=0.05")


def test_c04_divergence_dichotomy(rationals, q_inf2):
    x = lt.SLattice.identity(rationals, q_inf2, 2)
    window = lt.HeightWindow(50, 10)
    for active in ([q_inf2[0]], [q_inf2[1]]):
        survey = dy.divergence_survey(x, active, window, steps=20,
                                      heat_s=[0.0], heat_k=[0])
        assert survey.prediction == "all-diverging"
        assert all(c == "diverging-trend"
                   for c in survey.classifications().values())
        assert survey.consistent
    survey = dy.divergence_survey(x, q_inf2, window, steps=20,
                                  heat_s=[0.0], heat_k=[0])
    assert survey.prediction == "non-divergent"
    matched = next(r for r in survey.rays if r.name == "r0+,p2_0+")
    assert matched.classification == "bounded-below"
    assert len(matched.contents) == 20
    for content in matched.contents:
        assert abs(content - 1) < 1e-6
    assert survey.consistent
    _ok(4, "single-place surveys all diverge; the s = k ln 2 ray stays "
           "within 1e-6 of systole 1 at all 20 steps (H=50, E=10)")


def test_c05_locally_divergent_not_closed(rationals, q_inf2, tmp_path):
    x = dy.locally_divergent_example(rationals, q_inf2)
    window = lt.HeightWindow(50, 10)
    for active in ([q_inf2[0]], [q_inf2[1]]):
        survey = dy.divergence_survey(x, active, window, steps=20,
                                      heat_s=[0.0], heat_k=[0])
        assert all(c == "diverging-trend"
                   for c in survey.classifications().values())
    survey = dy.divergence_survey(x, q_inf2, window, steps=20,
                                  heat_s=[0.0], heat_k=[0])
    assert "recurrent" in survey.classifications().values()
    assert survey.consistent
    # the same run through the CLI exits 0
    point_path = tmp_path / "point.json"
    blob = x.to_jsonable()
    point_path.write_text(json.dumps(blob))
    config = {"min_poly": [0, 1],
              "places": {"archimedean": "all", "finite_primes": [2]},
              "window": {"H": 25, "E": 6}}
    code = cli.main(["--config", json.dumps(config), "--out", str(tmp_path),
                     "orbit-survey", "--point", f"file:{point_path}",
                     "--grid", "0:8:9,-6:6"])
    assert code == 0
    verdict = json.loads((tmp_path / "orbit-survey.json").read_text())
    assert "recurrent" in verdict["classifications"].values()
    _ok(5, "unipotent pair: both single-place surveys diverge, the full-S "
           "survey shows a recurrent ray, and the CLI run exits 0")


def test_c06_compact_orbit_floor(rationals, q_inf):
    x = dy.anisotropic_point(rationals, q_inf)
    ray = dy.RaySchedule(q_inf, [(1, -1)], [[10 * i / 49 for i in range(50)]])
    rows = dy.trajectory(x, ray, lt.HeightWindow(50))
    violations = [r for r in rows if r.min_supnorm < 1.0]
    assert len(rows) == 50
    assert not violations
    _ok(6, "anisotropic point keeps sup-norm systole >= 1 across "
           "s in [0, 10], 50 steps, H=50 (zero violations; floor sqrt(2))")


def test_c07_norm_form_oracle(root2_field, golden_field):
    random.seed(107)
    f2 = fm.norm_form(root2_field)
    assert f2.expansions[0] == (Fraction(1), Fraction(0), Fraction(-2))
    fphi = fm.norm_form(golden_field)
    assert fphi.expansions[0] == (Fraction(1), Fraction(1), Fraction(-1))
    for field, form in ((root2_field, f2), (golden_field, fphi)):
        for _ in range(100):
            z = [random.randint(-60, 60), random.randint(-60, 60)]
            assert Fraction(fm.evaluate_form(form, z)[0]) == \
                nf.field_norm(field.element(z))
    _ok(7, "norm forms of Q(sqrt2) and Q(phi) expand exactly; 200 random "
           "evaluations equal the field norm exactly")


def test_c08_forms_discreteness(rationals, q_inf):
    s2 = QuadraticSurd.sqrt(2)
    sqrt2_form = fm.make_form(rationals, q_inf, [[(1, 0), (s2, -1)]])
    rep = fm.discreteness_report(sqrt2_form, [10, 100, 1000, 10000])
    assert rep.verdict == "accumulation-detected"
    assert abs(rep.cluster.center - 1 / (2 * math.sqrt(2))) < 1e-3
    assert len(rep.cluster.members) >= 5
    pell = fm.make_form(rationals, q_inf, [[(1, s2), (1, -s2)]])
    assert fm.discreteness_report(pell, [10, 100, 1000]).verdict == \
        "discrete-trend"
    scaled = fm.make_form(rationals, q_inf, [[(3, 0), (0, 1)]])
    assert fm.discreteness_report(scaled, [5, 10, 20]).verdict == \
        "discrete-trend"
    probe = fm.builtin_probes()["dependent-factors"]
    probe_rep = fm.discreteness_report(probe, [10, 100, 1000, 10000])
    assert probe_rep.verdict == "discrete-trend"
    assert abs(probe_rep.min_nonzero - 0.3819660) < 1e-6
    _ok(8, "x(sqrt2 x - y) accumulates at 1/(2 sqrt2) with >= 5 members by "
           "H=1e4; x^2-2y^2, 3xy and the dependent-factor probe stay discrete")


def test_c09_reconstruction_round_trip(rationals, q_inf2, q_inf):
    random.seed(109)
    with mp.workdps(50):
        for trial in range(100):
            g = [random.randint(-500, 500) for _ in range(3)]
            if not any(g):
                continue
            g0 = math.gcd(*[abs(v) for v in g if v])
            g = [v // g0 for v in g]
            if next(v for v in g if v) < 0:
                g = [-v for v in g]
            places = q_inf2 if trial % 2 else q_inf
            exps = []
            alphas = []
            for place in places:
                if place.kind == "finite":
                    a = Fraction(random.randint(1, 50),
                                 random.randint(1, 50))
                    exps.append(tuple(a * c for c in g))
                else:
                    a = mpf(10) ** random.uniform(-3, 3) * \
                        random.choice([1, -1])
                    exps.append(tuple(a * c for c in g))
                alphas.append(a)
            form = fm.DecomposableForm.from_expansion(
                rationals, places, 2, 2, exps)
            rep = fm.rationality_reconstruct(form)
            assert rep.status == "reconstructed"
            assert list(rep.g) == g
            for got, want in zip(rep.alpha, alphas):
                if isinstance(want, Fraction):
                    assert Fraction(got) == want
                else:
                    assert abs(got - want) <= abs(want) * mpf(10) ** -30
    s2 = QuadraticSurd.sqrt(2)
    bad = fm.make_form(rationals, q_inf, [[(1, 0), (s2, -1)]])
    assert fm.rationality_reconstruct(bad).status == \
        "no-rational-reconstruction"
    _ok(9, "100 random scaled integer forms recover (alpha, g) exactly "
           "(g bit-exact, alpha to 1e-30 relative); sqrt2 ratio rejected")


def test_c10_expansion_elements(rationals, q_inf, q_inf2):
    fixtures = [
        ([(1, 2)], Fraction(2), q_inf[0],
         (Fraction(2), Fraction(1, 2))),
        ([(1, 2), (2, 3), (1, 3)], Fraction(3), q_inf[0],
         (Fraction(9), Fraction(1), Fraction(1, 9))),
        ([(1, 2)], Fraction(5), q_inf2[1],
         (Fraction(1, 4), Fraction(4))),
    ]
    for positions, tau, place, want in fixtures:
        t = dy.expanding_element(positions, tau, place)
        assert t.entries[0] == want
        for (i, j) in positions:
            ratio = Fraction(t.entries[0][i - 1]) / Fraction(t.entries[0][j - 1])
            if place.kind == "finite":
                val = 0
                num, den = ratio.numerator, ratio.denominator
                while num % place.p == 0:
                    num //= place.p
                    val += 1
                while den % place.p == 0:
                    den //= place.p
                    val -= 1
                assert Fraction(place.p) ** (-val) >= tau
            else:
                assert abs(ratio) >= tau
    with pytest.raises(CyclicPositions):
        dy.expanding_element([(1, 2), (2, 1)], 2, q_inf[0])
    _ok(10, "all expansion fixtures satisfy the inequality with exact "
            "arithmetic; cyclic position sets are rejected")


def test_c11_rerun_determinism(tmp_path):
    config = {
        "min_poly": [0, 1],
        "places": {"archimedean": "all", "finite_primes": [2]},
        "window": {"H": 15, "E": 4},
        "littlewood": {"alpha": {"a": 0, "b": 1, "d": 2},
                       "beta": {"a": 0, "b": 1, "d": 3}, "N": 5000},
        "form": {"places": ["r0"],
                 "factors": [[1, 0], [{"a": 0, "b": 1, "d": 2}, -1]]},
        "spectrum": {"heights": [30], "cap": 2.0},
    }
    outs = []
    for tag in ("run1", "run2"):
        out = tmp_path / tag
        for command in ("orbit-survey", "littlewood", "form-spectrum"):
            code = cli.main(["--config", json.dumps(config),
                             "--out", str(out), command])
            assert code == 0
        outs.append(out)
    names = ["orbit-survey.json", "heatmap.csv", "littlewood.json",
             "records.csv", "form-spectrum.json", "spectrum.csv"]
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    _ok(11, "orbit-survey, littlewood and form-spectrum artifacts are "
            "byte-identical across two runs into two directories")
