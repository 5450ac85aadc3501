"""Diagonal torus actions on SL_n(K_S)/SL_n(O): trajectories and surveys.

A trajectory samples the window systole of t.g.O^n along a ray schedule of
diagonal torus elements; the three-way classification (diverging-trend,
bounded-below, recurrent) is explicitly empirical -- finitely many steps
never prove divergence.  Surveys sweep the canonical sign-pattern rays,
compare against the theoretical dichotomy at exact rational points
(single-place orbits divergent, full-S orbits not), and flag any
disagreement as an anomaly instead of accepting it.
"""

import graphlib
import itertools
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .errors import (
    CyclicPositions,
    NeedTwoPlaces,
    RayOverflow,
    ShapeMismatch,
    TooFewSteps,
)
from .lattice import SHIFT_BITS, HeightWindow, PointCloud, SLattice
from .scalars import is_exact, lift_exact, mul, to_field, to_float
from .surd import QuadraticSurd


class TorusElement:
    """Per-place diagonal determinant-one matrices on a subset R of S."""

    def __init__(self, field, places, n, entries):
        self.field = field
        self.places = list(places)
        self.n = int(n)
        if len(entries) != len(self.places):
            raise ShapeMismatch("one diagonal per active place")
        rows = []
        for place, diag in zip(self.places, entries):
            diag = tuple(diag)
            if len(diag) != self.n:
                raise ShapeMismatch("diagonal length must equal n")
            if place.kind == "finite":
                for c in diag:
                    to_field(c, field, place.name)
            exact = lift_exact(diag)
            if exact is not None:
                det = math.prod(exact)
                if det != 1:
                    raise ValueError(f"det at {place.name} is {det}, not 1")
            else:
                # an all-exact diagonal lands here when an irrational surd
                # meets a field element; it is embedded at the place
                embed = all(map(is_exact, diag))
                det = 1.0
                for c in diag:
                    det *= to_float(c, place) if embed else float(c)
                if abs(det - 1) > 1e-10:
                    raise ValueError(f"det at {place.name} is {det}, not 1")
            rows.append(diag)
        self.entries = tuple(rows)
        self.exact = all(is_exact(c) for diag in rows for c in diag)

    @classmethod
    def identity(cls, field, places, n):
        return cls(field, places, n, [[1] * n for _ in places])


class OrbitPoint:
    """Representative g of a coset, with provenance for prediction gating.

    provenance: 'identity', 'rational' (exact K-rational entries at every
    place, possibly different per place), or 'explicit'.
    """

    def __init__(self, field, places, n, g, provenance="explicit", unimodular=True):
        self.lattice = SLattice(field, places, n, g, unimodular=unimodular)
        self.field = field
        self.places = self.lattice.places
        self.n = self.lattice.n
        self.g = self.lattice.g
        self.provenance = provenance
        self.unimodular = unimodular
        self.exact = all(is_exact(c) for mat in self.g
                         for row in mat for c in row)

    @classmethod
    def identity(cls, field, places, n):
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        return cls(field, places, n, [eye for _ in places], provenance="identity")

    @classmethod
    def from_rational(cls, field, places, n, matrix):
        """Diagonal embedding of a single K-rational matrix."""
        mat = [[Fraction(c) for c in row] for row in matrix]
        return cls(field, places, n, [mat for _ in places], provenance="rational")

    def to_jsonable(self):
        mats = []
        for mat in self.g:
            mats.append([[str(c) if isinstance(c, (int, Fraction)) else repr(c)
                          for c in row] for row in mat])
        return {"n": self.n, "provenance": self.provenance,
                "places": [p.name for p in self.places], "matrices": mats}


def act(t, x):
    """Left translation t.x; inactive places keep their factors."""
    if t.field != x.field or t.n != x.n:
        raise ShapeMismatch("torus element and point disagree on field or n")
    active = {p.name: diag for p, diag in zip(t.places, t.entries)}
    unknown = set(active) - {p.name for p in x.places}
    if unknown:
        raise ShapeMismatch(f"active places {unknown} not in S")
    new_g = []
    for place, mat in zip(x.places, x.g):
        diag = active.get(place.name)
        if diag is None:
            new_g.append(mat)
            continue
        # exact pairs multiply exactly, the rest in float64 at the place
        new_g.append(tuple(
            tuple(c if c == 0 else
                  mul(t_i, c) if is_exact(t_i) and is_exact(c) else
                  to_float(t_i, place) * to_float(c, place) for c in row)
            for t_i, row in zip(diag, mat)))
    provenance = x.provenance if (t.exact and x.exact) else "explicit"
    return OrbitPoint(x.field, x.places, x.n, new_g, provenance=provenance,
                      unimodular=x.unimodular)


# ---------------------------------------------------------------------------
# Ray schedules and trajectories


class RaySchedule:
    """Exponent directions per active place plus a list of parameter steps.

    direction[i] is the exponent vector for the diagonal entries at the
    i-th active place (sum zero, the determinant-one condition).  Each
    step is one parameter per active place: real at archimedean places,
    integer at finite places (their value group is discrete).  `scales`
    maps each active place's name to its (steps, n) stack for the schedule
    kernel: the multipliers exp(par * c) at an archimedean place, the
    valuation shifts f * par * c at a finite one.  An archimedean
    parameter whose multipliers overflow float64 raises `RayOverflow`, and
    so does a finite one whose shifts move a norm by more than
    `lattice.SHIFT_BITS` / #R = 2^22 / #R bits, #R the active places, that
    is |f * par * c| * log2 p > 2^22 / #R for some c.  So no step moves a
    content by more than 2^22 bits, and none comes near 2^(-2^23), at or
    below which the kernel reads a content as 0 (`lattice._ZERO_EXP` / 2).
    Each place's stack is built in one pass over its column of parameters;
    of several errors, the first in step order is raised.
    """

    def __init__(self, places, direction, steps):
        self.places = list(places)
        self.direction = [tuple(c) for c in direction]
        if not self.places:
            raise ShapeMismatch("a ray needs an active place")
        if len(self.direction) != len(self.places):
            raise ShapeMismatch("one direction per active place")
        for c in self.direction:
            if abs(sum(c)) > 1e-12:
                raise ValueError(f"exponent vector {c} does not sum to zero")
        width, bits = len(self.places), SHIFT_BITS // len(self.places)
        rows = [s if isinstance(s, (tuple, list)) else (s,) * width for s in steps]
        # each column stops at the first failure so far in step order
        end = next((i for i, row in enumerate(rows) if len(row) != width), len(rows))
        columns, self.scales, error = [], {}, None
        for k, (place, direc) in enumerate(zip(self.places, self.direction)):
            pars, out, finite = [], [], place.kind == "finite"
            exps = [place.residue_degree * int(c) for c in direc] if finite else direc
            if finite:
                top, cap = max(map(abs, exps)), bits / math.log2(place.p)
            try:
                for row in rows[:end]:
                    if not finite:
                        par = float(row[k])
                    elif (par := int(row[k])) != row[k]:
                        raise ValueError("finite-place ray parameters must be integers")
                    elif abs(par) * top > cap:
                        raise RayOverflow(par, place.name, f"moves a norm over {bits} bits")
                    try:
                        for c in exps:
                            out.append(par * c if finite else math.exp(par * c))
                    except OverflowError:
                        raise RayOverflow(par, place.name) from None
                    pars.append(par)
                self.scales[place.name] = np.array(
                    out, dtype=np.int64 if finite else np.float64).reshape(len(pars), len(direc))
            except (ValueError, OverflowError) as e:
                end, error = len(pars), e
            columns.append(pars)
        if end < len(rows):
            raise error or ShapeMismatch("one parameter per active place in each step")
        self.steps = list(zip(*columns))

    def torus_element(self, field, n, step):
        entries = []
        for place, direc, par in zip(self.places, self.direction, step):
            if place.kind == "finite":
                entries.append([Fraction(place.p) ** (par * int(c)) for c in direc])
            else:
                entries.append([math.exp(par * c) for c in direc])
        return TorusElement(field, self.places, n, entries)


@dataclass
class StepRecord:
    index: int
    params: tuple
    min_content: float
    min_supnorm: float
    content_witness: str
    supnorm_witness: str


@dataclass
class TrajectoryReport:
    point: OrbitPoint
    ray: RaySchedule
    window: HeightWindow
    rows: list


def _stacks(rays, lat):
    """The schedule kernel's per-place stacks for the steps of rays in turn.

    The rays share their active places: at each of them, the rays' stacks
    concatenated; at every other place of S, which no step moves, None.
    """
    stacks = {name: np.concatenate([ray.scales[name] for ray in rays])
              for name in rays[0].scales}
    return ([stacks.get(p.name) for p in lat.arch_places],
            [stacks.get(p.name) for p in lat.finite_places])


def _step_records(cloud, ray, systoles):
    """One StepRecord per step of the ray from the kernel's tuples in systoles.

    zip stops at the end of ray.steps before it draws from systoles, so a
    survey passes one iterator over all its rays in turn.
    """
    return [StepRecord(index=i, params=step, min_content=mc, min_supnorm=ms,
                       content_witness=cloud.format_point(ic),
                       supnorm_witness=cloud.format_point(isup))
            for i, (step, (mc, ic, ms, isup)) in enumerate(zip(ray.steps, systoles))]


def trajectory(x, ray, window, cloud=None):
    """Window systole of t.g.O^n at every step of the ray; no verdict."""
    lat = x.lattice
    if cloud is None:
        cloud = PointCloud(lat, window)
    systoles = cloud.systoles_under(*_stacks([ray], lat))
    return TrajectoryReport(point=x, ray=ray, window=window,
                            rows=_step_records(cloud, ray, systoles))


THETA_LOW = 1e-3
THETA_HIGH_REL = 0.1


def classify_ray(report):
    """Empirical three-way verdict on a trajectory's content systole.

    recurrent: dips below THETA_LOW, later re-exceeds theta_high;
    diverging-trend: ends below THETA_LOW (decreasing trend);
    bounded-below: never drops to theta_high = THETA_HIGH_REL * initial
    systole.  Always a statement about the sampled window, never a proof.
    """
    rows = report.rows
    if len(rows) < 10:
        raise TooFewSteps(f"{len(rows)} steps; need at least 10")
    sys = [r.min_content for r in rows]
    initial = sys[0]
    theta_high = THETA_HIGH_REL * initial
    dipped_at = next((i for i, v in enumerate(sys) if v < THETA_LOW), None)
    if dipped_at is not None:
        if any(v > theta_high for v in sys[dipped_at + 1:]):
            return "recurrent"
    if sys[-1] < THETA_LOW:
        return "diverging-trend"
    if min(sys) > theta_high:
        return "bounded-below"
    # ambiguous middle zone: trend decides, still an empirical label
    return "diverging-trend" if sys[-1] < 0.5 * initial else "bounded-below"


# ---------------------------------------------------------------------------
# Surveys


@dataclass
class RayResult:
    name: str
    signs: tuple
    classification: str
    report: TrajectoryReport


@dataclass
class SurveyReport:
    point: OrbitPoint
    active: list
    rays: list
    heat: list                      # rows for the CSV heat map
    prediction: str                 # '', 'all-diverging', 'non-divergent'
    anomalies: list = dc_field(default_factory=list)

    @property
    def consistent(self):
        return not self.anomalies

    def classifications(self):
        return {r.name: r.classification for r in self.rays}


def _n2_direction(n):
    if n < 2:
        raise ValueError("diagonal rays need n >= 2")
    d = [0] * n
    d[0], d[-1] = 1, -1
    return tuple(d)


def _sign_patterns(k):
    """All nonzero sign vectors in {-1,0,1}^k."""
    return sorted((t for t in itertools.product((-1, 0, 1), repeat=k) if any(t)),
                  key=lambda t: (sum(1 for s in t if s), t))


def _ray_name(places, signs):
    return ",".join(f"{p.name}{'+' if s > 0 else '-' if s < 0 else '0'}"
                    for p, s in zip(places, signs))


STAIR_JUMP = 12


def default_ray_catalog(x, active, steps=20, s_max=10.0):
    """The canonical rays for a survey: per-place axes, matched diagonals
    for sign pairs, and alternating staircases that re-balance after each
    archimedean push by STAIR_JUMP (staircases only when two places are
    active)."""
    direction = _n2_direction(x.n)
    rays = []
    for signs in _sign_patterns(len(active)):
        moving = [i for i, s in enumerate(signs) if s]
        params = []
        kvals = list(range(steps))
        finite_moving = [i for i in moving if active[i].kind == "finite"]
        for j in range(steps):
            row = []
            for i, (place, s) in enumerate(zip(active, signs)):
                if s == 0:
                    row.append(0 if place.kind == "finite" else 0.0)
                elif place.kind == "finite":
                    row.append(s * kvals[j])
                elif finite_moving:
                    # match the archimedean speed to the finite one
                    p = active[finite_moving[0]].p
                    row.append(s * kvals[j] * math.log(p))
                else:
                    row.append(s * (s_max * j / (steps - 1)))
            params.append(tuple(row))
        rays.append((_ray_name(active, signs), signs,
                     RaySchedule(active, [direction] * len(active), params)))
    # alternating staircases for two-place sign pairs
    if len(active) == 2 and active[0].kind != active[1].kind:
        arch_i = 0 if active[0].kind != "finite" else 1
        fin_i = 1 - arch_i
        p = active[fin_i].p
        for sa in (1, -1):
            for sf in (1, -1):
                params = []
                for j in range(steps):
                    hi = STAIR_JUMP * ((j + 1) // 2)
                    lo = STAIR_JUMP * (j // 2)
                    row = [None, None]
                    row[arch_i] = sa * math.log(p) * hi
                    row[fin_i] = sf * lo
                    params.append(tuple(row))
                signs = [None, None]
                signs[arch_i], signs[fin_i] = sa, sf
                name = "stair:" + _ray_name(active, signs)
                rays.append((name, tuple(signs),
                             RaySchedule(active, [direction] * 2, params)))
    return rays


def divergence_survey(x, active, window, steps=20, s_max=10.0,
                      heat_s=None, heat_k=None):
    """Systole sweep over the canonical rays plus a heat-map grid.

    At points with exact rational provenance the classical dichotomy is
    enforced: a single active place must show every ray diverging, and the
    full place set (when S has at least two places) must keep at least one
    ray bounded below.  Mismatches land in `anomalies`.
    """
    lat = x.lattice
    cloud = PointCloud(lat, window)
    rays = default_ray_catalog(x, active, steps=steps, s_max=s_max)
    cells, heat_ray = _heat_schedule(x, active, heat_s, heat_k, s_max)
    # one kernel call for the steps of every ray and of the heat map
    systoles = iter(cloud.systoles_under(
        *_stacks([ray for _, _, ray in rays] + [heat_ray], lat)))
    results = []
    for name, signs, ray in rays:
        rep = TrajectoryReport(point=x, ray=ray, window=window,
                               rows=_step_records(cloud, ray, systoles))
        results.append(RayResult(
            name=name, signs=signs,
            classification=classify_ray(rep), report=rep))
    heat = [{"s": s, "k": k, "min_content": mc, "min_supnorm": ms,
             "witness": cloud.format_point(ic)}
            for (s, k), (mc, ic, ms, _) in zip(cells, systoles)]
    prediction = ""
    anomalies = []
    rational = x.provenance in ("identity", "rational")
    if rational:
        if len(active) == 1:
            prediction = "all-diverging"
            for r in results:
                if r.classification != "diverging-trend":
                    anomalies.append(
                        f"ray {r.name} classified {r.classification}; "
                        "a single-place orbit at a rational point must diverge")
        elif len(active) == len(x.places) and len(x.places) > 1:
            prediction = "non-divergent"
            if not any(r.classification == "bounded-below" for r in results):
                anomalies.append(
                    "no bounded-below ray found; a full-S orbit is never divergent")
    return SurveyReport(point=x, active=list(active), rays=results, heat=heat,
                        prediction=prediction, anomalies=anomalies)


HEAT_K = range(-12, 13)


def _heat_schedule(x, active, heat_s, heat_k, s_max):
    """The heat map's (s, k) cells, as its CSV labels them, and their ray."""
    arch_active = any(p.kind != "finite" for p in active)
    fin_active = any(p.kind == "finite" for p in active)
    svals = list(heat_s) if heat_s is not None else \
        [round(-s_max + i * (2 * s_max) / 20, 10) for i in range(21)]
    kvals = list(heat_k) if heat_k is not None else list(HEAT_K)
    cells = [(s, k) for s in (svals if arch_active else [0.0])
             for k in (kvals if fin_active else [0])]
    ray = RaySchedule(active, [_n2_direction(x.n)] * len(active),
                      [tuple(k if place.kind == "finite" else s for place in active)
                       for s, k in cells])
    return [(s if arch_active else "", k if fin_active else "") for s, k in cells], ray


# ---------------------------------------------------------------------------
# Named constructions


def locally_divergent_example(field, places):
    """Unipotent at the first place, identity elsewhere, n = 2: each
    single-place orbit diverges, the full-S orbit does not close up."""
    if len(places) < 2:
        raise NeedTwoPlaces("need at least two places in S")
    upper = [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]]
    eye = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    g = [upper] + [eye] * (len(places) - 1)
    return OrbitPoint(field, places, 2, g, provenance="rational")


def anisotropic_point(field, places):
    """The quadratic-form lattice with rows (1, sqrt2) and (1, -sqrt2).

    Deliberately not rescaled to determinant one: the integral rows keep
    |x^2 - 2 y^2| >= 1 as the exact floor, which is what the compact-orbit
    fixture asserts.  The content systole carries the fixed scale 2*sqrt2.
    """
    s2 = QuadraticSurd.sqrt(2)
    g = [[QuadraticSurd(1), s2], [QuadraticSurd(1), -s2]]
    return OrbitPoint(field, places, 2, [g for _ in places],
                      provenance="explicit", unimodular=False)


def expanding_element(root_positions, tau, place, n=None):
    """A diagonal element expanding every requested off-diagonal position.

    Positions (i, j), 1-based, must form an acyclic directed graph
    (opposite root spaces cannot be expanded by one element).  Entries are
    exact powers, so the guarantee |t_i/t_j|_v >= tau is checked exactly.
    """
    positions = [(int(i), int(j)) for i, j in root_positions]
    if not positions:
        raise ValueError("need at least one position")
    if n is None:
        n = max(max(i, j) for i, j in positions)
    for i, j in positions:
        if i == j or not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"bad position {(i, j)}")
    adj = {i: set() for i in range(1, n + 1)}
    for i, j in positions:
        adj[i].add(j)
    # level(u), the longest path from u to a sink; static_order yields
    # each node after the nodes it maps to, here its successors
    levels = {}
    try:
        for u in graphlib.TopologicalSorter(adj).static_order():
            levels[u] = max((levels[w] + 1 for w in adj[u]), default=0)
    except graphlib.CycleError as e:
        cycle = " -> ".join(map(str, reversed(e.args[1])))
        raise CyclicPositions(f"positions contain the cycle {cycle}") from None
    lv = [levels[i] for i in range(1, n + 1)]
    # doubled and centered
    exps = [2 * v - max(lv) for v in lv]
    if sum(exps) != 0:
        base = [n * (2 * v) - 2 * sum(lv) for v in lv]
        g = math.gcd(*[abs(e) for e in base if e] or [1])
        exps = [e // g for e in base]
    min_diff = min(exps[i - 1] - exps[j - 1] for i, j in positions)
    assert min_diff >= 1
    tau_frac = Fraction(tau)
    if tau_frac <= 1:
        raise ValueError("tau must exceed 1")
    if place.kind == "finite":
        p = place.p
        k = 1
        while Fraction(p) ** (k * min_diff) < tau_frac:
            k += 1
        entries = [Fraction(p) ** (-k * e) for e in exps]
        for i, j in positions:
            ratio = Fraction(p) ** (place.residue_degree * k * (exps[i - 1] - exps[j - 1]))
            assert ratio >= tau_frac
    else:
        c = tau_frac
        entries = [c ** e for e in exps]
        for i, j in positions:
            assert c ** (exps[i - 1] - exps[j - 1]) >= tau_frac
    return TorusElement(place.field, [place], n, [entries])
