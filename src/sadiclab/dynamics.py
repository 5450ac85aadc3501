"""Diagonal torus actions on SL_n(K_S)/SL_n(O): trajectories and surveys.

A trajectory samples the window systole of t.g.O^n along a ray schedule,
a column of parameters per active place; the three-way classification
(diverging-trend, bounded-below, recurrent) is explicitly empirical --
finitely many steps never prove divergence.  Surveys sweep the canonical sign-pattern rays,
compare against the theoretical dichotomy at points whose entries lie in K
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
    NotInField,
    RayOverflow,
    ShapeMismatch,
    TooFewSteps,
)
from .lattice import SHIFT_BITS, PointCloud, SLattice
from .scalars import check_det, check_entries, is_exact, mul, to_field, to_float
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
            check_entries([diag], place)
            check_det([[c if i == j else 0 for j, c in enumerate(diag)]
                       for i in range(self.n)], place, unimodular=True)
            rows.append(diag)
        self.entries = tuple(rows)

    @classmethod
    def identity(cls, field, places, n):
        return cls(field, places, n, [[1] * n for _ in places])


def act(t, x):
    """Left translation t.x of the lattice x; inactive places keep their
    factors, and exact pairs of entries multiply exactly."""
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
    return SLattice(x.field, x.places, x.n, new_g, unimodular=x.unimodular)


# ---------------------------------------------------------------------------
# Ray schedules and trajectories


class RaySchedule:
    """An exponent direction and a column of parameters per active place.

    direction[k] is the exponent vector for the diagonal entries at the
    k-th active place (exponents summing to exactly 0, a float read as its
    binary value: the determinant-one condition); columns[k] holds that
    place's parameter at each step, all columns of one length: real at
    archimedean places, integer at finite places (their value group is
    discrete).  `columns` keeps them converted.  `scales` maps each active
    place's name to its (table, index) pair for the schedule kernel: the
    table holds one row per distinct parameter, the multipliers
    exp(par * c) at an archimedean place or the valuation shifts
    f * par * c at a finite one, and index[i] is step i's row.  An
    archimedean parameter whose multipliers overflow float64, or whose
    products par * c are infinite, raises `RayOverflow` (a nan one raises
    ValueError), and so do a finite one of +-inf (nan again raises
    ValueError) and one whose shifts move a norm by more than
    `lattice.SHIFT_BITS` / #R = 2^22 / #R bits, #R the active places, that
    is |f * par * c| * log2 p > 2^22 / #R for some c; a float parameter is
    named as given.  So no step moves a content by more than 2^22 bits,
    and none comes near 2^(-2^23), at or below which the kernel reads a
    content as 0 (`lattice._ZERO_EXP` / 2).  Each column is read on its
    own (`_place_column`); of several errors, the first in step order is
    raised, and of one step's, the first in place order.
    """

    def __init__(self, places, direction, columns):
        self.places = list(places)
        self.direction = [tuple(c) for c in direction]
        if not self.places:
            raise ShapeMismatch("a ray needs an active place")
        if len(self.direction) != len(self.places):
            raise ShapeMismatch("one direction per active place")
        for c in self.direction:
            if sum(map(Fraction, c)) != 0:
                raise ValueError(f"exponent vector {c} does not sum to zero")
        if len(columns) != len(self.places):
            raise ShapeMismatch("one parameter column per active place")
        if len(set(map(len, columns))) > 1:
            raise ShapeMismatch("parameter columns of unequal length")
        bits = SHIFT_BITS // len(self.places)
        built = [_place_column(place, direc, column, bits)
                 for place, direc, column in zip(self.places, self.direction, columns)]
        # each column's first failure (step, error); the least (step, place) raises
        failures = [(f[0], k, f[1]) for k, (_, _, f) in enumerate(built) if f]
        if failures:
            raise min(failures, key=lambda f: f[:2])[2]
        self.columns = [pars for pars, _, _ in built]
        self.scales = {place.name: scale for place, (_, scale, _) in zip(self.places, built)}

    def torus_element(self, field, n, i):
        """The torus element of step i."""
        entries = []
        for place, direc, pars in zip(self.places, self.direction, self.columns):
            if place.kind == "finite":
                entries.append([Fraction(place.p) ** (pars[i] * int(c)) for c in direc])
            else:
                entries.append([math.exp(pars[i] * c) for c in direc])
        return TorusElement(field, self.places, n, entries)


def _place_column(place, direc, column, bits):
    """One active place's column of parameters, converted, with its
    (table, index) pair and its first failure: (pars, (table, index),
    None), or (pars, None, (i, error)) when step i is the first to fail.

    The parameters convert a column at a time and `np.unique` gives their
    distinct values; numpy forms each one's products with the direction
    and checks them finite, and `math.exp` takes each product in turn.  A
    step fails when its distinct value does, so the first failing step is
    that of the first failing value in index order.
    """
    pars, error = _leading(float if place.kind != "finite" else int, column)
    if place.kind != "finite":
        values, index = np.unique(np.array(pars, dtype=np.float64), return_inverse=True)
        # silent inf and nan products, as Python's float products are
        with np.errstate(over="ignore", invalid="ignore"):
            products = np.multiply.outer(values, np.array(direc, dtype=np.float64))
        bad = ~np.isfinite(products).all(axis=1)
        try:
            table = np.fromiter(map(math.exp, products.ravel().tolist()), np.float64,
                                products.size).reshape(products.shape)
        except OverflowError:
            bad |= [_leading(math.exp, row)[1] is not None for row in products.tolist()]
        failing = bad[index]
        if failing.any():
            step = int(failing.argmax())
            par = pars[step]
            error = (ValueError(f"ray parameter {par!r} at {place.name} is not a number")
                     if math.isnan(par) else RayOverflow(par, place.name))
            return pars, None, (step, error)
        if error is not None:
            return pars, None, (len(pars), error)
        return pars, (table, index), None
    exps = [place.residue_degree * int(c) for c in direc]
    top, cap = max(map(abs, exps)), bits / math.log2(place.p)
    if pars != list(column[:len(pars)]) or max(map(abs, pars), default=0) * top > cap:
        for i, (par, value) in enumerate(zip(pars, column)):
            if par != value:
                return pars, None, (i, ValueError("finite-place ray parameters must be integers"))
            if abs(par) * top > cap:
                # a float parameter is named as given, not as its int's digits
                shown = float(value) if isinstance(value, float) else par
                return pars, None, (i, RayOverflow(shown, place.name,
                                                   f"moves a norm over {bits} bits"))
    if error is not None:
        value = column[len(pars)]
        if isinstance(value, float) and not math.isfinite(value):
            error = (ValueError(f"ray parameter nan at {place.name} is not a number")
                     if math.isnan(value) else RayOverflow(float(value), place.name))
        return pars, None, (len(pars), error)
    # |par| * top <= cap < 2^22, so every shift fits in int64; exponents all
    # 0 shift nothing, whatever the parameters
    values, index = np.unique(np.array(pars if top else [0] * len(pars), dtype=np.int64),
                              return_inverse=True)
    return pars, (np.multiply.outer(values, np.array(exps, dtype=np.int64)), index), None


def _leading(fn, values):
    """fn of values in turn, up to the first that raises ValueError or
    OverflowError: (the results before it, its error), or (all the
    results, None)."""
    try:
        return list(map(fn, values)), None
    except (ValueError, OverflowError):
        pass
    out = []
    for value in values:
        try:
            out.append(fn(value))
        except (ValueError, OverflowError) as e:
            return out, e


def _scales(ray, x):
    """The schedule kernel's per-place input for the steps of ray: at each
    of its active places, the place's (table, index) pair; at every other
    place of S, which no step moves, None."""
    return ([ray.scales.get(p.name) for p in x.arch_places],
            [ray.scales.get(p.name) for p in x.finite_places])


def trajectory(x, ray, window):
    """Window systoles of t.x, one `SystoleReport` per step t of the ray;
    no verdict."""
    cloud = PointCloud(x, window)
    return [cloud.report(*t) for t in cloud.systoles_under(*_scales(ray, x))]


THETA_LOW = 1e-3
THETA_HIGH_REL = 0.1


def classify_ray(contents):
    """Empirical three-way verdict on a trajectory's content systoles, one
    `min_content` per step.

    recurrent: dips below THETA_LOW, later re-exceeds theta_high;
    diverging-trend: ends below THETA_LOW (decreasing trend);
    bounded-below: never drops to theta_high = THETA_HIGH_REL * initial
    systole.  Always a statement about the sampled window, never a proof.
    """
    if len(contents) < 10:
        raise TooFewSteps(f"{len(contents)} steps; need at least 10")
    initial = contents[0]
    theta_high = THETA_HIGH_REL * initial
    dipped_at = next((i for i, v in enumerate(contents) if v < THETA_LOW), None)
    if dipped_at is not None:
        if any(v > theta_high for v in contents[dipped_at + 1:]):
            return "recurrent"
    if contents[-1] < THETA_LOW:
        return "diverging-trend"
    if min(contents) > theta_high:
        return "bounded-below"
    # ambiguous middle zone: trend decides, still an empirical label
    return "diverging-trend" if contents[-1] < 0.5 * initial else "bounded-below"


# ---------------------------------------------------------------------------
# Surveys


@dataclass
class RayResult:
    name: str
    classification: str
    contents: tuple                 # the trajectory's min_content, step by step


@dataclass
class SurveyReport:
    rays: list
    heat: dict                      # the CSV heat map's columns by name
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


def default_ray_catalog(active, steps=20, s_max=10.0):
    """The canonical (name, parameter columns) pairs for a survey: per-place
    axes, matched diagonals for sign pairs, and alternating staircases that
    re-balance after each archimedean push by STAIR_JUMP (staircases only
    when two places are active).  A ray holds a parameter column per active
    place, and every place moves along `_n2_direction`."""
    js = range(steps)
    rays = []
    for signs in _sign_patterns(len(active)):
        finite_moving = [p for p, s in zip(active, signs) if s and p.kind == "finite"]
        columns = []
        for place, s in zip(active, signs):
            if s == 0:
                columns.append([0 if place.kind == "finite" else 0.0] * steps)
            elif place.kind == "finite":
                columns.append([s * j for j in js])
            elif finite_moving:
                # match the archimedean speed to the finite one
                log_p = math.log(finite_moving[0].p)
                columns.append([s * j * log_p for j in js])
            else:
                columns.append([s * (s_max * j / (steps - 1)) for j in js])
        rays.append((_ray_name(active, signs), columns))
    # alternating staircases for two-place sign pairs
    if len(active) == 2 and active[0].kind != active[1].kind:
        arch_i = 0 if active[0].kind != "finite" else 1
        log_p = math.log(active[1 - arch_i].p)
        for sa in (1, -1):
            for sf in (1, -1):
                columns, signs = [None, None], [None, None]
                columns[arch_i] = [sa * log_p * (STAIR_JUMP * ((j + 1) // 2)) for j in js]
                columns[1 - arch_i] = [sf * (STAIR_JUMP * (j // 2)) for j in js]
                signs[arch_i], signs[1 - arch_i] = sa, sf
                rays.append(("stair:" + _ray_name(active, signs), columns))
    return rays


def divergence_survey(x, active, window, steps=20, s_max=10.0,
                      heat_s=None, heat_k=None):
    """Systole sweep over the canonical rays plus a heat-map grid.

    One `RaySchedule` holds the steps of every ray of the catalog and of
    every heat-map cell, in turn, each place's columns joined, and one
    kernel call serves them all; its minima are read as columns, each
    ray's contents a slice of one, and each distinct heat-map witness is
    formatted once.
    At points whose entries lie in K (`_is_rational`) the classical
    dichotomy is enforced: a single active place must show every ray
    diverging, and the full place set (when S has at least two places)
    must keep at least one ray bounded below.  Mismatches land in
    `anomalies`; elsewhere nothing is predicted or checked.
    """
    cloud = PointCloud(x, window)
    rays = default_ray_catalog(active, steps=steps, s_max=s_max)
    (s_labels, k_labels), cells = _heat_cells(active, heat_s, heat_k, s_max)
    schedule = RaySchedule(active, [_n2_direction(x.n)] * len(active),
                           [[par for _, columns in rays for par in columns[k]] + cell
                            for k, cell in enumerate(cells)])
    mc, ic, ms, _ = tuple(zip(*cloud.systoles_under(*_scales(schedule, x)))) or ((),) * 4
    results, start = [], 0
    for name, columns in rays:
        contents = mc[start:start + len(columns[0])]
        results.append(RayResult(name, classify_ray(contents), contents))
        start += len(columns[0])
    # what is left are the heat map's steps
    texts = {i: cloud.format_point(i) for i in dict.fromkeys(ic[start:])}
    heat = {"s": s_labels, "k": k_labels, "min_content": mc[start:],
            "min_supnorm": ms[start:], "witness": [texts[i] for i in ic[start:]]}
    prediction = ""
    anomalies = []
    if _is_rational(x):
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
    return SurveyReport(rays=results, heat=heat, prediction=prediction,
                        anomalies=anomalies)


def _is_rational(x):
    """Whether `to_field` takes every entry of x at every place into K."""
    try:
        for c in (c for mat in x.g for row in mat for c in row):
            to_field(c, x.field)
    except NotInField:
        return False
    return True


HEAT_K = range(-12, 13)


def _heat_cells(active, heat_s, heat_k, s_max):
    """The heat map's cells: their s and k columns as its CSV labels them,
    and their parameter columns, s at each archimedean place of active
    and k at each finite one.  A label no active place reads is ""."""
    arch_active = any(p.kind != "finite" for p in active)
    fin_active = any(p.kind == "finite" for p in active)
    svals, kvals = [0.0], [0]
    if arch_active:
        svals = list(heat_s) if heat_s is not None else \
            [round(-s_max + i * (2 * s_max) / 20, 10) for i in range(21)]
    if fin_active:
        kvals = list(heat_k) if heat_k is not None else list(HEAT_K)
    s_col = [s for s in svals for _ in kvals]
    k_col = kvals * len(svals)
    blank = [""] * len(s_col)
    return ((s_col if arch_active else blank, k_col if fin_active else blank),
            [k_col if p.kind == "finite" else s_col for p in active])


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
    return SLattice(field, places, 2, g)


def anisotropic_point(field, places):
    """The quadratic-form lattice with rows (1, sqrt2) and (1, -sqrt2).

    Deliberately not rescaled to determinant one: the integral rows keep
    |x^2 - 2 y^2| >= 1 as the exact floor, which is what the compact-orbit
    fixture asserts.  The content systole carries the fixed scale 2*sqrt2.
    """
    s2 = QuadraticSurd.sqrt(2)
    g = [[QuadraticSurd(1), s2], [QuadraticSurd(1), -s2]]
    return SLattice(field, places, 2, [g for _ in places], unimodular=False)


def expanding_element(root_positions, tau, place):
    """A diagonal element expanding every requested off-diagonal position.

    Positions (i, j), 1-based, must form an acyclic directed graph
    (opposite root spaces cannot be expanded by one element).  Entries are
    exact powers, so the guarantee |t_i/t_j|_v >= tau is checked exactly.
    The element is n x n, n the largest index the positions name.
    """
    positions = [(int(i), int(j)) for i, j in root_positions]
    if not positions:
        raise ValueError("need at least one position")
    n = max(max(i, j) for i, j in positions)
    for i, j in positions:
        if i == j or min(i, j) < 1:
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
