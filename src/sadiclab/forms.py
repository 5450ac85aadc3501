"""Decomposable homogeneous forms over K_S and their value sets on O^n.

A form is a per-place product of m independent linear forms in n
variables; the package keeps coefficients exact whenever the input allows
(rationals, quadratic surds, field elements) and falls back to 50-digit
floats otherwise.  Everything downstream works off the cached expansion in
the degree-m monomial basis.

The discreteness question ("does f(O^n) accumulate?") is not finitely
decidable; the report here runs a growing-window protocol and returns a
two-sided verdict with explicit evidence, which the rationality
reconstruction can then cross-check: a form proportional to a single
O-coefficient form must look discrete, a genuinely irrational one must
eventually accumulate.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

import numpy as np
from mpmath import mp, mpf

from . import linalg
from .errors import (
    DegenerateBasis,
    DependentFactors,
    NormFormNotIntegral,
    NotInField,
    ShapeMismatch,
    TooFewWindows,
    WindowTooLarge,
)
from .lattice import (_UNIT_ROUNDOFF, WINDOW_CAP, HeightWindow, _gamma,
                      _window_rows, witness_text)
from .numberfield import (
    DEFAULT_DPS,
    FieldElement,
    archimedean_places,
    create_field,
)
from .scalars import (abs_at, add, check_entries, div, is_exact, lift_exact,
                      mul, parse_real, to_field, to_mpf)
from .surd import QuadraticSurd


def monomial_basis(n, m):
    """Degree-m exponent tuples in n variables, descending lex order."""
    out = [e for e in itertools.product(range(m + 1), repeat=n) if sum(e) == m]
    out.sort(reverse=True)
    return out


def _canonical_scalar(c):
    """Keep exact scalars; materialize anything numeric at 50 digits."""
    if is_exact(c):
        return c
    with mp.workdps(DEFAULT_DPS):
        return +to_mpf(c)


def _times_linear(poly, row, out=None):
    """poly * (row[0] x1 + ... + row[n-1] xn), added into `out` if given.

    Polynomials are dicts from exponent tuples to scalars; exact zero
    coefficients of the linear form are skipped.
    """
    out = {} if out is None else out
    for expo, coeff in poly.items():
        for i, c in enumerate(row):
            if is_exact(c) and c == 0:
                continue
            e2 = expo[:i] + (expo[i] + 1,) + expo[i + 1:]
            term = mul(coeff, c)
            out[e2] = add(out[e2], term) if e2 in out else term
    return out


class DecomposableForm:
    """Per-place lists of m linear factors with a cached expansion.

    `factors[v]` is a list of m coefficient rows of length n.  A form may
    also be built directly from an expansion (`from_expansion`), which is
    how the shipped counterexample probes bypass the independence gate;
    those carry `label` explaining which hypothesis they violate.
    """

    def __init__(self, field, places, n, factors, label="", _expansions=None,
                 m=None):
        self.field = field
        self.places = list(places)
        self.n = int(n)
        self.label = label
        given = factors if factors is not None else _expansions
        if len(given) != len(self.places):
            raise ShapeMismatch(
                f"{len(given)} per-place lists for {len(self.places)} places")
        self.factors = None
        if factors is not None:
            self.factors = [tuple(tuple(row) for row in per_place)
                            for per_place in factors]
            counts = {len(per_place) for per_place in self.factors}
            if len(counts) != 1:
                raise DependentFactors("per-place factor counts differ")
            self.m = counts.pop()
            for place, per_place in zip(self.places, self.factors):
                check_entries(per_place, place)
        else:
            self.m = int(m)
        if self.factors is not None:
            self.factors = [tuple(tuple(_canonical_scalar(c) for c in row)
                                  for row in per_place)
                            for per_place in self.factors]
        self.basis = monomial_basis(self.n, self.m)
        if _expansions is not None:
            self.expansions = [tuple(_canonical_scalar(c) for c in exp)
                               for exp in _expansions]
        else:
            self.expansions = [self._expand(per_place)
                               for per_place in self.factors]
        for place, exp in zip(self.places, self.expansions):
            check_entries([exp], place)

    @classmethod
    def from_expansion(cls, field, places, n, m, coeffs_per_place, label=""):
        basis = monomial_basis(n, m)
        exps = []
        for coeffs in coeffs_per_place:
            if len(coeffs) != len(basis):
                raise ValueError("expansion length does not match the basis")
            exps.append(tuple(coeffs))
        return cls(field, places, n, None, label=label, _expansions=exps, m=m)

    def _expand(self, factor_rows):
        poly = {(0,) * self.n: Fraction(1)}
        for row in factor_rows:
            poly = _times_linear(poly, row)
        return tuple(poly.get(e, Fraction(0)) for e in self.basis)

    @cached_property
    def _integer_expansions(self):
        """Per place (P, Q, D, d): coefficient k is (P[k] + Q[k] sqrt(d)) / D.

        P and Q are integer tuples, D > 0 their common denominator and d
        the place's one radicand (1 when every coefficient is rational);
        coefficients must be int, Fraction, QuadraticSurd or FieldElement
        of a degree-1 field.  Radicands that differ within a place raise
        ValueError, as mixing them in `QuadraticSurd` arithmetic does.
        """
        out = []
        for exp in self.expansions:
            surds = [parse_real(c) for c in exp]
            radicands = sorted({s.d for s in surds if s.b})
            if len(radicands) > 1:
                raise ValueError(f"incompatible radicands {radicands[0]} "
                                 f"and {radicands[1]}")
            D = math.lcm(*(x.denominator for s in surds for x in (s.a, s.b)))
            out.append((tuple(int(s.a * D) for s in surds),
                        tuple(int(s.b * D) for s in surds), D,
                        radicands[0] if radicands else 1))
        return out

    @cached_property
    def _float_columns(self):
        """Per place (e1, e2, fl(c_k), w_k), one per nonzero coefficient c_k
        of x^e1 y^e2 of a planar form: `_float_weight` of the exact
        coefficient (P_k + Q_k sqrt(d)) / D of `_integer_expansions`."""
        return [[(e1, e2, *_float_weight(
            QuadraticSurd(Fraction(p, D), Fraction(q, D), d)))
            for p, q, (e1, e2) in zip(P, Q, self.basis) if p or q]
            for P, Q, D, d in self._integer_expansions]

    @cached_property
    def _strip_factors(self):
        """Per factor a x + b y of a planar form, `_strips`' cap-independent
        data (t, W_t, inv, W_inv, vertical): `_float_weight` of the slope
        t = a / b (0 when b = 0) and of 1 / |b| (1 / |a| when b = 0), and
        whether b = 0.  None unless every factor is exact and none is
        identically 0; factors expand to the form's expansion (`norm_form`,
        which alone passes both, gives its norm form's embedding factors)."""
        if self.factors is None:
            return None
        rows = [row for per_place in self.factors for row in per_place]
        if not all(is_exact(c) for row in rows for c in row):
            return None
        out = []
        for a, b in (map(parse_real, row) for row in rows):
            if a == 0 and b == 0:
                return None
            out.append((*_float_weight(a / b if b != 0 else QuadraticSurd(0)),
                        *_float_weight(abs(b if b != 0 else a).inverse()),
                        b == 0))
        return out

    def evaluate(self, z):
        """Per-place values at an exact point, via the cached expansion."""
        out = []
        for k, place in enumerate(self.places):
            coeffs = self.expansions[k]
            acc = None
            for coeff, expo in zip(coeffs, self.basis):
                if is_exact(coeff) and coeff == 0:
                    continue
                term = coeff
                for zi, e in zip(z, expo):
                    for _ in range(e):
                        term = mul(term, zi)
                acc = term if acc is None else add(acc, term)
            out.append(acc if acc is not None else Fraction(0))
        return out

    def magnitudes(self, z):
        """(per-place normalized magnitudes, their product), at
        DEFAULT_DPS + 5 digits."""
        mags = []
        with mp.workdps(DEFAULT_DPS + 5):
            total = mpf(1)
            for place, v in zip(self.places, self.evaluate(z)):
                m_v = to_mpf(abs_at(v, place, DEFAULT_DPS))
                mags.append(m_v)
                total *= m_v
            return mags, +total

    def compose(self, matrix):
        """The form x -> f(M x): factor rows are multiplied by M."""
        if self.factors is None:
            raise ValueError("composition needs explicit factors")
        mat = [[Fraction(c) for c in row] for row in matrix]
        new_factors = []
        for per_place in self.factors:
            rows = []
            for row in per_place:
                rows.append(tuple(
                    _sum_scalars([mul(row[i], mat[i][j])
                                  for i in range(self.n)])
                    for j in range(self.n)))
            new_factors.append(rows)
        return DecomposableForm(self.field, self.places, self.n, new_factors,
                                label=self.label)

    def __repr__(self):
        return (f"DecomposableForm(n={self.n}, m={self.m}, "
                f"places={[p.name for p in self.places]})")


def _sum_scalars(terms):
    acc = None
    for t in terms:
        acc = t if acc is None else add(acc, t)
    return acc if acc is not None else Fraction(0)


def _rank_at_place(rows, place):
    """Rank of the coefficient matrix, exact when possible."""
    if all(is_exact(c) for row in rows for c in row):
        return linalg.rank(rows)
    with mp.workdps(DEFAULT_DPS + 10):
        return linalg.float_rank(
            [[to_mpf(c, place, DEFAULT_DPS) for c in row] for row in rows],
            mpf(10) ** (-20))


def make_form(field, places, factors_per_place):
    """Validated decomposable form; factors must be independent per place.

    Dependent factors are rejected: dropping that hypothesis breaks the
    discreteness-implies-rationality principle (see the shipped probes).
    """
    if not factors_per_place:
        raise ValueError("need factors for every place")
    n = len(factors_per_place[0][0])
    m = len(factors_per_place[0])
    if m > n:
        raise DependentFactors(f"m={m} factors in n={n} variables")
    form = DecomposableForm(field, places, n, factors_per_place)
    for k, (place, rows) in enumerate(zip(form.places, form.factors)):
        if _rank_at_place(rows, place) < form.m:
            raise DependentFactors(
                f"factors at {place.name} have rank below {form.m}")
    return form


def evaluate_form(form, z):
    """Per-place value tuple of the form at an exact integral point."""
    return form.evaluate(list(z))


# ---------------------------------------------------------------------------
# Value spectra


@dataclass
class SpectrumEntry:
    magnitude: float
    witness: str
    count: int = 1


@dataclass
class ValueSpectrum:
    window: HeightWindow
    entries: list                      # sorted by magnitude, deduplicated
    min_nonzero: float
    min_gap: float
    zero_count: int
    candidates: int                    # points that reached the exact stage;
                                       # telemetry, written to no artifact

    def magnitudes(self):
        return [e.magnitude for e in self.entries]


def _order_keys(mags):
    """Exact, order-preserving integer keys of positive finite mpfs.

    A positive mpf is man 2^exp, man odd of bc bits (`_mpf_`), so it lies
    in [2^(e - 1), 2^e) with e = exp + bc.  With B the largest bc,
    man 2^(B - bc) lies in [2^(B - 1), 2^B), so e 2^B + man 2^(B - bc)
    orders by e first and then by the aligned mantissa, as the values are
    ordered; equal values have equal (man, exp) and so equal keys.
    """
    parts = [mag._mpf_ for mag in mags]
    B = max((bc for _, _, _, bc in parts), default=0)
    return [((exp + bc) << B) + (man << (B - bc)) for _, man, exp, bc in parts]


def _spectrum_from_pairs(pairs, window, zero_count, candidates):
    """The spectrum of the exact stage's (magnitude mpf, witness str) pairs,
    deduplicated at 1e-30 resolution; the first witness of a value in the
    candidate order stays, as the sort by `_order_keys` is stable."""
    keys = _order_keys([mag for mag, _ in pairs])
    entries = []
    last = None
    tol = mpf(10) ** (-30)
    for i in sorted(range(len(pairs)), key=keys.__getitem__):
        mag, wit = pairs[i]
        if last is not None and abs(mag - last) < tol:
            entries[-1].count += 1
            continue
        entries.append(SpectrumEntry(float(mag), wit))
        last = mag
    gaps = [b.magnitude - a.magnitude for a, b in zip(entries, entries[1:])]
    return ValueSpectrum(
        window=window, entries=entries,
        min_nonzero=entries[0].magnitude if entries else math.inf,
        min_gap=min(gaps) if gaps else math.inf,
        zero_count=zero_count, candidates=candidates)


def value_spectrum(form, window, magnitude_cap=None):
    """Distinct nonzero value magnitudes of f on the window of O^n.

    Two stages (`_scan`).  The candidate stage lists the points in the
    order that picks the witnesses: with a magnitude cap, a planar
    `_integer_ok` form takes `_planar_candidates`, a float64 prefilter
    with a derived error bound over the box, or its strips, in the box's
    scan order (x, then y); every other scan takes the whole window in
    `_window_rows`' height-shell order.  The exact stage evaluates the
    candidates: `_integer_refine` in exact integers for an `_integer_ok`
    form, bit-identically to `magnitudes`, and `_point_refine` point by
    point for any other.  Either way the result is that of the exact scan
    in the candidate order.  Either candidate stage checks the points it
    will visit against the window's size bound before it visits any
    (`_scan_plan`), and a cap must not be negative.

    The pairs a scan at a cap C keeps are those of the exact scan with a
    magnitude <= C, in candidate order, and a smaller window's points come
    in the same relative order in either candidate order: the box's (x,
    then y) and the height shells, of which the smaller window's are a
    prefix.  So the pairs of a scan at height H and cap C whose numerator
    height is <= h and magnitude <= c <= C are the pairs of the scan at h
    and c (`_read_spectrum`): `discreteness_report` reads every window off
    one scan of its largest height.
    """
    return _read_spectrum(_scan(form, window, magnitude_cap), window,
                          magnitude_cap)


def _read_spectrum(scan, window, cap):
    """The spectrum of `window` under `cap` (None: uncapped), read off a
    `_scan` of a window as high or higher at a cap >= `cap`: the points of
    numerator height max |z_i| <= window.H, their pairs at or below `cap`.
    `candidates` counts the scan's candidates in the window."""
    pairs, heights, outcome = scan
    inside = heights <= window.H
    kept = [pair for pair, ok in zip(pairs, inside[outcome == 1].tolist())
            if ok and (cap is None or pair[0] <= cap)]
    return _spectrum_from_pairs(kept, window,
                                int(np.count_nonzero(inside & (outcome == 0))),
                                int(np.count_nonzero(inside)))


def _finite_primes(form):
    return sorted({p.p for p in form.places if p.kind == "finite"})


def _scan_plan(form, window, cap):
    """What the candidate stage of a scan at `cap` visits, checked first.

    A capped planar `_integer_ok` form visits the y-intervals per row of
    `_strips`, or else of the box, which this returns; every other scan
    visits the whole window (None).  Raises ValueError on a negative cap,
    and WindowTooLarge when the plan holds more points than the window's
    size bound.
    """
    if cap is not None and cap < 0:
        raise ValueError(f"magnitude cap must be >= 0, got {cap}")
    if cap is None or form.n != 2 or not _integer_ok(form):
        window.check(form.n * form.field.degree, len(_finite_primes(form)))
        return None
    intervals = _strips(form, window.H, cap) or [_box(window.H)]
    visited = sum(int(np.maximum(hi - lo + 1, 0).sum()) for lo, hi in intervals)
    if visited > window.cap:
        raise WindowTooLarge(f"capped scan of {visited} points exceeds cap {window.cap}")
    return intervals


def _scan(form, window, magnitude_cap, intervals=None):
    """(pairs, heights, outcome): `value_spectrum`'s two stages.  `pairs`
    are the exact stage's (magnitude mpf, witness) pairs in candidate
    order; per candidate point, `heights` is its numerator height max
    |z_i| and `outcome` that of the exact stage (`_integer_refine`).
    `intervals` is a plan of `_scan_plan` at this cap and height that a
    window of no larger cap passed; without one the scan plans itself."""
    if intervals is None:
        intervals = _scan_plan(form, window, magnitude_cap)
    primes = _finite_primes(form)
    if intervals is not None:
        points = _planar_candidates(form, intervals, window.H, magnitude_cap)
    else:
        points, eexp = _window_rows(form.n * form.field.degree, primes, window)
    if _integer_ok(form):
        pairs, _, outcome = _integer_refine(form, points, magnitude_cap)
    else:
        pairs, _, outcome = _point_refine(form, points, eexp, primes,
                                          magnitude_cap)
    return pairs, np.abs(points).max(axis=1, initial=0), outcome


def _point_refine(form, rows, eexp, primes, cap):
    """(pairs, zero_count, outcome) of any form over the window points,
    numerators `rows` in integral-basis coordinates over prod p^e, `eexp`
    the exponents e over `primes`: each point is evaluated exactly by
    `magnitudes`, a zero only counts, and a magnitude above `cap` is
    dropped; `outcome` as in `_integer_refine`."""
    d = form.field.degree
    pairs = []
    outcome = np.full(len(rows), -1, dtype=np.int8)
    with mp.workdps(DEFAULT_DPS + 5):
        for i, (row, exps) in enumerate(zip(rows.tolist(), eexp.tolist())):
            denom = math.prod(p ** e for p, e in zip(primes, exps))
            if d == 1:
                z = [Fraction(c, denom) for c in row]
            else:
                z = [form.field.from_integral_coords(row[j * d:(j + 1) * d],
                                                     denom)
                     for j in range(form.n)]
            total = form.magnitudes(z)[1]
            if total == 0:
                outcome[i] = 0
            elif cap is None or total <= cap:
                outcome[i] = 1
                pairs.append((total, witness_text(z)))
    return pairs, int(np.count_nonzero(outcome == 0)), outcome


def _integer_ok(form):
    """Real places over a degree-1 field and exact expansions: the forms
    whose values `_integer_refine` computes in integers."""
    return (form.field.degree == 1
            and all(p.kind == "real" for p in form.places)
            and all(is_exact(c) for exp in form.expansions for c in exp))


_BLOCK = 1 << 15                   # points per prefilter block / exact batch


def _value_bound(form, points):
    """(W, T): W the largest sum_k |P_k| + |Q_k| over the places'
    `_integer_expansions`, T = max |z_i|^m over the rows z of `points`.
    Every monomial z^e_k is at most T, and |A|, |B| of `_integer_values`
    and their partial sums are at most W T."""
    top = int(np.abs(points).max(initial=0)) ** form.m
    return max((sum(map(abs, P + Q)) for P, Q, _, _ in
                form._integer_expansions), default=0), top


def _integer_values(form, points):
    """Per place (A, B), integer arrays with f(z) = (A + B sqrt(d)) / D.

    (P, Q, D, d) are the place's `_integer_expansions`; z runs over the
    rows of the integer array `points`, A = sum_k P_k z^e_k and
    B = sum_k Q_k z^e_k in exact integers: int64 when W, T and W T of
    `_value_bound` are below 2^63, so that no coefficient, monomial or
    partial sum overflows, and object dtype otherwise.
    """
    W, T = _value_bound(form, points)
    cols = points.astype(np.int64 if max(W, T, W * T) < 2 ** 63
                         else object).T
    monos = [math.prod(c ** e for c, e in zip(cols, expo) if e)
             for expo in form.basis]
    zero = np.zeros(len(points), dtype=cols.dtype)
    return [(sum((p * mono for p, mono in zip(P, monos) if p), zero),
             sum((q * mono for q, mono in zip(Q, monos) if q), zero))
            for P, Q, _, _ in form._integer_expansions]


def _integer_refine(form, points, cap=None):
    """(pairs, zero_count, outcome) of an `_integer_ok` form over integer
    `points`.

    The rows z of `points` are visited in order, in batches of at most
    2^15.  With (A, B) from `_integer_values`, f is 0 at a place exactly
    when A = B = 0, since d is 1 or not a square; such points only count
    in `zero_count`.  Every other point gets the mpf that `magnitudes`
    returns, and is dropped when it exceeds `cap`.  The direct formula of
    `_refined_magnitude` gives it when no place has a nonzero
    field-element coefficient (which is embedded with its own rounding)
    and the a-priori bound W T of `_value_bound` on |A| and |B| has at
    most prec bits; otherwise `magnitudes` itself gives it.  `outcome`
    holds per point 1 if it gave a pair, 0 if f is 0 there and -1 if it
    was dropped.
    """
    exps = form._integer_expansions
    W, T = _value_bound(form, points)
    pairs = []
    outcome = np.full(len(points), -1, dtype=np.int8)
    with mp.workdps(DEFAULT_DPS + 5):
        direct = (W * T).bit_length() <= mp.prec and not any(
            isinstance(c, FieldElement) and c != 0
            for exp in form.expansions for c in exp)
        roots = [mp.sqrt(d) for _, _, _, d in exps]
        for s in range(0, len(points), _BLOCK):
            block = points[s:s + _BLOCK]
            zero = np.zeros(len(block), dtype=bool)
            values = []
            for A, B in _integer_values(form, block):
                zero |= (A == 0) & (B == 0)
                values.append((A.tolist(), B.tolist()))    # mpf reads int
            outcome[s:s + len(block)][zero] = 0
            for i in np.flatnonzero(~zero).tolist():
                z = block[i].tolist()
                if direct:
                    total = _refined_magnitude(
                        form, [(A[i], B[i]) for A, B in values], roots)
                else:
                    total = form.magnitudes([Fraction(c) for c in z])[1]
                if cap is not None and total > cap:
                    continue
                outcome[s + i] = 1
                pairs.append((total, witness_text(z)))
    return pairs, int(np.count_nonzero(outcome == 0)), outcome


def _refined_magnitude(form, parts, roots):
    """The mpf `magnitudes` gives at a point where f = (A + B sqrt(d)) / D
    at each place, (A, B) in `parts`; f is nonzero at every place, |A|
    and |B| are below 2^prec and no coefficient is a field element.

    The value at a place is the reduced surd a + b sqrt(d), a = A / D and
    b = B / D, and `to_mpf` computes mpf(num(a)) / den(a) + mpf(num(b)) /
    den(b) * sqrt(d) at DEFAULT_DPS + 5 digits (a `Fraction` value, b = 0,
    gives the same bits).  As |A| and |B| stay below 2^prec, mpf(A) / D
    and mpf(num(a)) / den(a) are both the correctly rounded quotient of one
    rational, so the same formula on the unreduced A, B and D, with
    `roots` the places' sqrt(d) at DEFAULT_DPS + 5 digits, gives the same
    bits.  Runs at DEFAULT_DPS + 5 digits.
    """
    total = mpf(1)
    for (A, B), (_, _, D, _), root in zip(parts, form._integer_expansions,
                                          roots):
        total *= abs(mpf(A) / D + mpf(B) / D * root)
    return +total


def _planar_candidates(form, intervals, H, cap):
    """The capped scan's candidate points of a planar `_integer_ok` form.

    The scan visits the y-intervals per row x = 0..H in `intervals`
    (`_scan_plan`: the strips, or the box x in [0, H], y in [-H, H] with
    x = 0 only for y > 0, one point per sign class).  It goes in blocks of
    about 2^15 points (`_scan_blocks`) and keeps every point whose lower
    bound from `_float_bounds` is <= cap (1 + 4Pu), P places, the margin
    that covers the 2P - 1 roundings of that bound; a NaN from inf - inf
    keeps its point.  The kept points are deduplicated and returned as an
    integer array in scan order (x, then y), which picks the witnesses.

    Strips (`_strips`): when f is exactly the product of its M = P m
    factors L, |f| <= cap needs some |L| <= r with r^M >= cap (checked in
    `Fraction`s), so only the strips |L| <= r are scanned, each endpoint
    widened by 2 gamma_6 (W_t H + r W_inv), twice the float error of
    computing it.  Every point of the box that the exact scan keeps,
    zeros included, lies on a strip, so the strips change only
    `candidates`, the number of kept points.
    """
    cap_hi = cap * (1 + 4 * len(form.places) * _UNIT_ROUNDOFF)
    width = 2 * H + 1
    kept = set()
    for keys in _scan_blocks(intervals, H):
        lo, _ = _float_bounds(form, keys, H)
        kept.update(keys[~(lo > cap_hi)].tolist())
    keys = np.array(sorted(kept), dtype=np.int64)
    return np.stack([keys // width, keys % width - H], axis=1)


def _float_bounds(form, keys, H):
    """Float (lo, hi) at the box points of a planar `_integer_ok` form.

    `keys` are scan indices x (2H + 1) + y + H with |x|, |y| <= H.  Per
    place f = sum_k c_k x^e1 y^e2, evaluated by Horner's rule in y with
    the column coefficients c_k x^e1 (`DecomposableForm._float_columns`).
    In the standard model of float64 arithmetic (no overflow or underflow;
    Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 3):

    * float(c_k) rounds a and b of c_k = a + b sqrt(d), sqrt(d), one
      product and one sum: |fl(c_k) - c_k| <= gamma_4 w_k with
      w_k = |a| + |b| sqrt(d);
    * x^e1 takes e1 - 1 roundings and its product with fl(c_k) one more;
      Horner's rule adds 2 e2 + 1 on the term of degree e2 < m in y and 2m
      on the leading one: at most 2m per term;
    * so |acc - f| <= gamma_(2m+4) sum_k w_k x^e1 |y|^e2
      <= gamma_(2m+4) S(x) with S(x) = sum_k w_k x^e1 H^e2, one bound per
      point.  S is itself computed in float with relative error far below
      1/2, so delta = 2 gamma_(2m+4) S(x) bounds |acc - f|.

    So at each place max(|acc| - delta, 0) <= |f_v| <= |acc| + delta, and
    lo and hi are the products of these over the places, each computed
    with 2P - 1 roundings for P places (P subtractions or sums and P - 1
    products, of nonnegative numbers): lo <= (1 + u)^(2P-1) |f| and
    |f| <= hi / (1 - u)^(2P-1).  The relative margin 4Pu covers these and
    the rounding of its own product, as (1 + u)^(2P-1) <= (1 + 4Pu)(1 - u)
    and (1 + 4Pu)(1 - u)^(2P) >= 1 while 4Pu is far below 1: a point with
    |f| <= cap has lo <= fl(cap (1 + 4Pu)), and |f| <= fl(hi (1 + 4Pu)).
    A point with lo > 0 is proven nonzero.
    """
    m = form.m
    width = 2 * H + 1
    xf = (keys // width).astype(np.float64)
    yf = (keys % width - H).astype(np.float64)
    xpow = [np.ones_like(xf)]
    for _ in range(m):
        xpow.append(xpow[-1] * xf)
    hpow = [float(H) ** e for e in range(m + 1)]
    grow = 2 * _gamma(2 * m + 4)
    lo = hi = 1.0
    for terms in form._float_columns:
        alpha = [None] * (m + 1)
        size = np.zeros_like(xf)
        for e1, e2, c, w in terms:
            alpha[e2] = c * xpow[e1]
            size += w * xpow[e1] * hpow[e2]
        acc = np.zeros_like(xf)
        for e2 in range(m, -1, -1):
            if alpha[e2] is not None:
                acc += alpha[e2]
            if e2:
                acc *= yf
        np.abs(acc, out=acc)
        size *= grow
        lo = lo * np.maximum(acc - size, 0.0)
        hi = hi * (acc + size)
    return lo, hi


def _least_value_bound(form, H):
    """A float U >= the least nonzero |f| over the box at height H, or None.

    U is the least `_float_bounds` upper bound over the box points whose
    lower bound is > 0, which are proven nonzero, times 1 + 4Pu; None
    when no box point is proven nonzero.  The box holds one point of each
    sign class {z, -z} of the window, and |f(-z)| = |f(z)|, so its least
    nonzero |f| is the window's.
    """
    least = math.inf
    for keys in _scan_blocks([_box(H)], H):
        lo, hi = _float_bounds(form, keys, H)
        proven = hi[lo > 0]
        if len(proven):
            least = min(least, float(proven.min()))
    if least == math.inf:
        return None
    return least * (1 + 4 * len(form.places) * _UNIT_ROUNDOFF)


def _box(H):
    """The box's y-interval [lo, hi] per row x = 0..H (x = 0: y >= 1)."""
    lo = np.full(H + 1, -H, dtype=np.int64)
    lo[0] = 1
    return lo, np.full(H + 1, H, dtype=np.int64)


def _strips(form, H, cap):
    """Per factor, the y-intervals of its strip per row x = 0..H; or None.

    If f is exactly the product of its M = P m factors L = a x + b y and
    |f| <= cap, some |L| <= r for any r with r^M >= cap: r is cap^(1/M)
    rounded up until Fraction(r)^M >= cap holds exactly.  For b != 0 the
    strip of L is y in [c - w, c + w], c = -t x with t = a / b and
    w = r / |b|; t and 1 / |b| are exact surds p + q sqrt(d), each rounded
    to float within gamma_4 (|p| + |q| sqrt(d)) as in the prefilter.  One
    rounding for t x, one for r / |b| and one for the sum or difference
    keep each computed endpoint within E = gamma_6 (W_t H + r W_inv) of the
    true one, W the |p| + |q| sqrt(d) weights; widening by 2E covers E,
    the rounding of the widened endpoint and of 2E itself.  A factor with
    b = 0 is a strip of whole rows, x <= r / |a| widened alike.  None
    (scan the box) unless the form has `DecomposableForm._strip_factors`
    (held once per form), 0 <= cap < inf, every widening is below one row
    step, and the strips hold fewer points than the box.
    """
    factors = form._strip_factors
    if factors is None or not 0 <= cap < math.inf:
        return None
    r = cap ** (1 / len(factors))
    while Fraction(r) ** len(factors) < Fraction(cap):
        r = math.nextafter(r, math.inf)
    x = np.arange(H + 1, dtype=np.float64)
    strips = []
    for t, w_t, inv, w_inv, vertical in factors:
        slack = 2 * _gamma(6) * (w_t * H + r * w_inv)
        if not slack < 1:                 # also NaN and inf
            return None
        if vertical:
            lo = np.where(x <= r * inv + slack, -H, H + 1)
            hi = np.full(H + 1, H)
        else:
            c, w = -(t * x), r * inv
            lo = np.clip(np.ceil(c - w - slack), -H, H + 1)
            hi = np.clip(np.floor(c + w + slack), -H - 1, H)
        lo, hi = lo.astype(np.int64), hi.astype(np.int64)
        lo[0] = max(lo[0], 1)
        strips.append((lo, hi))
    size = sum(int(np.maximum(hi - lo + 1, 0).sum()) for lo, hi in strips)
    return strips if size < H * (2 * H + 2) else None


def _float_weight(s):
    """(float(s), |a| + |b| sqrt(d)) of a surd s = a + b sqrt(d)."""
    root = math.sqrt(s.d)
    return (float(s.a) + float(s.b) * root,
            abs(float(s.a)) + abs(float(s.b)) * root)


def _scan_blocks(intervals, H):
    """Blocks of about 2^15 scan indices x (2H + 1) + y + H of the points
    with y in [lo, hi] at row x, for every interval (lo, hi) of per-row
    arrays; a point in two intervals comes twice.

    A row is never split; a block holds the rows whose points start
    within one multiple of 2^15 of the running count.
    """
    counts = [np.maximum(hi - lo + 1, 0) for lo, hi in intervals]
    per_row = sum(counts)
    block_of = (np.cumsum(per_row) - per_row) // _BLOCK
    width = 2 * H + 1
    for rows in np.split(np.arange(H + 1),
                         np.flatnonzero(np.diff(block_of)) + 1):
        keys = []
        for (lo, hi), count in zip(intervals, counts):
            c = count[rows]
            start = rows * width + lo[rows] + H - (np.cumsum(c) - c)
            keys.append(np.repeat(start, c) + np.arange(c.sum()))
        yield np.concatenate(keys)


# ---------------------------------------------------------------------------
# Discreteness report


@dataclass
class ClusterEvidence:
    center: float
    members: list                  # (magnitude, witness) pairs, final window
    per_window_counts: list


@dataclass
class DiscretenessReport:
    verdict: str                   # 'discrete-trend' | 'accumulation-detected'
    min_nonzero: float
    cluster: ClusterEvidence = None
    anomaly: str = ""
    spectrum: ValueSpectrum = None  # the caller's spectrum at the largest
                                    # height under `spectrum_cap`, if asked


NEW_VALUES_REQUIRED = 3


def discreteness_report(form, heights, E=0, cap=WINDOW_CAP, spectrum_cap=None):
    """Growing-window accumulation probe.

    accumulation-detected requires a cluster that keeps gaining at least
    NEW_VALUES_REQUIRED distinct values whose distances to the cluster
    center shrink as the window grows, that gains values in the last
    window, and whose smallest internal gap at least halves in every
    window where it gains: values on a fixed grid, as a rational form
    takes, fill a range without crowding.  Anything else is
    discrete-trend, explicitly limited to the tested windows.  `cap`
    bounds each window's points (`HeightWindow`).  The heights must be
    three or more and distinct, or TooFewWindows is raised: a repeated
    top height can never gain values, so it would force discrete-trend.

    Every window's spectrum is capped at 2.5 m, m the least nonzero
    magnitude at the first height (1 if there is none), and read off one
    `_scan` of the largest height at a cap C >= 2.5 m (`_read_spectrum`):
    the spectrum of its own scan at 2.5 m but for `candidates`.  With
    `spectrum_cap`, C >= spectrum_cap, and `spectrum` is value_spectrum(
    form, HeightWindow(heights[-1], E, cap), spectrum_cap) read off it.
    For a planar `_integer_ok` form with a point proven nonzero at the
    first height, that scan is the only one: C = max(2.5 U, spectrum_cap)
    with U = `_least_value_bound` >= m, so it keeps m, the least value of
    the first window that it keeps.  Any other form takes m from the
    uncapped scan of the first window, and C = max(2.5 m, spectrum_cap);
    so does a scan that keeps no value there, or whose C is below 2.5 m.

    The windows are checked in the order of the separate scans, each
    before any larger one is scanned: that value_spectrum call's plan,
    the first window as enumerated, then each larger one in ascending
    height, the largest by its scan (with that call's plan at
    `spectrum_cap`).  A capped planar scan visits at most its box of
    H (2H + 2) points, which its window's cap admits, so the windows
    between are checked only when enumerated.
    """
    if len(heights) < 3 or len(set(heights)) < len(heights):
        raise TooFewWindows("need at least three distinct heights, got "
                            f"{sorted(heights)}")
    heights = sorted(heights)
    own = HeightWindow(heights[-1], E, cap)
    plan = None if spectrum_cap is None else _scan_plan(form, own, spectrum_cap)
    # A capped planar scan streams its box of H (2H + 2) points in blocks,
    # so each capped window may visit its whole box; a window that is
    # enumerated holds more than its box, (2H + 1)^2 points or more, and
    # still meets `cap`.
    windows = {h: HeightWindow(h, E, max(cap, h * (2 * h + 2)))
               for h in heights}

    def top_scan(at):       # at spectrum_cap, with that call's plan
        at = at if spectrum_cap is None else max(at, spectrum_cap)
        return at, _scan(form, windows[heights[-1]], at,
                         plan if at == spectrum_cap else None)

    first = HeightWindow(heights[0], E, cap)
    _scan_plan(form, first, None)
    planar = form.n == 2 and _integer_ok(form)
    bound = _least_value_bound(form, heights[0]) if planar else None
    scan = least = None
    if bound is not None:
        top_cap, scan = top_scan(2.5 * bound)
        inside = (scan[1][scan[2] == 1] <= heights[0]).tolist()
        least = min((mag for (mag, _), ok in zip(scan[0], inside) if ok),
                    default=None)
    if least is None:
        least = min((mag for mag, _ in _scan(form, first, None)[0]),
                    default=None)
    mag_cap = 1.0 if least is None else 2.5 * float(least)
    if not planar:
        for h in heights[1:-1]:
            _scan_plan(form, windows[h], None)
    if scan is None or top_cap < mag_cap:
        top_cap, scan = top_scan(mag_cap)
    spectra = [_read_spectrum(scan, windows[h], mag_cap) for h in heights]
    spectrum = (None if spectrum_cap is None else
                _read_spectrum(scan, own, spectrum_cap))
    return _report_from_spectra(form, spectra, mag_cap, spectrum)


def _report_from_spectra(form, spectra, mag_cap, spectrum):
    """The report from the per-height spectra, each capped at `mag_cap`."""
    base_gap = spectra[0].min_gap
    rho = base_gap / 4 if math.isfinite(base_gap) else mag_cap / 10
    final = spectra[-1]
    clusters = _group_by_gap(final.entries, rho)
    best = None
    for group in clusters:
        if len(group) < NEW_VALUES_REQUIRED + 1:
            continue
        lo = group[0].magnitude
        hi = group[-1].magnitude
        center = group[len(group) // 2].magnitude
        counts = []
        max_dists = []
        min_gaps = []
        for spec in spectra:
            inside = [e.magnitude for e in spec.entries
                      if lo - 1e-15 <= e.magnitude <= hi + 1e-15]
            counts.append(len(inside))
            max_dists.append(max((abs(m - center) for m in inside), default=0.0))
            min_gaps.append(min((b - a for a, b in zip(inside, inside[1:])),
                                default=math.inf))
        if counts[-1] - counts[0] < NEW_VALUES_REQUIRED or counts[-1] == counts[-2]:
            continue
        # distances of newly gained values must not spread out, and the
        # values must crowd where they are gained
        gains = [i for i in range(len(counts) - 1) if counts[i + 1] != counts[i]]
        if not all(max_dists[i + 1] <= max_dists[i] + rho and
                   min_gaps[i + 1] <= min_gaps[i] / 2 for i in gains):
            continue
        evidence = ClusterEvidence(
            center=center,
            members=[(e.magnitude, e.witness) for e in group],
            per_window_counts=counts)
        if best is None or len(group) > len(best.members):
            best = evidence
    verdict = "accumulation-detected" if best else "discrete-trend"
    anomaly = ""
    recon = rationality_reconstruct(form)
    if recon.status == "reconstructed" and verdict == "accumulation-detected":
        # a rational multiple of an integral form takes scaled-integer
        # values; accumulation here can only be an implementation bug
        anomaly = ("form reconstructs to a rational multiple of "
                   f"{recon.g} yet shows accumulation")
    return DiscretenessReport(
        verdict=verdict,
        min_nonzero=final.min_nonzero,
        cluster=best,
        anomaly=anomaly,
        spectrum=spectrum)


def _group_by_gap(entries, rho):
    groups = []
    cur = []
    for e in entries:
        if cur and e.magnitude - cur[-1].magnitude > rho:
            groups.append(cur)
            cur = []
        cur.append(e)
    if cur:
        groups.append(cur)
    return groups


# ---------------------------------------------------------------------------
# Norm forms


def norm_form(field, basis_elems=None):
    """The norm of x1*mu1 + ... + xn*mun as an exact integer-coefficient form.

    The norm of an element is the determinant of multiplication by it on
    the power basis, so N(x1 mu1 + ... + xn mun) = det(x1 M1 + ... + xn Mn)
    with Mk the matrix of multiplication by muk (Cohen, GTM 138, ch. 4).
    Entry (i, j) is the linear form whose coefficient k is coordinate i of
    muk theta^j; the determinant is a Laplace expansion along the rows over
    memoised column subsets, with no division.  A real quadratic field's
    form carries its two exact embedding factors, which let a capped scan
    visit only their strips (`_strips`); any other field's carries none.
    Lives over the rationals at the single real place.
    """
    n = field.degree
    powers = [field.element([int(i == j) for j in range(n)]) for i in range(n)]
    if basis_elems is None:
        basis_elems = powers
    mus = [field.element(b) if not isinstance(b, FieldElement) else b
           for b in basis_elems]
    if len(mus) != n:
        raise DegenerateBasis(f"need {n} basis elements")
    rows = [[mu.coords[k] for k in range(n)] for mu in mus]
    if linalg.rank(rows) != n:
        raise DegenerateBasis("basis elements do not generate the field")
    columns = [[(mu * tj).coords for mu in mus] for tj in powers]
    lin = [[[c[i] for c in columns[j]] for j in range(n)] for i in range(n)]

    @cache
    def minor(cols):
        # det of the last len(cols) rows of `lin` on the columns `cols`
        if not cols:
            return {(0,) * n: Fraction(1)}
        i, out = n - len(cols), {}
        for s, j in enumerate(cols):
            row = lin[i][j] if s % 2 == 0 else [-c for c in lin[i][j]]
            _times_linear(minor(cols[:s] + cols[s + 1:]), row, out)
        return out

    det = minor(tuple(range(n)))
    coeffs = [det.get(expo, Fraction(0)) for expo in monomial_basis(n, n)]
    if any(c.denominator != 1 for c in coeffs):
        raise NormFormNotIntegral("norm form expansion is not integral")
    rational = create_field([0, 1])
    return DecomposableForm(
        rational, archimedean_places(rational), n,
        _embedding_factors(field, mus), label=f"norm form of degree {n}",
        _expansions=[tuple(coeffs)], m=n)


def _embedding_factors(field, mus):
    """A real quadratic field's norm form factors at its one place, a row
    per embedding, exact; None for any other field."""
    disc = field.discriminant
    if field.degree != 2 or disc <= 0:
        return None
    b = field.min_poly[1]
    return [[tuple(_sum_scalars([QuadraticSurd(mu.coords[0]),
                                 r * mu.coords[1]]) for mu in mus)
             for r in (QuadraticSurd(Fraction(-b, 2), Fraction(1, 2), disc),
                       QuadraticSurd(Fraction(-b, 2), Fraction(-1, 2), disc))]]


# ---------------------------------------------------------------------------
# Rationality reconstruction


@dataclass
class ReconstructionResult:
    status: str                    # reconstructed | no-rational-reconstruction | inconclusive
    g: tuple = None                # primitive integer coefficients on the basis
    alpha: list = None             # per-place pivot scalars
    evidence: str = ""


def _cf_recognize(x):
    """Nearest rational with denominator at most 10^6, or None.

    Continued-fraction convergents of x; accepted only when the match,
    within 10^-(dps - 10) at mpmath's working precision, is far tighter
    than an irrational's q^-2 approximation could be.  The k-th
    denominator is >= the Fibonacci F_k, so q > 10^6 ends it by k = 31.
    """
    err_bound = mpf(10) ** (-(mp.dps - 10))
    p0, q0, p1, q1 = 0, 1, 1, 0
    val = x
    while True:
        a = int(mp.floor(val))
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        if q1 > 10 ** 6:
            return None
        if abs(x - mpf(p1) / q1) < err_bound:      # p1 / q1 in lowest terms
            return Fraction(p1, q1)
        frac = val - a
        if frac == 0:
            return None
        val = 1 / frac


def rationality_reconstruct(form):
    """Try to split f_v = alpha_v * g with one O-coefficient form g.

    Per place: divide the expansion by its largest coefficient, recognize
    every ratio as a rational (`_ratio_rational`); all places must agree
    on the same rational vector, which is then cleared to a primitive
    integer form (sign fixed by the first nonzero coefficient).  A place
    whose coefficients are all 0 gives the evidence "zero form".
    """
    nplaces = len(form.places)
    ratio_vectors = []
    pivots = []
    with mp.workdps(DEFAULT_DPS):
        for k, place in enumerate(form.places):
            coeffs = form.expansions[k]
            try:        # real quadratic scalars compare exactly
                mags = [abs(parse_real(c)) for c in coeffs]
            except TypeError:   # an inexact one, or an irrational one of K
                mags = [abs(to_mpf(c, place)) for c in coeffs]
            piv = max(range(len(coeffs)), key=lambda i: (mags[i], -i))
            if mags[piv] == 0:
                return ReconstructionResult(
                    status="no-rational-reconstruction", evidence="zero form")
            pivots.append((piv, coeffs[piv]))
            ratios = []
            for i, c in enumerate(coeffs):
                r = _ratio_rational(c, coeffs[piv], place)
                if r is None:
                    return ReconstructionResult(
                        status="no-rational-reconstruction",
                        evidence=f"coefficient {i} at {place.name} has no "
                                 f"bounded-denominator ratio to the pivot")
                ratios.append(r)
            ratio_vectors.append(tuple(ratios))
        for k in range(1, nplaces):
            if ratio_vectors[k] != ratio_vectors[0]:
                i = next(i for i, (a, b) in
                         enumerate(zip(ratio_vectors[k], ratio_vectors[0]))
                         if a != b)
                return ReconstructionResult(
                    status="no-rational-reconstruction",
                    evidence=f"coefficient {i} disagrees between "
                             f"{form.places[k].name} and {form.places[0].name}")
        ratios = ratio_vectors[0]
        den = 1
        for r in ratios:
            den = den * r.denominator // math.gcd(den, r.denominator)
        ints = [int(r * den) for r in ratios]
        g0 = math.gcd(*[abs(v) for v in ints if v] or [1])
        ints = [v // g0 for v in ints]
        if next(v for v in ints if v) < 0:
            ints = [-v for v in ints]
        alphas = []
        for k, place in enumerate(form.places):
            piv_val = pivots[k][1]
            gp = ints[pivots[k][0]]           # nonzero: it is the pivot ratio
            alphas.append(div(piv_val, gp))
        return ReconstructionResult(
            status="reconstructed", g=tuple(ints), alpha=alphas)


def _ratio_rational(c, pivot, place):
    """c / pivot as a Fraction, or None.  Exact c and pivot that
    `lift_exact` combines decide exactly, through `to_field`; any others
    on the ratio's value at DEFAULT_DPS digits (`_cf_recognize`)."""
    pair = lift_exact([c, pivot])
    if pair is not None:
        try:
            r = to_field(div(*pair), place.field)
        except NotInField:
            return None         # an irrational surd
        return r.coords[0] if r.is_rational() else None
    x = to_mpf(c, place) / to_mpf(pivot, place)
    if abs(x.imag) > mpf(10) ** (10 - DEFAULT_DPS):
        return None
    x = x.real
    if abs(x) < mpf(10) ** (5 - DEFAULT_DPS):
        return Fraction(0)
    return _cf_recognize(x)


# ---------------------------------------------------------------------------
# Littlewood scanner


def _dist_to_int_exact(x, dps):
    with mp.workdps(dps):
        v = x.to_mpf(dps)
        return abs(v - mp.nint(v))


@dataclass
class LittlewoodResult:
    minimum: float
    argmin: int
    records: list                  # (n, value) strictly decreasing values


def littlewood_scan(alpha, beta, N, chunk=1 << 20):
    """min over 1 <= k <= N of k * <k a> * <k b> with a record trace.

    Fixed-point uint64 arithmetic prefilters the whole range in chunks:
    A = nint(frac(a) 2^64) is within eta = 2^-65 + (|a| + 1) 10^(1 - dps)
    of frac(a), so <k A / 2^64> is within k eta of <k a>, and the float
    da = min(kA, -kA mod 2^64) / 2^64 adds one rounding, 2u da at most;
    likewise db.  With da and db off by delta_a and delta_b, and two
    roundings in est = k da db, the true value is within
    eps = k (db delta_a + (da + delta_a) delta_b) + gamma_2 est of est;
    the factor 2 taken on eps covers its own rounding and that of the
    sums below.  A record k (value below every earlier value) therefore
    has est_k - eps_k below the prefix minimum of est_j + eps_j over
    j < k (`np.minimum.accumulate`, carried across chunks); every such k
    is re-evaluated at high precision in order, so rational inputs reach
    an exact zero, after which the scan stops.  Ties go to the smallest k.
    The scan works at dps = 50 + floor(log10 max(N, 10)) digits.
    """
    dps = DEFAULT_DPS + max(0, int(math.log10(max(N, 10))))
    a = parse_real(alpha)
    b = parse_real(beta)
    if N < 1:
        raise ValueError("N must be positive")
    with mp.workdps(dps):
        afrac = a.to_mpf(dps) % 1
        bfrac = b.to_mpf(dps) % 1
        A = int(mp.nint(afrac * 2 ** 64)) % (1 << 64)
        B = int(mp.nint(bfrac * 2 ** 64)) % (1 << 64)
    eta_a, eta_b = (2.0 ** -65 + (abs(float(x)) + 1) * 10.0 ** (1 - dps)
                    for x in (a, b))
    two64 = float(2 ** 64)
    u2 = 2 * _UNIT_ROUNDOFF
    records, best, best_n = [], None, None
    running = math.inf          # min of est_j + eps_j over the earlier chunks
    start = 1
    with np.errstate(over="ignore"), mp.workdps(dps):
        while start <= N and best != 0:
            stop = min(N, start + chunk - 1)
            ks = np.arange(start, stop + 1, dtype=np.uint64)
            fa = ks * np.uint64(A)
            fb = ks * np.uint64(B)
            da = np.minimum(fa, np.uint64(0) - fa).astype(np.float64) / two64
            db = np.minimum(fb, np.uint64(0) - fb).astype(np.float64) / two64
            kf = ks.astype(np.float64)
            est = kf * da * db
            delta_a = kf * eta_a + u2 * da
            delta_b = kf * eta_b + u2 * db
            eps = 2 * (kf * (db * delta_a + (da + delta_a) * delta_b)
                       + _gamma(2) * est)
            upper = est + eps
            before = np.minimum.accumulate(
                np.concatenate(([running], upper[:-1])))
            running = min(running, float(upper.min()))
            for j in np.flatnonzero(est - eps < before).tolist():
                k = start + j
                val = k * _dist_frac(a, k, dps) * _dist_frac(b, k, dps)
                if best is None or val < best:
                    best, best_n = val, k
                    records.append((k, float(val)))
                    if val == 0:
                        break
            start = stop + 1
    return LittlewoodResult(minimum=float(best), argmin=best_n, records=records)


def _dist_frac(x, k, dps):
    if x.is_rational():
        r = (x.as_fraction() * k) % 1
        r = min(r, 1 - r)
        return mpf(r.numerator) / r.denominator
    return _dist_to_int_exact(x * k, dps)


# ---------------------------------------------------------------------------
# Built-in probes


def builtin_probes():
    """Counterexample probes with a violated hypothesis, by name.

    'dependent-factors': x^2 (phi x - y); a product of *dependent* linear
    forms whose integral values stay discrete without being a rational
    multiple of an integer form.
    'indecomposable': x^2 + sqrt(2) y^2; not a product of real linear
    forms at all, discrete for positivity reasons.
    """
    rational = create_field([0, 1])
    real_place = archimedean_places(rational)[0]
    phi = QuadraticSurd(Fraction(1, 2), Fraction(1, 2), 5)
    dependent = DecomposableForm.from_expansion(
        rational, [real_place], 2, 3,
        [(phi, QuadraticSurd(-1), QuadraticSurd(0), QuadraticSurd(0))],
        label="counterexample: hypothesis violated (dependent factors)")
    s2 = QuadraticSurd.sqrt(2)
    indecomposable = DecomposableForm.from_expansion(
        rational, [real_place], 2, 2,
        [(QuadraticSurd(1), QuadraticSurd(0), s2)],
        label="counterexample: hypothesis violated (not decomposable)")
    return {
        "dependent-factors": dependent,
        "indecomposable": indecomposable,
    }
