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
    PrecisionBudgetExceeded,
    TooFewWindows,
)
from .lattice import _UNIT_ROUNDOFF, HeightWindow, _gamma, _window_rows
from .numberfield import (
    DEFAULT_DPS,
    FieldElement,
    archimedean_places,
    create_field,
)
from .scalars import add, div, is_exact, mul, parse_real, to_field, to_mpf
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
        self.factors = None
        if factors is not None:
            self.factors = [tuple(tuple(row) for row in per_place)
                            for per_place in factors]
            counts = {len(per_place) for per_place in self.factors}
            if len(counts) != 1:
                raise DependentFactors("per-place factor counts differ")
            self.m = counts.pop()
            for place, per_place in zip(self.places, self.factors):
                if place.kind == "finite":
                    for row in per_place:
                        for c in row:
                            to_field(c, field, place.name)
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
            if place.kind == "finite":
                for c in exp:
                    to_field(c, field, place.name)

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

    def magnitudes(self, z, dps=None):
        """(per-place normalized magnitudes, their product)."""
        dps, vals, mags = dps or DEFAULT_DPS, self.evaluate(z), []
        with mp.workdps(dps + 5):
            total = mpf(1)
            for place, v in zip(self.places, vals):
                if place.kind == "finite":
                    m_v = to_mpf(place.abs_value(
                        to_field(v, self.field, place.name)))
                elif place.kind == "complex":
                    num = to_mpf(v, place, dps)
                    m_v = num.real ** 2 + num.imag ** 2
                else:
                    m_v = abs(to_mpf(v, place, dps))
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


def _format_z(z):
    return "(" + ", ".join(str(c) for c in z) + ")"


def _spectrum_from_pairs(pairs, window, zero_count, candidates):
    """The spectrum of the exact stage's (magnitude mpf, witness str) pairs,
    deduplicated at 1e-30 resolution; the first witness of a value in the
    candidate order stays."""
    pairs.sort(key=lambda t: t[0])
    entries = []
    last = None
    tol = mpf(10) ** (-30)
    for mag, wit in pairs:
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


def value_spectrum(form, window, magnitude_cap=None, dps=None):
    """Distinct nonzero value magnitudes of f on the window of O^n.

    Two stages.  The candidate stage lists the points in the order that
    picks the witnesses: with a magnitude cap, a planar `_integer_ok` form
    takes `_planar_candidates`, a float64 prefilter with a derived error
    bound over the box, or its strips, in the box's scan order (x, then
    y); every other scan takes the whole window in `_window_rows`'
    height-shell order.  The
    exact stage evaluates the candidates: `_integer_refine` in exact
    integers for an `_integer_ok` form, bit-identically to `magnitudes`,
    and `_point_refine` point by point for any other.  Either way the
    result is that of the exact scan in the candidate order; the window
    must stay below the enumeration cap, and a cap must not be negative.
    """
    if magnitude_cap is not None and magnitude_cap < 0:
        raise ValueError(f"magnitude cap must be >= 0, got {magnitude_cap}")
    dps = dps or DEFAULT_DPS
    integer = _integer_ok(form)
    primes = sorted({p.p for p in form.places if p.kind == "finite"})
    if integer and form.n == 2 and magnitude_cap is not None:
        points = _planar_candidates(form, window.H, magnitude_cap)
    else:
        points, eexp = _window_rows(form.n * form.field.degree, primes, window)
    if integer:
        pairs, zero_count = _integer_refine(form, points, dps, magnitude_cap)
    else:
        pairs, zero_count = _point_refine(form, points, eexp, primes, dps,
                                          magnitude_cap)
    return _spectrum_from_pairs(pairs, window, zero_count, len(points))


def _point_refine(form, rows, eexp, primes, dps, cap):
    """(pairs, zero_count) of any form over the window points, numerators
    `rows` in integral-basis coordinates over prod p^e, `eexp` the
    exponents e over `primes`: each point is evaluated exactly by
    `magnitudes`, a zero only counts, and a magnitude above `cap` is
    dropped."""
    d = form.field.degree
    pairs, zero_count = [], 0
    with mp.workdps(dps + 5):
        for row, exps in zip(rows.tolist(), eexp.tolist()):
            denom = math.prod(p ** e for p, e in zip(primes, exps))
            if d == 1:
                z = [Fraction(c, denom) for c in row]
            else:
                z = [form.field.from_integral_coords(row[j * d:(j + 1) * d],
                                                     denom)
                     for j in range(form.n)]
            total = form.magnitudes(z, dps)[1]
            if total == 0:
                zero_count += 1
            elif cap is None or total <= cap:
                pairs.append((total, _format_z(z)))
    return pairs, zero_count


def _integer_ok(form):
    """Real places over a degree-1 field and exact expansions: the forms
    whose values `_integer_refine` computes in integers."""
    return (form.field.degree == 1
            and all(p.kind == "real" for p in form.places)
            and all(is_exact(c) for exp in form.expansions for c in exp))


_BLOCK = 1 << 15                   # points per prefilter block / exact batch


def _integer_values(form, points):
    """Per place (A, B), object arrays with f(z) = (A + B sqrt(d)) / D.

    (P, Q, D, d) are the place's `_integer_expansions`; z runs over the
    rows of the integer array `points`, A = sum_k P_k z^e_k and
    B = sum_k Q_k z^e_k in exact (object-dtype) integers.
    """
    cols = points.astype(object).T
    monos = [math.prod(c ** e for c, e in zip(cols, expo) if e)
             for expo in form.basis]
    zero = np.zeros(len(points), dtype=object)
    return [(sum((p * mono for p, mono in zip(P, monos) if p), zero),
             sum((q * mono for q, mono in zip(Q, monos) if q), zero))
            for P, Q, _, _ in form._integer_expansions]


def _integer_refine(form, points, dps, cap=None):
    """(pairs, zero_count) of an `_integer_ok` form over integer `points`.

    The rows z of `points` are visited in order, in batches of at most
    2^15.  With (A, B) from `_integer_values`, f is 0 at a place exactly
    when A = B = 0, since d is 1 or not a square; such points only count
    in `zero_count`.  Every other point gets the mpf that `magnitudes`
    returns, and is dropped when it exceeds `cap`.  The direct formula of
    `_refined_magnitude` gives it when no place has a nonzero
    field-element coefficient (which is embedded with its own rounding)
    and the a-priori bound (sum_k |P_k| + |Q_k|) max |z_i|^m on |A| and
    |B| has at most prec bits; otherwise `magnitudes` itself gives it.
    """
    exps = form._integer_expansions
    top = int(np.abs(points).max(initial=0)) ** form.m
    bound = max((sum(map(abs, P + Q)) * top for P, Q, _, _ in exps),
                default=0)
    pairs, zero_count = [], 0
    with mp.workdps(dps + 5):
        direct = bound.bit_length() <= mp.prec and not any(
            isinstance(c, FieldElement) and c != 0
            for exp in form.expansions for c in exp)
        roots = [mp.sqrt(d) for _, _, _, d in exps]
        for s in range(0, len(points), _BLOCK):
            block = points[s:s + _BLOCK]
            values = _integer_values(form, block)
            zero = np.zeros(len(block), dtype=bool)
            for A, B in values:
                zero |= (A == 0) & (B == 0)
            zero_count += int(zero.sum())
            for i in np.flatnonzero(~zero).tolist():
                z = block[i].tolist()
                if direct:
                    total = _refined_magnitude(
                        form, [(A[i], B[i]) for A, B in values], roots)
                else:
                    total = form.magnitudes([Fraction(c) for c in z], dps)[1]
                if cap is not None and total > cap:
                    continue
                pairs.append((total, _format_z(z)))
    return pairs, zero_count


def _refined_magnitude(form, parts, roots):
    """The mpf `magnitudes` gives at a point where f = (A + B sqrt(d)) / D
    at each place, (A, B) in `parts`; f is nonzero at every place, |A|
    and |B| are below 2^prec and no coefficient is a field element.

    The value at a place is the reduced surd a + b sqrt(d), a = A / D and
    b = B / D, and `to_mpf` computes mpf(num(a)) / den(a) + mpf(num(b)) /
    den(b) * sqrt(d) at dps + 5 digits (a `Fraction` value, b = 0, gives
    the same bits).  As |A| and |B| stay below 2^prec, mpf(A) / D and
    mpf(num(a)) / den(a) are both the correctly rounded quotient of one
    rational, so the same formula on the unreduced A, B and D, with
    `roots` the places' sqrt(d) at dps + 5 digits, gives the same bits.
    Runs at dps + 5 digits.
    """
    total = mpf(1)
    for (A, B), (_, _, D, _), root in zip(parts, form._integer_expansions,
                                          roots):
        total *= abs(mpf(A) / D + mpf(B) / D * root)
    return +total


def _planar_candidates(form, H, cap):
    """The capped scan's candidate points of a planar `_integer_ok` form.

    The scan visits the box x in [0, H], y in [-H, H] (x = 0 with y > 0:
    one point per sign class), or only the part of it that `_strips`
    returns, in blocks of about 2^15 points (`_scan_blocks`), and keeps
    every point whose float lower bound on |f| is <= cap; the kept points
    are deduplicated and returned as an integer array in scan order (x,
    then y), which picks the witnesses.  Per place f = sum_k c_k x^e1
    y^e2, evaluated by Horner's rule in y with the column coefficients
    c_k x^e1.  In the standard model of float64 arithmetic (no overflow or
    underflow; Higham, *Accuracy and Stability of Numerical Algorithms*,
    ch. 3):

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

    Over the places the product of max(|acc| - delta, 0) is a lower bound
    on |f| up to the subtraction and the product, 2P - 1 roundings for P
    places, which the relative margin 4Pu on the cap covers.  A NaN from
    inf - inf keeps its point.

    Strips (`_strips`): when f is exactly the product of its M = P m
    factors L, |f| <= cap needs some |L| <= r with r^M >= cap (checked in
    `Fraction`s), so only the strips |L| <= r are scanned, each endpoint
    widened by 2 gamma_6 (W_t H + r W_inv), twice the float error of
    computing it.  Every point of the box that the exact scan keeps,
    zeros included, lies on a strip, so the strips change only
    `candidates`, the number of kept points.
    """
    m = form.m
    # per place: (e1, e2, fl(c_k), w_k), c_k != 0
    columns = [[(e1, e2, *_float_weight(
        QuadraticSurd(Fraction(p, D), Fraction(q, D), d)))
        for p, q, (e1, e2) in zip(P, Q, form.basis) if p or q]
        for P, Q, D, d in form._integer_expansions]
    grow = 2 * _gamma(2 * m + 4)
    cap_hi = cap * (1 + 4 * len(columns) * _UNIT_ROUNDOFF)
    hpow = [float(H) ** e for e in range(m + 1)]
    width = 2 * H + 1
    kept = set()
    for keys in _scan_blocks(_strips(form, H, cap) or [_box(H)], H):
        xf = (keys // width).astype(np.float64)
        yf = (keys % width - H).astype(np.float64)
        xpow = [np.ones_like(xf)]
        for _ in range(m):
            xpow.append(xpow[-1] * xf)
        lo = 1.0
        for terms in columns:
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
            acc -= grow * size
            lo = lo * np.maximum(acc, 0.0, out=acc)
        kept.update(keys[~(lo > cap_hi)].tolist())
    keys = np.array(sorted(kept), dtype=np.int64)
    return np.stack([keys // width, keys % width - H], axis=1)


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
    (scan the box) unless every factor is exact and the factors' expansion
    is the form's, 0 <= cap < inf, no factor is identically 0, every
    widening is below one row step, and the strips hold fewer points than
    the box.
    """
    if form.factors is None or not 0 <= cap < math.inf:
        return None
    rows = [row for per_place in form.factors for row in per_place]
    if not all(is_exact(c) for row in rows for c in row) or any(
            form._expand(per_place) != exp
            for per_place, exp in zip(form.factors, form.expansions)):
        return None
    r = cap ** (1 / len(rows))
    while Fraction(r) ** len(rows) < Fraction(cap):
        r = math.nextafter(r, math.inf)
    x = np.arange(H + 1, dtype=np.float64)
    strips = []
    for a, b in (map(parse_real, row) for row in rows):
        if a == 0 and b == 0:
            return None
        t, w_t = _float_weight(a / b if b != 0 else QuadraticSurd(0))
        inv, w_inv = _float_weight(abs(b if b != 0 else a).inverse())
        slack = 2 * _gamma(6) * (w_t * H + r * w_inv)
        if not slack < 1:                 # also NaN and inf
            return None
        if b == 0:
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


NEW_VALUES_REQUIRED = 3


def discreteness_report(form, heights, E=0, dps=None):
    """Growing-window accumulation probe.

    accumulation-detected requires a cluster that keeps gaining at least
    NEW_VALUES_REQUIRED distinct values whose distances to the cluster
    center shrink as the window grows; anything else is discrete-trend,
    explicitly limited to the tested windows.
    """
    if len(heights) < 3:
        raise TooFewWindows("need at least three growing windows")
    heights = sorted(heights)
    first = value_spectrum(form, HeightWindow(heights[0], E), dps=dps)
    if first.entries:
        cap = 2.5 * first.min_nonzero
    else:
        cap = 1.0
    spectra = [value_spectrum(form, HeightWindow(h, E), magnitude_cap=cap,
                              dps=dps) for h in heights]
    base_gap = spectra[0].min_gap
    rho = base_gap / 4 if math.isfinite(base_gap) else cap / 10
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
        for spec in spectra:
            inside = [e for e in spec.entries if lo - 1e-15 <= e.magnitude <= hi + 1e-15]
            counts.append(len(inside))
            new_d = [abs(e.magnitude - center) for e in inside]
            max_dists.append(max(new_d) if new_d else 0.0)
        if counts[-1] - counts[0] < NEW_VALUES_REQUIRED:
            continue
        # distances of newly gained values must not spread out
        shrinking = all(
            counts[i + 1] == counts[i] or max_dists[i + 1] <= max_dists[i] + rho
            for i in range(len(counts) - 1))
        if not shrinking:
            continue
        evidence = ClusterEvidence(
            center=center,
            members=[(e.magnitude, e.witness) for e in group],
            per_window_counts=counts)
        if best is None or len(group) > len(best.members):
            best = evidence
    verdict = "accumulation-detected" if best else "discrete-trend"
    anomaly = ""
    recon = rationality_reconstruct(form, precision=max(dps or DEFAULT_DPS, 40))
    if recon.status == "reconstructed" and verdict == "accumulation-detected":
        # a rational multiple of an integral form takes scaled-integer
        # values; accumulation here can only be an implementation bug
        anomaly = ("form reconstructs to a rational multiple of "
                   f"{recon.g} yet shows accumulation")
    return DiscretenessReport(
        verdict=verdict,
        min_nonzero=final.min_nonzero,
        cluster=best,
        anomaly=anomaly)


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
    than an irrational's q^-2 approximation could be.
    """
    err_bound = mpf(10) ** (-(mp.dps - 10))
    p0, q0, p1, q1 = 0, 1, 1, 0
    val = x
    for _ in range(64):
        a = int(mp.floor(val))
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        if q1 > 10 ** 6:
            return None
        approx = Fraction(p1, q1)
        if abs(x - mpf(approx.numerator) / approx.denominator) < err_bound:
            return approx
        frac = val - a
        if frac == 0:
            return None
        val = 1 / frac
    return None


def rationality_reconstruct(form, precision=DEFAULT_DPS):
    """Try to split f_v = alpha_v * g with one O-coefficient form g.

    Per place: divide the expansion by its largest coefficient, recognize
    every ratio as a bounded-denominator rational; all places must agree
    on the same rational vector, which is then cleared to a primitive
    integer form (sign fixed by the first nonzero coefficient).
    """
    if precision < 40:
        raise PrecisionBudgetExceeded(
            f"{precision} digits leave no confirmation margin (need >= 40)")
    nplaces = len(form.places)
    ratio_vectors = []
    pivots = []
    with mp.workdps(precision):
        for k, place in enumerate(form.places):
            coeffs = form.expansions[k]
            numeric = [abs(to_mpf(c, place, precision)) for c in coeffs]
            piv = max(range(len(coeffs)), key=lambda i: (numeric[i], -i))
            pivots.append((piv, coeffs[piv]))
            ratios = []
            for i, c in enumerate(coeffs):
                r = _ratio_rational(c, coeffs[piv], place, precision)
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
        if all(r == 0 for r in ratios):
            return ReconstructionResult(
                status="no-rational-reconstruction",
                evidence="zero form")
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


def _ratio_rational(c, pivot, place, dps):
    if is_exact(c) and is_exact(pivot):
        try:
            r = to_field(div(c, pivot), place.field)
        except NotInField:
            pass        # an irrational surd: the numeric path rejects it
        else:
            if r.is_rational():
                return r.coords[0]
    x = to_mpf(c, place, dps) / to_mpf(pivot, place, dps)
    if abs(x.imag) > mpf(10) ** (-(dps - 10)):
        return None
    x = x.real
    if _is_zero_numeric(x, dps):
        return Fraction(0)
    return _cf_recognize(x)


def _is_zero_numeric(x, dps):
    return abs(x) < mpf(10) ** (-(dps - 5))


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
