"""Window-restricted geometry of the lattice g * O^n inside K_S^n.

Enumerates S-integer vectors up to a numerator height and denominator
exponent, pushes them through the per-place matrices of g, and reports
content and sup-norm minima (the window systoles) with exact witnesses.
All verdicts here are one-sided by construction: a short vector found is
conclusive, a clean window is only clean at this scale.

The hot path is vectorized: archimedean images live in float64 arrays
(relative error ~1e-15, far below every stated tolerance), finite-place
data are exact integer valuations.  At an unramified place they are read
off the residues of the image coordinates mod the Hensel-lifted factor,
one int64 matmul per place; only coordinates whose residues vanish mod the
kernel's precision are valued exactly, one by one.  Exact coordinates are
materialized only for witnesses, those fallbacks and the generator API.

A cloud takes one n_out x n_in map per place, by default g itself;
`nilpotent_span_check` makes the adjoint lattice one cloud of Ad(g) and
decides its verdict by Engel's theorem, as one test that every product
of n kept matrices is 0.
`_window_rows` is the package's one enumeration of the window.

Trajectories, surveys and heat maps query one cloud under a whole schedule
of diagonal steps through `PointCloud.systoles_under`, which takes one
(steps, n) stack of multipliers or valuation shifts per place; a survey
stacks every ray and its heat map into one such call.  The per-point
formula carries place norms, content and sup-norm as frexp pairs: float64
with an unbounded exponent, rounded to a float only on return.  Where
every term is a normal float its bits are those of the plain row formula,
and everywhere it is monotone in each coordinate modulus (real and
imaginary parts apart at a complex place) and valuation.  So a point that
an earlier point matches or beats in all of them is never a first
minimizer, and every step is evaluated on the cloud's skyline alone, with
the values and first-index witnesses of a point-by-point evaluation.
"""

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from . import polyarith as pa
from .errors import NotInField, NotUnimodular, ShapeMismatch, WindowTooLarge
from .scalars import lift_exact, to_field, to_float

_ZERO_VAL = 1 << 40          # sentinel valuation for a zero coordinate

# Schedule kernel constants (see PointCloud.systoles_under).
_BLOCK_ELEMENTS = 1 << 13    # steps x points per block
_SKYLINE_BLOCK = 64          # rows per block of the skyline's filter
_UNIT_ROUNDOFF = 2.0 ** -53
_ZERO_EXP = -(1 << 24)       # int32 frexp exponent of 0; any below _ZERO_EXP / 2 is 0


class HeightWindow:
    """Numerator height H and denominator exponent E, with a size cap."""

    def __init__(self, H, E=0, cap=10 ** 8):
        if H < 1 or E < 0:
            raise ValueError("need H >= 1 and E >= 0")
        self.H = int(H)
        self.E = int(E)
        self.cap = int(cap)

    def size(self, ncoords, num_primes):
        return (2 * self.H + 1) ** ncoords * (self.E + 1) ** num_primes

    def check(self, ncoords, num_primes):
        if self.size(ncoords, num_primes) > self.cap:
            raise WindowTooLarge(
                f"window size {self.size(ncoords, num_primes)} exceeds cap {self.cap}")

    def __repr__(self):
        return f"HeightWindow(H={self.H}, E={self.E})"


class SLattice:
    """The orbit lattice g * O^n: one n x n matrix per place of S.

    Finite-place entries must be exact.  `unimodular=False` admits a
    fixed nonzero determinant instead of det 1 (used by hand-built
    anisotropic fixtures); the content systole then carries that scale.
    """

    def __init__(self, field, places, n, g, unimodular=True):
        self.field = field
        self.places = list(places)
        self.n = int(n)
        self.unimodular = unimodular
        if len(g) != len(self.places):
            raise ShapeMismatch("one matrix per place required")
        mats = []
        for place, mat in zip(self.places, g):
            rows = [tuple(row) for row in mat]
            if len(rows) != self.n or any(len(r) != self.n for r in rows):
                raise ShapeMismatch(f"matrix at {place.name} is not {n}x{n}")
            if place.kind == "finite":
                for row in rows:
                    for c in row:
                        to_field(c, field, place.name)
            mats.append(tuple(rows))
        self.g = tuple(mats)
        self._check_determinants()

    def _check_determinants(self):
        n = self.n
        for place, mat in zip(self.places, self.g):
            exact = lift_exact([c for row in mat for c in row])
            if exact is not None:
                det = linalg.det([exact[i * n:(i + 1) * n] for i in range(n)])
                if det == 0:
                    raise NotUnimodular(f"singular matrix at {place.name}")
                if self.unimodular and det != 1:
                    raise NotUnimodular(f"det at {place.name} is {det}, not 1")
            else:
                gf = np.array([[to_float(c, place) for c in row] for row in mat])
                det = np.linalg.det(gf)
                if abs(det) < 1e-12:
                    raise NotUnimodular(f"singular matrix at {place.name}")
                if self.unimodular and abs(det - 1) > 1e-10:
                    raise NotUnimodular(f"det at {place.name} is {det}, not 1")

    @property
    def finite_places(self):
        return [p for p in self.places if p.kind == "finite"]

    @property
    def arch_places(self):
        return [p for p in self.places if p.kind != "finite"]


# ---------------------------------------------------------------------------
# Enumeration


def _window_rows(ncoords, primes, window):
    """The window's points as (numerators, eexp): the package's one enumeration.

    Each sign class y of `_numerator_grid` comes with every exponent tuple
    e in [0, E]^len(primes), in `itertools.product` order, for the point
    y / prod p^e; (y, e) is skipped when some e_t > 0 while p_t divides
    every y_k, as that point comes with a smaller exponent.  Without
    primes E is 0.  The window's size cap is checked first.
    """
    E = window.E if primes else 0
    window.check(ncoords, len(primes) if E else 0)
    Y = _numerator_grid(ncoords, window.H)
    ecombos = list(itertools.product(range(E + 1), repeat=len(primes))) or [()]
    reps = len(ecombos)
    numerators = np.repeat(Y, reps, axis=0)
    etab = np.array(ecombos, dtype=np.int64).reshape(reps, len(primes))
    eexp = np.tile(etab, (len(Y), 1))
    if E:
        keep = np.ones(len(numerators), dtype=bool)
        for t, p in enumerate(primes):
            all_div = (Y % p == 0).all(axis=1)
            keep &= ~(np.repeat(all_div, reps) & (eexp[:, t] > 0))
        numerators, eexp = numerators[keep], eexp[keep]
    return numerators, eexp


def _numerator_grid(ncoords, H):
    """All sign-classes of nonzero integer vectors with max-norm <= H.

    Rows are ordered by height shell, then by the nested-loop order with
    the first coordinate cycling fastest; the representative of {z, -z}
    has its first nonzero coordinate positive.  This order is the witness
    tie-break everywhere.
    """
    rng = np.arange(-H, H + 1, dtype=np.int64)
    mesh = np.meshgrid(*([rng] * ncoords), indexing="ij")
    cols = [m.flatten(order="F") for m in mesh]
    Y = np.stack(cols, axis=1)
    keep = np.zeros(len(Y), dtype=bool)
    decided = np.zeros(len(Y), dtype=bool)
    for k in range(ncoords):
        col = Y[:, k]
        keep |= (~decided) & (col > 0)
        decided |= col != 0
    Y = Y[keep]
    shell = np.abs(Y).max(axis=1)
    order = np.argsort(shell, kind="stable")
    return Y[order]


class PointCloud:
    """Enumerated window of g * O^n with vectorized per-place data.

    `maps` (default `lat.g`) holds one n_out x n_in matrix per place of
    `lat`, entries in K at finite places: the points are the window of
    O^n_in and their images have n_out coordinates.  arch images are
    float arrays; finite data are exact normalized valuations
    (|w|_v = p^(-val)), computed for all points at once from residues mod
    the lifted factor of each place (`_finite_valuations`);
    `valuation_fallbacks` counts the coordinates that needed the exact
    per-coordinate path.  Diagonal torus steps act by per-place
    coordinate multipliers / valuation shifts, so a whole trajectory
    reuses one enumeration.

    Every minimum is read off one per-point formula (`norms_under`), over
    the whole cloud for one step (`systole_under`) and over the `skyline`
    for a schedule (`systoles_under`); witness strings are memoised.
    """

    def __init__(self, lat, window, maps=None):
        self.lat = lat
        self.maps = lat.g if maps is None else maps
        self.field = lat.field
        self.n = len(self.maps[0][0])
        self.d = lat.field.degree
        self.primes = sorted({p.p for p in lat.finite_places})
        self.numerators, self.eexp = _window_rows(self.n * self.d, self.primes,
                                                  window)
        self.count = len(self.numerators)
        self._formatted = {}
        self._build_arch()
        self._build_finite()

    # -- construction helpers ------------------------------------------------

    def _z_float(self, place):
        """Embedded coordinates of the raw points at one archimedean place."""
        n, d = self.n, self.d
        dtype = np.complex128 if place.kind == "complex" else np.float64
        basis_vals = np.array([to_float(b, place)
                               for b in self.field.integral_basis], dtype=dtype)
        Z = np.zeros((self.count, n), dtype=dtype)
        for j in range(n):
            block = self.numerators[:, j * d:(j + 1) * d].astype(np.float64)
            Z[:, j] = block @ basis_vals
        denom = np.ones(self.count, dtype=np.float64)
        for t, p in enumerate(self.primes):
            denom *= np.power(float(p), self.eexp[:, t].astype(np.float64))
        return Z / denom[:, None]

    def _build_arch(self):
        self.arch = []
        for place, mat in zip(self.lat.places, self.maps):
            if place.kind == "finite":
                continue
            Z = self._z_float(place)
            G = np.array([[to_float(c, place) for c in row] for row in mat],
                         dtype=Z.dtype)
            self.arch.append((place, Z @ G.T))

    def _build_finite(self):
        self.fin = []
        self._valuation_fallbacks = 0
        for place, mat in zip(self.lat.places, self.maps):
            if place.kind == "finite":
                self.fin.append((place, self._finite_valuations(place, mat),
                                 place.p, place.residue_degree))

    def _finite_valuations(self, place, mat):
        """Normalized valuations of every image coordinate at one finite place.

        The place P | p comes with a Hensel-lifted factor h of degree f, and
        the completion's integers are Z_p[x]/(h): unramified, uniformizer p.
        So an integral a has v_P(a) = min_k v_p(c_k), c = a mod h.  Image
        coordinate j of a point is (sum_{k,l} y_kl g_jk b_l) / p^e, g the
        place's map, and D_j, the common denominator of the g_jk b_l, makes
        it integral; the residues of D_j g_jk b_l mod (h, p^K) form the
        fixed matrix A_j, so the residues of a whole cloud are one int64
        matmul Y @ A_j, exact because n_in d H p^K fits in int64 and K is
        at most the lift's precision.  The normalized valuation is then
        f (min_k v_p(C_k) - v_p(D_j)) - f e.  A residue that vanishes mod p^K
        is either a zero coordinate (found exactly over the flagged rows) or
        has valuation >= K; only the latter take the exact
        `FinitePlace.valuation` path, and `valuation_fallbacks` counts them.
        """
        field, n, d = self.field, self.n, self.d
        p, f = place.p, place.residue_degree
        bound = n * d * int(np.abs(self.numerators).max())
        K = 0
        while K < place.precision and bound * p ** (K + 1) < 2 ** 63:
            K += 1
        modulus = p ** K
        lifted = list(place.lifted_factor)
        exact, resid, den_val = [], [], []
        for row in mat:
            prods = [to_field(c, field, place.name) * b
                     for c in row for b in field.integral_basis]
            D = math.lcm(*(c.denominator for e in prods for c in e.coords))
            ints = [[int(c * D) for c in e.coords] for e in prods]
            exact.append(ints)
            resid.append([_residue(u, lifted, f, modulus) for u in ints])
            v = 0
            while D % p == 0:
                D //= p
                v += 1
            den_val.append(v)
        A = np.concatenate([np.array(r, dtype=np.int64) for r in resid], axis=1)
        C = (self.numerators @ A) % modulus
        G = np.gcd.reduce(C.reshape(self.count, len(mat), f), axis=2)
        shift = np.array(den_val)[None, :] + \
            self.eexp[:, self.primes.index(p)][:, None]
        vals = np.full(G.shape, _ZERO_VAL, dtype=np.int64)
        live = G != 0
        vals[live] = f * (_vp_array(G[live], p) - shift[live])
        if not live.all():
            rows = np.flatnonzero(~live.all(axis=1))
            M = np.concatenate([np.array(e, dtype=object) for e in exact], axis=1)
            img = (self.numerators[rows].astype(object) @ M).reshape(
                len(rows), len(mat), d)
            for r, j in zip(*np.nonzero(~live[rows] & (img != 0).any(axis=2))):
                elem = field.element(list(img[r, j]))
                vals[rows[r], j] = place.valuation(elem) - f * shift[rows[r], j]
                self._valuation_fallbacks += 1
        return vals

    # -- exact points ----------------------------------------------------------

    def point(self, idx):
        """Exact O_S^n coordinates of one enumerated point."""
        d = self.d
        row = self.numerators[idx].tolist()
        denom = math.prod(p ** e for p, e in zip(self.primes, self.eexp[idx].tolist()))
        return tuple(self.field.from_integral_coords(row[j:j + d], denom)
                     for j in range(0, len(row), d))

    def format_point(self, idx):
        """Witness string of one point, built once per index."""
        text = self._formatted.get(idx)
        if text is None:
            text = self._formatted[idx] = \
                "(" + ", ".join(str(e) for e in self.point(idx)) + ")"
        return text

    # -- norms under diagonal scaling -------------------------------------------

    def _split(self, rows):
        """The frexp pairs of the real and imaginary parts of the points rows'
        archimedean coordinates, and their valuations, a column at a time."""
        arch = []
        for place, W in self.arch:
            W = W[rows]
            parts = [W.real, W.imag] if place.kind == "complex" else [W]
            arch.append([[_normalize(a[:, j], np.int32(_ZERO_EXP) * (a[:, j] == 0))
                          for a in parts] for j in range(W.shape[1])])
        return arch, [[v[rows, j] for j in range(v.shape[1])] for _, v, _, _ in self.fin]

    def _norms(self, arch_mults, fin_shifts, columns=None):
        """The per-point formula for content and sup-norm, as frexp pairs.

        columns are `_split`'s, by default of the whole cloud.  A
        multiplier or shift is None, one length-n row for all points or a
        (steps, n) stack of rows, which gives (steps, points) arrays in the
        pairs (content, ce, supnorm, se): float64 arithmetic with an
        unbounded exponent.  Multiplier exponents are folded in exactly,
        and each row is scaled by 2^-t, t its entries' largest exponent,
        before squaring.  Where every term is a normal float each operation
        rounds the same mantissa as the plain row formula, whose sums take
        numpy's last-axis order (`_column_sum`).  A square that underflows
        changes no sum of up to 64 columns: the largest is at least 1/16,
        and a partial sum it reaches has its unbounded value or stays below
        2^(55 h - 1022) at height h.
        """
        arch_cols, fin_cols = self._split(slice(None)) if columns is None else columns
        norms = []
        for k, ((place, _), coords) in enumerate(zip(self.arch, arch_cols)):
            if arch_mults is not None and arch_mults[k] is not None:
                mm, me = np.frexp(np.asarray(arch_mults[k]))
                coords = [[(m * mm[..., j, None], e + me[..., j, None]) for m, e in parts]
                          for j, parts in enumerate(coords)]
            top = functools.reduce(np.maximum, [e for parts in coords for _, e in parts])
            squares = [[np.ldexp(m, e - top) ** 2 for m, e in parts] for parts in coords]
            total = _column_sum([functools.reduce(np.add, sq) for sq in squares])
            # the norm is the sum of the squares at a complex place
            norms.append(_normalize(total, 2 * top) if place.kind == "complex"
                         else _normalize(np.sqrt(total), top))
        for k, ((_, _, p, _), cols) in enumerate(zip(self.fin, fin_cols)):
            if fin_shifts is not None and fin_shifts[k] is not None:
                shift = np.asarray(fin_shifts[k], dtype=np.int64)
                cols = [np.where(c >= _ZERO_VAL, c, c + shift[..., j, None])
                        for j, c in enumerate(cols)]
            norms.append(_inverse_power(p, functools.reduce(np.minimum, cols)))
        ms, es = zip(*norms)
        return _normalize(math.prod(ms), sum(es)) + functools.reduce(_larger, norms)

    @property
    def valuation_fallbacks(self):
        """Nonzero finite-place coordinates valued by the exact fallback."""
        return self._valuation_fallbacks

    def norms_under(self, arch_mults=None, fin_shifts=None):
        """(content, supnorm) arrays under per-place diagonal scaling.

        The point-by-point evaluation that `systoles_under` reproduces,
        rounded to float64: 0.0 or inf beyond its range.
        """
        content, ce, supnorm, se = self._norms(arch_mults, fin_shifts)
        return _to_float(content, ce), _to_float(supnorm, se)

    def systole_under(self, arch_mults=None, fin_shifts=None):
        """(min_content, ic, min_supnorm, isup) under one diagonal step.

        `norms_under` over the whole cloud, first index of each unrounded minimum.
        """
        pairs = self._norms(arch_mults, fin_shifts)
        return next(_minima(np.arange(self.count), *(a[None] for a in pairs)))

    def systoles_under(self, arch, fin):
        """Window systoles under every step of a schedule.

        arch holds one (steps, n) float64 stack of coordinate multipliers
        per archimedean place, fin one (steps, n) int64 stack of valuation
        shifts per finite place, n the image coordinates.  Returns one
        (min_content, ic, min_supnorm, isup) tuple per step, that of
        `systole_under`.  Each operation of `_norms` is a monotone rounding
        of a function nondecreasing in every feature of the `skyline`, so a
        point that an earlier point matches or beats in all of them never
        attains a minimum first: every step is evaluated on the skyline, in
        blocks of about _BLOCK_ELEMENTS steps x points.
        """
        arch = [np.asarray(m, dtype=np.float64) for m in arch]
        fin = [np.asarray(s, dtype=np.int64) for s in fin]
        rows = self.skyline
        columns = self._split(rows)
        block = max(1, _BLOCK_ELEMENTS // len(rows))
        out = []
        for start in range(0, len((arch + fin)[0]), block):
            part = slice(start, start + block)
            out += _minima(rows, *self._norms([m[part] for m in arch],
                                              [sh[part] for sh in fin], columns))
        return out

    @functools.cached_property
    def skyline(self):
        """Ascending indices of the points no earlier point matches or beats.

        The features are |W_vj| at a real place, |Re W_vj| and |Im W_vj|
        at a complex place and -v_vj at a finite place (`_skyline`).
        """
        columns = []
        for place, W in self.arch:
            columns += [W.real, W.imag] if place.kind == "complex" else [W]
        columns = [np.abs(c) for c in columns]
        columns += [-vals.astype(np.float64) for _, vals, _, _ in self.fin]
        return _skyline(np.concatenate(columns, axis=1))


def _skyline(features):
    """Ascending indices of the rows that no earlier row matches or beats.

    Row i is left out when a row k < i has features[k] <= features[i] in
    every column; then so has a kept row (follow such rows down from k).
    So the rows are taken in index order, a block at a time: a block keeps
    its rows that no row of the block matches or beats, and those drop
    every later row they match or beat.
    """
    rest, kept = np.arange(len(features)), []
    while rest.size:
        block, rest = rest[:_SKYLINE_BLOCK], rest[_SKYLINE_BLOCK:]
        block = block[~_dominated(features, block, block)]
        kept.append(block)
        rest = rest[~_dominated(features, block, rest)]
    return np.concatenate(kept)


def _dominated(features, by, rows):
    """Mask over rows: a row of `by` with a smaller index is no worse anywhere."""
    drop = by[:, None] < rows[None, :]
    for column in features.T:
        drop &= column[by, None] <= column[None, rows]
    return drop.any(axis=0)


def _column_sum(cols):
    """Sum of equal-shape arrays in numpy's order for a last-axis `.sum`.

    Below 8 columns that is left to right.  From 8 on it is numpy's
    pairwise kernel: 8 partial sums seeded with columns 0-7 take the
    following columns in groups of 8, are combined as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), and the columns
    past the last full group are added left to right.
    """
    if len(cols) < 8:
        return functools.reduce(np.add, cols)
    tail = len(cols) % 8
    r = cols[:8]
    for i in range(8, len(cols) - tail, 8):
        r = [a + b for a, b in zip(r, cols[i:i + 8])]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    return functools.reduce(np.add, cols[len(cols) - tail:], total)


def _normalize(x, e):
    """The frexp pair (m, e + d) of x * 2^e, m in [1/2, 1) or 0."""
    m, d = np.frexp(x)
    return m, e + d


def _larger(a, b):
    """The larger of two normalized frexp pairs of nonnegative arrays."""
    above = (b[1] > a[1]) | ((b[1] == a[1]) & (b[0] > a[0]))
    return np.where(above, b[0], a[0]), np.where(above, b[1], a[1])


def _minima(rows, *pairs):
    """(min_content, ic, min_supnorm, isup) of each row of `_norms`'s pairs,
    the minima rounded to float64 and their first indices taken in rows."""
    out = []
    for m, e in zip(pairs[::2], pairs[1::2]):
        low = e.min(axis=1, keepdims=True)
        first = np.where(e <= np.maximum(low, _ZERO_EXP // 2), m, 1.0).argmin(axis=1)
        out += [_to_float(m[np.arange(len(m)), first], low[:, 0]).tolist(),
                rows[first].tolist()]
    return zip(*out)


def _to_float(m, e):
    """m * 2^e rounded to float64: 0.0 or inf beyond its range."""
    with np.errstate(over="ignore", under="ignore"):
        return np.ldexp(m, e)


def _inverse_power(p, v):
    """The frexp pairs of p^-v: np.power's bits where they are a normal
    float, as the plain formula takes them (np.power is not correctly
    rounded at every v), and `_frexp_exact` beyond that."""
    with np.errstate(over="ignore", under="ignore"):
        x = np.power(float(p), -v.astype(np.float64))
    m, e = np.frexp(x)
    odd = (x < np.finfo(x.dtype).tiny) | (x == np.inf)
    if odd.any():
        ks, back = np.unique(v[odd], return_inverse=True)
        m[odd], e[odd] = np.array([_frexp_exact(p, k) for k in ks.tolist()])[back].T
    return m, e


def _frexp_exact(p, v):
    """math.frexp of p^-v, correctly rounded and unbounded; 0 at _ZERO_VAL."""
    if v >= _ZERO_VAL:
        return 0.0, _ZERO_EXP
    s = int(v * math.log2(p))          # p^-v 2^s lies near 1
    m, d = math.frexp(Fraction(p) ** -v * Fraction(2) ** s)
    return m, d - s


def _gamma(k):
    """Higham's gamma_k: the relative error bound of k roundings."""
    return k * _UNIT_ROUNDOFF / (1 - k * _UNIT_ROUNDOFF)


def _residue(u, h, f, modulus):
    """Coefficients of the integer polynomial u mod the monic h, mod modulus."""
    r = [int(c) % modulus for c in pa.poly_mod(u, h)]
    return r + [0] * (f - len(r))


def _vp_array(a, p):
    """p-adic valuations of a 1-d int64 array with no zero entry."""
    v = np.zeros(a.shape, dtype=np.int64)
    live = np.flatnonzero(a % p == 0)
    a = a[live]
    while live.size:
        v[live] += 1
        a //= p
        keep = a % p == 0
        live, a = live[keep], a[keep]
    return v


# ---------------------------------------------------------------------------
# Public operations


def enumerate_points(lat, window):
    """Yield (z, image) over the window; z exact, one per sign class.

    Detects collisions of exact coordinates, which would contradict
    injectivity of z -> g z on the window.
    """
    from .sadic import SAdicVector

    cloud = PointCloud(lat, window)
    # a matrix over K acts exactly, any other one in floats at its place
    in_field = [_field_matrix(mat, lat.field) for mat in lat.g]
    seen = set()
    for i in range(cloud.count):
        z = cloud.point(i)
        key = tuple(e.coords for e in z)
        if key in seen:
            raise AssertionError(f"enumeration collision at {key}")
        seen.add(key)
        comps = []
        for place, mat, gK in zip(lat.places, lat.g, in_field):
            if gK is not None:
                comps.append(tuple(sum((c * zj for c, zj in zip(row, z)),
                                       lat.field.zero()) for row in gK))
            else:
                zf = [to_float(zj, place) for zj in z]
                comps.append(tuple(
                    sum((to_float(c, place) * w for c, w in zip(row, zf)),
                        0.0 if place.kind == "real" else 0j) for row in mat))
        yield z, SAdicVector(lat.places, comps, lat.n)


def _field_matrix(mat, field):
    """The matrix with entries in K, or None if an entry is not in K."""
    try:
        return [[to_field(c, field) for c in row] for row in mat]
    except NotInField:
        return None


@dataclass
class SystoleReport:
    min_content: float
    content_witness: str
    min_supnorm: float
    supnorm_witness: str
    window: HeightWindow
    content_witness_point: tuple = None
    supnorm_witness_point: tuple = None


def systole(lat, window):
    """Window-restricted minima of content and sup-norm with witnesses.

    Upper bounds of the true systoles, attained by the witnesses: a small
    one is conclusive, a large one only says the window holds no shorter
    vector.
    """
    cloud = PointCloud(lat, window)
    mc, ic, ms, isup = cloud.systole_under()
    return SystoleReport(
        min_content=mc,
        content_witness=cloud.format_point(ic),
        min_supnorm=ms,
        supnorm_witness=cloud.format_point(isup),
        window=window,
        content_witness_point=cloud.point(ic),
        supnorm_witness_point=cloud.point(isup),
    )


@dataclass
class MahlerVerdict:
    index: int
    content_systole: float
    supnorm_systole: float
    content_witness: str
    supnorm_witness: str
    passes: bool


@dataclass
class MahlerReport:
    radius: float
    verdicts: list
    family_precompact_at_scale: bool
    first_failure: int            # index of first failing lattice, or -1


def mahler_test(lats, r, window):
    """Window-restricted compactness test for a family of lattices.

    A lattice passes when both its content systole (pseudoball form) and
    its sup-norm systole (ball form) exceed r.  Failing is conclusive: a
    vector inside the radius exists.  Passing is one-sided: tied to this
    window.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    if not lats:
        raise ValueError("need at least one lattice")
    base = lats[0]
    for lat in lats[1:]:
        if lat.field != base.field or lat.n != base.n or \
                [p.name for p in lat.places] != [p.name for p in base.places]:
            raise ShapeMismatch("family must share field, S and dimension")
    verdicts = []
    first_failure = -1
    for i, lat in enumerate(lats):
        rep = systole(lat, window)
        ok = rep.min_content > r and rep.min_supnorm > r
        if not ok and first_failure < 0:
            first_failure = i
        verdicts.append(MahlerVerdict(
            index=i,
            content_systole=rep.min_content,
            supnorm_systole=rep.min_supnorm,
            content_witness=rep.content_witness,
            supnorm_witness=rep.supnorm_witness,
            passes=ok,
        ))
    return MahlerReport(
        radius=r,
        verdicts=verdicts,
        family_precompact_at_scale=all(v.passes for v in verdicts),
        first_failure=first_failure,
    )


# ---------------------------------------------------------------------------
# Adjoint lattice / unipotent span


@dataclass
class AdjointLatticePoint:
    """Ad(g) X for an exact trace-zero X; per-place norms attached."""

    coords: tuple                 # coefficients over the sl basis
    matrix: tuple                 # exact n x n FieldElement entries of X
    sup_norm: float


def _sl_basis(n):
    """Integer basis of trace-zero matrices: E_ij (i != j), then E_ii - E_(i+1)(i+1)."""
    basis = []
    for i in range(n):
        for j in range(n):
            if i != j:
                m = [[0] * n for _ in range(n)]
                m[i][j] = 1
                basis.append(m)
    for i in range(n - 1):
        m = [[0] * n for _ in range(n)]
        m[i][i] = 1
        m[i + 1][i + 1] = -1
        basis.append(m)
    return basis


def _sl_matrix(coeffs, basis, field):
    """The exact matrix sum_b c_b B_b."""
    n = len(basis[0])
    return tuple(tuple(sum((c * b[i][j] for c, b in zip(coeffs, basis) if b[i][j]),
                           field.zero()) for j in range(n)) for i in range(n))


def _flatten_to_q(mat):
    return [q for row in mat for c in row for q in c.coords]


def _nilpotent_span(mats, field, n):
    """True when the Lie algebra that the n x n matrices generate is nilpotent.

    V starts at B, an echelon basis of their Q-span, and is replaced
    n - 1 times by an echelon basis of {a b : a in V, b in B}; the answer
    is that V ends empty: every product of n elements of B is 0.  With L
    the bracket closure of B and A the associative Q-algebra B generates:

    1. If L consists of nilpotent matrices, Engel's theorem (Humphreys,
       Introduction to Lie Algebras and Representation Theory, 3.3) on the
       Q-space K^n makes them strictly upper triangular in some basis, and
       so are the products that span A: A is nilpotent.
    2. Conversely, A contains L, as [a, b] = ab - ba, and A^n = 0 makes
       every element of A nilpotent.
    3. Q-spans suffice, and so does n: K A is a nilpotent subalgebra of
       M_n(K), so the K-subspaces (K A)^k K^n fall strictly until they are
       0, within n steps; hence (K A)^n = 0, and with it A^n.
    4. In a basis through that flag K A is strictly upper triangular, of
       K-dimension at most n (n - 1) / 2.  So a V with more than
       d n (n - 1) / 2 elements (d = [K:Q]) answers False, and `echelon`
       stops there, forming no further product.
    """
    bound = field.degree * n * (n - 1) // 2

    def echelon(matrices):
        rows, out = [], []
        for m in matrices:
            if linalg.insert(rows, _flatten_to_q(m)):
                out.append(m)
                if len(out) > bound:
                    break
        return out

    span = basis = echelon(mats)
    for _ in range(n - 1):
        if len(span) > bound:
            return False
        span = echelon(_matmul_field(a, b, field) for a in span for b in basis)
    return not span


def _matmul_field(a, b, field):
    n = len(a)
    out = [[field.zero() for _ in range(len(b[0]))] for _ in range(n)]
    for i in range(n):
        for k in range(len(b)):
            if a[i][k].is_zero():
                continue
            for j in range(len(b[0])):
                out[i][j] = out[i][j] + a[i][k] * b[k][j]
    return out


@dataclass
class NilpotentSpanReport:
    is_nilpotent_span: bool
    witness_basis: list           # AdjointLatticePoint list (kept candidates)
    kept: int


def calibrate_nilpotent_radius(lat, window, candidates=None):
    """Largest tested radius at which the span check still passes.

    The theory guarantees only that *some* positive radius works; this
    reports a concrete one for the given lattice and window, or None when
    even the smallest candidate already fails.
    """
    if candidates is None:
        candidates = [2.0 ** -k for k in range(-2, 8)]
    best = None
    for t in sorted(candidates):
        if nilpotent_span_check(lat, t, window).is_nilpotent_span:
            best = t
        else:
            break
    return best


def nilpotent_span_check(lat, radius, window):
    """Test whether the small adjoint-lattice points span a nilpotent algebra.

    The points are one `PointCloud` of Ad(g) on the trace-zero matrices:
    at each place the n^2 x (n^2 - 1) map whose column b is
    vec(g B_b g^-1) over the basis B_b of `_sl_basis`, exact over K at a
    finite place and in floats at an archimedean one.  The window runs
    over the coefficient vectors of X in O_S.  A point is kept when its
    sup norm, by the cloud's `norms_under` formula, is below the radius;
    only the kept X are built as exact matrices.  By Engel's theorem the
    Lie algebra that they generate consists of nilpotent matrices exactly
    when every product of n of them is 0, which `_nilpotent_span` tests
    on echelon bases of Q-spans.  An empty intersection is vacuously
    nilpotent.
    """
    n = lat.n
    if n > 4:
        raise ValueError("adjoint enumeration is capped at n <= 4")
    field = lat.field
    basis = _sl_basis(n)
    maps = []
    for place, mat in zip(lat.places, lat.g):
        if place.kind == "finite":
            gK = [[to_field(c, field, place.name) for c in row] for row in mat]
            giK = linalg.inverse(gK)
            images = [_matmul_field(_matmul_field(gK, B, field), giK, field)
                      for B in basis]
        else:
            gf = np.array([[to_float(c, place) for c in row] for row in mat],
                          dtype=np.complex128 if place.kind == "complex" else np.float64)
            gfi = np.linalg.inv(gf)
            images = [gf @ np.array(B, dtype=gf.dtype) @ gfi for B in basis]
        maps.append([[W[i][j] for W in images] for i in range(n) for j in range(n)])
    cloud = PointCloud(lat, window, maps)
    sup = cloud.norms_under()[1]
    kept = []
    for idx in np.flatnonzero(sup < radius):
        coeffs = cloud.point(idx)
        kept.append(AdjointLatticePoint(
            coords=tuple(tuple(c.coords) for c in coeffs),
            matrix=_sl_matrix(coeffs, basis, field),
            sup_norm=float(sup[idx]),
        ))
    return NilpotentSpanReport(_nilpotent_span([pt.matrix for pt in kept], field, n),
                               kept, len(kept))
