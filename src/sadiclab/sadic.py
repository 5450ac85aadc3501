"""Geometry of K_S^n: normalized sup norms, content, pseudoballs, balancing.

A point of K_S^n carries one length-n local vector per place.  Local norms
follow the normalized conventions of the places module (Euclidean at real
places, squared-Euclidean at complex places, max of coordinate absolute
values at finite places), so the content -- the product of the local norms
-- is invariant under scaling by S-units.

`unit_balance` realizes the classical reduction step: given per-place
targets a_v whose product equals the content, it finds an S-unit xi making
every local norm of xi*x agree with a_v up to a factor kappa, where kappa
is computed here from the log-embedding of the unit lattice rather than
assumed.  It rounds the target to the unit lattice (Babai's rounding),
which lands within kappa for every x, then searches exactly the box of
exponent vectors that the rounded point's own objective proves to hold
every minimizer; there is no exponent bound to choose.
"""

import itertools
import math
from fractions import Fraction

from mpmath import mp, mpf

from .errors import ShapeMismatch, ZeroComponent
from .linalg import float_rank, inverse
from .numberfield import DEFAULT_DPS
from .scalars import abs_at, check_entries, is_exact, mul, to_mpf


class SAdicVector:
    """One length-n local vector per place; immutable after construction.

    Archimedean coordinates may be exact or floating; finite-place
    coordinates must be elements of K so that valuations stay exact.
    """

    def __init__(self, places, components, n=None):
        self.places = list(places)
        comps = [tuple(comp) for comp in components]
        if len(comps) != len(self.places):
            raise ValueError("one component per place required")
        for place, comp in zip(self.places, comps):
            check_entries([comp], place)
        lengths = {len(c) for c in comps}
        if len(lengths) > 1:
            raise ValueError("components must share a common dimension")
        self.components = tuple(comps)
        self.n = n if n is not None else (lengths.pop() if lengths else 0)

    def scaled(self, xi):
        """The vector xi * x, scaling every local coordinate."""
        # a rational unit keeps rational coordinates Fractions
        unit = xi.coords[0] if xi.is_rational() else xi
        out = []
        for place, comp in zip(self.places, self.components):
            out.append(tuple(mul(c, unit) if is_exact(c) else
                             mul(c, to_mpf(xi, place)) for c in comp))
        return SAdicVector(self.places, out, self.n)


def _local_norm(place, comp, dps):
    """Normalized norm of one local vector."""
    if place.kind == "finite":
        return max((abs_at(c, place, dps) for c in comp), default=Fraction(0))
    with mp.workdps(dps + 10):
        if place.kind == "real":
            acc = mpf(0)
            for c in comp:
                v = to_mpf(c, place, dps)
                acc += v * v
            return +mp.sqrt(acc)
        acc = mpf(0)
        for c in comp:
            v = to_mpf(c, place, dps)
            acc += v.real * v.real + v.imag * v.imag
        return +acc        # squared standard norm: the normalized complex convention


def sup_norm(x):
    """max over places of the normalized local norm."""
    best = mpf(0)
    for place, comp in zip(x.places, x.components):
        v = to_mpf(_local_norm(place, comp, DEFAULT_DPS))
        if v > best:
            best = v
    return best


def local_norms(x):
    return [_local_norm(p, c, DEFAULT_DPS)
            for p, c in zip(x.places, x.components)]


def content(x, dps=DEFAULT_DPS):
    """Product over S of the local norms; zero if any component vanishes."""
    acc = mpf(1)
    for place, comp in zip(x.places, x.components):
        v = _local_norm(place, comp, dps)
        if v == 0:
            return mpf(0)
        acc *= to_mpf(v)
    return acc


def pseudoball_contains(r, x):
    """Membership in the content sublevel set: content(x) < r, strictly."""
    if r <= 0:
        raise ValueError("pseudoball radius must be positive")
    return content(x) < r


class BalancingTarget:
    """Per-place positive finite targets a_v with product equal to the content."""

    def __init__(self, places, targets):
        self.places = list(places)
        self.targets = [float(t) for t in targets]
        if len(self.targets) != len(self.places):
            raise ValueError("one target per place required")
        if not all(0 < t < math.inf for t in self.targets):
            raise ValueError("targets must be positive and finite")

    @classmethod
    def equal_split(cls, places, total_content):
        """Eq-split targets a_v = content^(1/m) at every place."""
        m = len(places)
        a = float(total_content) ** (1.0 / m)
        return cls(places, [a] * m)

    def validate_against(self, x):
        c = float(content(x))
        prod = math.prod(self.targets)
        if c == 0 or abs(prod - c) > 1e-8 * c:
            raise ValueError(
                f"product of targets {prod} does not match content {c}")


def _unit_log_vectors(units, places, dps):
    vecs = []
    with mp.workdps(dps + 10):
        for u in units.generators:
            row = []
            for place in places:
                a = place.abs_value(u, dps)
                if isinstance(a, Fraction):
                    row.append(math.log(a.numerator) - math.log(a.denominator))
                else:
                    row.append(float(mp.log(a)))
            vecs.append(row)
    return vecs


def balancing_constant(units):
    """Rigorous upper bound for the balancing constant kappa over units' S.

    kappa = exp(mu) where mu bounds the sup-norm covering radius of the
    log-embedding of the unit generators: rounding each basis coordinate
    to the nearest integer moves at most half the sum of the basis
    sup-norms.  Not minimal, but certified.
    """
    vecs = _unit_log_vectors(units, units.places, DEFAULT_DPS)
    m = len(units.places)
    rank_needed = m - 1
    if rank_needed == 0:
        return 1.0
    if float_rank(vecs, 1e-9) < rank_needed:
        return math.inf
    halfsum = 0.5 * sum(max(abs(c) for c in v) for v in vecs)
    return math.exp(halfsum)


def _left_inverse(vecs, m):
    """Rows L_i of an exact left inverse of the log vectors, on k places.

    Returns (places J, L) with sum_j L[i][j] * vecs[i'][J[j]] = [i == i']:
    the inverse of the first k x k minor, over places J in order, that is
    invertible in floats, taken over the Fractions of its entries.
    """
    k = len(vecs)
    for cols in itertools.combinations(range(m), k):
        minor = [[v[j] for v in vecs] for j in cols]
        if float_rank(minor, 1e-9) == k:
            return cols, inverse([[Fraction(c) for c in row] for row in minor])
    raise ValueError("the unit generators' log vectors are dependent")


def _objective(exps, vecs, y):
    """max_v |sum_i exps_i log|u_i|_v - y_v|: the log of the worst ratio."""
    obj = 0.0
    for j in range(len(y)):
        s = -y[j]
        for i in range(len(exps)):
            s += exps[i] * vecs[i][j]
        a = abs(s)
        if a > obj:
            obj = a
    return obj


def unit_balance(x, target, units):
    """S-unit xi minimizing the worst log-ratio of local norms to targets.

    With V the generators' log vectors and y_v = log(a_v / norm_v(x)),
    xi = prod u_i^e_i for the e in Z^k minimizing obj(e) = ||V e - y||_oo.
    Rounding the coordinates of y in the basis V (through the exact left
    inverse L of `_left_inverse`) gives e0 with obj(e0) <= log kappa, the
    bound of `balancing_constant`.  Every minimizer e* has obj(e*) <=
    obj(e0), so ||V(e* - e0)||_oo <= 2 obj(e0) and, as L V = I,
    |e*_i - e0_i| <= 2 obj(e0) ||L_i||_1.  The search covers that box
    about e0, one more step each way, which absorbs the float error of
    obj and of the bound (far below one unit of the integer |e*_i - e0_i|).
    Ties resolve to the lexicographically smallest exponent vector.
    Returns (xi, ratio) with ratio = exp(max_v |log(norm_v(xi x)/a_v)|),
    at DEFAULT_DPS digits: at most kappa for every x.

    x and the targets must live on units.places (else ShapeMismatch), and
    the generators' log vectors must be independent (else ValueError).
    """
    if not x.places == target.places == units.places:
        raise ShapeMismatch("x, the targets and the unit group have different places")
    dps = DEFAULT_DPS
    norms = local_norms(x)
    if any(v == 0 for v in norms):
        raise ZeroComponent("every local component must be nonzero")
    target.validate_against(x)
    with mp.workdps(dps):
        lognorm = [float(mp.log(to_mpf(v))) for v in norms]
    y = [math.log(a) - b for a, b in zip(target.targets, lognorm)]
    vecs = _unit_log_vectors(units, x.places, dps)
    cols, inv = _left_inverse(vecs, len(y))
    e0 = [round(sum(c * Fraction(y[j]) for c, j in zip(row, cols))) for row in inv]
    reach = 2 * _objective(e0, vecs, y)
    box = []
    for e, row in zip(e0, inv):
        r = math.floor(reach * float(sum(map(abs, row)))) + 1
        box.append(range(e - r, e + r + 1))
    best_exps = None
    best_obj = None
    for exps in itertools.product(*box):
        obj = _objective(exps, vecs, y)
        if best_obj is None or obj < best_obj - 1e-15:
            best_obj = obj
            best_exps = exps
    xi = units.power_product(best_exps)
    # recompute the achieved ratio from the actual scaled vector
    scaled = x.scaled(xi)
    snorms = local_norms(scaled)
    with mp.workdps(dps):
        worst = mpf(0)
        for v, a in zip(snorms, target.targets):
            r = abs(mp.log(to_mpf(v) / mpf(a)))
            if r > worst:
                worst = r
        ratio = +mp.e ** worst
    return xi, ratio
