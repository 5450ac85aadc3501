"""Exact arithmetic in a number field K = Q(theta) and its places.

Elements are coordinate vectors over the rationals in the power basis
1, theta, ..., theta^(d-1); all ring operations are exact.  Places carry
the normalized absolute values: the usual modulus at a real embedding,
the *square* of the modulus at a complex embedding, and p^(-f*ord) at a
finite place, so that the product over all places of |u|_v is 1 for units.

Finite places are only constructed over primes where the defining
polynomial stays squarefree mod p; that restriction keeps every finite
valuation computable as the exact p-adic valuation of a resultant against
a Hensel-lifted local factor (or, equivalently, from the residue mod that
factor, which is how `lattice.PointCloud` values whole clouds).  The places
over p at one Hensel precision form one shared list (`finite_places`); a
valuation that needs more digits reads the same place off the list at
twice the precision, so a refined place is an entry of such a list too.
"""

import cmath
import functools
import operator
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, lcm, pi, prod

from mpmath import mp, mpf, mpc

from . import linalg
from . import polyarith as pa
from .errors import (
    GeneratorInvariantViolated,
    NotMonic,
    PrecisionExhausted,
    RamifiedOrBadPrime,
    Reducible,
    UnsupportedFieldWithoutConfig,
)

DEFAULT_DPS = 50
HENSEL_DEFAULT_N = 30
HENSEL_CAP_N = 480
FLOAT_ROOT_SWEEPS = 100
FIELD_CACHE_SIZE = 32        # the fields `create_field` keeps, least recently used out


class NumberField:
    """K = Q(theta) for a monic irreducible integer polynomial."""

    def __init__(self, min_poly, integral_basis=None):
        try:
            coeffs = [int(c) for c in min_poly]
        except (TypeError, ValueError, OverflowError):
            coeffs = None           # a coefficient int() cannot read
        if coeffs != list(min_poly):
            raise NotMonic("coefficients must be integers")
        pa.trim(coeffs)
        if len(coeffs) < 2:
            raise Reducible("constant polynomial does not define a field")
        if coeffs[-1] != 1:
            raise NotMonic(f"leading coefficient {coeffs[-1]} != 1")
        self.min_poly = tuple(coeffs)
        self.degree = len(coeffs) - 1
        if not pa.is_irreducible(coeffs):
            raise Reducible(f"{_poly_text(coeffs)} factors over Q")
        self.discriminant = pa.discriminant(coeffs)
        self._places = {}        # the place lists of `archimedean_places` and `finite_places`
        # theta^k for k = d .. 2d-2, reduced to degree < d.
        self._red = self._reduction_rows()
        if integral_basis is None:
            self.integral_basis = tuple(
                FieldElement(self, [Fraction(int(i == j)) for j in range(self.degree)])
                for i in range(self.degree)
            )
        else:
            rows = [[Fraction(c) for c in row] for row in integral_basis]
            if len(rows) != self.degree or any(len(r) != self.degree for r in rows):
                raise ValueError("integral basis must be d vectors of length d")
            if linalg.rank(rows) != self.degree:
                raise ValueError("integral basis matrix is singular")
            self.integral_basis = tuple(FieldElement(self, r) for r in rows)

    def _reduction_rows(self):
        d = self.degree
        rows = []
        # theta^d = -(c_0 + c_1 theta + ... + c_{d-1} theta^{d-1})
        cur = [Fraction(-c) for c in self.min_poly[:-1]]
        for _ in range(d - 1):
            rows.append(list(cur))
            nxt = [Fraction(0)] + cur[:-1]
            lead = cur[-1]
            if lead:
                for j in range(d):
                    nxt[j] += lead * Fraction(-self.min_poly[j])
            cur = nxt
        return rows

    # -- element constructors ------------------------------------------------

    def element(self, coords):
        c = [Fraction(x) for x in coords]
        if len(c) > self.degree:
            raise ValueError("too many coordinates")
        c += [Fraction(0)] * (self.degree - len(c))
        return FieldElement(self, c)

    def zero(self):
        return self.element([])

    def one(self):
        return self.element([1])

    def from_integral_coords(self, coords, denominator=1):
        """sum_l c_l b_l / denominator for integers c_l over the integral basis.

        Each power-basis coordinate is one integer sum over the basis rows
        B_l = D b_l and one `Fraction` by D * denominator.
        """
        rows, den = self._integral_rows
        den *= denominator
        return FieldElement(self, [
            Fraction(sum(operator.index(c) * row[k] for c, row in zip(coords, rows)), den)
            for k in range(self.degree)])

    @functools.cached_property
    def _integral_rows(self):
        """(integer rows B_l, D) with the integral basis b_l = B_l / D."""
        coords = [b.coords for b in self.integral_basis]
        den = lcm(*(c.denominator for row in coords for c in row))
        return [[int(c * den) for c in row] for row in coords], den

    @functools.cached_property
    def _primitive_basis(self):
        """(s_l, P_l) with b_l = s_l P_l for each integral-basis element:
        P_l an integer vector of content 1, s_l a positive rational."""
        rows, den = self._integral_rows
        return [(Fraction(gcd(*row), den), [c // gcd(*row) for c in row]) for row in rows]

    def __repr__(self):
        return f"NumberField({list(self.min_poly)})"

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.min_poly == other.min_poly

    def __hash__(self):
        return hash(self.min_poly)


class FieldElement:
    """Element of a NumberField as exact power-basis coordinates."""

    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        self.field = field
        self.coords = tuple(Fraction(c) for c in coords)
        if len(self.coords) != field.degree:
            raise ValueError("coordinate length mismatch")

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise ValueError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.element([other])
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, [a + b for a, b in zip(self.coords, other.coords)])

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, [-a for a in self.coords])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = self.field.degree
        conv = [Fraction(0)] * (2 * d - 1)
        for i, a in enumerate(self.coords):
            if not a:
                continue
            for j, b in enumerate(other.coords):
                if b:
                    conv[i + j] += a * b
        out = conv[:d]
        for k in range(d, 2 * d - 1):
            c = conv[k]
            if c:
                row = self.field._red[k - d]
                for j in range(d):
                    out[j] += c * row[j]
        return FieldElement(self.field, out)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        # Extended Euclid of the coordinate polynomial against min_poly.
        m = [Fraction(c) for c in self.field.min_poly]
        a = list(self.coords)
        pa.trim(a)
        r0, r1 = m, a
        t0, t1 = [], [Fraction(1)]
        while r1:
            q, r = pa.divmod_exact(r0, r1)
            r0, r1 = r1, r
            t0, t1 = t1, pa.sub(t0, pa.mul(q, t1))
        if pa.degree(r0) != 0:
            raise ZeroDivisionError("element not invertible (reducible modulus?)")
        inv = pa.scale(t0, Fraction(1) / r0[0])
        inv = pa.poly_mod(inv, m)
        return self.field.element(inv)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        acc = self.field.one()
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.coords[0] == other and not any(self.coords[1:])
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        # a rational element equals, so hashes as, its Fraction
        if self.is_rational():
            return hash(self.coords[0])
        return hash((self.field.min_poly, self.coords))

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def is_rational(self):
        return all(c == 0 for c in self.coords[1:])

    def cleared(self):
        """(integer coefficient list, positive common denominator)."""
        den = 1
        for c in self.coords:
            den = den * c.denominator // gcd(den, c.denominator)
        ints = [int(c * den) for c in self.coords]
        pa.trim(ints)
        return ints, den

    def __repr__(self):
        return f"FieldElement({[str(c) for c in self.coords]})"

    def __str__(self):
        """`2` for a rational element, `(c0,c1,...)` of its coordinates otherwise."""
        if self.is_rational():
            return str(self.coords[0])
        return "(" + ",".join(str(c) for c in self.coords) + ")"


# ---------------------------------------------------------------------------
# Places


class ArchimedeanPlace:
    """A real place, or one complex place per conjugate pair.

    `kind` is "real" or "complex", and the name r<index> or c<index>.
    The root of the defining polynomial is found by Newton's iteration
    from `start`: a rational for a real root, and a (real, imaginary) pair
    of rationals for the complex root with positive imaginary part.  The normalized absolute value is the modulus
    at a real place and its square at a complex one, which makes the
    product formula hold without counting the pair twice.
    """

    def __init__(self, field, kind, index, start):
        self.field = field
        self.kind = kind
        self.name = f"{kind[0]}{index}"
        self.start = start
        self._roots = {}

    def root(self, dps=DEFAULT_DPS):
        """The root at dps digits, memoised per dps: Newton's iteration
        from `start`, at dps + 15 digits until a step is below
        10^-(dps + 10)."""
        if dps not in self._roots:
            m = list(map(Fraction, self.field.min_poly))
            dm = pa.derivative(m)
            with mp.workdps(dps + 15):
                x = mpc(*map(_mpq, self.start)) if self.kind == "complex" \
                    else _mpq(self.start)
                for _ in range(dps + 20):
                    step = _horner_mp(m, x) / _horner_mp(dm, x)
                    x = x - step
                    if abs(step) < mpf(10) ** (-(dps + 10)):
                        break
                self._roots[dps] = +x
        return self._roots[dps]

    def root_float(self):
        root = self.root(17)
        return complex(root) if self.kind == "complex" else float(root)

    def evaluate(self, elem, dps=DEFAULT_DPS):
        with mp.workdps(dps + 10):
            return +_horner_mp(list(elem.coords), self.root(dps))

    def abs_value(self, elem, dps=DEFAULT_DPS):
        if elem.is_zero():
            return mpf(0)
        v = self.evaluate(elem, dps)
        if self.kind == "real":
            return abs(v)
        with mp.workdps(dps + 10):
            return +(v.real * v.real + v.imag * v.imag)

    def __repr__(self):
        return f"ArchimedeanPlace({self.name}, start={self.start})"


class FinitePlace:
    """The place over p of one irreducible factor of the defining polynomial
    mod p, with that factor Hensel-lifted mod p^precision.

    `_finite_places` alone builds places, one shared list per field, prime
    and precision; `refined` reads the same place off the list at twice the
    precision.
    """

    kind = "finite"

    def __init__(self, field, p, factor_mod_p, lifted_factor, precision, index):
        self.field = field
        self.p = p
        self.factor_mod_p = tuple(factor_mod_p)
        self.residue_degree = len(self.factor_mod_p) - 1
        self.ramification_index = 1
        self.lifted_factor = tuple(lifted_factor)
        self.precision = precision
        self.index = index
        self.name = f"p{p}_{index}"
        self._basis_residues = {}

    def residue(self, u, K):
        """The f coefficients, in [0, p^K), of the integer polynomial u mod
        the lifted factor h and p^K, for K at most the place's precision."""
        r = pa.rem_mod(u, list(self.lifted_factor), self.p ** K)
        return r + [0] * (self.residue_degree - len(r))

    def basis_residues(self, K):
        """(s_l, P_l, R_l) for each integral-basis element b_l = s_l P_l
        (`NumberField._primitive_basis`), R_l the residue of P_l mod (h, p^K);
        built once per K.  Reduction mod (h, p^K) is linear, so an integer
        m times P_l has the residue m R_l mod p^K."""
        out = self._basis_residues.get(K)
        if out is None:
            out = self._basis_residues[K] = [(s, P, self.residue(P, K))
                                             for s, P in self.field._primitive_basis]
        return out

    def refined(self):
        """The same place at twice the Hensel precision."""
        return finite_places(self.field, self.p, 2 * self.precision)[self.index]

    def valuation(self, elem):
        """Exact valuation v_p(N_local(elem)); |elem|_v = p**(-valuation).

        The resultant against the lifted factor is read mod p^N; while it
        is 0 there, N doubles, up to HENSEL_CAP_N.
        """
        if elem.is_zero():
            raise ZeroDivisionError("valuation of zero is infinite")
        ints, den = elem.cleared()
        den_val = 0
        while den % self.p == 0:
            den //= self.p
            den_val += 1
        place = self
        while True:
            res = pa.int_resultant(list(place.lifted_factor), ints) % self.p ** place.precision
            if res:
                val = 0
                while res % self.p == 0:
                    res //= self.p
                    val += 1
                return val - self.residue_degree * den_val
            if 2 * place.precision > HENSEL_CAP_N:
                raise PrecisionExhausted(
                    f"resultant divisible by {self.p}^{place.precision} at the cap")
            place = place.refined()

    def abs_value(self, elem, dps=DEFAULT_DPS):
        """p^(-f ord), exact at any dps."""
        if elem.is_zero():
            return Fraction(0)
        return Fraction(self.p) ** -self.valuation(elem)

    def __repr__(self):
        return f"FinitePlace(p={self.p}, f={self.residue_degree}, N={self.precision})"


def _mpq(q):
    """The Fraction q as an mpf at the working precision."""
    return mpf(q.numerator) / q.denominator


def _horner_mp(coeffs, x):
    acc = x * 0
    for c in reversed(coeffs):
        if isinstance(c, Fraction):
            acc = acc * x + _mpq(c)
        else:
            acc = acc * x + c
    return acc


def _poly_text(coeffs):
    """An integer polynomial written out, highest power first: x**2 - 1."""
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c:
            mono = "x" if k == 1 else f"x**{k}"
            body = str(abs(c)) if k == 0 else mono if abs(c) == 1 else f"{abs(c)}*{mono}"
            terms.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(terms)
    return text[2:] if text.startswith("+") else "-" + text[2:]


# ---------------------------------------------------------------------------
# Module operations


def create_field(min_poly_coeffs, integral_basis=None):
    """The field, with its monicity, integrality and irreducibility verified.

    A field is a shared value: one `NumberField` per polynomial and
    integral basis is built per process (the last FIELD_CACHE_SIZE used
    are kept), and so is each list of its places, so their memoised roots
    and lifts carry over from one command to the next.  Callers must not
    mutate a field or a place.  A build that fails is not kept, and
    `NumberField(...)` itself builds a field of its own.
    """
    # the key: the coefficients without trailing zeros, and the basis rows;
    # equal numbers of any type (1, 1.0, Fraction(1)) make equal keys
    try:
        coeffs = list(min_poly_coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        key = tuple(coeffs), None if integral_basis is None else \
            tuple(map(tuple, integral_basis))
        hash(key)
    except (TypeError, ValueError):
        return NumberField(min_poly_coeffs, integral_basis)   # raises as it reads them
    return _shared_field(*key)


@functools.lru_cache(maxsize=FIELD_CACHE_SIZE)
def _shared_field(coeffs, basis):
    return NumberField(coeffs, basis)


def _shared_places(field, key, build):
    """A fresh list of the field's places under key, built once by build()."""
    places = field._places.get(key)
    if places is None:
        places = field._places[key] = tuple(build())
    return list(places)


def archimedean_places(field):
    """All real and complex places; complex conjugate pairs appear once.

    A real root's Newton start is the midpoint of its isolating interval
    refined below width 2^-30, or the root itself over Q; a complex one's
    is its float64 value from `_float_roots`, read as a pair of Fractions,
    with the real part exact on a line of symmetry (`_complex_places`).
    The places are built once per field.
    """
    return _shared_places(field, "archimedean", lambda: _archimedean_places(field))


def _archimedean_places(field):
    m = list(map(Fraction, field.min_poly))
    if field.degree == 1:
        return [ArchimedeanPlace(field, "real", 0, -m[0])]
    places = []
    for i, (lo, hi) in enumerate(pa.isolate_real_roots(m)):
        lo, hi = pa.refine_real_root(m, lo, hi, Fraction(1, 2 ** 30))
        places.append(ArchimedeanPlace(field, "real", i, (lo + hi) / 2))
    r2 = (field.degree - len(places)) // 2
    if r2 > 0:
        places.extend(_complex_places(field, r2))
    return places


def _complex_places(field, r2):
    """One place per root in the upper half-plane, ordered by its start.

    The float roots whose imaginary part is above a tolerance must be r2
    roots, pairwise farther apart than it.  A root within the tolerance of
    the line Re x = c of `_line_root_count` starts with real part exactly
    c, and there must be as many of them as the exact count of roots on
    the line: so a purely imaginary root starts at real part 0, which
    Newton's iteration keeps, and the order of such roots does not rest
    on float noise.
    """
    c, on_line = _line_root_count(field.min_poly)
    tol = 1e-9 * (1 + max(map(abs, field.min_poly[:-1])))    # Cauchy's bound
    starts, snapped = [], 0
    for z in _float_roots(field.min_poly):
        if z.imag > tol:
            if on_line and abs(z.real - c) <= tol:
                starts.append((c, Fraction(z.imag)))
                snapped += 1
            else:
                starts.append((Fraction(z.real), Fraction(z.imag)))
    near = any(abs(complex(*a) - complex(*b)) <= tol
               for a, b in combinations(starts, 2))
    if len(starts) != r2 or snapped != on_line or near:
        raise ArithmeticError("complex root pairing failed")
    return [ArchimedeanPlace(field, "complex", i, start)
            for i, start in enumerate(sorted(starts))]


def _line_root_count(m):
    """(c, k): c = -a_(d-1)/d, and the number k of roots c + iy, y > 0.

    If an irreducible m has a root c' + iy, y != 0, with c' rational, then
    g = m(x + c') has the roots iy and -iy, so g(-x) = +-g(x), the minimal
    polynomial of iy, and g is even (an odd g has the root 0).  The roots
    of an even g sum to 0, so c' = c.  So k = 0 unless g = m(x + c) is
    even, and then k is the number of positive real roots of h(y) = g(iy),
    whose y^(2j) coefficient is that of g times (-1)^j, counted exactly by
    a Sturm sequence.  With c = u / v, g is taken times v^d, which makes
    its coefficients integers.
    """
    c = Fraction(-m[-2], len(m) - 1)
    g = []
    for k, a in enumerate(reversed(m)):
        g = pa.add(pa.mul(g, [c.numerator, c.denominator]), [a * c.denominator ** k])
    if any(g[1::2]):
        return c, 0
    h = [a if j % 4 == 0 else -a for j, a in enumerate(g)]
    return c, pa.count_real_roots(h, 0, pa.cauchy_bound(h))


def _float_roots(coeffs):
    """All roots of a monic integer polynomial as complex floats, by the
    Durand-Kerner iteration from points spread on a circle that holds
    every root."""
    d = len(coeffs) - 1
    radius = 2 * max(abs(a) ** (1 / (d - k)) for k, a in enumerate(coeffs[:-1]))
    # turned off the real axis: real or mirror-image starts would stay so
    z = [radius * cmath.exp(1j * (2 * pi * k / d + 0.4)) for k in range(d)]
    for _ in range(FLOAT_ROOT_SWEEPS):
        moved = 0.0
        for i in range(d):
            step = pa.evaluate(coeffs, z[i]) / prod(z[i] - w for j, w in enumerate(z)
                                                     if j != i)
            z[i] -= step
            moved = max(moved, abs(step))
        if moved <= 1e-15 * radius:
            break
    return z


def finite_places(field, p, precision=HENSEL_DEFAULT_N):
    """One place per irreducible factor of the defining polynomial mod p.

    Rejects primes where the reduction has a repeated factor: those are
    ramified or divide the index, and the resultant-based valuation would
    not be exact there.  The places are built once per field, prime and
    precision.
    """
    p = int(p)
    return _shared_places(field, (p, precision), lambda: _finite_places(field, p, precision))


def _finite_places(field, p, precision):
    if p < 2 or any(p % q == 0 for q in range(2, isqrt(p) + 1)):
        raise ValueError(f"{p} is not prime")
    parts = pa.gf_factor(field.min_poly, p)
    if parts is None:
        raise RamifiedOrBadPrime(
            f"x-minimal polynomial has a repeated factor mod {p}")
    lifted = pa.hensel_lift_factors(list(field.min_poly), parts, p, precision)
    places = [FinitePlace(field, p, fac, lift, precision, i)
              for i, (fac, lift) in enumerate(zip(parts, lifted))]
    assert sum(pl.residue_degree for pl in places) == field.degree
    return places


def field_norm(elem):
    """The rational norm of an element, via an exact resultant."""
    field = elem.field
    if elem.is_zero():
        return Fraction(0)
    ints, den = elem.cleared()
    res = pa.int_resultant(list(field.min_poly), ints)
    return Fraction(res, den ** field.degree)


# ---------------------------------------------------------------------------
# S-unit groups


class SUnitGroup:
    """Generators of the S-units for the supported field classes.

    The rank is Dirichlet's: #archimedean places - 1 + #finite places of S,
    whatever the generators span.
    """

    def __init__(self, field, places, generators, torsion_generator):
        self.field = field
        self.places = list(places)
        self.generators = list(generators)
        self.torsion_generator = torsion_generator
        self.rank = len(self.places) - 1
        for u in self.generators:
            _check_unit_invariant(u, self.places)

    def power_product(self, exponents):
        acc = self.field.one()
        for u, e in zip(self.generators, exponents):
            acc = acc * u ** e
        return acc

    def __repr__(self):
        return f"SUnitGroup(rank={self.rank}, generators={len(self.generators)})"


def _check_unit_invariant(u, places):
    """The product of |u|_v over S is 1, exactly: S holds every archimedean
    place (`s_unit_group` requires it), whose |u|_v multiply to |N(u)|."""
    total = abs(field_norm(u))
    for v in places:
        if v.kind == "finite":
            total *= v.abs_value(u)
    if total != 1:
        raise GeneratorInvariantViolated(
            f"product of |u|_v over S is {total}, not 1, for {u!r}")


def _torsion_generator(field):
    """Maximal-order root of unity (search over small coordinates)."""
    if field.degree == 1:
        return field.element([-1])
    best = field.element([-1])
    best_key = (2, best.coords)
    halves = (Fraction(1, 2), Fraction(1))
    rng = [Fraction(k) for k in range(-2, 3)]
    for q in halves:
        for a in rng:
            for b in rng:
                u = field.element([a * q, b * q])
                if u.is_zero() or field_norm(u) not in (1, -1):
                    continue
                order = _mult_order(u, cap=12)
                if order and (order, u.coords) > best_key:
                    best, best_key = u, (order, u.coords)
    return best


def _mult_order(u, cap):
    acc = u
    for k in range(1, cap + 1):
        if acc == 1:
            return k
        acc = acc * u
    return None


def _pell_fundamental_unit(field):
    """Fundamental unit of a real quadratic field.

    Solves x^2 - D y^2 = +-4 for the field discriminant D, taking candidate
    (x, y) pairs from the continued fraction of sqrt(D) (plus a small direct
    sweep, which covers the tiny discriminants where the convergent
    criterion is not conclusive).
    """
    D = field.discriminant
    root_d = field.element([field.min_poly[1], 2])      # its square is D

    def unit_from(x, y):
        return field.element([Fraction(x, 2), 0]) + root_d * Fraction(y, 2)

    for y in range(1, 200):
        for sign in (-4, 4):
            x2 = D * y * y + sign
            if x2 <= 0:
                continue
            x = isqrt(x2)
            if x * x == x2:
                return unit_from(x, y)
    # Continued fraction of sqrt(D): exact integer state (P + sqrt(D)) / Q.
    a0 = isqrt(D)
    P, Q, a = 0, 1, a0
    p_prev, p_cur = 1, a0
    q_prev, q_cur = 0, 1
    for _ in range(10 ** 5):
        P = a * Q - P
        Q = (D - P * P) // Q
        a = (a0 + P) // Q
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        t = p_cur * p_cur - D * q_cur * q_cur
        if t in (4, -4):
            return unit_from(p_cur, q_cur)
        if t in (1, -1):
            return unit_from(2 * p_cur, 2 * q_cur)
    raise UnsupportedFieldWithoutConfig("fundamental unit search exhausted")


def _finite_generators(field, finite):
    """Elements whose valuation vectors span the finite-place directions.

    Norm-equation search over small integral coordinates; greedy selection
    of a full-rank subset, smallest coordinates first.
    """
    if not finite:
        return []
    primes = sorted({v.p for v in finite})
    if field.degree == 1:
        return [field.element([p]) for p in sorted(v.p for v in finite)]
    candidates = []
    bound = 40
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            if a == 0 and b == 0:
                continue
            if a < 0 or (a == 0 and b < 0):
                continue            # sign class: first nonzero coordinate positive
            z = field.from_integral_coords([a, b])
            n = abs(field_norm(z))
            if n == 0 or n == 1:
                continue
            rem = n.numerator
            for p in primes:
                while rem % p == 0:
                    rem //= p
            if rem != 1:
                continue
            candidates.append((max(abs(a), abs(b)), (a, b), z))
    candidates.sort(key=lambda t: (t[0], t[1]))
    chosen, echelon = [], []
    for _, _, z in candidates:
        if linalg.insert(echelon, [v.valuation(z) for v in finite]):
            chosen.append(z)
            if len(chosen) == len(finite):
                break
    if len(chosen) < len(finite):
        raise UnsupportedFieldWithoutConfig(
            "norm-equation search did not reach every finite place; "
            "supply s_units in the configuration")
    return chosen


def s_unit_group(field, places, supplied=None):
    """S-unit generators for Q and quadratic fields; otherwise user-supplied.

    `places` must contain all archimedean places of the field.  Supplied
    generators (coordinate vectors) are verified against the product
    formula; the rank is Dirichlet's whichever generators S has.
    """
    arch = [v for v in places if v.kind != "finite"]
    finite = [v for v in places if v.kind == "finite"]
    expected = archimedean_places(field)
    if len(arch) != len(expected):
        raise ValueError("S must contain all archimedean places")
    if supplied is not None:
        gens = [field.element(c) for c in supplied]
        return SUnitGroup(field, places, gens, _torsion_generator(field))
    if field.degree <= 2:
        gens = []
        if field.degree == 2 and field.discriminant > 0:
            gens.append(_pell_fundamental_unit(field))
        gens.extend(_finite_generators(field, finite))
        return SUnitGroup(field, places, gens, _torsion_generator(field))
    raise UnsupportedFieldWithoutConfig(
        f"degree-{field.degree} fields need s_units in the configuration")
