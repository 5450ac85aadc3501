"""The package's scalar rules: combining, embedding, membership in K, and
the per-place checks built on them.

Six kinds of scalar meet in the lab: exact elements of K (`FieldElement`),
real quadratic irrationals (`QuadraticSurd`), int and `Fraction`, and
float, mpf and mpc for generic points of a completion K_v.

* Combining.  An exact pair lifts to the later of its two types along
  int -> Fraction -> QuadraticSurd -> FieldElement, where two ints lift to
  Fraction, so rational arithmetic always returns a `Fraction`.  A
  rational surd lifts into K; an irrational one is not in K and raises
  `NotInField`.  An inexact operand turns both into mpf/mpc and the
  operation runs at the current mpmath precision, but at no fewer than
  DEFAULT_DPS digits.  A `FieldElement` has no numeric value without a
  place, so it never meets an inexact operand.
* Embedding.  `to_float` gives float64 (complex128 at a complex place) for
  the vectorized kernels; `to_mpf` gives mpf/mpc.
* Membership.  `to_field` is the one test of what counts as an element of
  K, e.g. at a finite place; `lift_exact` lifts the surds of a matrix
  with field-element entries into K, for the raw operators of `linalg`.
* Places.  An element of G is one matrix (or vector) per place, and three
  rules apply place by place: `check_entries` (finite-place entries lie
  in K, so valuations stay exact), `check_det` (a matrix has determinant
  1, or at least a nonzero one) and `abs_at` (the normalized |c|_v).
* Parsing.  `parse_real` reads an exact real, including the config's
  {"a", "b", "d"} spec of a + b sqrt(d), and `real_spec` writes one.
"""

import numbers
import operator
from fractions import Fraction

import numpy as np
from mpmath import mp, mpc, mpf

from . import linalg
from .errors import NotInField, NotUnimodular
from .numberfield import DEFAULT_DPS, FieldElement
from .surd import QuadraticSurd

# Position in the lift order: an exact pair lifts to the larger rank.
_RANK = {int: 0, Fraction: 1, QuadraticSurd: 2, FieldElement: 3}
EXACT = tuple(_RANK)


def is_exact(c):
    return isinstance(c, EXACT)


def _rank(c):
    r = _RANK.get(type(c))
    if r is None and isinstance(c, int):       # bool
        return 0
    return r


def _apply(op, a, b):
    ra, rb = _rank(a), _rank(b)
    if ra is None or rb is None:
        with mp.workdps(max(mp.dps, DEFAULT_DPS)):
            return op(to_mpf(a), to_mpf(b))
    if ra + rb == 0:
        a = Fraction(a)
    elif ra + rb == 5:                          # a surd meets a field element
        if ra == 2:
            a = to_field(a, b.field)
        else:
            b = to_field(b, a.field)
    return op(a, b)


def mul(a, b):
    return _apply(operator.mul, a, b)


def add(a, b):
    return _apply(operator.add, a, b)


def div(a, b):
    return _apply(operator.truediv, a, b)


def lift_exact(entries):
    """Exact entries that the raw operators combine, or None (use floats).

    Beside a `FieldElement` the surds are lifted into K; an irrational one,
    like an inexact entry, gives None.  Other entries keep their type.
    """
    if not all(map(is_exact, entries)):
        return None
    field = next((c.field for c in entries if type(c) is FieldElement), None)
    if field is None:
        return list(entries)
    try:
        return [to_field(c, field) if type(c) is QuadraticSurd else c
                for c in entries]
    except NotInField:
        return None


def to_mpf(c, place=None, dps=DEFAULT_DPS):
    """c as an mpf, or an mpc for a complex value.

    A `FieldElement` is evaluated at the archimedean `place` with `dps`
    digits, a `QuadraticSurd` at `dps` digits; without a place a field
    element raises TypeError, and so does anything that is not a number
    (mpmath would read a pair as a raw mantissa and exponent).
    """
    t = type(c)
    if t is mpf or t is mpc:
        return c
    if t is Fraction:
        return mpf(c.numerator) / c.denominator
    if t is QuadraticSurd:
        return c.to_mpf(dps)
    if t is FieldElement:
        if place is None:
            raise TypeError("cannot mix field elements with floats")
        return place.evaluate(c, dps)
    if isinstance(c, numbers.Integral):
        return mpf(int(c))
    if isinstance(c, numbers.Real):
        return mpf(float(c))
    if isinstance(c, numbers.Complex):
        c = complex(c)
        return mpc(c.real, c.imag)
    raise TypeError(f"{c!r} is not a number")


def to_float(c, place):
    """c at an archimedean place: float64, or complex128 at a complex place."""
    if type(c) is FieldElement:
        root = place.root_float()
        acc = 0.0 if place.kind == "real" else 0j
        for x in reversed(c.coords):
            acc = acc * root + float(x)
        return acc
    return float(c) if place.kind == "real" else complex(c)


def to_field(c, field, where=None):
    """c as an element of `field`.

    Accepts int, `Fraction`, rational surds and elements of `field`;
    anything else raises `NotInField`, naming the finite place `where`
    when given.
    """
    t = type(c)
    if t is FieldElement and c.field == field:
        return c
    if t is Fraction or isinstance(c, int):
        return field.element([c])
    if t is QuadraticSurd and c.is_rational():
        return field.element([c.a])
    if where is None:
        raise NotInField(f"{c!r} is not an exact element of K")
    raise NotInField(
        f"finite-place entry {c!r} at {where} is not an exact element of K")


def check_entries(rows, place):
    """Raise `NotInField` unless every entry of rows at a finite place lies
    in the place's field; an archimedean place takes any entry."""
    if place.kind == "finite":
        for row in rows:
            for c in row:
                to_field(c, place.field, place.name)


def check_det(rows, place, unimodular):
    """Raise `NotUnimodular` if the square matrix rows at `place` is
    singular, or, when `unimodular`, has a determinant other than 1.

    Entries that `lift_exact` lifts decide exactly; any others decide on
    the float64 determinant of their `to_float` embedding, within 1e-12
    of 0 and 1e-10 of 1.
    """
    n = len(rows)
    exact = lift_exact([c for row in rows for c in row])
    if exact is not None:
        det = linalg.det([exact[i * n:(i + 1) * n] for i in range(n)])
        singular, off = det == 0, det != 1
    else:
        det = np.linalg.det(np.array([[to_float(c, place) for c in row]
                                      for row in rows]))
        singular, off = abs(det) < 1e-12, abs(det - 1) > 1e-10
    if singular:
        raise NotUnimodular(f"singular matrix at {place.name}")
    if unimodular and off:
        raise NotUnimodular(f"det at {place.name} is {det}, not 1")


def abs_at(c, place, dps):
    """The normalized |c|_v: exact at a finite place, where c must lie in
    K; at an archimedean place the modulus of c's value at dps digits,
    squared at a complex place, in the caller's mpmath context."""
    if place.kind == "finite":
        return place.abs_value(to_field(c, place.field, place.name))
    v = to_mpf(c, place, dps)
    if place.kind == "complex":
        return v.real ** 2 + v.imag ** 2
    return abs(v)


def parse_real(spec):
    """An exact real number as a `QuadraticSurd`.

    Accepts a surd, an int, a `Fraction`, a rational `FieldElement`, a
    decimal or fraction string, a float (its exact binary value) and the
    spec {"a": a, "b": b, "d": d} of a + b sqrt(d), where a and b default
    to 0 and d to 1.
    """
    if isinstance(spec, QuadraticSurd):
        return spec
    if isinstance(spec, dict):
        return QuadraticSurd(Fraction(str(spec.get("a", 0))),
                             Fraction(str(spec.get("b", 0))),
                             int(spec.get("d", 1)))
    if isinstance(spec, FieldElement) and spec.is_rational():
        return QuadraticSurd(spec.coords[0])
    if isinstance(spec, (int, Fraction, str, float)):
        return QuadraticSurd(spec)
    raise TypeError(f"cannot parse real spec {spec!r}")


def real_spec(c):
    """The JSON of an exact real entry as a config spells it, which the CLI
    reads back as the same value: an int, a Fraction or a rational
    `FieldElement` as its fraction string, and a surd a + b sqrt(d) as
    {"a", "b", "d"}.  Any other entry (a float, an mpf, an irrational
    element of K) has no such spelling and raises TypeError."""
    if isinstance(c, QuadraticSurd):
        return {"a": str(c.a), "b": str(c.b), "d": c.d}
    if isinstance(c, FieldElement) and c.is_rational():
        c = c.coords[0]
    if isinstance(c, (int, Fraction)) and not isinstance(c, bool):
        return str(c)
    raise TypeError(f"no exact real spec for {c!r}")
