"""Exact real quadratic scalars a + b*sqrt(d).

A tiny closed ring for the archimedean coefficients that show up in
norm forms and hand-built fixtures (sqrt(2), the golden ratio, ...).
Arithmetic stays exact as long as both operands share the same radicand;
mixing radicands is a usage error here, not a silent float fallback.
"""

import math
from fractions import Fraction

from mpmath import mp, mpf


class QuadraticSurd:
    """a + b*sqrt(d) with exact rational a, b and a nonsquare integer d > 0.

    A square radicand d = r^2 (d = 1 included) is folded on construction,
    a + b*sqrt(d) -> (a + b*r) + 0*sqrt(1), so b != 0 implies that d is not
    a square, and a + b*sqrt(d) = 0 exactly when a = b = 0.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=0, d=1):
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.d = int(d)
        if self.d <= 0:
            raise ValueError("radicand must be positive")
        if self.b != 0:
            root = math.isqrt(self.d)
            if root * root == self.d:
                self.a += self.b * root
                self.b = Fraction(0)
        if self.b == 0:
            self.d = 1

    @staticmethod
    def sqrt(d):
        return QuadraticSurd(0, 1, d)

    def _coerce(self, other):
        if isinstance(other, QuadraticSurd):
            if self.d != 1 and other.d != 1 and self.d != other.d:
                raise ValueError(f"incompatible radicands {self.d} and {other.d}")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadraticSurd(other)
        return NotImplemented

    def _radicand_with(self, other):
        return self.d if self.d != 1 else other.d

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadraticSurd(self.a + other.a, self.b + other.b,
                             self._radicand_with(other))

    __radd__ = __add__

    def __neg__(self):
        return QuadraticSurd(-self.a, -self.b, self.d)

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
        d = self._radicand_with(other)
        return QuadraticSurd(self.a * other.a + self.b * other.b * d,
                             self.a * other.b + self.b * other.a, d)

    __rmul__ = __mul__

    def inverse(self):
        n = self.a * self.a - self.b * self.b * self.d
        if n == 0:
            raise ZeroDivisionError("inverse of zero surd")
        return QuadraticSurd(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def is_rational(self):
        return self.b == 0

    def as_fraction(self):
        if not self.is_rational():
            raise ValueError(f"{self!r} is irrational")
        return self.a

    def is_zero(self):
        return self.a == 0 and self.b == 0

    def sign(self):
        if self.is_zero():
            return 0
        if self.b == 0:
            return 1 if self.a > 0 else -1
        if self.a == 0:
            return 1 if self.b > 0 else -1
        # compare a and -b sqrt(d) by squaring, signs disagree
        if self.a > 0 and self.b > 0:
            return 1
        if self.a < 0 and self.b < 0:
            return -1
        lhs = self.a * self.a
        rhs = self.b * self.b * self.d
        if self.a > 0:          # b < 0
            return 1 if lhs > rhs else -1
        return -1 if lhs > rhs else 1

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # canonical form: b != 0 only with a nonsquare radicand, which
        # _coerce has checked is shared
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        # a rational surd equals, so hashes as, its Fraction
        return hash(self.a) if self.b == 0 else hash((self.a, self.b, self.d))

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __abs__(self):
        return self if self.sign() >= 0 else -self

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def to_mpf(self, dps=50):
        with mp.workdps(dps + 5):
            return +(mpf(self.a.numerator) / self.a.denominator
                     + mpf(self.b.numerator) / self.b.denominator * mp.sqrt(self.d))

    def __repr__(self):
        if self.b == 0:
            return f"QuadraticSurd({self.a})"
        return f"QuadraticSurd({self.a} + {self.b}*sqrt({self.d}))"
