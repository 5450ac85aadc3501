"""Exception hierarchy shared by all sadiclab modules.

Every error that a caller is expected to react to gets its own class; the
CLI maps all of them to exit code 1 (exit code 2 is reserved for verdicts
that contradict the shipped theoretical predictions, which is an anomaly,
not an error).
"""


class SadicLabError(Exception):
    """Base class for all package errors."""


class NotMonic(SadicLabError):
    """Defining polynomial is not monic."""


class Reducible(SadicLabError):
    """Defining polynomial factors over the rationals."""


class RamifiedOrBadPrime(SadicLabError):
    """Prime has a repeated factor mod p (ramified or index divisor)."""


class PrecisionExhausted(SadicLabError):
    """A p-adic resultant stayed divisible by p^N at the precision cap."""


class UnsupportedFieldWithoutConfig(SadicLabError):
    """Unit generators cannot be derived; supply them in the config."""


class GeneratorInvariantViolated(SadicLabError):
    """A supplied unit generator fails the product-formula invariant."""


class ZeroComponent(SadicLabError):
    """A balancing input has a vanishing local component."""


class WindowTooLarge(SadicLabError):
    """Requested enumeration window exceeds the configured cap."""


class NotUnimodular(SadicLabError, ValueError):
    """A lattice matrix is singular or its determinant is not 1."""


class NotInField(SadicLabError, TypeError):
    """A finite-place entry is inexact or not an element of the field."""


class ShapeMismatch(SadicLabError):
    """Dimensions, fields or place sets of two objects disagree."""


class TooFewSteps(SadicLabError):
    """Trajectory too short to classify."""


class RayOverflow(SadicLabError, OverflowError):
    """A ray parameter takes a step beyond the schedule kernel's range."""

    def __init__(self, par, place, reach="overflows float64 in its diagonal entries"):
        super().__init__(f"ray parameter {par!r} at {place} {reach}")


class NeedTwoPlaces(SadicLabError):
    """Construction requires at least two places in S."""


class CyclicPositions(SadicLabError):
    """Requested root positions contain a cycle; no single expander exists."""


class DependentFactors(SadicLabError):
    """Linear factors of a decomposable form are linearly dependent."""


class DegenerateBasis(SadicLabError):
    """Basis elements do not generate the field over the rationals."""


class NormFormNotIntegral(SadicLabError, ArithmeticError):
    """A basis gives a norm form with a non-integral coefficient."""


class TooFewWindows(SadicLabError):
    """Discreteness report needs at least three distinct heights."""


class SchemaError(SadicLabError):
    """Config validation failure; carries a JSON-pointer to the bad key."""

    def __init__(self, pointer, message):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")
