"""Exception types shared across the library."""

from __future__ import annotations


class ExpansionLabError(Exception):
    """Base class for every library-specific error."""


class FormatError(ExpansionLabError):
    """Malformed matrix, vector, or graph text input."""


class DimensionMismatchError(ExpansionLabError):
    """Operands have incompatible shapes."""


class NotUnimodularError(ExpansionLabError):
    """A basis change matrix is not square with determinant +-1."""


class ZeroTargetError(ExpansionLabError):
    """The target vector is zero; expansion at zero is not defined."""


class TargetNotInImageError(ExpansionLabError):
    """The target vector has no rational preimage under the matrix."""


class TargetNotInIntegerImageError(ExpansionLabError):
    """The target has a rational preimage but no integer one.

    Carries ``rational_value``, the expansion value over the rationals,
    so callers can see how far the integer problem is from solvable.
    """

    def __init__(self, message: str, rational_value):
        super().__init__(message)
        self.rational_value = rational_value


class UndefinedExpansionError(ExpansionLabError):
    """The image contains no nonzero vector; the supremum is over an empty set."""


class EnumerationCapError(ExpansionLabError):
    """An enumeration would exceed its configured size cap."""


class UnboundedLPError(ExpansionLabError):
    """The simplex found the L1 program unbounded below, which a norm
    objective rules out: the tableau arithmetic has gone wrong."""


class WitnessError(ExpansionLabError):
    """No valid witness could be built for a failed spanning check: a
    Smith-form invariant the witness construction relies on was broken."""


class AmbientDimensionCapError(EnumerationCapError):
    """Spanning check refused: subset work above ``_MAX_SUBSETS``."""


class RowShapeError(ExpansionLabError):
    """A matrix row is not incidence-shaped (at most one +1 and one -1)."""


class CochainConditionError(ExpansionLabError):
    """The composite d1 . d0 of a would-be cochain complex is nonzero."""


class NotPrimeError(ExpansionLabError):
    """The modulus of a finite-field computation is not a prime."""


class PresentationSyntaxError(ExpansionLabError):
    """Parse error in the presentation DSL, with its source position, or
    an invalid presentation built directly (``line`` and ``col`` None)."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)
        self.line = line
        self.col = col
