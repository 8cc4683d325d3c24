"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "CovolumeError",
    "InvalidInput",
    "NotSquarefree",
    "NonFundamentalDiscriminant",
    "DiscriminantMismatch",
    "InvalidDimension",
    "UnknownMultiplicity",
    "TieDetected",
    "InternalDefect",
    "require_int",
]


class CovolumeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(CovolumeError, ValueError):
    """An argument is outside the documented domain of an operation."""


class NotSquarefree(InvalidInput):
    """A field parameter d has a repeated prime factor."""


class NonFundamentalDiscriminant(InvalidInput):
    """An integer is not the discriminant of an imaginary quadratic field."""


class DiscriminantMismatch(InvalidInput):
    """Two forms (or a form and a group) have different discriminants."""


class InvalidDimension(InvalidInput):
    """The complex dimension n is outside the range a formula covers."""


class UnknownMultiplicity(CovolumeError):
    """Multiplicity bounds are not established for this (field, n) pair.

    Raised for odd n when the field has more than one ramified prime.
    """


class TieDetected(CovolumeError):
    """Two candidate fields attain the same minimal value in a search."""


class InternalDefect(CovolumeError):
    """A computed result broke an invariant: a bug, not a bad argument."""


def require_int(
    value: object, name: str, minimum: int, error: type[InvalidInput] = InvalidInput
) -> None:
    """Raise error unless value is an int (bool excluded) of at least minimum."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise error(f"{name} must be >= {minimum}, got {value}")
