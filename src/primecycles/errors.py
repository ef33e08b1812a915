"""Exception types shared across the package, and the one check of an
integer argument."""

import operator


class PrimecyclesError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(PrimecyclesError, ValueError):
    """An argument is outside the documented domain of an operation."""


class OutOfRangeError(PrimecyclesError, ValueError):
    """A query exceeds the range a table or spec was built to cover."""


class OutOfDomainError(PrimecyclesError, ValueError):
    """A real argument lies outside the domain of an analytic evaluator."""


class ResourceLimitError(PrimecyclesError, RuntimeError):
    """A request exceeds a configured memory or size cap."""


class UnsupportedSpecError(PrimecyclesError, ValueError):
    """The cycle-length spec lacks a property the operation requires."""


class EmptySupportError(PrimecyclesError, ValueError):
    """A distribution has no support (no valid permutation exists)."""


class InternalConsistencyError(PrimecyclesError, RuntimeError):
    """Two internal computations of the same quantity disagree beyond budget."""


def _integer(x, what: str, minimum=None, maximum=None,
             above=OutOfRangeError) -> int:
    """x as an int by operator.index, so numpy integers and bools pass and
    a float is refused rather than truncated; so is a value below minimum.
    A value past maximum raises above: OutOfRangeError past a table's
    range, ResourceLimitError past a size cap."""
    try:
        value = operator.index(x)
    except TypeError:
        raise InvalidArgumentError(f"{what} must be an integer, got {x!r}") from None
    if minimum is not None and value < minimum:
        raise InvalidArgumentError(f"{what} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise above(f"{what} must be <= {maximum}, got {value}")
    return value
