"""Semantic exception hierarchy."""

from __future__ import annotations


class IvhfssError(ValueError):
    """Base class for all domain errors raised by this package."""


class OutOfRange(IvhfssError):
    """An interval endpoint lies outside [0, 1]."""


class Inverted(IvhfssError):
    """An interval was constructed with lower > upper."""


class EmptyElement(IvhfssError):
    """A hesitant element needs at least one interval."""


class UniverseMismatch(IvhfssError):
    """Two soft sets do not share the same universe of objects."""


class ParameterMismatch(IvhfssError):
    """An operation requires identical parameter sets."""


class EmptyParameterIntersection(IvhfssError):
    """Intersection-style operations need overlapping parameter sets."""


class EmptyUniverse(IvhfssError):
    """A soft set needs a nonempty universe."""


class EmptyFamily(IvhfssError):
    """Family operations need at least one member."""


class ParseError(IvhfssError):
    """Input text is not valid JSON."""


class SchemaError(IvhfssError):
    """JSON parsed but does not describe a well-formed soft set."""


class BudgetExceeded(IvhfssError):
    """A law's exhaustive enumeration is larger than the configured cap."""
