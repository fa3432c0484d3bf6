"""Exception types shared across the package."""


class ToricError(Exception):
    """Base class for all domain errors raised by this package."""


class ZeroVector(ToricError):
    """A nonzero vector was required."""


class EmptyInput(ToricError):
    """At least one generator is required."""


class NotStronglyConvex(ToricError):
    """The cone contains a line."""


class NotInCone(ToricError):
    """The point lies outside the cone."""


class NotInteriorPoint(ToricError):
    """The point is not an interior lattice point of the cone."""


class NotFullDimensional(ToricError):
    """The cone does not span the ambient space."""


class NotQCartier(ToricError):
    """No linear functional matches the prescribed values on all rays."""


class CoefficientOutOfRange(ToricError):
    """Boundary coefficients must lie in [0, 1)."""


class DependentVectors(ToricError):
    """Linearly independent vectors were required."""


class SamplingExhausted(ToricError):
    """The random sampler ran out of retries."""


class BadParam(ToricError):
    """Family parameter outside the supported range."""


class ParseError(ToricError):
    """Malformed input document."""


class ValidationError(ToricError):
    """Structurally valid input that violates a domain invariant."""


class BoundBelowMinimum(ToricError, ValueError):
    """An enumeration bound excludes every interior lattice point."""


class InvalidWindow(ToricError, ValueError):
    """A window [low, high) must satisfy 0 < low <= high."""


class InternalError(ToricError):
    """An internal invariant failed; this indicates a bug, not bad input."""
