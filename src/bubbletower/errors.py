"""Exception hierarchy shared across the package."""


class BubbleTowerError(Exception):
    """Base class for all package errors."""


class ParameterError(BubbleTowerError, ValueError):
    """An argument violates a documented precondition."""


class DomainError(BubbleTowerError, ValueError):
    """A point lies outside (or on the boundary of) the domain."""


class AccuracyError(BubbleTowerError, RuntimeError):
    """A quadrature failed to reach its target tolerance.

    Carries the achieved error estimate in ``estimate``.
    """

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


class ResolutionError(BubbleTowerError, ValueError):
    """A grid is too coarse to resolve the requested scales."""


class SolverError(BubbleTowerError, RuntimeError):
    """A nonlinear solve diverged.  ``trace`` holds per-iteration data."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace or []


class SolvabilityError(BubbleTowerError, RuntimeError):
    """No sign change was found in the scanned bracket."""


class StructureError(BubbleTowerError, RuntimeError):
    """A solution does not have the expected qualitative structure."""


class ConfigError(BubbleTowerError, ValueError):
    """Malformed configuration input (unknown key, bad syntax)."""


class ValidationError(BubbleTowerError, ValueError):
    """Configuration violates an invariant (e.g. dimension below 3)."""
