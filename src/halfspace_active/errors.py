"""Exception hierarchy shared by all modules."""

from __future__ import annotations


class HalfspaceActiveError(Exception):
    """Base class for every error raised by this package.

    ``partial`` holds the trace of the epochs a run finished before the
    error, when the error escaped a run mid-way.
    """

    partial = None


class NormalizationError(HalfspaceActiveError):
    """A vector with zero (or non-finite) norm cannot be normalized."""


class DimensionMismatch(HalfspaceActiveError):
    """Vectors from experiments with different dimensions were mixed."""


class UnsupportedRadius(HalfspaceActiveError):
    """Hypothesis-ball radius outside (0, 1] or 2; radii in (1, 2) have no closed-form query rule."""


class UnsupportedMarginal(HalfspaceActiveError):
    """Operation needs a rotation-invariant marginal and got something else."""


class LossSpecError(HalfspaceActiveError):
    """A surrogate loss specification violates its declared properties."""


class SolverDiverged(HalfspaceActiveError):
    """Solver iterate left the numerically trusted region (e.g. exp overflow)."""


class MaxItersExceeded(HalfspaceActiveError):
    """Convex solver hit its iteration cap before reaching tolerance.

    Carries the best feasible iterate seen and its stationarity residual.
    """

    def __init__(self, message: str, best_w=None, residual: float | None = None):
        super().__init__(message)
        self.best_w = best_w
        self.residual = residual


class ScheduleError(HalfspaceActiveError):
    """Label-budget formula received inconsistent parameters."""


class StreamExhausted(HalfspaceActiveError):
    """Finite instance pool ran dry mid-epoch."""


class DegenerateSolution(HalfspaceActiveError):
    """Convex update returned a near-zero vector that cannot be normalized."""


class ConfigError(HalfspaceActiveError):
    """Run configuration is malformed or references unknown keys."""
