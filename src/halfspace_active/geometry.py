"""Unit-vector geometry and the margin query rule.

The selective sampler asks for a label whenever some hypothesis within
chord distance ``r`` of the current center disagrees with the center on
the instance.  For ``r <= 1`` that reduces to a margin test
``|x̄·w| <= r*sqrt(1 - r^2/4)``; for ``r = 2`` every instance qualifies.
The equivalent arc condition ``|θ(w, x̄) - π/2| <= 2*arcsin(r/2)`` is kept
as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NormalizationError, UnsupportedRadius

__all__ = [
    "UnitVector",
    "HypothesisBall",
    "normalize",
    "angle",
    "chord_length",
    "should_query",
    "query_mask",
    "disagreement_exists_oracle",
]

_UNIT_TOL = 1e-12
FULL_RADIUS = 2.0
# norms whose square is a normal float; outside this range ||v|| loses bits
_SAFE_NORMS = (math.sqrt(np.finfo(np.float64).tiny), math.sqrt(np.finfo(np.float64).max))


@dataclass(frozen=True)
class UnitVector:
    """A direction in R^d with unit Euclidean norm, d >= 2."""

    coords: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.coords, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError(f"expected a 1-D vector with d >= 2, got shape {arr.shape}")
        sq = float(arr.dot(arr))  # a finite square sum proves every entry finite
        if not math.isfinite(sq) and not np.all(np.isfinite(arr)):
            raise NormalizationError("unit vector has non-finite entries")
        norm = math.sqrt(sq)
        if abs(norm - 1.0) > _UNIT_TOL:
            raise NormalizationError(f"norm {norm!r} is not within {_UNIT_TOL} of 1")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "coords", arr)

    @property
    def dim(self) -> int:
        return self.coords.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.coords, dtype=dtype)


def _norm(v: np.ndarray) -> float:
    """||v|| of a 1-D array as sqrt(v.dot(v)): np.linalg.norm's bits without its overhead."""
    return math.sqrt(float(v.dot(v)))


def _vector_of(v) -> np.ndarray:
    if isinstance(v, UnitVector):
        return v.coords
    return np.asarray(v, dtype=np.float64)


def _unit_coords(v, what: str = "vector") -> np.ndarray:
    """Coerce to unit-norm coordinates, normalizing plain arrays on the fly."""
    if isinstance(v, UnitVector):
        return v.coords
    arr = np.asarray(v, dtype=np.float64)
    with np.errstate(over="ignore"):  # an overflow to inf is rescaled below
        # the norm of all entries, as np.linalg.norm takes it for any shape;
        # UnitVector then refuses an input that is not 1-D
        norm = _norm(arr.ravel())
    if not _SAFE_NORMS[0] <= norm <= _SAFE_NORMS[1]:
        # tiny, huge, zero or non-finite: rescale by the largest entry first
        scale = float(np.max(np.abs(arr), initial=0.0))
        if not math.isfinite(scale) or scale <= 0.0:
            raise NormalizationError(f"cannot normalize {what} with norm {norm!r}")
        arr = arr / scale
        norm = _norm(arr.ravel())
    return arr / norm


def _unit_margins(X: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(X @ c) / ||x|| for each row x of X: c's margin on the row's direction.

    Rows whose norm is outside _SAFE_NORMS are rescaled by their largest
    entry first, as in _unit_coords; every other row keeps X @ c / norms
    bit for bit.  A zero or non-finite row raises NormalizationError.
    """
    with np.errstate(over="ignore"):  # overflowing rows are rescaled below
        norms = np.linalg.norm(X, axis=1)
        margins = X @ c
    lo, hi = _SAFE_NORMS
    if lo <= norms.min(initial=lo) and norms.max(initial=hi) <= hi:
        return margins / norms
    safe = (norms >= lo) & (norms <= hi)
    rows = X[~safe]
    scale = np.max(np.abs(rows), axis=1)
    if not np.all(np.isfinite(scale) & (scale > 0.0)):
        raise NormalizationError("instance batch contains a zero or non-finite row")
    rows = rows / scale[:, None]
    out = np.empty_like(margins)
    out[safe] = margins[safe] / norms[safe]
    out[~safe] = (rows @ c) / np.linalg.norm(rows, axis=1)
    return out


@dataclass(frozen=True)
class HypothesisBall:
    """Unit vectors within chord distance ``radius`` of ``center``.

    The epoch schedule only ever produces radius 2 (first epoch, whole
    sphere) and then halvings 1, 1/2, 1/4, ...; radii in (1, 2) have no
    closed-form query rule and are refused.
    """

    center: UnitVector
    radius: float

    def __post_init__(self):
        if not (0.0 < self.radius <= 1.0 or self.radius == FULL_RADIUS):
            raise UnsupportedRadius(
                f"radius must lie in (0, 1] or be exactly 2, got {self.radius!r}"
            )

    @property
    def dim(self) -> int:
        return self.center.dim

    @property
    def half_angle(self) -> float:
        """Angle from the center to the ball's edge, 2*arcsin(r/2); π at r = 2."""
        if self.radius == FULL_RADIUS:
            return math.pi
        return 2.0 * math.asin(self.radius / 2.0)

    @property
    def band_probability(self) -> float:
        """Pr(query) for x̄ uniform on the sphere: I_{t²}(½, (d-1)/2), t = margin_threshold(r).

        The share of any rotation-invariant marginal that the query rule
        selects, since the rule reads only x̄.  The margin s = x̄·w has
        density ∝ (1-s²)^((d-3)/2), so this is (2/π)·asin(t) = (4/π)·asin(r/2)
        at d = 2 and t at d = 3; each step d -> d + 2 adds
        t·(1-t²)^((d-1)/2) / (((d-1)/2)·B(½, (d-1)/2)), the half-integer
        recurrence of the regularized incomplete beta function.
        """
        if self.radius == FULL_RADIUS:
            return 1.0
        t = margin_threshold(self.radius)
        if self.dim % 2 == 0:
            p, b, beta = 4.0 / math.pi * math.asin(self.radius / 2.0), 0.5, math.pi
        else:
            p, b, beta = t, 1.0, 2.0
        while 2.0 * b + 1.0 < self.dim:  # p is the value at d = 2b + 1
            p += t * (1.0 - t * t) ** b / (b * beta)
            beta *= b / (b + 0.5)
            b += 1.0
        return min(p, 1.0)


def normalize(v) -> UnitVector:
    """Return v / ||v|| as a UnitVector; zero vectors raise NormalizationError."""
    return UnitVector(_unit_coords(v))


def _check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")


def angle(u, v) -> float:
    """Angle in [0, π] between two unit vectors.

    The inner product is clamped to [-1, 1] first; rounding can push it
    past 1 by ~1e-16, which would make arccos return NaN.
    """
    ua, va = _vector_of(u), _vector_of(v)
    _check_same_dim(ua, va)
    return math.acos(min(1.0, max(-1.0, float(np.dot(ua, va)))))


def chord_length(u, v) -> float:
    """Euclidean distance ||u - v||; equals 2*sin(angle(u, v)/2)."""
    ua, va = _vector_of(u), _vector_of(v)
    _check_same_dim(ua, va)
    return _norm(ua - va)


def margin_threshold(radius: float) -> float:
    """The query-rule cutoff r*sqrt(1 - r^2/4) for radius in (0, 1]."""
    return radius * math.sqrt(1.0 - radius * radius / 4.0)


def should_query(x, ball: HypothesisBall) -> bool:
    """True iff some hypothesis in the ball disagrees with the center on x.

    Margin form of the arc condition: radius 2 queries everything, else
    |x̄·w| <= r*sqrt(1 - r^2/4) (ties query; the rule is inclusive).
    """
    xbar = _unit_coords(x, "instance")
    _check_same_dim(xbar, ball.center.coords)
    if ball.radius == FULL_RADIUS:
        return True
    return abs(float(np.dot(xbar, ball.center.coords))) <= margin_threshold(ball.radius)


def query_mask(X: np.ndarray, ball: HypothesisBall) -> np.ndarray:
    """Vectorized should_query over the rows of X (shape (n, d))."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != ball.dim:
        raise DimensionMismatch(f"expected shape (n, {ball.dim}), got {X.shape}")
    if ball.radius == FULL_RADIUS:
        return np.ones(X.shape[0], dtype=bool)
    return np.abs(_unit_margins(X, ball.center.coords)) <= margin_threshold(ball.radius)


def disagreement_exists_oracle(x, ball: HypothesisBall) -> bool:
    """Arc form of the query rule, kept independent of should_query.

    The ball of chord radius r is the arc of half-angle 2*arcsin(r/2)
    around the center, so disagreement on x is possible exactly when
    θ(w, x̄) falls within that half-angle of π/2.
    """
    xbar = _unit_coords(x, "instance")
    _check_same_dim(xbar, ball.center.coords)
    if ball.radius == FULL_RADIUS:
        return True
    theta = angle(ball.center, xbar)
    return abs(theta - math.pi / 2.0) <= ball.half_angle
