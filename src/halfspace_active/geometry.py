"""Unit-vector geometry and the margin query rule.

The selective sampler asks for a label whenever some hypothesis within
chord distance ``r`` of the current center disagrees with the center on
the instance.  For ``r <= 1`` that reduces to a margin test
``|x̄·w| <= r*sqrt(1 - r^2/4)``; for ``r = 2`` every instance qualifies.
The equivalent arc condition ``|θ(w, x̄) - π/2| <= 2*arcsin(r/2)`` is kept
as an independent oracle, and ``dis_region_test`` gives the closed-form
disagreement-region membership used when the marginal is rotation
invariant.
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
    "dis_region_test",
    "dis_region_mask",
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
        if not np.all(np.isfinite(arr)):
            raise NormalizationError("unit vector has non-finite entries")
        norm = float(np.linalg.norm(arr))
        if abs(norm - 1.0) > _UNIT_TOL:
            raise NormalizationError(f"norm {norm!r} is not within {_UNIT_TOL} of 1")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "coords", arr)

    @property
    def dim(self) -> int:
        return self.coords.shape[0]

    def dot(self, other: "UnitVector | np.ndarray") -> float:
        return float(np.dot(self.coords, _vector_of(other)))

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.coords, dtype=dtype)


def _vector_of(v) -> np.ndarray:
    if isinstance(v, UnitVector):
        return v.coords
    return np.asarray(v, dtype=np.float64)


def _unit_coords(v, what: str = "vector") -> np.ndarray:
    """Coerce to unit-norm coordinates, normalizing plain arrays on the fly."""
    if isinstance(v, UnitVector):
        return v.coords
    arr = np.asarray(v, dtype=np.float64)
    norm = float(np.linalg.norm(arr))
    if not _SAFE_NORMS[0] <= norm <= _SAFE_NORMS[1]:
        # tiny, huge, zero or non-finite: rescale by the largest entry first
        scale = float(np.max(np.abs(arr), initial=0.0))
        if not math.isfinite(scale) or scale <= 0.0:
            raise NormalizationError(f"cannot normalize {what} with norm {norm!r}")
        arr = arr / scale
        norm = float(np.linalg.norm(arr))
    return arr / norm


def _unit_margins(X: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(X @ c) / ||x|| for each row x of X: c's margin on the row's direction.

    Rows whose norm is outside _SAFE_NORMS are rescaled by their largest
    entry first, as in _unit_coords; every other row keeps X @ c / norms
    bit for bit.  A zero or non-finite row raises NormalizationError.
    """
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
    sphere) and then halvings 1, 1/2, 1/4, ...; radii in (1, 2) are kept
    constructible but the query rule refuses them.
    """

    center: UnitVector
    radius: float

    def __post_init__(self):
        if not (0.0 < self.radius <= FULL_RADIUS):
            raise UnsupportedRadius(f"radius must lie in (0, 2], got {self.radius!r}")

    @property
    def dim(self) -> int:
        return self.center.dim


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
    return float(np.linalg.norm(ua - va))


def margin_threshold(radius: float) -> float:
    """The query-rule cutoff r*sqrt(1 - r^2/4) for radius in (0, 1]."""
    return radius * math.sqrt(1.0 - radius * radius / 4.0)


def _checked_radius(ball: HypothesisBall) -> float:
    r = ball.radius
    if r != FULL_RADIUS and r > 1.0:
        raise UnsupportedRadius(
            f"query rule is only defined for radius in (0, 1] or exactly 2, got {r!r}"
        )
    return r


def should_query(x, ball: HypothesisBall) -> bool:
    """True iff some hypothesis in the ball disagrees with the center on x.

    Margin form of the arc condition: radius 2 queries everything, else
    |x̄·w| <= r*sqrt(1 - r^2/4) (ties query; the rule is inclusive).
    """
    r = _checked_radius(ball)
    xbar = _unit_coords(x, "instance")
    _check_same_dim(xbar, ball.center.coords)
    if r == FULL_RADIUS:
        return True
    return abs(float(np.dot(xbar, ball.center.coords))) <= margin_threshold(r)


def query_mask(X: np.ndarray, ball: HypothesisBall) -> np.ndarray:
    """Vectorized should_query over the rows of X (shape (n, d))."""
    r = _checked_radius(ball)
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != ball.dim:
        raise DimensionMismatch(f"expected shape (n, {ball.dim}), got {X.shape}")
    if r == FULL_RADIUS:
        return np.ones(X.shape[0], dtype=bool)
    return np.abs(_unit_margins(X, ball.center.coords)) <= margin_threshold(r)


def disagreement_exists_oracle(x, ball: HypothesisBall) -> bool:
    """Arc form of the query rule, kept independent of should_query.

    The ball of chord radius r is the arc of half-angle 2*arcsin(r/2)
    around the center, so disagreement on x is possible exactly when
    θ(w, x̄) falls within that half-angle of π/2.
    """
    r = _checked_radius(ball)
    xbar = _unit_coords(x, "instance")
    _check_same_dim(xbar, ball.center.coords)
    if r == FULL_RADIUS:
        return True
    theta = angle(ball.center, xbar)
    return abs(theta - math.pi / 2.0) <= 2.0 * math.asin(r / 2.0)


def _dis_half_angle(r: float) -> float:
    if not (0.0 < r <= 1.0):
        raise ValueError(f"disagreement-region radius must lie in (0, 1], got {r!r}")
    return min(math.pi * r, math.pi / 2.0)


def dis_region_test(x, w, r: float) -> bool:
    """Membership of x in DIS(B(w, r)) under a rotation-invariant marginal.

    B(w, r) collects hypotheses whose disagreement probability with w is
    at most r; rotation invariance turns that pseudo-metric into angle/π,
    giving the closed form |θ(w, x̄) - π/2| <= min(π r, π/2).  Every
    built-in marginal is rotation invariant.
    """
    half = _dis_half_angle(r)
    theta = angle(_unit_coords(w, "hypothesis"), _unit_coords(x, "instance"))
    return abs(theta - math.pi / 2.0) <= half


def dis_region_mask(X: np.ndarray, w, r: float) -> np.ndarray:
    """Vectorized dis_region_test over rows of X."""
    half = _dis_half_angle(r)
    wc = _unit_coords(w, "hypothesis")
    X = np.asarray(X, dtype=np.float64)
    cosines = np.clip(_unit_margins(X, wc), -1.0, 1.0)
    return np.abs(np.arccos(cosines) - math.pi / 2.0) <= half
