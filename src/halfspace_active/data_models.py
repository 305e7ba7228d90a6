"""Synthetic joint distributions with tunable noise, plus their estimators.

A model is a rotation-invariant marginal (uniform sphere, standard
Gaussian, uniform ball) paired with a conditional Pr(Y=1|x): the logistic
σ(2w*·x) or the affine (1 + w*·x)/2, under which w* itself minimizes the
exponential or the truncated-quadratic risk, or the powered-margin family

    η(x) = 1/2 (1 + sgn(m) · min(1, |m|/τ₀)^{κ-1}),   m = w̄*·x̄,

whose low-noise exponent is κ by construction (κ = 1 gives hard labels).
Disagreement probabilities come from Monte Carlo or from their closed
form θ/π.  In two dimensions, surrogate and excess binary risks come from
a quadrature oracle over the circle: Gauss–Legendre on every arc between
kinks, after a map that flattens the arc ends, for many hypotheses at once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import UnsupportedMarginal
from .geometry import (
    HypothesisBall,
    UnitVector,
    _norm,
    _unit_margins,
    _vector_of,
    angle,
    margin_threshold,
    normalize,
)
from .streams import substream

__all__ = [
    "DataModel",
    "RiskEstimate",
    "TsybakovFit",
    "sample_unlabeled",
    "sample_in_band",
    "eta_batch",
    "label_batch",
    "exact_surrogate_risk",
    "exact_excess_binary_risk",
    "disagreement_probability",
    "verify_tsybakov_exponent",
    "stack_examples",
]

MARGINALS = ("uniform-sphere", "gaussian", "uniform-ball")
CONDITIONALS = ("logistic", "affine", "powered-margin")

# (loss name, conditional) pairs whose surrogate-risk minimizer is w* itself:
# the pointwise minimizers, 2η - 1 for the truncated quadratic and
# ½·log(η/(1-η)) for the exponential, both equal w*·x under these laws.
SUPPORTED_PAIRINGS = {
    ("exponential", "logistic"),
    ("truncated-quadratic", "affine"),
}

_MC_CHUNK = 1 << 14  # Monte Carlo rows per chunk; its buffers stay in cache
_QUAD_CHUNK = 1 << 13  # quadrature nodes per block of hypotheses; blocks stay in cache


@dataclass(frozen=True)
class RiskEstimate:
    mean: float
    std_error: float
    n_mc: int

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("std_error must be non-negative")
        if self.n_mc < 1:
            raise ValueError("n_mc must be at least 1")


@dataclass(frozen=True)
class DataModel:
    """Joint distribution 𝒫_XY with known optimum direction.

    ``kappa``/``tau0`` parameterize the powered-margin conditional.
    """

    dimension: int
    marginal: str
    conditional: str
    w_star: np.ndarray = field(repr=False)
    seed: int = 0
    kappa: float | None = None
    tau0: float = 1.0

    def __post_init__(self):
        if self.marginal not in MARGINALS:
            raise ValueError(f"unknown marginal {self.marginal!r}; expected one of {MARGINALS}")
        if self.conditional not in CONDITIONALS:
            raise ValueError(
                f"unknown conditional {self.conditional!r}; expected one of {CONDITIONALS}"
            )
        w = np.asarray(self.w_star, dtype=np.float64)
        if w.ndim != 1 or w.shape[0] != self.dimension:
            raise ValueError(f"w_star must have shape ({self.dimension},), got {w.shape}")
        if self.dimension < 2:
            raise ValueError("dimension must be at least 2")
        if _norm(w) <= 0:
            raise ValueError("w_star must be nonzero")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "w_star", w)
        if self.conditional == "powered-margin":
            if self.kappa is None or self.kappa < 1:
                raise ValueError("powered-margin requires kappa >= 1")
            if not 0.0 < self.tau0 <= 1.0:
                raise ValueError("powered-margin requires tau0 in (0, 1]")
        if self.conditional == "affine":
            # eta = (1 + w*.x)/2 must stay in [0, 1] on the support
            if self.marginal == "gaussian":
                raise ValueError("affine conditional needs bounded support, not gaussian")
            if self.R > 1.0:
                raise ValueError("affine conditional requires ||w_star|| <= 1 so eta stays in [0, 1]")

    @property
    def R(self) -> float:
        return _norm(self.w_star)

    @property
    def w_bar(self) -> UnitVector:
        return normalize(self.w_star)

    @property
    def noise_exponent(self) -> float:
        """Tsybakov exponent κ: powered-margin's own, else 2, since the logistic
        and affine η - 1/2 are linear in the margin near the boundary."""
        return self.kappa if self.conditional == "powered-margin" else 2.0

    def stream(self, *labels) -> np.random.Generator:
        """Named substream anchored at the model's own seed."""
        return substream(self.seed, "model", *labels)


class _Examples(tuple):
    """An (X, y) pair that stack_examples has already checked."""


def stack_examples(data) -> tuple[np.ndarray, np.ndarray]:
    """Coerce an (X, y) pair into float arrays, checking shapes and labels.

    The pair comes back marked as checked, and a marked pair is returned
    as it is, so a solver checks its data once, not on every evaluation.
    """
    if isinstance(data, _Examples):
        return data
    X = np.asarray(data[0], dtype=np.float64)
    y = np.asarray(data[1], dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError(f"inconsistent dataset shapes {X.shape} / {y.shape}")
    _check_labels(y)
    return _Examples((X, y))


def _check_labels(y: np.ndarray) -> None:
    """Raise ValueError unless every label is -1 or +1."""
    if not np.all(np.abs(y) == 1.0):
        raise ValueError("labels must be -1 or +1")


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def sample_unlabeled(model: DataModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. draws from the marginal, shape (n, d)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    d = model.dimension
    if n == 0:
        return np.empty((0, d))
    g = rng.standard_normal((n, d))
    if model.marginal == "gaussian":
        return g
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    # resample the (probability-zero) degenerate rows rather than divide by 0
    while np.any(norms == 0.0):
        bad = norms[:, 0] == 0.0
        g[bad] = rng.standard_normal((int(bad.sum()), d))
        norms = np.linalg.norm(g, axis=1, keepdims=True)
    sphere = g / norms
    if model.marginal == "uniform-sphere":
        return sphere
    radii = rng.random((n, 1)) ** (1.0 / d)
    return sphere * radii


def _band_margins(ball: HypothesisBall, n: int, rng: np.random.Generator) -> np.ndarray:
    """n draws of s = x̄·w for x̄ uniform on the sphere, conditioned on the band.

    s has density ∝ (1-s²)^((d-3)/2) on |s| <= t = margin_threshold(r).
    At d = 2, x̄ sits at an angle ±π/2 + φ from w with φ uniform on
    [-a, a], a = ball.half_angle, so s = ∓sin φ; at d = 3, s is uniform
    (Archimedes); above, uniform proposals are kept with probability
    (1-s²)^((d-3)/2) >= (1-t²)^((d-3)/2).
    """
    d = ball.dim
    if d == 2:
        return np.sin(ball.half_angle * (2.0 * rng.random(n) - 1.0))
    t = margin_threshold(ball.radius)
    kept, need = [np.empty(0)], n
    while need:
        s = t * (2.0 * rng.random(need) - 1.0)
        if d > 3:
            s = s[rng.random(need) < (1.0 - s * s) ** (0.5 * (d - 3))]
        kept.append(s)
        need -= s.size
    return np.concatenate(kept)


def sample_in_band(
    model: DataModel, ball: HypothesisBall, n: int, rng: np.random.Generator
) -> np.ndarray:
    """n i.i.d. draws from the marginal conditioned on the ball's query band.

    Every marginal is a uniform direction x̄ times an independent radius,
    and the band (ball.radius <= 1) constrains x̄ alone: x̄ = s·w +
    √(1-s²)·v with s from _band_margins and v uniform on the unit sphere
    orthogonal to the center w.  The radius is then drawn as the marginal
    draws it: 1, χ_d, or U^(1/d).  Rounding can put a row with |s| near t
    a last bit outside the band; callers filter by query_mask and redraw.
    """
    if ball.radius > 1.0:
        raise ValueError("sample_in_band needs a band: ball radius at most 1")
    w, d = ball.center.coords, ball.dim
    s = _band_margins(ball, n, rng)
    g = rng.standard_normal((n, d))
    g -= np.outer(g @ w, w)
    v = g / np.linalg.norm(g, axis=1, keepdims=True)
    X = s[:, None] * w + np.sqrt(1.0 - s * s)[:, None] * v
    if model.marginal == "gaussian":
        X *= np.sqrt(rng.chisquare(d, (n, 1)))
    elif model.marginal == "uniform-ball":
        X *= rng.random((n, 1)) ** (1.0 / d)
    return X


def eta_batch(model: DataModel, X: np.ndarray) -> np.ndarray:
    """Pr(Y=1 | x) for each row of X."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if model.conditional == "logistic":
        margins = X @ model.w_star
        return 1.0 / (1.0 + np.exp(-2.0 * margins))
    if model.conditional == "affine":
        margins = X @ model.w_star
        if np.any(np.abs(margins) > 1.0 + 1e-12):
            raise ValueError("affine conditional saw w_star·x outside [-1, 1]")
        return np.clip(0.5 * (1.0 + margins), 0.0, 1.0)
    # powered-margin: depends only on the normalized margin
    m = _unit_margins(X, model.w_bar.coords)
    scaled = np.minimum(1.0, np.abs(m) / model.tau0)
    return 0.5 * (1.0 + np.sign(m) * scaled ** (model.kappa - 1.0))


def label_batch(model: DataModel, X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Labels in {-1, +1} drawn from the conditional at each row."""
    probs = eta_batch(model, X)
    return np.where(rng.random(probs.shape) < probs, 1.0, -1.0)


# ---------------------------------------------------------------------------
# Exact risk oracle on the circle
# ---------------------------------------------------------------------------


def _stack_of(model: DataModel, w) -> tuple[np.ndarray, bool]:
    """One hypothesis or a (K, 2) stack as (K, 2), and whether it was one."""
    # powered-margin uses x̄ only, so any rotation-invariant marginal reduces
    # to the circle; the other conditionals need ||x|| = 1 itself.
    on_circle = model.conditional == "powered-margin" or model.marginal == "uniform-sphere"
    if model.dimension != 2 or not on_circle:
        raise UnsupportedMarginal(
            "exact risk quadrature needs d = 2 and a marginal on which the "
            "conditional depends only through the direction of x"
        )
    W = _vector_of(w)
    return np.atleast_2d(W), W.ndim == 1


def _eta_breakpoints(model: DataModel) -> list[float]:
    """Angles where η has a kink, so quadrature can split there."""
    psi_star = math.atan2(model.w_star[1], model.w_star[0])
    pts = []
    if model.conditional == "powered-margin":
        pts += [psi_star + math.pi / 2.0, psi_star - math.pi / 2.0]
        if model.tau0 < 1.0:
            a = math.acos(model.tau0)
            pts += [psi_star + a, psi_star - a, psi_star + math.pi - a, psi_star - math.pi + a]
    return pts


@functools.cache
def _graded_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes in (0, 1) and weights of 32-point Gauss–Legendre after u ↦ u²/(u²+(1-u)²).

    The map is flat at both ends, so an |m|^(κ-1) kink at an arc end becomes
    a smooth u^(2κ-1).  Built on first use, as numpy.polynomial is slow to import.
    """
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(32)
    u = 0.5 * (x + 1.0)
    d = u * u + (1.0 - u) ** 2
    nodes, weights = u * u / d, w * u * (1.0 - u) / (d * d)
    nodes.flags.writeable = weights.flags.writeable = False  # shared by every call
    return nodes, weights


def _circle_integrals(model: DataModel, f, W: np.ndarray, *extra) -> np.ndarray:
    """(1/2π)∮ f for each row w of W, split at all of that row's breakpoints.

    A row's breakpoints are η's kinks, ψ_w + kπ/2 (so no arc exceeds π/2)
    and its columns of the (K, ·) ``extra`` arrays; repeated ones give
    zero-length arcs.  ``f(eta, margins, mid, psi_w)`` gets η and w·x at the
    (k, B, n) nodes, the (k, B, 1) arc midpoints, which may decide an
    indicator for the whole arc, and the (k, 1, 1) angles of w, for at most
    ``_QUAD_CHUNK`` nodes a block.
    """
    u, weights = _graded_rule()
    psi_w = np.arctan2(W[:, 1], W[:, 0])
    eta_breaks = np.tile(_eta_breakpoints(model), (len(W), 1))
    breaks = np.hstack([psi_w[:, None] + 0.5 * math.pi * np.arange(4), eta_breaks, *extra])
    out = np.empty(len(W))
    step = max(1, _QUAD_CHUNK // (breaks.shape[1] * u.size))
    for i in range(0, len(W), step):
        rows = slice(i, i + step)
        lo = np.sort(np.mod(breaks[rows], 2.0 * math.pi), axis=1)[..., None]
        length = np.diff(lo, axis=1, append=lo[:, :1] + 2.0 * math.pi)
        t = lo + length * u
        c, s = np.cos(t), np.sin(t)
        eta = eta_batch(model, np.stack([c, s], axis=-1).reshape(-1, 2)).reshape(t.shape)
        margins = c * W[rows, 0, None, None] + s * W[rows, 1, None, None]
        vals = f(eta, margins, lo + 0.5 * length, psi_w[rows, None, None])
        out[rows] = (vals * (length * weights)).reshape(len(lo), -1).sum(axis=1)
    return out / (2.0 * math.pi)


def exact_surrogate_risk(model: DataModel, loss, w):
    """ℓ_φ(w) = E[φ(y w·x)] by graded Gauss–Legendre quadrature on the circle.

    ``w`` is one vector (gives a float) or a (K, 2) stack (gives K values).
    A kinked loss's curvature jumps where |w·x| = c = ``loss.kink``, at ψ_w ± a
    and ψ_w + π ± a with a = acos(min(1, c/‖w‖)); the arcs split there too.
    """
    W, single = _stack_of(model, w)
    extra = []
    if loss.kink is not None:
        psi = np.arctan2(W[:, 1], W[:, 0])
        a = np.arccos(loss.kink / np.maximum(np.hypot(W[:, 0], W[:, 1]), loss.kink))
        extra = [np.stack([psi + a, psi - a, psi + math.pi + a, psi + math.pi - a], 1)]

    def integrand(eta, margins, mid, psi_w):
        return eta * loss.phi(margins) + (1.0 - eta) * loss.phi(-margins)

    risk = _circle_integrals(model, integrand, W, *extra)
    return float(risk[0]) if single else risk


def exact_excess_binary_risk(model: DataModel, w):
    """ℓ_b(w) - ℓ_b(w*), integrating |2η - 1| over the disagreement wedge only.

    Valid because sgn(w*·x) is the Bayes sign for every built-in
    conditional, so the two risks differ exactly on the wedge where the
    signs of w·x and w*·x disagree; ψ_w ± π/2 and ψ* ± π/2 bound it.
    ``w`` is one vector or a (K, 2) stack, as for exact_surrogate_risk.
    """
    W, single = _stack_of(model, w)
    psi_s = math.atan2(model.w_star[1], model.w_star[0])
    star = np.tile([psi_s + math.pi / 2.0, psi_s - math.pi / 2.0], (len(W), 1))

    def integrand(eta, margins, mid, psi_w):
        wedge = np.cos(mid - psi_w) * np.cos(mid - psi_s) < 0.0
        return np.where(wedge, np.abs(2.0 * eta - 1.0), 0.0)

    risk = _circle_integrals(model, integrand, W, star)
    return float(risk[0]) if single else risk


# ---------------------------------------------------------------------------
# Monte Carlo estimators
# ---------------------------------------------------------------------------


def _binomial_estimate(hits: int, n: int) -> RiskEstimate:
    p = hits / n
    return RiskEstimate(mean=p, std_error=math.sqrt(max(p * (1.0 - p), 0.0) / n), n_mc=n)


def disagreement_probability(
    model: DataModel, u, v, n_mc: int, rng: np.random.Generator
) -> RiskEstimate:
    """Monte Carlo Pr{sgn(u·X) != sgn(v·X)}; exactly θ(u, v)/π under rotation invariance.

    Every marginal row is a standard-normal row g times a positive factor
    (1/‖g‖ on the sphere, 1 for the Gaussian, U^(1/d)/‖g‖ in the ball),
    which cannot flip a sign, so the signs are read off g itself; they
    could differ only when g·u or g·v is within rounding of 0, or when a
    ball's U is exactly 0, each about 1e-16 per row.  The ball's radii are
    still drawn and discarded, chunk by chunk as ``sample_unlabeled``
    draws them, so the generator ends where sampling the rows would leave
    it.  One difference has probability zero: ``sample_unlabeled``
    redraws an all-zero normal row, while here it counts as agreement.
    """
    UV = np.column_stack((normalize(u).coords, normalize(v).coords))
    if n_mc < 100:
        raise ValueError("Monte Carlo estimate needs n_mc >= 100")
    hits = 0
    remaining = n_mc
    # every chunk is drawn, projected and sign-tested in the same buffers: the
    # generator fills them with the values, and in the order, that fresh
    # arrays would get, and the products are those of fresh arrays
    rows = min(n_mc, _MC_CHUNK)
    G, projections = np.empty((rows, model.dimension)), np.empty((rows, 2))
    product, disagree = np.empty(rows), np.empty(rows, dtype=bool)
    radii = np.empty(rows) if model.marginal == "uniform-ball" else None
    while remaining > 0:
        chunk = min(remaining, _MC_CHUNK)
        p = np.matmul(rng.standard_normal(out=G[:chunk]), UV, out=projections[:chunk])
        if radii is not None:
            rng.random(out=radii[:chunk])
        np.multiply(p[:, 0], p[:, 1], out=product[:chunk])
        hits += int(np.count_nonzero(np.less(product[:chunk], 0.0, out=disagree[:chunk])))
        remaining -= chunk
    return _binomial_estimate(hits, n_mc)


# ---------------------------------------------------------------------------
# Noise-exponent fit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TsybakovFit:
    """Least-squares fit of log Pr(disagree) = log μ + (1/κ) log excess."""

    kappa_hat: float
    mu_hat: float
    r_squared: float
    angles: tuple[float, ...]
    dropped: tuple[float, ...]


def _linfit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line y ≈ slope·x + intercept: (slope, intercept, R²)."""
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum((y - pred) ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def _rotated_from_w_star(model: DataModel, theta: float) -> np.ndarray:
    """Unit vector at angle theta from w̄*, in a fixed deterministic plane."""
    wb = model.w_bar.coords
    j = int(np.argmin(np.abs(wb)))
    axis = np.zeros(model.dimension)
    axis[j] = 1.0
    perp = axis - np.dot(axis, wb) * wb
    perp /= _norm(perp)
    return math.cos(theta) * wb + math.sin(theta) * perp


def verify_tsybakov_exponent(model: DataModel, theta_grid) -> TsybakovFit:
    """Measure the noise exponent by regressing log-disagreement on log-excess.

    Each angle θ pairs w̄* with a hypothesis rotated by θ; the disagreement
    is θ/π and the excess risk comes from the exact circle quadrature
    (d = 2).  Grid points where either is non-positive are dropped and
    reported in the fit.
    """
    thetas = [float(t) for t in theta_grid]
    if any(t <= 0 or t > math.pi / 4 for t in thetas):
        raise ValueError("theta grid must lie in (0, pi/4]")
    log_pr, log_ex, kept, dropped = [], [], [], []
    for theta in thetas:
        w = _rotated_from_w_star(model, theta)
        pr = angle(normalize(w), model.w_bar) / math.pi
        excess = exact_excess_binary_risk(model, w)
        if excess <= 0.0 or pr <= 0.0:
            dropped.append(theta)
            continue
        kept.append(theta)
        log_pr.append(math.log(pr))
        log_ex.append(math.log(excess))
    if len(kept) < 2:
        raise ValueError("fewer than two usable grid points; enlarge the grid")
    slope, intercept, r2 = _linfit(np.asarray(log_ex), np.asarray(log_pr))
    if slope <= 0:
        raise ValueError(f"non-positive fitted slope {slope!r}; data violates the noise model")
    return TsybakovFit(
        kappa_hat=1.0 / slope,
        mu_hat=math.exp(intercept),
        r_squared=r2,
        angles=tuple(kept),
        dropped=tuple(dropped),
    )
