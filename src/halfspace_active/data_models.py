"""Synthetic joint distributions with tunable noise, plus their estimators.

A model is a rotation-invariant marginal (uniform sphere, standard
Gaussian, uniform ball) paired with a conditional Pr(Y=1|x): a logistic
or affine function of w*·x, or the powered-margin family

    η(x) = 1/2 (1 + sgn(m) · min(1, |m|/τ₀)^{κ-1}),   m = w̄*·x̄,

whose low-noise exponent is κ by construction (κ = 1 gives hard labels).
Risks and disagreement probabilities come either from Monte Carlo or,
in two dimensions, from an exact quadrature oracle over the circle that
the Monte Carlo paths are validated against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AssumptionIIViolation, UnsupportedMarginal
from .geometry import UnitVector, _unit_margins, _vector_of, angle, dis_region_mask, normalize
from .streams import substream

__all__ = [
    "DataModel",
    "LabeledExample",
    "RiskEstimate",
    "TsybakovFit",
    "DisagreementCoefficient",
    "sample_unlabeled",
    "eta",
    "eta_batch",
    "label_oracle",
    "label_batch",
    "bayes_tau",
    "exact_binary_risk",
    "exact_surrogate_risk",
    "exact_excess_binary_risk",
    "estimate_binary_risk",
    "disagreement_probability",
    "verify_tsybakov_exponent",
    "estimate_disagreement_coefficient",
    "stack_examples",
]

MARGINALS = ("uniform-sphere", "gaussian", "uniform-ball")
CONDITIONALS = ("logistic", "affine", "powered-margin")

# (loss name, conditional) pairs whose surrogate-risk minimizer is linear.
SUPPORTED_PAIRINGS = {
    ("exponential", "logistic"),
    ("truncated-quadratic", "affine"),
}

_MC_CHUNK = 1 << 18
_SIMPSON_PANELS = 100_000


@dataclass(frozen=True)
class LabeledExample:
    x: np.ndarray
    y: int

    def __post_init__(self):
        arr = np.asarray(self.x, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("instance has non-finite entries")
        if self.y not in (-1, 1):
            raise ValueError(f"label must be -1 or +1, got {self.y!r}")
        object.__setattr__(self, "x", arr)


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

    ``scale`` is the logistic steepness and ``kappa``/``tau0`` parameterize
    the powered-margin conditional.
    """

    dimension: int
    marginal: str
    conditional: str
    w_star: np.ndarray = field(repr=False)
    seed: int = 0
    scale: float = 1.0
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
        if np.linalg.norm(w) <= 0:
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
            # eta = w*.x + 1/2 must stay in [0, 1] on the support
            if self.marginal == "gaussian":
                raise ValueError("affine conditional needs bounded support, not gaussian")
            if self.R > 0.5:
                raise ValueError("affine conditional requires ||w_star|| <= 1/2 so eta stays in [0, 1]")
        if self.conditional == "logistic" and self.scale <= 0:
            raise ValueError("logistic scale must be positive")

    @property
    def R(self) -> float:
        return float(np.linalg.norm(self.w_star))

    @property
    def w_bar(self) -> UnitVector:
        return normalize(self.w_star)

    def stream(self, *labels) -> np.random.Generator:
        """Named substream anchored at the model's own seed."""
        return substream(self.seed, "model", *labels)


def stack_examples(data) -> tuple[np.ndarray, np.ndarray]:
    """Coerce a list of LabeledExample or an (X, y) pair into arrays."""
    if isinstance(data, tuple) and len(data) == 2:
        X = np.asarray(data[0], dtype=np.float64)
        y = np.asarray(data[1], dtype=np.float64)
    else:
        X = np.asarray([ex.x for ex in data], dtype=np.float64)
        y = np.asarray([ex.y for ex in data], dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError(f"inconsistent dataset shapes {X.shape} / {y.shape}")
    if not np.all(np.abs(y) == 1.0):
        raise ValueError("labels must be -1 or +1")
    return X, y


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


def eta_batch(model: DataModel, X: np.ndarray) -> np.ndarray:
    """Pr(Y=1 | x) for each row of X."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if model.conditional == "logistic":
        margins = X @ model.w_star
        return 1.0 / (1.0 + np.exp(-model.scale * margins))
    if model.conditional == "affine":
        margins = X @ model.w_star
        if np.any(np.abs(margins) > 0.5 + 1e-12):
            raise ValueError("affine conditional saw w_star·x outside [-1/2, 1/2]")
        return np.clip(margins + 0.5, 0.0, 1.0)
    # powered-margin: depends only on the normalized margin
    m = _unit_margins(X, model.w_bar.coords)
    scaled = np.minimum(1.0, np.abs(m) / model.tau0)
    return 0.5 * (1.0 + np.sign(m) * scaled ** (model.kappa - 1.0))


def eta(model: DataModel, x) -> float:
    return float(eta_batch(model, np.asarray(x, dtype=np.float64))[0])


def label_batch(model: DataModel, X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Labels in {-1, +1} drawn from the conditional at each row."""
    probs = eta_batch(model, X)
    return np.where(rng.random(probs.shape) < probs, 1.0, -1.0)


def label_oracle(model: DataModel, x, rng: np.random.Generator) -> LabeledExample:
    x = np.asarray(x, dtype=np.float64)
    y = label_batch(model, x[None, :], rng)[0]
    return LabeledExample(x=x, y=int(y))


def bayes_tau(model: DataModel, loss_name: str, x) -> float:
    """Pointwise surrogate-risk minimizer, for the pairings where it is linear.

    Exponential + logistic gives (s/2)·w*·x; truncated quadratic + affine
    gives 2η(x) - 1 = w*·x.  Any other pairing has no linear minimizer and
    raises AssumptionIIViolation.
    """
    pairing = (loss_name, model.conditional)
    if pairing not in SUPPORTED_PAIRINGS:
        raise AssumptionIIViolation(
            f"no linear surrogate-risk minimizer for loss {loss_name!r} "
            f"with conditional {model.conditional!r}"
        )
    margin = float(np.dot(np.asarray(x, dtype=np.float64), model.w_star))
    if loss_name == "exponential":
        return 0.5 * model.scale * margin
    return margin


# ---------------------------------------------------------------------------
# Exact risk oracle on the circle
# ---------------------------------------------------------------------------


def _exact_supported(model: DataModel) -> bool:
    if model.dimension != 2:
        return False
    # powered-margin uses x̄ only, so any rotation-invariant marginal reduces
    # to the circle; the other conditionals need ||x|| = 1 itself.
    return model.conditional == "powered-margin" or model.marginal == "uniform-sphere"


def _require_exact(model: DataModel) -> None:
    if not _exact_supported(model):
        raise UnsupportedMarginal(
            "exact risk quadrature needs d = 2 and a marginal on which the "
            "conditional depends only through the direction of x"
        )


def _eta_of_angle(model: DataModel, t: np.ndarray) -> np.ndarray:
    X = np.stack([np.cos(t), np.sin(t)], axis=-1)
    return eta_batch(model, X)


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


def _simpson_arcs(f, breaks: list[float], total_panels: int) -> float:
    """Integral of f over the circle, split at ``breaks``, Simpson per arc.

    ``f(t, mid)`` receives the whole sample array plus the arc midpoint so
    indicator branches can be decided once per arc; the breakpoints must
    isolate every indicator flip, otherwise endpoint values are ambiguous.
    """
    two_pi = 2.0 * math.pi
    bs = sorted({b % two_pi for b in breaks})
    if not bs:
        bs = [0.0]
    arcs = []
    for i, lo in enumerate(bs):
        hi = bs[(i + 1) % len(bs)]
        if i == len(bs) - 1:
            hi += two_pi
        if hi - lo > 1e-15:
            arcs.append((lo, hi))
    total = 0.0
    for lo, hi in arcs:
        n = max(16, int(round(total_panels * (hi - lo) / two_pi)))
        n += n % 2
        t = np.linspace(lo, hi, n + 1)
        # endpoints sit exactly on discontinuities; sample a hair inside
        nudge = (hi - lo) * 1e-9
        t[0] += nudge
        t[-1] -= nudge
        vals = f(t, 0.5 * (lo + hi))
        h = (hi - lo) / n
        total += h / 3.0 * (vals[0] + vals[-1] + 4.0 * vals[1:-1:2].sum() + 2.0 * vals[2:-1:2].sum())
    return total


def exact_binary_risk(model: DataModel, w, panels: int = _SIMPSON_PANELS) -> float:
    """ℓ_b(w) = E[1(y·w·x <= 0)] by piecewise Simpson quadrature on the circle."""
    _require_exact(model)
    wc = _vector_of(w)
    psi_w = math.atan2(wc[1], wc[0])
    breaks = [psi_w + math.pi / 2.0, psi_w - math.pi / 2.0] + _eta_breakpoints(model)

    def integrand(t: np.ndarray, mid: float) -> np.ndarray:
        e = _eta_of_angle(model, t)
        return 1.0 - e if math.cos(mid - psi_w) > 0.0 else e

    return _simpson_arcs(integrand, breaks, panels) / (2.0 * math.pi)


def exact_surrogate_risk(model: DataModel, loss, w, panels: int = 8192) -> float:
    """ℓ_φ(w) = E[φ(y w·x)] by quadrature on the circle.

    Splits at the loss's margin kinks (|w·x| = 1 for the truncated
    quadratic) as well as the conditional's own breakpoints, so Simpson
    sees smooth pieces only.
    """
    _require_exact(model)
    wc = _vector_of(w)
    norm = float(np.linalg.norm(wc))
    psi_w = math.atan2(wc[1], wc[0])
    breaks = list(_eta_breakpoints(model))
    # truncated-quadratic curvature jumps where the margin crosses +-1
    if loss.name == "truncated-quadratic" and norm > 1.0:
        a = math.acos(1.0 / norm)
        breaks += [psi_w + a, psi_w - a, psi_w + math.pi - a, psi_w - math.pi + a]

    def integrand(t: np.ndarray, mid: float) -> np.ndarray:
        e = _eta_of_angle(model, t)
        margins = norm * np.cos(t - psi_w)
        return e * loss.phi(margins) + (1.0 - e) * loss.phi(-margins)

    return _simpson_arcs(integrand, breaks, panels) / (2.0 * math.pi)


def exact_excess_binary_risk(model: DataModel, w, panels: int = _SIMPSON_PANELS) -> float:
    """ℓ_b(w) - ℓ_b(w*), integrating |2η - 1| over the disagreement wedge only.

    Valid because sgn(w*·x) is the Bayes sign for every built-in
    conditional, so the two risks differ exactly on the wedge where the
    signs of w·x and w*·x disagree.
    """
    _require_exact(model)
    wc = _vector_of(w)
    psi_w = math.atan2(wc[1], wc[0])
    psi_s = math.atan2(model.w_star[1], model.w_star[0])
    breaks = [psi_w + math.pi / 2.0, psi_w - math.pi / 2.0,
              psi_s + math.pi / 2.0, psi_s - math.pi / 2.0] + _eta_breakpoints(model)

    def integrand(t: np.ndarray, mid: float) -> np.ndarray:
        if math.cos(mid - psi_w) * math.cos(mid - psi_s) < 0.0:
            return np.abs(2.0 * _eta_of_angle(model, t) - 1.0)
        return np.zeros_like(t)

    return _simpson_arcs(integrand, breaks, panels) / (2.0 * math.pi)


# ---------------------------------------------------------------------------
# Monte Carlo estimators
# ---------------------------------------------------------------------------


def _binomial_estimate(hits: int, n: int) -> RiskEstimate:
    p = hits / n
    return RiskEstimate(mean=p, std_error=math.sqrt(max(p * (1.0 - p), 0.0) / n), n_mc=n)


def estimate_binary_risk(
    model: DataModel,
    w,
    n_mc: int,
    rng: np.random.Generator | None = None,
    exact: bool = False,
) -> RiskEstimate:
    """Binary risk of w, by Monte Carlo or (exact flag, d = 2) quadrature."""
    wc = _vector_of(w)
    if exact:
        return RiskEstimate(mean=exact_binary_risk(model, wc), std_error=0.0, n_mc=1)
    if n_mc < 100:
        raise ValueError("n_mc must be at least 100")
    if rng is None:
        rng = model.stream("binary-risk")
    hits = 0
    remaining = n_mc
    while remaining > 0:
        chunk = min(remaining, _MC_CHUNK)
        X = sample_unlabeled(model, chunk, rng)
        y = label_batch(model, X, rng)
        hits += int(np.count_nonzero(y * (X @ wc) <= 0.0))
        remaining -= chunk
    return _binomial_estimate(hits, n_mc)


def disagreement_probability(
    model: DataModel,
    u,
    v,
    n_mc: int | None = None,
    rng: np.random.Generator | None = None,
    exact: bool = False,
) -> RiskEstimate:
    """Pr{sgn(u·X) != sgn(v·X)}; exactly θ(u, v)/π under rotation invariance."""
    uc = normalize(u).coords
    vc = normalize(v).coords
    if exact:
        return RiskEstimate(mean=angle(uc, vc) / math.pi, std_error=0.0, n_mc=1)
    if n_mc is None or n_mc < 100:
        raise ValueError("Monte Carlo mode needs n_mc >= 100")
    if rng is None:
        rng = model.stream("disagreement")
    hits = 0
    remaining = n_mc
    while remaining > 0:
        chunk = min(remaining, _MC_CHUNK)
        X = sample_unlabeled(model, chunk, rng)
        hits += int(np.count_nonzero((X @ uc) * (X @ vc) < 0.0))
        remaining -= chunk
    return _binomial_estimate(hits, n_mc)


# ---------------------------------------------------------------------------
# Noise-exponent and disagreement-coefficient fits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TsybakovFit:
    """Least-squares fit of log Pr(disagree) = log μ + (1/κ) log excess."""

    kappa_hat: float
    mu_hat: float
    r_squared: float
    angles: tuple[float, ...]
    dropped: tuple[float, ...]


def _rotated_from_w_star(model: DataModel, theta: float) -> np.ndarray:
    """Unit vector at angle theta from w̄*, in a fixed deterministic plane."""
    wb = model.w_bar.coords
    j = int(np.argmin(np.abs(wb)))
    axis = np.zeros(model.dimension)
    axis[j] = 1.0
    perp = axis - np.dot(axis, wb) * wb
    perp /= np.linalg.norm(perp)
    return math.cos(theta) * wb + math.sin(theta) * perp


def verify_tsybakov_exponent(
    model: DataModel,
    theta_grid,
    n_mc: int = 200_000,
    rng: np.random.Generator | None = None,
    exact: bool = False,
) -> TsybakovFit:
    """Measure the noise exponent by regressing log-disagreement on log-excess.

    Each angle θ pairs w̄* with a hypothesis rotated by θ; grid points
    whose excess-risk estimate is non-positive are dropped (estimator
    noise) and reported in the fit.
    """
    thetas = [float(t) for t in theta_grid]
    if any(t <= 0 or t > math.pi / 4 for t in thetas):
        raise ValueError("theta grid must lie in (0, pi/4]")
    if rng is None:
        rng = model.stream("tsybakov")
    log_pr, log_ex, kept, dropped = [], [], [], []
    for theta in thetas:
        w = _rotated_from_w_star(model, theta)
        pr = disagreement_probability(model, w, model.w_bar, n_mc=n_mc, rng=rng, exact=exact).mean
        if exact:
            excess = exact_excess_binary_risk(model, w)
        else:
            r_w = estimate_binary_risk(model, w, n_mc, rng=rng)
            r_s = estimate_binary_risk(model, model.w_bar, n_mc, rng=rng)
            excess = r_w.mean - r_s.mean
        if excess <= 0.0 or pr <= 0.0:
            dropped.append(theta)
            continue
        kept.append(theta)
        log_pr.append(math.log(pr))
        log_ex.append(math.log(excess))
    if len(kept) < 2:
        raise ValueError("fewer than two usable grid points; enlarge n_mc or the grid")
    x = np.asarray(log_ex)
    y = np.asarray(log_pr)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    if slope <= 0:
        raise ValueError(f"non-positive fitted slope {slope!r}; data violates the noise model")
    return TsybakovFit(
        kappa_hat=1.0 / float(slope),
        mu_hat=math.exp(float(intercept)),
        r_squared=r2,
        angles=tuple(kept),
        dropped=tuple(dropped),
    )


@dataclass(frozen=True)
class DisagreementCoefficient:
    theta_hat: float
    epsilon: float
    table: tuple[tuple[float, float, float], ...]  # (r, Pr(DIS), Pr/r)


def estimate_disagreement_coefficient(
    model: DataModel,
    epsilon: float,
    r_grid,
    n_mc: int = 100_000,
    rng: np.random.Generator | None = None,
    w_star=None,
) -> DisagreementCoefficient:
    """sup over the grid of Pr(DIS(B(w*, r)))/r, restricted to r >= epsilon."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    center = normalize(model.w_star if w_star is None else w_star)
    radii = sorted({float(r) for r in r_grid if float(r) >= epsilon})
    if not radii:
        raise ValueError("r_grid has no points with r >= epsilon")
    if any(r > 1.0 for r in radii):
        raise ValueError("disagreement-region radii must lie in (0, 1]")
    if rng is None:
        rng = model.stream("dis-coefficient")
    X = sample_unlabeled(model, n_mc, rng)
    rows = []
    for r in radii:
        prob = float(np.count_nonzero(dis_region_mask(X, center, r))) / n_mc
        rows.append((r, prob, prob / r))
    theta_hat = max(row[2] for row in rows)
    return DisagreementCoefficient(theta_hat=theta_hat, epsilon=epsilon, table=tuple(rows))
