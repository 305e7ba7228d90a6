"""Convex surrogate losses and their binary-risk conversion calculus.

A loss specification bundles φ, φ', φ'', a Lipschitz constant valid on the
margin range the algorithm can actually reach, a curvature bound, and
the ψ-transform

    ψ(z) = inf_{αz <= 0} C_z(α) - inf_α C_z(α),
    C_z(α) = (1+z)/2 φ(α) + (1-z)/2 φ(-α),

which converts convex excess risk into a bound on binary excess risk.
Two losses ship with closed-form transforms (exponential, truncated
quadratic); the logistic loss is numeric-only.  The module also computes
the power-law constants sandwiching binary excess risk between powers of
the chord distance to the optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import LossSpecError
from .geometry import FULL_RADIUS

__all__ = [
    "SurrogateLoss",
    "exponential_loss",
    "truncated_quadratic_loss",
    "logistic_loss",
    "get_loss",
    "BUILTIN_LOSSES",
    "psi",
    "psi_numeric",
    "upper_bound_constants",
    "lower_bound_constants",
    "working_margin_bound",
]

# Exponential-loss arguments are never evaluated below this; iterates live in
# bounded balls, so anything smaller means the solver left the trusted region.
EXP_CLAMP = -50.0

# Half-width of the golden-section bracket for the numeric ψ infima.
PSI_SEARCH_HALF_WIDTH = 50.0


def working_margin_bound(R: float) -> float:
    """Largest |y w·x| reachable with ||x|| <= 1 and w in the epoch-1 ball, plus slack."""
    return R * (1.0 + FULL_RADIUS) + 1.0


@dataclass(frozen=True)
class SurrogateLoss:
    """A convex loss φ with the constants the analysis needs.

    ``lipschitz`` is valid on |z| <= margin_bound only (the exponential
    loss has no global constant).  ``smoothness`` bounds φ'' on that
    interval and doubles as the strong-smoothness constant of the risk
    when instances satisfy ||x|| <= 1.
    ``psi_lower_a``/``psi_lower_gamma`` give the polynomial minorant
    ψ(z) >= a z^γ on (0, 1].  ``kink`` is |z| at φ's one kink, or None
    for a smooth loss.  ``phi_second`` is φ'' (one-sided at a kink), which
    the convex solver's Newton step needs; None for a loss without one.
    """

    name: str
    phi: Callable[[np.ndarray], np.ndarray]
    phi_prime: Callable[[np.ndarray], np.ndarray]
    lipschitz: float
    margin_bound: float
    psi_lower_a: float
    psi_lower_gamma: float
    smoothness: float
    psi_closed: Callable[[float], float] | None = None
    kink: float | None = None
    phi_second: Callable[[np.ndarray], np.ndarray] | None = None


# ---------------------------------------------------------------------------
# ψ-transform
# ---------------------------------------------------------------------------

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_min(f, lo: float, hi: float) -> float:
    """Minimum value of a convex f on [lo, hi] by golden-section search to width 1e-9."""
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-9:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return min(f(0.5 * (a + b)), f(lo), f(hi))


def _conditional_risk_min(loss: SurrogateLoss, eta: float, lo: float, hi: float) -> float:
    def risk(alpha: float) -> float:
        return eta * float(loss.phi(alpha)) + (1.0 - eta) * float(loss.phi(-alpha))

    return _golden_min(risk, lo, hi)


def psi_numeric(loss: SurrogateLoss, z: float) -> float:
    """ψ(z) from the two infima directly, independent of any closed form.

    Both one-dimensional infima are solved by golden-section search on
    [-A, A] with A = 50; the sign-constrained one is restricted to
    α z <= 0.  The difference is floored at zero.
    """
    if not 0.0 <= z <= 1.0:
        raise ValueError(f"psi is defined on [0, 1], got {z!r}")
    A = PSI_SEARCH_HALF_WIDTH
    eta = (1.0 + z) / 2.0
    unconstrained = _conditional_risk_min(loss, eta, -A, A)
    if z == 0.0:
        constrained = unconstrained
    else:
        constrained = _conditional_risk_min(loss, eta, -A, 0.0)
    return max(0.0, constrained - unconstrained)


def psi(loss: SurrogateLoss, z: float) -> float:
    """ψ(z) via the closed form when the loss has one, else numerically."""
    if not 0.0 <= z <= 1.0:
        raise ValueError(f"psi is defined on [0, 1], got {z!r}")
    if loss.psi_closed is not None:
        return float(loss.psi_closed(z))
    return psi_numeric(loss, z)


# ---------------------------------------------------------------------------
# Power-law constants for the excess-risk sandwich
# ---------------------------------------------------------------------------


def upper_bound_constants(loss: SurrogateLoss, R: float) -> tuple[float, float]:
    """(ell_plus, gamma_plus) from risk smoothness and the ψ minorant.

    A curvature bound L_phi with ||x|| <= 1 makes the convex excess risk
    at R*w̄ at most (L_phi R²/2)·chord², and ψ(z) >= a z^γ inverts that
    into excess <= (L_phi R²/(2a))^{1/γ} · chord^{2/γ}.
    """
    if R <= 0:
        raise ValueError(f"R must be positive, got {R!r}")
    a, gamma = loss.psi_lower_a, loss.psi_lower_gamma
    ell_plus = (loss.smoothness * R * R / (2.0 * a)) ** (1.0 / gamma)
    return ell_plus, 2.0 / gamma


def lower_bound_constants(mu: float, kappa: float, c: float = 1.0 / math.pi) -> tuple[float, float]:
    """(ell_minus, gamma_minus) under low noise with an angle lower bound.

    For marginals where c·θ(u, v) lower-bounds the disagreement
    probability, the noise exponent κ gives chord <= (μ/c)·excess^{1/κ},
    i.e. excess >= (c/μ)^κ · chord^κ.  The constant c defaults to the
    uniform-sphere exact value 1/π.
    """
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu!r}")
    if c <= 0:
        raise ValueError(f"c must be positive, got {c!r}")
    if kappa < 1:
        raise ValueError(f"noise exponent must satisfy kappa >= 1, got {kappa!r}")
    return (c / mu) ** kappa, kappa


# ---------------------------------------------------------------------------
# Built-in losses
# ---------------------------------------------------------------------------


def _validate(loss: SurrogateLoss) -> SurrogateLoss:
    """Spot-checks of the declared properties on 101 margins; raises LossSpecError."""
    M = loss.margin_bound
    zs = np.linspace(-M, M, 101)
    vals = np.asarray(loss.phi(zs), dtype=float)
    if np.any(vals < -1e-12):
        raise LossSpecError(f"{loss.name}: phi is negative on the working interval")
    mids = np.asarray(loss.phi((zs[:-1] + zs[1:]) / 2.0), dtype=float)
    if np.any(mids > (vals[:-1] + vals[1:]) / 2.0 + 1e-9):
        raise LossSpecError(f"{loss.name}: phi fails midpoint convexity")
    steps = np.abs(np.diff(vals))
    if np.any(steps > loss.lipschitz * np.abs(np.diff(zs)) + 1e-9):
        raise LossSpecError(f"{loss.name}: phi violates its Lipschitz constant")
    if loss.psi_closed is not None:
        zz = np.linspace(0.01, 1.0, 100)
        closed = np.array([loss.psi_closed(z) for z in zz])
        if np.any(closed < loss.psi_lower_a * zz**loss.psi_lower_gamma - 1e-12):
            raise LossSpecError(f"{loss.name}: psi_closed drops below a·z^gamma")
    return loss


def exponential_loss(R: float = 1.0) -> SurrogateLoss:
    """φ(z) = e^{-z}, saturated below the overflow clamp; ψ(z) = 1 - sqrt(1 - z²)."""
    M = working_margin_bound(R)
    return _validate(
        SurrogateLoss(
            name="exponential",
            phi=lambda z: np.exp(-np.maximum(z, EXP_CLAMP)),
            phi_prime=lambda z: np.where(
                np.asarray(z) > EXP_CLAMP, -np.exp(-np.maximum(z, EXP_CLAMP)), 0.0
            ),
            phi_second=lambda z: np.where(
                np.asarray(z) > EXP_CLAMP, np.exp(-np.maximum(z, EXP_CLAMP)), 0.0
            ),
            lipschitz=math.exp(M),
            margin_bound=M,
            smoothness=math.exp(M),
            psi_closed=lambda z: 1.0 - math.sqrt(max(0.0, 1.0 - z * z)),
            psi_lower_a=0.5,
            psi_lower_gamma=2.0,
            kink=-EXP_CLAMP,
        )
    )


def truncated_quadratic_loss(R: float = 1.0) -> SurrogateLoss:
    """φ(z) = max(0, 1 - z)²; ψ(z) = z²; curvature bound 2."""
    M = working_margin_bound(R)
    return _validate(
        SurrogateLoss(
            name="truncated-quadratic",
            phi=lambda z: np.square(np.maximum(0.0, 1.0 - z)),
            phi_prime=lambda z: -2.0 * np.maximum(0.0, 1.0 - z),
            phi_second=lambda z: 2.0 * (np.asarray(z) < 1.0),
            lipschitz=2.0 * (1.0 + M),
            margin_bound=M,
            smoothness=2.0,
            psi_closed=lambda z: z * z,
            psi_lower_a=1.0,
            psi_lower_gamma=2.0,
            kink=1.0,
        )
    )


def logistic_loss(R: float = 1.0) -> SurrogateLoss:
    """φ(z) = log(1 + e^{-z}); no closed-form ψ, numeric path only.

    The minorant ψ(z) >= z²/2 follows from Pinsker's inequality.
    """
    M = working_margin_bound(R)
    return _validate(
        SurrogateLoss(
            name="logistic",
            phi=lambda z: np.logaddexp(0.0, -np.asarray(z, dtype=float)),
            phi_prime=lambda z: -np.exp(-np.logaddexp(0.0, np.asarray(z, dtype=float))),
            # σ(z)σ(-z), as one exponential of log-sigmoids
            phi_second=lambda z: np.exp(
                -np.logaddexp(0.0, np.asarray(z, dtype=float))
                - np.logaddexp(0.0, -np.asarray(z, dtype=float))
            ),
            lipschitz=1.0,
            margin_bound=M,
            smoothness=0.25,
            psi_closed=None,
            psi_lower_a=0.5,
            psi_lower_gamma=2.0,
        )
    )


BUILTIN_LOSSES = {
    "exponential": exponential_loss,
    "truncated-quadratic": truncated_quadratic_loss,
    "logistic": logistic_loss,
}


def get_loss(name: str, R: float = 1.0) -> SurrogateLoss:
    """Look up a built-in loss, sizing its constants for classifiers of norm R."""
    try:
        factory = BUILTIN_LOSSES[name]
    except KeyError:
        raise LossSpecError(
            f"unknown loss {name!r}; available: {sorted(BUILTIN_LOSSES)}"
        ) from None
    return factory(R=R)
