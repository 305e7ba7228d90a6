"""Per-epoch ERM updates: ball-constrained convex descent and 0-1 sweeps.

The convex update minimizes Σ_t φ(y_t w·x_t) over the Euclidean ball
{||w - R·w_k|| <= R·r_k} by projected gradient descent with Armijo
backtracking.  The 0-1 update minimizes the error count over the arc of
unit vectors within chord distance r_k of w_k: exactly in two dimensions
by sweeping the critical angles where some instance changes side, and
heuristically in higher dimensions by random restarts plus coordinate
angle refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data_models import stack_examples
from .errors import MaxItersExceeded, SolverDiverged
from .geometry import UnitVector, _vector_of, angle, normalize
from .losses import EXP_CLAMP, SurrogateLoss

__all__ = [
    "ConvexSolverParams",
    "SurrogateBall",
    "project_to_ball",
    "surrogate_objective",
    "surrogate_gradient",
    "minimize_in_ball",
    "erm_convex",
    "zero_one_objective",
    "erm_zero_one_2d",
    "erm_zero_one_search",
]


@dataclass(frozen=True)
class ConvexSolverParams:
    max_iters: int = 20_000
    grad_tol: float = 1e-8
    initial_step: float = 1.0
    backtrack_factor: float = 0.5
    armijo_c: float = 1e-4

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.grad_tol <= 0:
            raise ValueError("grad_tol must be positive")
        if not 0.0 < self.backtrack_factor < 1.0:
            raise ValueError("backtrack_factor must lie in (0, 1)")
        if not 0.0 < self.armijo_c <= 0.5:
            raise ValueError("armijo_c must lie in (0, 0.5]")
        if self.initial_step <= 0:
            raise ValueError("initial_step must be positive")


@dataclass(frozen=True)
class SurrogateBall:
    """Feasible set of the convex update: center R·w_k, radius R·r_k."""

    center: np.ndarray = field(repr=False)
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")
        c = np.asarray(self.center, dtype=np.float64).copy()
        c.flags.writeable = False
        object.__setattr__(self, "center", c)


def project_to_ball(v: np.ndarray, ball: SurrogateBall) -> np.ndarray:
    """Euclidean projection of v onto the ball (radial scaling outside)."""
    v = np.asarray(v, dtype=np.float64)
    offset = v - ball.center
    dist = float(np.linalg.norm(offset))
    if dist <= ball.radius:
        return v.copy()
    return ball.center + offset * (ball.radius / dist)


def _margins(loss: SurrogateLoss, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    m = y * (X @ w)
    if loss.name == "exponential" and np.min(m, initial=0.0) < EXP_CLAMP:
        raise SolverDiverged(
            f"exponential-loss margin below the clamp {EXP_CLAMP}; iterate left the trusted region"
        )
    if not np.all(np.isfinite(m)):
        raise SolverDiverged("non-finite margins in surrogate evaluation")
    return m


def surrogate_objective(loss: SurrogateLoss, w, data) -> float:
    """Σ_t φ(y_t w·x_t)."""
    X, y = stack_examples(data)
    w = np.asarray(w, dtype=np.float64)
    return float(np.sum(loss.phi(_margins(loss, w, X, y))))


def surrogate_gradient(loss: SurrogateLoss, w, data) -> np.ndarray:
    """Σ_t y_t φ'(y_t w·x_t) x_t."""
    X, y = stack_examples(data)
    w = np.asarray(w, dtype=np.float64)
    coeff = y * loss.phi_prime(_margins(loss, w, X, y))
    return X.T @ coeff


def _stationarity(w: np.ndarray, g: np.ndarray, ball: SurrogateBall) -> float:
    return float(np.linalg.norm(w - project_to_ball(w - g, ball)))


def minimize_in_ball(
    loss: SurrogateLoss,
    X: np.ndarray,
    y: np.ndarray,
    ball: SurrogateBall,
    params: ConvexSolverParams = ConvexSolverParams(),
    start: np.ndarray | None = None,
    debug: bool = False,
) -> np.ndarray:
    """Projected gradient descent with Armijo backtracking inside the ball.

    Stops when ||w - P(w - g)|| <= grad_tol * (1 + ||g||), or earlier at
    the float64 progress floor (several accepted steps in a row that
    change neither the objective nor the iterate by a representable
    amount).  Raises MaxItersExceeded (carrying the best iterate and its
    residual) if the iteration cap is hit while still making progress.
    Deterministic: no randomness anywhere.
    """
    data = (X, y)
    w = project_to_ball(ball.center if start is None else np.asarray(start, float), ball)
    f = surrogate_objective(loss, w, data)
    step = params.initial_step
    stalls = 0
    for _ in range(params.max_iters):
        g = surrogate_gradient(loss, w, data)
        gnorm = float(np.linalg.norm(g))
        residual = _stationarity(w, g, ball)
        if residual <= params.grad_tol * (1.0 + gnorm):
            return w
        # backtracking line search on the projected step
        step = min(step / params.backtrack_factor, params.initial_step)
        while True:
            w_new = project_to_ball(w - step * g, ball)
            direction = w_new - w
            decrease = float(g @ direction)
            f_new = surrogate_objective(loss, w_new, data)
            if f_new <= f + params.armijo_c * decrease:
                break
            step *= params.backtrack_factor
            if step < 1e-18:
                # no acceptable step exists at float64: treat as stationary
                return w
        if debug and f_new > f + 1e-12:
            raise AssertionError("objective increased across an accepted Armijo step")
        if f_new == f:
            stalls += 1
            if stalls >= 5:
                return w_new
        else:
            stalls = 0
        w, f = w_new, f_new
    g = surrogate_gradient(loss, w, data)
    raise MaxItersExceeded(
        f"no convergence within {params.max_iters} iterations",
        best_w=w,
        residual=_stationarity(w, g, ball),
    )


def erm_convex(
    loss: SurrogateLoss,
    data,
    w_k: UnitVector,
    r_k: float,
    R: float,
    params: ConvexSolverParams = ConvexSolverParams(),
    debug: bool = False,
) -> np.ndarray:
    """Convex epoch update: minimize the surrogate sum over the ball around R·w_k.

    Starts from the ball center (always feasible, the natural warm start);
    the result is exactly feasible because every iterate is a projection.
    """
    if R <= 0:
        raise ValueError("R must be positive (the optimum's norm is assumed known)")
    X, y = stack_examples(data)
    if X.shape[0] == 0:
        raise ValueError("convex update needs at least one labeled example")
    ball = SurrogateBall(center=R * w_k.coords, radius=R * r_k)
    return minimize_in_ball(loss, X, y, ball, params=params, debug=debug)


# ---------------------------------------------------------------------------
# 0-1 loss minimization
# ---------------------------------------------------------------------------


def zero_one_objective(w, data) -> int:
    """Number of training errors, counting y·w·x = 0 as an error."""
    X, y = stack_examples(data)
    wc = _vector_of(w)
    return int(np.count_nonzero(y * (X @ wc) <= 0.0))


def _feasible_half_angle(r_k: float) -> float:
    """Arc half-angle of the hypothesis ball; full circle at r_k = 2."""
    if r_k == 2.0:
        return math.pi
    if not 0.0 < r_k <= 1.0:
        raise ValueError(f"hypothesis radius must lie in (0, 1] or be 2, got {r_k!r}")
    return 2.0 * math.asin(r_k / 2.0)


def _wrap(delta: float) -> float:
    """Signed angle difference wrapped to (-π, π]."""
    return math.remainder(delta, 2.0 * math.pi)


def erm_zero_one_2d(data, w_k: UnitVector, r_k: float) -> UnitVector:
    """Exact 0-1 ERM over the feasible arc, by sweeping critical angles.

    The error count is piecewise constant in the hypothesis angle, with
    breakpoints (events) where some instance lies exactly on the boundary.
    Crossing an event flips that instance between right and wrong, so the
    count after every event is the count at the first piece plus a
    cumulative sum of ±1 steps; one sort plus one cumulative sum make the
    whole minimization O(n log n) in array operations.  Each run of equal
    event angles closes one constant piece, whose midpoint is a candidate,
    as are the arc endpoints and w_k itself.  Ties prefer the candidate
    closest in angle to w_k, then the smaller angle; w_k itself is
    returned when it attains the minimum.
    """
    X, y = stack_examples(data)
    if X.shape[1] != 2:
        raise ValueError("exact 0-1 ERM is only implemented for d = 2")
    if X.shape[0] == 0:
        raise ValueError("0-1 update needs at least one labeled example")
    half = _feasible_half_angle(r_k)
    psi_k = math.atan2(w_k.coords[1], w_k.coords[0])
    lo, hi = psi_k - half, psi_k + half

    n = X.shape[0]
    alphas = np.arctan2(X[:, 1], X[:, 0])
    crits = np.concatenate([alphas + math.pi / 2.0, alphas - math.pi / 2.0])
    # shift each critical angle into [lo, lo + 2π); keep those interior to the arc
    shifted = lo + np.mod(crits - lo, 2.0 * math.pi)
    order = np.argsort(shifted, kind="stable")
    inside = (shifted[order] > lo) & (shifted[order] < hi)
    ev_angles = shifted[order][inside]
    ev_crits = order[inside]

    def count_at(psi: float) -> int:
        w = np.array([math.cos(psi), math.sin(psi)])
        return int(np.count_nonzero(y * (X @ w) <= 0.0))

    # candidate angles: the arc endpoints, w_k itself, and one midpoint per
    # constant piece, the first of which is counted directly
    candidates: list[tuple[int, float]] = [
        (count_at(lo), lo),
        (count_at(hi), hi),
        (count_at(psi_k), psi_k),
    ]
    first_mid = (lo + (ev_angles[0] if ev_angles.size else hi)) / 2.0
    w0 = np.array([math.cos(first_mid), math.sin(first_mid)])
    err0 = (y * (X @ w0)) <= 0.0
    count0 = int(err0.sum())
    candidates.append((count0, float(first_mid)))

    # an event flips its point: +1 if it was right, -1 if wrong; a point's
    # second event (both critical angles inside, possible only at r_k = 2)
    # flips it back
    delta = 1 - 2 * err0[ev_crits % n].astype(np.int64)
    position = np.arange(ev_crits.size)
    rank = np.full(2 * n, ev_crits.size)
    rank[ev_crits] = position
    delta[rank[(ev_crits + n) % (2 * n)] < position] *= -1
    counts = count0 + np.cumsum(delta)
    # a run of equal angles closes one piece, counted after its last event
    new_run = np.empty(ev_angles.size, dtype=bool)
    new_run[:1] = True
    np.not_equal(ev_angles[1:], ev_angles[:-1], out=new_run[1:])
    starts = np.flatnonzero(new_run)
    run_counts = np.append(counts[starts[1:] - 1], counts[-1:])
    mids = (ev_angles[starts] + np.append(ev_angles[starts[1:]], hi)) / 2.0

    best = min(min(c for c, _ in candidates), int(run_counts.min(initial=n)))
    tied = [psi for c, psi in candidates if c == best]
    tied += mids[run_counts == best].tolist()
    tied.sort(key=lambda psi: (abs(_wrap(psi - psi_k)), psi))
    psi_best = tied[0]
    if psi_best == psi_k:
        return w_k  # keep the center bitwise when it already attains the minimum
    return normalize([math.cos(psi_best), math.sin(psi_best)])


def _sample_in_cap(w_k: np.ndarray, half: float, rng: np.random.Generator) -> np.ndarray:
    """A unit vector within angle ``half`` of w_k (heuristic, not cap-uniform)."""
    d = w_k.shape[0]
    beta = float(rng.uniform(0.0, half))
    t = rng.standard_normal(d)
    t -= (t @ w_k) * w_k
    norm = float(np.linalg.norm(t))
    if norm < 1e-12:
        return w_k.copy()
    t /= norm
    return math.cos(beta) * w_k + math.sin(beta) * t


def _clip_to_cap(w: np.ndarray, w_k: np.ndarray, half: float) -> np.ndarray:
    """Pull w back onto the cap boundary if it drifted outside."""
    theta = angle(w, w_k)
    if theta <= half:
        return w
    # rotate w_k toward w by exactly the half-angle
    t = w - (w @ w_k) * w_k
    norm = float(np.linalg.norm(t))
    if norm < 1e-15:
        return w_k.copy()
    return math.cos(half) * w_k + math.sin(half) * (t / norm)


def erm_zero_one_search(
    data,
    w_k: UnitVector,
    r_k: float,
    restarts: int = 32,
    rng: np.random.Generator | None = None,
) -> UnitVector:
    """Heuristic 0-1 ERM for any dimension: restarts + coordinate refinement.

    Starts from w_k plus ``restarts`` random feasible unit vectors, each
    refined by rotating toward coordinate axes with a shrinking angle
    step.  The result is never worse than w_k on the training data, but
    carries no global-optimality guarantee (the exact problem is hard
    beyond d = 2).
    """
    X, y = stack_examples(data)
    if X.shape[0] == 0:
        raise ValueError("0-1 update needs at least one labeled example")
    half = _feasible_half_angle(r_k)
    wk = w_k.coords
    d = wk.shape[0]
    if rng is None:
        rng = np.random.default_rng(0)

    def count(w: np.ndarray) -> int:
        return int(np.count_nonzero(y * (X @ w) <= 0.0))

    def refine(w: np.ndarray) -> tuple[int, np.ndarray]:
        best, best_w = count(w), w
        step = half / 4.0 if half > 0 else 0.0
        while step > 1e-4:
            improved = True
            while improved:
                improved = False
                for i in range(d):
                    axis = np.zeros(d)
                    axis[i] = 1.0
                    t = axis - (axis @ best_w) * best_w
                    norm = float(np.linalg.norm(t))
                    if norm < 1e-12:
                        continue
                    t /= norm
                    for s in (step, -step):
                        cand = math.cos(s) * best_w + math.sin(s) * t
                        cand /= np.linalg.norm(cand)
                        cand = _clip_to_cap(cand, wk, half)
                        c = count(cand)
                        if c < best:
                            best, best_w, improved = c, cand, True
            step /= 2.0
        return best, best_w

    best, best_w = refine(wk.copy())
    for _ in range(restarts):
        c, w = refine(_sample_in_cap(wk, half, rng))
        if c < best:
            best, best_w = c, w
    return normalize(best_w)
