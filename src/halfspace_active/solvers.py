"""Per-epoch ERM updates: ball-constrained convex descent and 0-1 sweeps.

The convex update minimizes Σ_t φ(y_t w·x_t) over the Euclidean ball
{||w - R·w_k|| <= R·r_k} by projected Newton steps: each iteration
minimizes the local quadratic model exactly over the ball (a Moré–Sorensen
trust-region subproblem: one eigendecomposition and a scalar secular
equation) and backtracks on the true objective along the feasible segment
to that point.  Band data are nearly collinear, so the Hessian's condition
number grows like 1/r_k²; Newton steps do not slow down with it, where
gradient steps crawl.  The 0-1 update minimizes the error count over the
arc of unit vectors within chord distance r_k of w_k: exactly in two dimensions
by sweeping the critical angles where some instance changes side, and
heuristically in higher dimensions by random restarts plus coordinate
angle refinement.  The restarts are refined in lock step: each round
builds every live refine's remaining candidates as one array and counts
their errors with one matrix product per block, while every refine still
takes the same path, bit for bit, as it would alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data_models import stack_examples
from .errors import LossSpecError, MaxItersExceeded, SolverDiverged
from .geometry import HypothesisBall, UnitVector, _norm, _vector_of, normalize
from .losses import EXP_CLAMP, SurrogateLoss

_EPS = float(np.finfo(np.float64).eps)

# minimize_in_ball's fixed settings; its docstring says how each is used
MAX_ITERS = 20_000
GRAD_TOL = 1e-8
INITIAL_STEP = 1.0
BACKTRACK_FACTOR = 0.5
ARMIJO_C = 1e-4

__all__ = [
    "SurrogateBall",
    "project_to_ball",
    "surrogate_objective",
    "surrogate_gradient",
    "minimize_in_ball",
    "zero_one_objective",
    "erm_zero_one_2d",
    "erm_zero_one_search",
]


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
    dist = _norm(offset)
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
    return _norm(w - project_to_ball(w - g, ball))


def _ball_qp(H: np.ndarray, b: np.ndarray, rho: float) -> tuple[np.ndarray, float]:
    """Minimize b·z + ½ zᵀHz over ||z|| <= rho, for symmetric positive semidefinite H.

    Returns (z, μ) with (H + μI) z = -b, μ >= 0 and μ (rho - ||z||) = 0,
    the optimality conditions of the problem (Moré & Sorensen 1983).  One
    eigendecomposition H = QΛQᵀ gives z(μ) = -Q (Λ + μI)⁻¹ Qᵀb.  If b has no
    part along H's null space and the pseudo-inverse point z(0) lies in the
    ball, μ = 0 and z(0) is returned; for a singular H (the hard case) it is
    the minimizer of least norm.  Otherwise μ > 0 solves the secular
    equation 1/||z(μ)|| = 1/rho by Newton's method from a lower bound,
    which converges monotonically since 1/||z(μ)|| is concave.
    """
    lam, Q = np.linalg.eigh(H)
    lam = np.maximum(lam, 0.0)  # rounding can leave -eps·||H|| on a PSD matrix
    beta = Q.T @ b
    top = float(lam[-1])
    level = 4.0 * b.shape[0] * _EPS
    null = lam <= level * top
    # b = g - H·u with ||u|| <= rho carries rounding of this size along the null space
    beta[null & (np.abs(beta) <= level * (_norm(b) + top * rho))] = 0.0
    if not beta[null].any():
        coef = np.zeros_like(beta)
        coef[~null] = -beta[~null] / lam[~null]
        if _norm(coef) <= rho:
            return Q @ coef, 0.0
    keep = beta != 0.0
    lam, beta, Q = lam[keep], beta[keep], Q[:, keep]
    # ||z(μ)|| >= |β_i| / (λ_i + μ) and >= ||β|| / (λ_max + μ): μ below
    # either bound leaves z(μ) outside the ball, so it lies left of the root
    lower = mu = max(0.0, float(np.max(np.abs(beta) / rho - lam)),
                     _norm(beta) / rho - float(lam[-1]))
    for _ in range(64):
        shifted = lam + mu
        p = beta / shifted
        size = _norm(p)
        if abs(size - rho) <= 4.0 * _EPS * rho:
            break
        nxt = max(lower, mu + size * size * (size - rho) / (rho * float(p @ (p / shifted))))
        if nxt == mu:
            break
        mu = nxt
    z = -(Q @ p)
    size = _norm(z)
    if size > rho:
        z *= rho / size
    return z, mu


def minimize_in_ball(
    loss: SurrogateLoss,
    X: np.ndarray,
    y: np.ndarray,
    ball: SurrogateBall,
) -> np.ndarray:
    """Projected Newton descent inside the ball, with Armijo backtracking.

    Starts from the ball center.  Each iteration builds the Hessian
    H = Σ_t φ''(m_t) x_t x_tᵀ at the iterate w, finds the minimizer w + s of
    the quadratic model g·s + ½ sᵀHs over the ball (see _ball_qp), and
    backtracks from w + INITIAL_STEP·s (the full step) by BACKTRACK_FACTOR
    until the Armijo condition with ARMIJO_C holds; the segment stays
    feasible because the ball is convex.  Stops once ||w - P(w - g)|| <=
    GRAD_TOL·(1 + ||g||), after that iteration's step: the rule alone can leave a
    boundary optimum's objective about ||g||·residual²/radius above the
    minimum, and one more Newton step squares the error.  Also stops at w
    when no step descends (the model's minimizer does not lower g·s, or no
    trial above 1e-18 of it satisfies Armijo), which leaves w stationary
    to float64 precision.  Raises MaxItersExceeded (carrying the last
    iterate and its residual) if MAX_ITERS iterations pass first.
    Checks (X, y) once, by stack_examples; every objective and gradient
    evaluation reuses the checked pair.  Deterministic: no randomness anywhere.
    """
    if loss.phi_second is None:
        raise LossSpecError(f"{loss.name}: the Newton solver needs phi_second")
    X, y = data = stack_examples((X, y))
    w = ball.center.copy()
    f = surrogate_objective(loss, w, data)
    for _ in range(MAX_ITERS):
        g = surrogate_gradient(loss, w, data)
        done = _stationarity(w, g, ball) <= GRAD_TOL * (1.0 + _norm(g))
        H = (X * loss.phi_second(_margins(loss, w, X, y))[:, None]).T @ X
        u = w - ball.center
        # with z = w_new - center the model g·(z - u) + ½ (z - u)ᵀH(z - u) is
        # (g - Hu)·z + ½ zᵀHz up to a constant
        z, _ = _ball_qp(H, g - H @ u, ball.radius)
        s = z - u
        slope = float(g @ s)
        if not slope < 0.0:
            return w
        # f is a sum of rounded terms: a rise below its rounding level is
        # noise and does not block the step
        slack = 8.0 * _EPS * abs(f)
        t = INITIAL_STEP
        while True:
            w_new = project_to_ball(w + t * s, ball)
            f_new = surrogate_objective(loss, w_new, data)
            if f_new <= f + ARMIJO_C * t * slope + slack:
                break
            t *= BACKTRACK_FACTOR
            if t < 1e-18:
                return w
        if done:
            return w_new
        w, f = w_new, f_new
    g = surrogate_gradient(loss, w, data)
    raise MaxItersExceeded(
        f"no convergence within {MAX_ITERS} iterations",
        best_w=w,
        residual=_stationarity(w, g, ball),
    )


# ---------------------------------------------------------------------------
# 0-1 loss minimization
# ---------------------------------------------------------------------------


def zero_one_objective(w, data) -> int:
    """Number of training errors, counting y·w·x = 0 as an error."""
    X, y = stack_examples(data)
    wc = _vector_of(w)
    return int(np.count_nonzero(y * (X @ wc) <= 0.0))


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
    half = HypothesisBall(w_k, r_k).half_angle
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
    norm = _norm(t)
    if norm < 1e-12:
        return w_k.copy()
    t /= norm
    return math.cos(beta) * w_k + math.sin(beta) * t


def _dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Row-wise A·B with one BLAS ddot per row: the bits of np.dot on 1-D rows."""
    return np.matmul(A[..., None, :], B[..., :, None])[..., 0, 0]


def _row_norms(A: np.ndarray) -> np.ndarray:
    """Row-wise ||a||, bit for bit np.linalg.norm of each row."""
    return np.sqrt(_dots(A, A))


class _ErrorCounter:
    """Training errors of candidate rows c, bit for bit count_nonzero(y * (X @ c) <= 0).

    The margins come from one gemm per call.  gemm sums in another order
    than gemv (X @ c), so a margin within the dot-product rounding bound
    ``tol`` of zero may change sign between the two.  Outside [-tol, tol]
    the sign is certain, so a candidate counts its margins below -tol, and
    a candidate with a margin inside the interval is recounted by stacked
    gemv, which has the bits of X @ c.  A call takes at most ``rows``
    candidates: 2^18 multiply-adds, which OpenBLAS runs on one thread.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray):
        n, d = X.shape
        self.X, self.y = X, y
        self.Xy = X * y[:, None]  # labels are ±1, so this scaling is exact
        # twice the error bound of a d-term dot product of a unit row c with
        # a row of X, whose norm is at most sqrt(d)·max|x_j|, with room to spare
        self.tol = 4.0 * d * np.finfo(np.float64).eps * math.sqrt(d) * float(np.max(np.abs(self.Xy)))
        self.rows = max(1, (1 << 18) // (n * d))
        self._margins = np.empty((self.rows, n))

    def __call__(self, C: np.ndarray) -> np.ndarray:
        M = np.matmul(C, self.Xy.T, out=self._margins[:C.shape[0]])
        below = M < -self.tol
        counts = below.view(np.uint8).sum(axis=1, dtype=np.int64)
        if np.count_nonzero(M <= self.tol) != np.count_nonzero(below):
            near = np.flatnonzero(np.any(np.abs(M) <= self.tol, axis=1))
            exact = self.y * np.matmul(self.X, C[near, :, None])[..., 0]
            counts[near] = np.count_nonzero(exact <= 0.0, axis=1)
        return counts


def _clip_rows_to_cap(C: np.ndarray, w_k: np.ndarray, half: float) -> None:
    """Pull each row of C that lies outside the cap back onto its boundary, in place."""
    dots = _dots(C, w_k)
    cosines = np.clip(dots, -1.0, 1.0)
    theta = np.arccos(cosines)
    # np.arccos and math.acos may differ in the last bit: settle rows near
    # the boundary with math.acos, the angle the cap is defined by
    outside = theta > half
    for i in np.flatnonzero(np.abs(theta - half) <= 1e-12):
        outside[i] = math.acos(cosines[i]) > half
    rows = np.flatnonzero(outside)
    if rows.size == 0:
        return
    # rotate w_k toward each row by exactly the half-angle
    t = C[rows] - dots[rows, None] * w_k
    norms = _row_norms(t)
    degenerate = norms < 1e-15
    norms[degenerate] = 1.0
    clipped = math.cos(half) * w_k + math.sin(half) * (t / norms[:, None])
    clipped[degenerate] = w_k
    C[rows] = clipped


def _refine_all(
    X: np.ndarray, y: np.ndarray, W: np.ndarray, w_k: np.ndarray, half: float
) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate-rotation refinement of every row of W, all in lock step.

    Each refine sweeps passes over positions (i, +), (i, -) for axes
    i = 0..d-1: rotate the best vector b by ±step toward the unit tangent t
    of e_i at b, renormalize, clip to the cap, and accept the candidate if
    it makes strictly fewer errors.  An axis whose tangent has norm below
    1e-12 is skipped, and the (i, -) candidate after an accepted (i, +)
    keeps the tangent taken before that accept.  A pass with an accept is
    repeated at the same step; a pass without one halves the step, until
    it falls to 1e-4.

    One round builds, for every live refine, its pass's remaining
    candidates from the current b.  They are scored in blocks that take
    every refine's k-th candidate before any (k+1)-th, and a refine's
    candidates stop being scored once one of them improves on its best.
    Each refine takes its first improving candidate and resumes after it;
    the candidates behind that one are discarded, since they were built
    from a superseded b.  Every refine thus follows its one-at-a-time path
    bit for bit.
    """
    n_w, d = W.shape
    steps = []
    step = half / 4.0
    while step > 1e-4:
        steps.append(step)
        step /= 2.0
    count = _ErrorCounter(X, y)
    best_w = W.copy()
    best = np.concatenate([count(W[lo:lo + count.rows]) for lo in range(0, n_w, count.rows)])
    # per-level rotation scalars: rows (+step, -step), columns (cos, sin)
    turns = np.array([[[math.cos(s), math.sin(s)], [math.cos(-s), math.sin(-s)]] for s in steps])
    level = np.zeros(n_w, dtype=np.int64)
    pos = np.zeros(n_w, dtype=np.int64)  # next position 2i + (0 for +, 1 for -)
    improved = np.zeros(n_w, dtype=bool)
    stale = np.empty((n_w, d))  # the tangent of the last accepted (i, +)
    live = np.full(n_w, bool(steps))
    eye = np.eye(d)
    positions = np.arange(2 * d)
    while live.any():
        ids = np.flatnonzero(live)
        start = pos[ids]
        B = best_w[ids]
        T = eye - B[:, :, None] * B[:, None, :]  # T[l, i] = e_i - b_i·b
        norms = _row_norms(T)
        valid = norms >= 1e-12
        T /= np.where(valid, norms, 1.0)[..., None]
        minus = np.flatnonzero(start % 2)
        if minus.size:
            axes = start[minus] // 2
            T[minus, axes] = stale[ids[minus]]
            valid[minus, axes] = True
        rot = turns[level[ids]]  # (live, ±, cos|sin)
        cands = (rot[:, :, 0, None, None] * B[:, None, None, :]
                 + rot[:, :, 1, None, None] * T[:, None, :, :])  # (live, ±, axis, d)
        cands = cands.transpose(0, 2, 1, 3).reshape(ids.size, 2 * d, d)
        todo = (positions >= start[:, None]) & np.repeat(valid, 2, axis=1)
        owner, at = np.nonzero(todo)
        C = cands[owner, at]
        C /= _row_norms(C)[:, None]
        _clip_rows_to_cap(C, w_k, half)
        # unscored candidates count n + 1 errors, so they never improve
        rank = np.arange(owner.size) - np.searchsorted(owner, owner)
        pending = np.lexsort((owner, rank))
        counts = np.full(owner.size, X.shape[0] + 1)
        found = np.zeros(ids.size, dtype=bool)
        while pending.size:
            block, pending = pending[:count.rows], pending[count.rows:]
            counts[block] = count(C[block])
            found[owner[block[counts[block] < best[ids[owner[block]]]]]] = True
            pending = pending[~found[owner[pending]]]

        # each refine takes its first improving candidate and resumes after
        # it; a refine with none ends its pass
        better = np.flatnonzero(counts < best[ids[owner]])
        first = np.ones(better.size, dtype=bool)
        first[1:] = owner[better[1:]] != owner[better[:-1]]
        take = better[first]
        local, q = owner[take], at[take]
        rows = ids[local]
        best_w[rows] = C[take]
        best[rows] = counts[take]
        improved[rows] = True
        pos[ids] = 2 * d
        pos[rows] = q + 1
        plus = q % 2 == 0
        stale[rows[plus]] = T[local[plus], q[plus] // 2]

        ended = ids[pos[ids] == 2 * d]
        level[ended] += ~improved[ended]
        pos[ended] = 0
        improved[ended] = False
        live[ended[level[ended] == len(steps)]] = False
    return best_w, best


def erm_zero_one_search(
    data,
    w_k: UnitVector,
    r_k: float,
    restarts: int = 32,
    rng: np.random.Generator | None = None,
) -> UnitVector:
    """Heuristic 0-1 ERM for any dimension: restarts + coordinate refinement.

    Starts from w_k plus ``restarts`` random feasible unit vectors, all
    drawn before any refine, each refined by rotating toward coordinate
    axes with a shrinking angle step (see _refine_all).  The refines run
    in lock-step rounds, one batch of candidates per round, and each ends
    where it would alone; the first strict minimum in restart order wins.
    The result is never worse than w_k on the training data, but carries
    no global-optimality guarantee (the exact problem is hard beyond
    d = 2).
    """
    X, y = stack_examples(data)
    if X.shape[0] == 0:
        raise ValueError("0-1 update needs at least one labeled example")
    half = HypothesisBall(w_k, r_k).half_angle
    wk = w_k.coords
    if rng is None:
        rng = np.random.default_rng(0)
    starts = [wk] + [_sample_in_cap(wk, half, rng) for _ in range(restarts)]
    best_w, best = _refine_all(X, y, np.array(starts), wk, half)
    # the first strict minimum in restart order, w_k's own refine first
    return normalize(best_w[int(np.argmin(best))])
