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

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .data_models import stack_examples
from .errors import LossSpecError, MaxItersExceeded, SolverDiverged
from .geometry import _SAFE_NORMS, HypothesisBall, UnitVector, _norm, _vector_of, normalize
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


# A prefix fit reads the counts of lo, hi and ψ_k off its pieces when none of
# its rows has a critical angle within this band of the three, measured around
# the circle: far above the angles' rounding, a few 1e-16 rad.
_GUARD_BAND = 1e-9


class _Events(NamedTuple):
    """A _SweepTable's sorted events and what every fit on a prefix shares."""

    angles: np.ndarray  # the in-arc critical angles, ascending
    codes: np.ndarray  # each event's int32 code (see _SweepTable)
    steps: np.ndarray  # each event's int8 step of the error count
    err: np.ndarray  # each row's error at the table's first-piece midpoint
    guard: int  # the first row a fit must count directly; the row count if none
    psi_at: int  # the number of events before ψ_k


def _first_piece(X: np.ndarray, y: np.ndarray, mid: float) -> tuple[np.ndarray, np.ndarray]:
    """Each row's error at angle mid, and the int8 step of its first event.

    The first of a row's events that the sweep meets flips it: +1 if it was
    right at mid, -1 if wrong, 0 for a zero row, which is wrong at every
    angle; its second event flips it back.
    """
    err = y * (X @ np.array([math.cos(mid), math.sin(mid)])) <= 0.0
    step = np.where(err, np.int8(-1), np.int8(1))
    step[(X[:, 0] == 0.0) & (X[:, 1] == 0.0)] = 0
    return err, step


def _layout(a: np.ndarray) -> tuple:
    """Where an array's data starts and how it is read."""
    return a.__array_interface__["data"][0], a.strides


class _SweepTable:
    """The sweep's events on one arc over fixed examples (X, y), sorted once, for fits on any prefix.

    Row i has two critical angles, α_i ± π/2 with α_i = atan2(x_i2, x_i1),
    each shifted into [lo, lo + 2π) and kept if it lies inside the arc.
    ``events`` holds the kept angles in ascending order and their codes.
    An event's code is 2i for the first of row i's events that the sweep
    meets and 2i + 1 for its second (inside only at r_k = 2).  A fit on
    the first n rows keeps the codes below 2n: the prefix's events in the
    order a sort of the prefix alone gives, up to the order inside runs of
    equal angles, which moves no count (see erm_zero_one_2d).

    The same build stores each row's error at the table's first-piece
    midpoint, the step of every event (-1 if its row turns right, +1 if
    wrong, 0 for a zero row), the number of events before ψ_k, and the
    guard row.  That is the first row with a critical angle, inside the arc
    or not, within _GUARD_BAND of lo, hi or ψ_k around the circle, or with
    a nonzero squared norm outside geometry._SAFE_NORMS squared (subnormal,
    huge or not finite); it is found by searchsorted on the sorted angles.
    Each row before it has exact signs at every angle a fit reads, and
    changes sign only at its critical angles, far from lo, hi and ψ_k.
    So on a prefix that ends at or before the
    guard row, the stored errors are those at the prefix's own first-piece
    midpoint, and lo, hi and ψ_k count the errors of the pieces they lie in.
    A longer prefix counts its first piece and the three candidates
    directly.  ``events`` is built on first use, so a table made outside
    the sweep is sorted inside it.  The table refers to X and y, not
    copies, so they must not change while it is in use.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, w_k: UnitVector, r_k: float):
        half = HypothesisBall(w_k, r_k).half_angle
        self.X, self.y, self.r_k = X, y, r_k
        self.layout = _layout(X), _layout(y)
        self.center = w_k.coords.tobytes()
        self.psi_k = math.atan2(w_k.coords[1], w_k.coords[0])
        self.lo, self.hi = self.psi_k - half, self.psi_k + half

    @functools.cached_property
    def events(self) -> _Events:
        X, y, lo, hi, psi_k = self.X, self.y, self.lo, self.hi, self.psi_k
        n = X.shape[0]
        alphas = np.arctan2(X[:, 1], X[:, 0])
        crits = np.concatenate([alphas + math.pi / 2.0, alphas - math.pi / 2.0])
        # shift each critical angle into [lo, lo + 2π); the events are those interior to the arc
        shifted = lo + np.mod(crits - lo, 2.0 * math.pi)
        order = np.argsort(shifted)
        ordered = shifted[order]
        # the angles in [0, a), [b, c), [d, e) and [f, 2n) lie within the band
        # of lo, hi, ψ_k or lo + 2π
        band = _GUARD_BAND
        first, end, psi_at, a, b, c, d, e, f = np.searchsorted(ordered, [
            math.nextafter(lo, math.inf), hi, psi_k, lo + band, hi - band, hi + band,
            psi_k - band, psi_k + band, lo + 2.0 * math.pi - band]).tolist()
        events, angles = order[first:end], ordered[first:end]
        reached = np.full(2 * n, np.inf)
        reached[events] = angles
        flipped = reached[:n] > reached[n:]  # the sweep meets α - π/2 first
        minus = events >= n
        rows = np.where(minus, events - n, events)
        second = minus != flipped[rows]
        code_type = np.int32 if 2 * n <= np.iinfo(np.int32).max else np.int64
        codes = (2 * rows + second).astype(code_type)

        err, step = _first_piece(X, y, (lo + (angles[0] if angles.size else hi)) / 2.0)
        risky = [order[i:j] % n for i, j in [(0, a), (b, c), (d, e), (f, 2 * n)] if i < j]
        sq = np.einsum("ij,ij->i", X, X)
        least, most = _SAFE_NORMS[0] ** 2, _SAFE_NORMS[1] ** 2
        if not least <= sq.min(initial=least) <= sq.max(initial=most) <= most:
            # zero rows (step 0), and rows whose squared norm is subnormal, huge or not a number
            odd = np.flatnonzero(~((sq >= least) & (sq <= most)))
            risky.append(odd[step[odd] != 0])
        steps = step[rows]
        np.negative(steps, out=steps, where=second)
        guard = min((int(r.min()) for r in risky if r.size), default=n)
        return _Events(angles, codes, steps, err, guard, psi_at - first)

    @property
    def nbytes(self) -> int:
        """Bytes the table holds besides the rows it refers to: 0 before its first use."""
        return sum(a.nbytes for a in self.__dict__.get("events", ()) if isinstance(a, np.ndarray))

    def centered_at(self, w_k: UnitVector, r_k: float) -> bool:
        """Whether the table's arc is the one of radius r_k about w_k, bit for bit."""
        return r_k == self.r_k and w_k.coords.tobytes() == self.center

    def heads(self, X: np.ndarray, y: np.ndarray) -> bool:
        """Whether (X, y) is a prefix of the table's examples: the same memory, read the same way."""
        return (X.shape[0] <= self.X.shape[0] and y.shape[0] <= self.y.shape[0]
                and (_layout(X), _layout(y)) == self.layout)

    def best_angle(self, examples) -> float:
        """The angle erm_zero_one_2d returns, on the checked (X, y) of the first X.shape[0] rows."""
        X, y = examples
        n = X.shape[0]
        ev = self.events
        angles, steps, psi_at, keep = ev.angles, ev.steps, ev.psi_at, slice(None)
        if n < self.X.shape[0]:
            keep = (ev.codes < 2 * n).nonzero()[0]
            angles, steps = angles[keep], steps[keep]
            psi_at = int(np.searchsorted(keep, psi_at))  # the prefix's events before ψ_k
        lo, hi, psi_k = self.lo, self.hi, self.psi_k
        direct = n > ev.guard  # the prefix holds a row from the guard row on

        # a run of equal angles closes one piece; piece j follows the first
        # bounds[j] events, so run j - 1 starts at event bounds[j - 1]
        m = angles.size
        ends = np.empty(m + 1, dtype=bool)
        ends[0] = ends[m] = True
        np.not_equal(angles[1:], angles[:-1], out=ends[1:m])
        bounds = ends.nonzero()[0]
        if direct:  # count the first piece at its own midpoint, as the reference does
            err0, step = _first_piece(X, y, (lo + (angles[0] if m else hi)) / 2.0)
            base = int(np.count_nonzero(err0))
            steps = np.stack([step, -step], axis=1).ravel()[ev.codes[keep]]
        else:
            base = int(np.count_nonzero(ev.err[:n]))
        moved = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(steps, dtype=np.int64, out=moved[1:])
        counts = base + moved[bounds]
        if direct:
            candidates = [(zero_one_objective([math.cos(psi), math.sin(psi)], examples), psi)
                          for psi in (lo, hi, psi_k)]
        else:  # lo, hi and ψ_k lie in the first piece, the last and the one after psi_at events
            candidates = [(int(counts[0]), lo), (int(counts[-1]), hi),
                          (base + int(moved[psi_at]), psi_k)]
        best = min(min(c for c, _ in candidates), int(counts.min()))

        # piece j lies between edges j and j + 1: lo, each run's angle, then hi
        tied = (counts == best).nonzero()[0]
        edges = np.concatenate([[lo], angles[bounds[:-1]], [hi]])
        mids = ((edges[tied] + edges[tied + 1]) / 2.0).tolist()
        tied = [psi for c, psi in candidates if c == best] + mids
        return min(tied, key=lambda psi: (abs(math.remainder(psi - psi_k, 2.0 * math.pi)), psi))


def erm_zero_one_2d(data, w_k: UnitVector, r_k: float, *, table: _SweepTable | None = None) -> UnitVector:
    """Exact 0-1 ERM over the feasible arc, by sweeping critical angles.

    The error count is piecewise constant in the hypothesis angle, with
    breakpoints (events) where some instance lies exactly on the boundary.
    Crossing an event flips that instance between right and wrong, so the
    count after every event is the count at the first piece plus a
    cumulative sum of ±1 steps; one sort plus one cumulative sum make the
    whole minimization O(n log n) in array operations.  A zero instance is
    wrong at every angle (y·w·x = 0 counts as an error), so its events
    step by 0.  Each run of equal event angles closes one constant piece,
    whose midpoint is a candidate, as are the arc endpoints and w_k itself.
    An endpoint can win: a piece next to it may be narrower than the
    rounding error of the event angles, so its midpoint rounds onto an
    event and counts wrong an instance that the endpoint counts right.
    Ties prefer the candidate closest in angle to w_k, then the smaller
    angle; w_k itself is returned when it attains the minimum.

    The endpoints and w_k take the counts of the pieces they lie in when
    no instance has a critical angle within _GUARD_BAND (1e-9 rad) of any
    of them and every nonzero instance's squared norm is a normal float:
    then each sign at those angles is exact, as is each flip.  Otherwise,
    from the table's guard row on (see _SweepTable), the three are counted
    directly on the data, and so is the first piece, as the reference
    sweep counts them.

    The sort need not be stable: equal event angles form one run, the
    edges and midpoints read only run values, and each count is read at a
    run's end, an integer sum over whole runs.  The order of events inside
    a run therefore moves no count, midpoint or tie-break.  So a ``table``
    sorted once on this arc over examples whose prefix is the data (the
    same memory) gives the bits that sorting the data's own events gives;
    without one, the sweep builds a table of the data and sorts that.
    """
    X, y = examples = stack_examples(data)
    if X.shape[1] != 2:
        raise ValueError("exact 0-1 ERM is only implemented for d = 2")
    if X.shape[0] == 0:
        raise ValueError("0-1 update needs at least one labeled example")
    if table is None:
        table = _SweepTable(X, y, w_k, r_k)
    elif not (table.centered_at(w_k, r_k) and table.heads(X, y)):
        raise ValueError("sweep table was built for another arc or other rows")
    psi_best = table.best_angle(examples)
    if psi_best == table.psi_k:
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

    The margins come from one gemm per call, against (X·y)ᵀ stored as a
    C-contiguous (d, n) array so the gemm reads no transposed view.  gemm
    sums in another order than gemv (X @ c), so a margin within the
    dot-product rounding bound ``tol`` of zero may change sign between the
    two.  Outside [-tol, tol] the sign is certain, so a candidate counts its
    margins below -tol (an int32 sum of bytes, exact for any n), and a
    candidate with a margin inside the interval is recounted by stacked
    gemv, which has the bits of X @ c.  A call takes at most ``rows``
    candidates: 2^18 multiply-adds, which OpenBLAS runs on one thread.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray):
        n, d = X.shape
        self.X, self.y = X, y
        # labels are ±1, so this scaling is exact
        self.XyT = np.ascontiguousarray((X * y[:, None]).T)
        # twice the error bound of a d-term dot product of a unit row c with
        # a row of X, whose norm is at most sqrt(d)·max|x_j|, with room to spare
        self.tol = 4.0 * d * np.finfo(np.float64).eps * math.sqrt(d) * float(np.max(np.abs(self.XyT)))
        self.rows = max(1, (1 << 18) // (n * d))
        self._margins = np.empty((self.rows, n))

    def __call__(self, C: np.ndarray) -> np.ndarray:
        M = np.matmul(C, self.XyT, out=self._margins[:C.shape[0]])
        below = M < -self.tol
        counts = np.add.reduce(below.view(np.uint8), axis=1, dtype=np.int32)
        # every margin at most tol is below -tol unless one lies in the band
        if np.count_nonzero(M <= self.tol) != counts.sum():
            near = np.flatnonzero(np.any(np.abs(M) <= self.tol, axis=1))
            exact = self.y * np.matmul(self.X, C[near, :, None])[..., 0]
            counts[near] = np.count_nonzero(exact <= 0.0, axis=1)
        return counts


def _clip_rows_to_cap(C: np.ndarray, w_k: np.ndarray, half: float) -> None:
    """Pull each row of C that lies outside the cap back onto its boundary, in place."""
    if half >= math.pi:
        return  # the cap is the whole sphere: no angle exceeds π
    dots = _dots(C, w_k)
    # |d arccos / dc| >= 1, so a row with cosine at least cos(half) + 1e-9
    # lies more than 1e-12 inside the cap whatever the rounding
    maybe = np.flatnonzero(dots < math.cos(half) + 1e-9)
    if maybe.size == 0:
        return
    cosines = np.clip(dots[maybe], -1.0, 1.0)
    theta = np.arccos(cosines)
    # np.arccos and math.acos may differ in the last bit: settle rows near
    # the boundary with math.acos, the angle the cap is defined by
    outside = theta > half
    for i in np.flatnonzero(np.abs(theta - half) <= 1e-12):
        outside[i] = math.acos(cosines[i]) > half
    rows = maybe[outside]
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
        target = best[ids[owner]]  # the count to beat: best moves only after the round
        counts = np.full(owner.size, X.shape[0] + 1)
        found = np.zeros(ids.size, dtype=bool)
        while pending.size:
            block, pending = pending[:count.rows], pending[count.rows:]
            scored = counts[block] = count(C[block])
            hits = block[scored < target[block]]
            if hits.size:
                found[owner[hits]] = True
                pending = pending[~found[owner[pending]]]

        # each refine takes its first improving candidate and resumes after
        # it; a refine with none ends its pass
        better = np.flatnonzero(counts < target)
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
    *,
    restarts: int,
    rng: np.random.Generator,
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
    starts = [wk] + [_sample_in_cap(wk, half, rng) for _ in range(restarts)]
    best_w, best = _refine_all(X, y, np.array(starts), wk, half)
    # the first strict minimum in restart order, w_k's own refine first
    return normalize(best_w[int(np.argmin(best))])
