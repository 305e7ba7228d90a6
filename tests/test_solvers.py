import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfspace_active import solvers
from halfspace_active.errors import LossSpecError, MaxItersExceeded, SolverDiverged, UnsupportedRadius
from halfspace_active.geometry import angle, normalize
from halfspace_active.losses import exponential_loss, logistic_loss, truncated_quadratic_loss
from halfspace_active.data_models import stack_examples
from halfspace_active.solvers import (
    ConvexSolverParams,
    SurrogateBall,
    erm_zero_one_2d,
    erm_zero_one_search,
    project_to_ball,
    surrogate_gradient,
    surrogate_objective,
    zero_one_objective,
)

EXP = exponential_loss()
TQ = truncated_quadratic_loss()
LOGI = logistic_loss()
E1 = normalize([1.0, 0.0])


def grid_oracle_min(X, y, w_k, r_k, n_angles=10_000):
    """Brute-force 0-1 minimum over uniformly spaced feasible angles."""
    half = math.pi if r_k == 2.0 else 2.0 * math.asin(r_k / 2.0)
    psi_k = math.atan2(w_k.coords[1], w_k.coords[0])
    psis = np.linspace(psi_k - half, psi_k + half, n_angles)
    W = np.stack([np.cos(psis), np.sin(psis)], axis=1)
    errs = ((y[None, :] * (W @ X.T)) <= 0).sum(axis=1)
    return int(errs.min())


def _reference_sweep(data, w_k, r_k):
    """The event-by-event form of the exact 2-D sweep, kept as a bitwise reference."""
    X, y = stack_examples(data)
    half = math.pi if r_k == 2.0 else 2.0 * math.asin(r_k / 2.0)
    psi_k = math.atan2(w_k.coords[1], w_k.coords[0])
    lo, hi = psi_k - half, psi_k + half

    n = X.shape[0]
    alphas = np.arctan2(X[:, 1], X[:, 0])
    crits = np.concatenate([alphas + math.pi / 2.0, alphas - math.pi / 2.0])
    shifted = lo + np.mod(crits - lo, 2.0 * math.pi)
    order = np.argsort(shifted, kind="stable")
    inside = (shifted[order] > lo) & (shifted[order] < hi)
    ev_angles = shifted[order][inside]
    ev_points = order[inside] % n

    def count_at(psi):
        w = np.array([math.cos(psi), math.sin(psi)])
        return int(np.count_nonzero(y * (X @ w) <= 0.0))

    candidates = [(count_at(lo), lo), (count_at(hi), hi), (count_at(psi_k), psi_k)]
    first_mid = (lo + (ev_angles[0] if ev_angles.size else hi)) / 2.0
    w0 = np.array([math.cos(first_mid), math.sin(first_mid)])
    err = (y * (X @ w0)) <= 0.0
    count = int(err.sum())
    candidates.append((count, float(first_mid)))
    idx = 0
    n_ev = ev_angles.size
    while idx < n_ev:
        j = idx
        while j < n_ev and ev_angles[j] == ev_angles[idx]:
            i = ev_points[j]
            count += 1 - 2 * int(err[i])
            err[i] = not err[i]
            j += 1
        nxt = ev_angles[j] if j < n_ev else hi
        candidates.append((count, float((ev_angles[idx] + nxt) / 2.0)))
        idx = j

    best = min(c for c, _ in candidates)
    tied = [psi for c, psi in candidates if c == best]
    tied.sort(key=lambda psi: (abs(math.remainder(psi - psi_k, 2.0 * math.pi)), psi))
    psi_best = tied[0]
    if psi_best == psi_k:
        return w_k
    return normalize([math.cos(psi_best), math.sin(psi_best)])


def _reference_search(data, w_k, r_k, restarts, rng):
    """The one-refine-at-a-time form of the restart search, kept as a bitwise reference."""
    X, y = stack_examples(data)
    half = math.pi if r_k == 2.0 else 2.0 * math.asin(r_k / 2.0)
    wk = w_k.coords
    d = wk.shape[0]

    def count(w):
        return int(np.count_nonzero(y * (X @ w) <= 0.0))

    def sample_in_cap():
        beta = float(rng.uniform(0.0, half))
        t = rng.standard_normal(d)
        t -= (t @ wk) * wk
        norm = float(np.linalg.norm(t))
        if norm < 1e-12:
            return wk.copy()
        t /= norm
        return math.cos(beta) * wk + math.sin(beta) * t

    def clip_to_cap(w):
        if math.acos(min(1.0, max(-1.0, float(np.dot(w, wk))))) <= half:
            return w
        t = w - (w @ wk) * wk
        norm = float(np.linalg.norm(t))
        if norm < 1e-15:
            return wk.copy()
        return math.cos(half) * wk + math.sin(half) * (t / norm)

    def refine(w):
        best, best_w = count(w), w
        step = half / 4.0
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
                    for s in (step, -step):  # -step keeps t from before a +step accept
                        cand = math.cos(s) * best_w + math.sin(s) * t
                        cand /= np.linalg.norm(cand)
                        cand = clip_to_cap(cand)
                        c = count(cand)
                        if c < best:
                            best, best_w, improved = c, cand, True
            step /= 2.0
        return best, best_w

    best, best_w = refine(wk.copy())
    for _ in range(restarts):
        c, w = refine(sample_in_cap())
        if c < best:
            best, best_w = c, w
    return normalize(best_w)


def _reference_pg(loss, X, y, ball, params=ConvexSolverParams()):
    """The projected-gradient form of the convex solver, kept as a reference.

    Armijo backtracking on projected gradient steps, the step carried over
    between iterations, and an exit after five accepted steps in a row that
    leave the objective unchanged.
    """
    data = (X, y)
    w = ball.center.copy()
    f = surrogate_objective(loss, w, data)
    step = params.initial_step
    stalls = 0
    for _ in range(params.max_iters):
        g = surrogate_gradient(loss, w, data)
        residual = np.linalg.norm(w - project_to_ball(w - g, ball))
        if residual <= params.grad_tol * (1.0 + np.linalg.norm(g)):
            return w
        step = min(step / params.backtrack_factor, params.initial_step)
        while True:
            w_new = project_to_ball(w - step * g, ball)
            f_new = surrogate_objective(loss, w_new, data)
            if f_new <= f + params.armijo_c * float(g @ (w_new - w)):
                break
            step *= params.backtrack_factor
            if step < 1e-18:
                return w
        if f_new == f:
            stalls += 1
            if stalls >= 5:
                return w_new
        else:
            stalls = 0
        w, f = w_new, f_new
    g = surrogate_gradient(loss, w, data)
    raise MaxItersExceeded(
        "no convergence", best_w=w,
        residual=np.linalg.norm(w - project_to_ball(w - g, ball)),
    )


def band_data(rng, n, w_k, r):
    """n unit rows in the margin band of radius r around w_k, the epoch update's regime.

    Labels follow the affine conditional P(y = 1 | x) = (1 + x·w*)/2 with
    ||w*|| = 0.4, as in the deep convex benchmark, and w*'s direction
    within chord r of w_k.
    """
    d = w_k.shape[0]
    rows = np.empty((0, d))
    while rows.shape[0] < n:
        Z = rng.standard_normal((4 * n, d))
        Z /= np.linalg.norm(Z, axis=1)[:, None]
        rows = np.vstack([rows, Z[np.abs(Z @ w_k) <= r * math.sqrt(1.0 - r * r / 4.0)]])
    X = rows[:n]
    t = rng.standard_normal(d)
    t -= (t @ w_k) * w_k
    t /= np.linalg.norm(t)
    turn = 2.0 * math.asin(r / 2.0) * rng.uniform()
    w_star = 0.4 * (math.cos(turn) * w_k + math.sin(turn) * t)
    y = np.where(rng.random(n) < (1.0 + X @ w_star) / 2.0, 1.0, -1.0)
    return X, y


class TestProjection:
    def test_inside_unchanged(self):
        ball = SurrogateBall(np.array([1.0, 0.0]), 1.0)
        v = np.array([1.2, 0.3])
        np.testing.assert_array_equal(project_to_ball(v, ball), v)

    def test_radial_scaling(self):
        ball = SurrogateBall(np.zeros(2), 1.0)
        np.testing.assert_allclose(project_to_ball(np.array([0.0, 2.0]), ball), [0.0, 1.0])

    def test_center_fixed_point(self):
        c = np.array([0.3, -0.4])
        ball = SurrogateBall(c, 0.5)
        np.testing.assert_array_equal(project_to_ball(c, ball), c)

    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=2))
    @settings(max_examples=50)
    def test_result_always_feasible(self, v):
        ball = SurrogateBall(np.array([1.0, -2.0]), 0.7)
        p = project_to_ball(np.asarray(v), ball)
        assert np.linalg.norm(p - ball.center) <= ball.radius + 1e-12


class TestObjectiveGradient:
    def test_beyond_margin_is_flat(self):
        data = (np.array([[1.0, 0.0]]), np.array([1.0]))
        w = np.array([2.0, 0.0])
        assert surrogate_objective(TQ, w, data) == 0.0
        np.testing.assert_array_equal(surrogate_gradient(TQ, w, data), [0.0, 0.0])

    def test_exponential_at_origin(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((17, 3))
        y = np.sign(rng.standard_normal(17))
        assert surrogate_objective(EXP, np.zeros(3), (X, y)) == pytest.approx(17.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        h = 1e-6
        for loss in (EXP, TQ):
            for _ in range(20):
                d = int(rng.integers(2, 5))
                X = rng.standard_normal((30, d))
                y = np.sign(rng.standard_normal(30))
                w = rng.standard_normal(d) * 0.5
                g = surrogate_gradient(loss, w, (X, y))
                fd = np.zeros(d)
                for i in range(d):
                    e = np.zeros(d)
                    e[i] = h
                    fd[i] = (
                        surrogate_objective(loss, w + e, (X, y))
                        - surrogate_objective(loss, w - e, (X, y))
                    ) / (2 * h)
                assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(g))

    def test_exponential_overflow_diverges(self):
        data = (np.array([[1.0, 0.0]]), np.array([1.0]))
        with pytest.raises(SolverDiverged):
            surrogate_objective(EXP, np.array([-60.0, 0.0]), data)


class TestErmConvex:
    def test_single_point_boundary_optimum(self):
        # objective e^{-w1} decreases in w1, so the optimum is the far pole 2*e1
        data = (np.array([[1.0, 0.0]]), np.array([1.0]))
        w = solvers.minimize_in_ball(EXP, *data, SurrogateBall(E1.coords, 1.0))
        np.testing.assert_allclose(w, [2.0, 0.0], atol=1e-6)
        f_opt = surrogate_objective(EXP, w, data)
        for t in np.linspace(0.0, 1.0, 50):
            seg = np.array([2.0 * t, 0.0])  # feasible segment through the center
            assert f_opt <= surrogate_objective(EXP, seg, data) + 1e-12

    def test_symmetric_data_interior_stationary(self):
        # x <-> -x with flipped labels; the opposing -1 points pin a unique
        # interior stationary point (per-coordinate minimum at 10/34)
        base = np.array([[1.0, 0.0], [0.6, 0.0], [0.0, 1.0], [0.0, 0.6]])
        labels = np.array([1.0, -1.0, 1.0, -1.0])
        X = np.vstack([base, -base])
        y = np.concatenate([labels, -labels])
        ball = SurrogateBall(np.zeros(2), 3.0)
        w = solvers.minimize_in_ball(TQ, X, y, ball)
        g = surrogate_gradient(TQ, w, (X, y))
        assert np.linalg.norm(w) < 3.0 - 1e-6
        assert np.linalg.norm(g) <= 1e-6
        np.testing.assert_allclose(w, [10.0 / 34.0, 10.0 / 34.0], atol=1e-6)

    def test_separable_with_wide_margin_reaches_zero(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((40, 2))
        y = np.sign(X @ np.array([1.0, 0.0]))
        y[y == 0] = 1.0
        # margin >= 1 is feasible: 5*e1 gives margins 5*|x1| which may be < 1;
        # use well-separated data instead
        X[:, 0] += np.sign(X[:, 0]) * 0.5
        w = solvers.minimize_in_ball(TQ, X, y, SurrogateBall(5.0 * E1.coords, 10.0))
        margins = y * (X @ w)
        assert surrogate_objective(TQ, w, (X, y)) <= 1e-10
        assert np.all(margins >= 1.0 - 1e-5)

    def test_feasibility_exact(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((25, 3))
        y = np.sign(rng.standard_normal(25))
        w_k = normalize([1.0, 1.0, 0.0])
        for r_k in (2.0, 1.0, 0.5):
            w = solvers.minimize_in_ball(EXP, X, y, SurrogateBall(1.5 * w_k.coords, 1.5 * r_k))
            assert np.linalg.norm(w - 1.5 * w_k.coords) <= 1.5 * r_k + 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((50, 2))
        y = np.sign(rng.standard_normal(50))
        a = solvers.minimize_in_ball(TQ, X, y, SurrogateBall(E1.coords, 0.5))
        b = solvers.minimize_in_ball(TQ, X, y, SurrogateBall(E1.coords, 0.5))
        assert np.array_equal(a, b)

    def test_objective_never_worse_than_start(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            X = rng.standard_normal((30, 2))
            y = np.sign(rng.standard_normal(30))
            w = solvers.minimize_in_ball(EXP, X, y, SurrogateBall(E1.coords, 1.0))
            assert surrogate_objective(EXP, w, (X, y)) <= surrogate_objective(
                EXP, 1.0 * E1.coords, (X, y)
            ) + 1e-12

    def test_band_data_matches_disk_grid(self):
        # margin-band instances with hard labels, the regime where the epoch
        # update operates: the solver must match a dense grid over the disk
        rng = np.random.default_rng(14)
        t = rng.uniform(-0.125, 0.125, size=300)
        side = np.where(rng.random(300) < 0.5, 1.0, -1.0)
        X = np.stack([np.sin(t), side * np.cos(t)], axis=1)  # |x . e2| near 1
        y = np.sign(X @ np.array([1.0, 0.0]))
        w_k = normalize([0.0, 1.0])
        r_k = 0.25
        w = solvers.minimize_in_ball(TQ, X, y, SurrogateBall(w_k.coords, r_k))
        f = surrogate_objective(TQ, w, (X, y))
        best = np.inf
        for a in np.linspace(-r_k, r_k, 201):
            for b in np.linspace(-r_k, r_k, 201):
                if a * a + b * b <= r_k * r_k:
                    cand = w_k.coords + np.array([a, b])
                    best = min(best, surrogate_objective(TQ, cand, (X, y)))
        assert f <= best + 1e-6

    def test_max_iters_raises_with_iterate(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((30, 2))
        y = np.sign(rng.standard_normal(30))
        params = ConvexSolverParams(max_iters=2, grad_tol=1e-16)
        with pytest.raises(MaxItersExceeded) as ei:
            solvers.minimize_in_ball(TQ, X, y, SurrogateBall(E1.coords, 1.0), params=params)
        assert ei.value.best_w is not None
        assert ei.value.residual is not None

    @pytest.mark.parametrize("loss", [TQ, EXP, LOGI], ids=lambda l: l.name)
    def test_never_worse_than_projected_gradient(self, loss):
        rng = np.random.default_rng(15)
        for R in (0.4, 1.0):
            for k in range(1, 9):
                w_k = normalize(rng.standard_normal(2)).coords
                X, y = band_data(rng, 500, w_k, 2.0**-k)
                ball = SurrogateBall(R * w_k, R * 2.0**-k)
                try:
                    old = _reference_pg(loss, X, y, ball)
                except MaxItersExceeded as exc:
                    old = exc.best_w
                new = solvers.minimize_in_ball(loss, X, y, ball)
                f_old = surrogate_objective(loss, old, (X, y))
                assert surrogate_objective(loss, new, (X, y)) <= f_old + 1e-12 * (1.0 + abs(f_old))
                g = surrogate_gradient(loss, new, (X, y))
                assert (np.linalg.norm(new - project_to_ball(new - g, ball))
                        <= ConvexSolverParams().grad_tol * (1.0 + np.linalg.norm(g)))

    def test_one_newton_step_solves_a_quadratic(self, monkeypatch):
        # with R = 0.4 every margin stays below 1, where the truncated
        # quadratic is exactly quadratic: one step, then the stopping check
        calls = []
        gradient = solvers.surrogate_gradient
        monkeypatch.setattr(solvers, "surrogate_gradient",
                            lambda *args: calls.append(1) or gradient(*args))
        rng = np.random.default_rng(16)
        for k in range(1, 9):
            w_k = normalize(rng.standard_normal(2)).coords
            X, y = band_data(rng, 500, w_k, 2.0**-k)
            ball = SurrogateBall(0.4 * w_k, 0.4 * 2.0**-k)
            calls.clear()
            solvers.minimize_in_ball(TQ, X, y, ball)
            assert len(calls) <= 3

    def test_backtrack_tames_newton_overshoot(self):
        # two opposite labels on one point: the logistic objective is
        # log(2 + 2 cosh w1), minimized at w1 = 0, and the undamped Newton
        # step w1 - sinh(w1) overshoots from |w1| > 2.2 on, so full steps
        # would bounce between the ball's ends at w1 = -5 and 15
        X = np.array([[1.0, 0.0], [1.0, 0.0]])
        y = np.array([1.0, -1.0])
        ball = SurrogateBall(np.array([5.0, 1.0]), 10.0)
        w = solvers.minimize_in_ball(LOGI, X, y, ball)
        np.testing.assert_allclose(w, [0.0, 1.0], atol=1e-8)

    def test_needs_second_derivative(self):
        loss = dataclasses.replace(TQ, phi_second=None)
        with pytest.raises(LossSpecError):
            solvers.minimize_in_ball(loss, np.eye(2), np.ones(2), SurrogateBall(E1.coords, 1.0))

    def test_initial_step_at_most_one(self):
        assert ConvexSolverParams(initial_step=1.0).initial_step == 1.0
        for bad in (0.0, 1.5, 2.0):
            with pytest.raises(ValueError, match="initial_step"):
                ConvexSolverParams(initial_step=bad)


def assert_kkt(H, b, rho, z, mu):
    """(H + μI)z = -b, μ >= 0, ||z|| <= rho and μ(rho - ||z||) = 0: optimal for PSD H."""
    size = np.linalg.norm(z)
    assert size <= rho * (1.0 + 1e-12)
    assert mu >= 0.0
    scale = (np.linalg.norm(H, 2) + mu) * size + np.linalg.norm(b)
    assert np.linalg.norm(H @ z + mu * z + b) <= 1e-12 * scale
    assert mu * abs(rho - size) <= 1e-12 * mu * rho


def psd(rng, eigenvalues):
    """A symmetric matrix with the given spectrum and random eigenvectors."""
    d = len(eigenvalues)
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    H = (Q * np.asarray(eigenvalues, dtype=float)) @ Q.T
    return (H + H.T) / 2.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestBallQP:
    def test_interior_newton_point(self):
        rng = np.random.default_rng(20)
        for d in (2, 3, 10):
            H = psd(rng, rng.uniform(1.0, 10.0, d))
            b = rng.standard_normal(d)
            rho = 2.0 * np.linalg.norm(np.linalg.solve(H, b))
            z, mu = solvers._ball_qp(H, b, rho)
            assert mu == 0.0
            np.testing.assert_allclose(z, -np.linalg.solve(H, b), rtol=1e-12, atol=1e-15)
            assert_kkt(H, b, rho, z, mu)

    def test_boundary_optimum(self):
        rng = np.random.default_rng(21)
        for d in (2, 3, 10):
            H = psd(rng, rng.uniform(1.0, 10.0, d))
            b = rng.standard_normal(d)
            rho = 0.5 * np.linalg.norm(np.linalg.solve(H, b))
            z, mu = solvers._ball_qp(H, b, rho)
            assert mu > 0.0
            assert np.linalg.norm(z) == pytest.approx(rho, rel=1e-14)
            assert_kkt(H, b, rho, z, mu)

    def test_zero_hessian(self):
        rng = np.random.default_rng(22)
        for d in (2, 3, 10):
            b = rng.standard_normal(d)
            z, mu = solvers._ball_qp(np.zeros((d, d)), b, 0.3)
            np.testing.assert_allclose(z, -0.3 * b / np.linalg.norm(b), rtol=1e-14)
            assert mu == pytest.approx(np.linalg.norm(b) / 0.3, rel=1e-14)
            assert_kkt(np.zeros((d, d)), b, 0.3, z, mu)
            # no curvature and no slope: every point is optimal, the least is zero
            z, mu = solvers._ball_qp(np.zeros((d, d)), np.zeros(d), 10.0)
            assert mu == 0.0 and not z.any()

    def test_rank_one_hard_case(self):
        # b along H's range with the pseudo-inverse point inside the ball: the
        # minimizers form a disc across the null space, whose center is returned
        rng = np.random.default_rng(23)
        for d in (2, 3, 10):
            a = rng.standard_normal(d)
            H = np.outer(a, a)
            b = 0.5 * a
            inner = -b / (a @ a)
            rho = 4.0 * np.linalg.norm(inner)
            z, mu = solvers._ball_qp(H, b, rho)
            assert mu == 0.0
            np.testing.assert_allclose(z, inner, rtol=1e-12, atol=1e-15)
            assert_kkt(H, b, rho, z, mu)
            # a part of b across the null space takes the answer to the sphere
            t = rng.standard_normal(d)
            t -= (t @ a) / (a @ a) * a
            z, mu = solvers._ball_qp(H, b + 1e-3 * t, rho)
            assert mu > 0.0
            assert_kkt(H, b + 1e-3 * t, rho, z, mu)

    @pytest.mark.parametrize("cond", [1e4, 1e6, 1e8, 1e10, 1e12])
    def test_ill_conditioned(self, cond):
        rng = np.random.default_rng(int(math.log10(cond)))
        for d in (2, 3, 10):
            H = psd(rng, np.geomspace(1000.0 / cond, 1000.0, d))
            for _ in range(20):
                b = rng.standard_normal(d) * 10.0 ** rng.uniform(-6, 2)
                rho = 10.0 ** rng.uniform(-4, 1)
                z, mu = solvers._ball_qp(H, b, rho)
                assert_kkt(H, b, rho, z, mu)


class TestErmZeroOne2d:
    def test_single_example_full_circle(self):
        data = (np.array([[0.3, 0.7]]), np.array([1.0]))
        w = erm_zero_one_2d(data, E1, 2.0)
        assert zero_one_objective(w, data) == 0

    def test_separable_set_in_arc(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((10, 2))
        w_star = normalize([0.9, 0.1])
        y = np.sign(X @ w_star.coords)
        y[y == 0] = 1.0
        w = erm_zero_one_2d((X, y), E1, 1.0)
        assert zero_one_objective(w, (X, y)) == 0

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(8)
        for trial in range(30):
            X = rng.standard_normal((50, 2))
            probs = 1.0 / (1.0 + np.exp(-3.0 * X[:, 0]))
            y = np.where(rng.random(50) < probs, 1.0, -1.0)
            w_k = normalize(rng.standard_normal(2))
            r_k = [2.0, 1.0, 0.5][trial % 3]
            w = erm_zero_one_2d((X, y), w_k, r_k)
            assert zero_one_objective(w, (X, y)) == grid_oracle_min(X, y, w_k, r_k)

    def test_result_feasible(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((20, 2))
        y = np.sign(rng.standard_normal(20))
        for r_k in (1.0, 0.5, 0.25):
            w = erm_zero_one_2d((X, y), E1, r_k)
            assert angle(w, E1) <= 2 * math.asin(r_k / 2) + 1e-9

    def test_bitwise_equal_to_reference_sweep(self):
        rng = np.random.default_rng(11)
        cases = 0
        for r_k in (2.0, 1.0, 0.5, 0.25):
            for n in (1, 2, 50, 4096):
                for labels in ("noisy", "all-correct", "all-wrong"):
                    for rounded in (False, True):
                        for _ in range(4):
                            X = rng.standard_normal((n, 2))
                            if rounded:  # many instances share a critical angle
                                X = np.round(X, 1)
                            w_star = normalize(rng.standard_normal(2))
                            y = np.sign(X @ w_star.coords)
                            y[y == 0] = 1.0
                            if labels == "noisy":
                                y[rng.random(n) < 0.2] *= -1.0
                            elif labels == "all-wrong":
                                y = -y
                            w_k = normalize(rng.standard_normal(2))
                            got = erm_zero_one_2d((X, y), w_k, r_k)
                            want = _reference_sweep((X, y), w_k, r_k)
                            assert (got is w_k) == (want is w_k)
                            assert got.coords.tobytes() == want.coords.tobytes()
                            cases += 1
        assert cases >= 300

    def test_rejects_other_dimensions(self):
        with pytest.raises(ValueError):
            erm_zero_one_2d((np.zeros((3, 3)), np.ones(3)), normalize([1, 0, 0]), 1.0)

    @pytest.mark.parametrize("solve", [erm_zero_one_2d, erm_zero_one_search],
                             ids=lambda f: f.__name__)
    def test_intermediate_radius_rejected(self, solve):
        # the hypothesis ball has no arc form for radii in (1, 2)
        with pytest.raises(UnsupportedRadius):
            solve((np.array([[1.0, 0.0]]), np.ones(1)), E1, 1.5)


class TestErmZeroOneSearch:
    def test_never_worse_than_center(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((40, 4))
        y = np.sign(rng.standard_normal(40))
        w_k = normalize(rng.standard_normal(4))
        w = erm_zero_one_search((X, y), w_k, 0.5, restarts=0, rng=np.random.default_rng(0))
        assert zero_one_objective(w, (X, y)) <= zero_one_objective(w_k, (X, y))

    def test_matches_exact_in_2d(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            X = rng.standard_normal((50, 2))
            probs = 1.0 / (1.0 + np.exp(-4.0 * X[:, 0]))
            y = np.where(rng.random(50) < probs, 1.0, -1.0)
            w_k = normalize(rng.standard_normal(2))
            exact = zero_one_objective(erm_zero_one_2d((X, y), w_k, 1.0), (X, y))
            found = zero_one_objective(
                erm_zero_one_search((X, y), w_k, 1.0, restarts=64, rng=np.random.default_rng(1)),
                (X, y),
            )
            assert found == exact

    def test_separable_wide_margin_d5(self):
        rng = np.random.default_rng(12)
        w_star = normalize(np.ones(5))
        X = rng.standard_normal((60, 5))
        margins = X @ w_star.coords
        X += np.outer(np.sign(margins), w_star.coords)  # push away from the boundary
        y = np.sign(X @ w_star.coords)
        w = erm_zero_one_search((X, y), w_star, 1.0, restarts=64, rng=np.random.default_rng(2))
        assert zero_one_objective(w, (X, y)) == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bitwise_equal_to_reference_search(self):
        rng = np.random.default_rng(14)
        cases = 0
        for d, r_k, n, restarts, on_axis, data in itertools.product(
            (3, 4, 10), (2.0, 1.0, 0.5, 0.0625), (1, 40, 500), (0, 1, 8),
            (False, True), ("raw", "rounded", "orthogonal"),
        ):
            if on_axis:  # tangents of zero norm along the center's axis
                w_k = normalize(np.eye(d)[rng.integers(d)] * rng.choice([-1.0, 1.0]))
            else:
                w_k = normalize(rng.standard_normal(d))
            X = rng.standard_normal((n, d))
            if data == "rounded":  # ties and margins of exactly zero
                X = np.round(X, 1)
            elif data == "orthogonal":
                # rows orthogonal to the first candidate of w_k's refine, so
                # its margins are rounding noise whose sign depends on the
                # order of summation
                wc = w_k.coords
                i = 1 if abs(wc[0]) == 1.0 else 0
                t = -wc[i] * wc
                t[i] += 1.0
                t /= np.linalg.norm(t)
                step = (math.pi if r_k == 2.0 else 2.0 * math.asin(r_k / 2.0)) / 4.0
                c = math.cos(step) * wc + math.sin(step) * t
                c /= np.linalg.norm(c)
                X -= np.outer(X @ c, c)
            y = np.sign(X @ rng.standard_normal(d))
            y[y == 0] = 1.0
            y[rng.random(n) < 0.2] *= -1.0
            seed = int(rng.integers(2**32))
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = erm_zero_one_search((X, y), w_k, r_k, restarts=restarts, rng=got_rng)
            want = _reference_search((X, y), w_k, r_k, restarts, want_rng)
            assert got.coords.tobytes() == want.coords.tobytes()
            assert got_rng.bit_generator.state == want_rng.bit_generator.state
            cases += 1
        assert cases >= 300

    def test_search_feasible(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((30, 3))
        y = np.sign(rng.standard_normal(30))
        w_k = normalize([1.0, 0.0, 0.0])
        w = erm_zero_one_search((X, y), w_k, 0.25, restarts=16, rng=np.random.default_rng(3))
        assert angle(w, w_k) <= 2 * math.asin(0.125) + 1e-9
