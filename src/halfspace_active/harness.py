"""Experiment orchestration: label-complexity curves and verification suites.

Everything here is driven by one master seed through named substreams, so
every number in the output files is reproducible.  Results are exported
as newline-delimited run records plus two CSVs (the curve and the check
table); medians rather than means summarize over seeds because failure
runs at small budgets are heavy-tailed.
"""

from __future__ import annotations

import csv
import functools
import io
import logging
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from . import data_models as dm
from .data_models import (
    DataModel,
    _linfit,
    exact_surrogate_risk,
    label_batch,
    sample_unlabeled,
    stack_examples,
)
from .driver import (
    ConvexUpdate,
    FinitePool,
    RunRecord,
    ScheduleParams,
    ZeroOneUpdate,
    epochs_for_target,
    passive_prefix,
    run_active,
    run_passive,
)
from .errors import ConfigError, HalfspaceActiveError
from .geometry import (
    FULL_RADIUS,
    HypothesisBall,
    _norm,
    angle,
    disagreement_exists_oracle,
    normalize,
    query_mask,
    should_query,
)
from .losses import (
    SurrogateLoss,
    exponential_loss,
    psi,
    psi_numeric,
    truncated_quadratic_loss,
)
from .solvers import surrogate_gradient, surrogate_objective
from .streams import substream

__all__ = [
    "ExperimentConfig",
    "CurvePoint",
    "CurveResult",
    "CurveFits",
    "CheckRow",
    "label_complexity_curve",
    "curve_fits",
    "empirical_process_gap_profile",
    "angle_disagreement_report",
    "check_query_rule_equivalence",
    "check_psi_transform",
    "check_sphere_identity",
    "check_gaussian_lower_bound",
    "check_gradient_finite_difference",
    "check_concentration_scaling",
    "export_results",
    "CURVE_HEADER",
    "CHECKS_HEADER",
]

CURVE_HEADER = [
    "epsilon",
    "labels_active_med", "labels_active_q1", "labels_active_q3",
    "labels_passive_med", "labels_passive_q1", "labels_passive_q3",
    "censored",
]
CHECKS_HEADER = ["check_name", "parameter", "observed", "bound_or_target", "sigma", "pass"]

logger = logging.getLogger(__name__)

# Entries of the (n, candidates) margin matrix that the gap profile holds at once.
# At 2^16 a block's temporaries, after the sphere suite's frees, passed glibc's
# heap-trim threshold, so every block faulted its pages in afresh.
_MARGIN_BLOCK = 1 << 15
# Instance rows the query-rule check draws for each center.
_QUERY_RULE_BLOCK = 256
# Rows of each block, nearest the arc's edge, that also go through the scalar pair.
_QUERY_RULE_SPOT = 4


@dataclass(frozen=True)
class ExperimentConfig:
    """One label-complexity experiment: model, updates, schedule, targets."""

    model: DataModel
    update: ZeroOneUpdate | ConvexUpdate
    schedule: ScheduleParams
    epsilons: tuple[float, ...]
    seeds: tuple[int, ...]
    passive_update: ZeroOneUpdate | ConvexUpdate | None = None
    passive_cap: int = 200_000

    def __post_init__(self):
        if len(self.seeds) < 1:
            raise ConfigError("need at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must be distinct: a repeat counts one run twice")
        if self.passive_cap < 1:
            raise ConfigError(f"passive_cap must be at least 1, got {self.passive_cap!r}")
        eps = tuple(float(e) for e in self.epsilons)
        if not eps:
            raise ConfigError("need at least one epsilon target")
        if any(not 0.0 < e < 2.0 for e in eps):
            raise ConfigError("epsilon targets must lie in (0, 2)")
        if list(eps) != sorted(eps, reverse=True) or len(set(eps)) != len(eps):
            raise ConfigError("epsilon targets must be strictly decreasing")
        object.__setattr__(self, "epsilons", eps)
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))


@dataclass(frozen=True)
class CurvePoint:
    epsilon: float
    labels_active_med: float
    labels_active_q1: float
    labels_active_q3: float
    labels_passive_med: float
    labels_passive_q1: float
    labels_passive_q3: float
    censored: bool


@dataclass(frozen=True)
class CurveResult:
    points: tuple[CurvePoint, ...]
    # every passive probe: (n_total, final chord error per seed); shared across
    # targets and reused by the bootstrap so no probe is ever recomputed
    passive_errors: tuple[tuple[int, tuple[float, ...]], ...]
    records: tuple[RunRecord, ...]  # active runs backing the points


@dataclass(frozen=True)
class CheckRow:
    check_name: str
    parameter: str
    observed: float
    bound_or_target: str
    sigma: float
    passed: bool


def _quartiles(values) -> tuple[float, float, float]:
    arr = np.asarray(values, dtype=float)
    return (
        float(np.median(arr)),
        float(np.percentile(arr, 25)),
        float(np.percentile(arr, 75)),
    )


# ---------------------------------------------------------------------------
# Label-complexity curve
# ---------------------------------------------------------------------------


class _PassiveProbe:
    """Caches passive runs: one probe evaluates every seed at a given n_total.

    A passive run at n_total labels the first n_total rows of its seed's
    stream, so each seed's stream is drawn and labelled once, as a pool,
    and every probe fits a prefix of it.  A pool is redrawn, longer, only
    when a probe needs more rows than it holds.
    """

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.update = config.passive_update if config.passive_update is not None else config.update
        self.w_bar = config.model.w_bar.coords
        self.cache: dict[int, np.ndarray] = {}
        self.pools: dict[int, FinitePool] = {}

    def run(self, seed: int, n: int) -> RunRecord:
        pool = self.pools.get(seed)
        if pool is None or pool.X.shape[0] < n:
            pool = self.pools[seed] = passive_prefix(self.config.model, n, seed)
        return run_passive(pool, self.update, n, seed=seed)

    def errors(self, n: int) -> np.ndarray:
        if n not in self.cache:
            self.cache[n] = np.asarray([
                _norm(np.asarray(self.run(seed, n).final_w) - self.w_bar)
                for seed in self.config.seeds
            ])
        return self.cache[n]

    def statistic(self, n: int, percentile: float) -> float:
        return float(np.percentile(self.errors(n), percentile))

    def rows_held(self) -> int:
        return sum(pool.X.shape[0] for pool in self.pools.values())

    def bytes_held(self) -> tuple[int, int]:
        """(bytes of the pools' rows, labels and sweep tables, bytes of the tables alone)."""
        tables = sum(pool._table.nbytes for pool in self.pools.values() if pool._table is not None)
        return tables + sum(pool.X.nbytes + pool.y.nbytes for pool in self.pools.values()), tables


def _bisect_labels(probe: _PassiveProbe, epsilon: float, percentile: float, cap: int) -> int:
    """Smallest n_total <= cap whose seed-percentile error is <= epsilon.

    Doubling from min(8, cap), never above the cap, then bisection from
    half the last probe, or from 1 when the first probe meets epsilon;
    the statistic is only statistically monotone in n, so this is the
    usual practical approximation.  Returns the cap itself when even the
    cap fails (callers treat that as censored).
    """
    hi, lo = min(8, cap), 1
    while probe.statistic(hi, percentile) > epsilon:
        if hi >= cap:
            return cap
        hi = min(2 * hi, cap)
        lo = max(1, hi // 2)
    while lo < hi:
        mid = (lo + hi) // 2
        if probe.statistic(mid, percentile) <= epsilon:
            hi = mid
        else:
            lo = mid + 1
    return hi


def _head(run: RunRecord | None, schedule: ScheduleParams, m: int) -> RunRecord | None:
    """run_active(..., m=m)'s record, read off the first m epochs of a longer
    ``run`` of the same seed; None when there is no such run or when m epochs
    budget differently.

    A run depends on m only through its budgets, replace(schedule,
    m=m).budget(k), so where those equal the long run's n_k for k <= m, its
    first m epochs are the m-epoch run's, and that run's final vector is the
    long run's w_k of epoch m + 1.  The theory modes put m into their budgets,
    so they mostly get None.
    """
    if run is None or m == len(run.epochs):
        return run
    try:
        budgets = replace(schedule, m=m)
        if any(budgets.budget(e.k) != e.n_k for e in run.epochs[:m]):
            return None
    except (HalfspaceActiveError, ValueError):
        return None  # the m-epoch run meets this error itself
    epochs = run.epochs[:m]
    return replace(run, epochs=epochs, final_w=run.epochs[m].w_k,
                   total_labels=sum(e.labels for e in epochs))


def label_complexity_curve(config: ExperimentConfig, config_digest: str = "") -> CurveResult:
    """Active labels at the schedule vs. passive labels needed, per target.

    The active arm runs the epoch loop with m = ceil(log2(2/eps)).  Each
    seed's loop runs once, at the deepest target's m, and a shallower target
    reads its record off that run's first m epochs when their budgets agree
    (see _head); otherwise, and after a failed deep run, the target runs its
    own m epochs.  The passive arm bisects for the smallest plain-ERM sample
    size whose median error over the seeds reaches the same accuracy
    (quartile bisections give the IQR; a point whose median search hits the
    cap is censored).  Each active run's record carries ``config_digest``.
    """
    points, records = [], []
    probe = _PassiveProbe(config)
    deepest = max(map(epochs_for_target, config.epsilons))
    run = functools.partial(run_active, config.model, config.update, config.schedule,
                            config_digest=config_digest)
    deep_runs: dict[int, RunRecord | None] = {}

    def active(seed: int, m: int) -> RunRecord:
        if seed not in deep_runs:
            try:
                deep_runs[seed] = run(m=deepest, seed=seed)
            except (HalfspaceActiveError, ValueError):
                deep_runs[seed] = None  # each target reruns, and fails, as it would alone
        head = _head(deep_runs[seed], config.schedule, m)
        return run(m=m, seed=seed) if head is None else head

    for eps in config.epsilons:
        m = epochs_for_target(eps)
        labels = []
        for seed in config.seeds:
            rec = active(seed, m)
            records.append(rec)
            labels.append(rec.total_labels)
        cap = config.passive_cap
        lp_med = _bisect_labels(probe, eps, 50.0, cap)
        censored = lp_med >= cap and probe.statistic(cap, 50.0) > eps
        # lower-quartile error crosses earlier, so it bounds the IQR below
        lp_q1 = _bisect_labels(probe, eps, 25.0, cap)
        lp_q3 = _bisect_labels(probe, eps, 75.0, cap)
        logger.info(
            "epsilon=%r: %d passive probes evaluated so far, %d stream rows held over %d seeds "
            "in %d bytes, %d of them sweep tables",
            eps, len(probe.cache), probe.rows_held(), len(probe.pools), *probe.bytes_held(),
        )
        la = _quartiles(labels)
        points.append(
            CurvePoint(
                epsilon=eps,
                labels_active_med=la[0], labels_active_q1=la[1], labels_active_q3=la[2],
                labels_passive_med=float(lp_med),
                labels_passive_q1=float(lp_q1),
                labels_passive_q3=float(lp_q3),
                censored=censored,
            )
        )
    passive_errors = tuple(
        (n, tuple(map(float, probe.cache[n]))) for n in sorted(probe.cache)
    )
    return CurveResult(
        points=tuple(points),
        passive_errors=passive_errors,
        records=tuple(records),
    )


@dataclass(frozen=True)
class CurveFits:
    """Trend fits: active labels vs log(1/eps), passive labels log-log."""

    active_slope: float
    active_intercept: float
    active_r2: float
    passive_slope: float
    passive_intercept: float
    passive_r2: float
    passive_slope_ci: tuple[float, float]


def curve_fits(result: CurveResult, bootstrap: int = 500, seed: int = 0) -> CurveFits:
    """Fit both label-complexity trends, with a bootstrap CI on the passive slope.

    The bootstrap resamples seeds (the passive per-seed label needs are
    kept in the result exactly for this) and refits the median curve.
    Censored points are excluded from the passive fit.
    """
    pts = result.points
    x = np.log(1.0 / np.array([p.epsilon for p in pts]))
    y_act = np.array([p.labels_active_med for p in pts])
    a_slope, a_inter, a_r2 = _linfit(x, y_act)

    keep = [i for i, p in enumerate(pts) if not p.censored]
    if len(keep) < 2:
        raise ConfigError("fewer than two uncensored passive points; cannot fit")
    xk = x[keep]
    y_pas = np.log(np.array([pts[i].labels_passive_med for i in keep]))
    p_slope, p_inter, p_r2 = _linfit(xk, y_pas)

    # bootstrap over seeds, re-reading the cached probe grid: for each
    # resample, the label need at epsilon is the smallest probed n whose
    # resampled median error crosses it
    grid = np.array([n for n, _ in result.passive_errors], dtype=float)
    errs = np.array([e for _, e in result.passive_errors], dtype=float)  # (grid, seeds)
    eps_kept = np.array([pts[i].epsilon for i in keep])
    rng = substream(seed, "curve-bootstrap")
    n_seeds = errs.shape[1]
    slopes = np.empty(bootstrap)
    for b in range(bootstrap):
        idx = rng.integers(0, n_seeds, size=n_seeds)
        med = np.median(errs[:, idx], axis=1)
        needs_b = np.empty(eps_kept.shape[0])
        for j, eps in enumerate(eps_kept):
            ok = med <= eps
            needs_b[j] = grid[np.nonzero(ok)[0][0]] if np.any(ok) else grid[-1]
        slopes[b] = np.polyfit(xk, np.log(needs_b), 1)[0]
    ci = (float(np.percentile(slopes, 2.5)), float(np.percentile(slopes, 97.5)))
    return CurveFits(
        active_slope=a_slope, active_intercept=a_inter, active_r2=a_r2,
        passive_slope=p_slope, passive_intercept=p_inter, passive_r2=p_r2,
        passive_slope_ci=ci,
    )


# ---------------------------------------------------------------------------
# Concentration-scaling experiment
# ---------------------------------------------------------------------------


def empirical_process_gap_profile(
    loss: SurrogateLoss,
    model: DataModel,
    radii,
    n: int,
    trials: int,
    candidates: int,
    rng: np.random.Generator,
) -> dict[float, float]:
    """Trial-mean approximate sup of |empirical - expected| risk difference.

    The sup over {w : ||w - w*|| <= r} is approximated by sampled
    candidates, half on the boundary sphere and half inside; radii are
    processed in ascending order with a cumulative candidate pool, so
    within each trial the gap is non-decreasing in r by construction
    (sup over nested sets), which is asserted.
    """
    radii = sorted(float(r) for r in radii)
    if not radii or radii[0] <= 0:
        raise ValueError("radii must be positive")
    if candidates < 2 or trials < 1:
        raise ValueError("need at least 2 candidates and 1 trial")
    w_star = model.w_star
    d = model.dimension
    base = exact_surrogate_risk(model, loss, w_star)
    step = max(1, _MARGIN_BLOCK // n)  # candidates per margin block
    sums = {r: 0.0 for r in radii}
    for _ in range(trials):
        X = sample_unlabeled(model, n, rng)
        y = label_batch(model, X, rng)
        emp_star = float(np.mean(loss.phi(y * (X @ w_star))))
        sup = 0.0
        prev = 0.0
        for r in radii:
            dirs = rng.standard_normal((candidates, d))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            n_boundary = candidates // 2
            radial = np.concatenate([
                np.ones(n_boundary),
                rng.random(candidates - n_boundary) ** (1.0 / d),
            ])
            W = w_star[None, :] + r * radial[:, None] * dirs
            expected = exact_surrogate_risk(model, loss, W) - base
            empirical = np.concatenate([
                np.mean(loss.phi(y[:, None] * (X @ W[i:i + step].T)), axis=0)
                for i in range(0, candidates, step)
            ]) - emp_star
            sup = max(sup, float(np.max(np.abs(empirical - expected))))
            assert sup >= prev, "gap must be non-decreasing in r within a trial"
            prev = sup
            sums[r] += sup
    return {r: s / trials for r, s in sums.items()}


# ---------------------------------------------------------------------------
# Inequality report and check suites
# ---------------------------------------------------------------------------


def angle_disagreement_report(
    model: DataModel, pair_count: int, n_mc: int, rng: np.random.Generator
) -> list[CheckRow]:
    """Angle-vs-disagreement checks for random hypothesis pairs.

    Sphere marginal: the disagreement probability must equal θ/π within
    3σ.  Gaussian marginal: θ/π must lower-bound it within 3σ (the
    log-concave constant 1/π is exact there too, so this is conservative).
    """
    rows = []
    sphere = model.marginal == "uniform-sphere"
    name = "sphere-identity" if sphere else "gaussian-lower-bound"
    for i in range(pair_count):
        u = normalize(rng.standard_normal(model.dimension))
        v = normalize(rng.standard_normal(model.dimension))
        exact = angle(u, v) / math.pi
        est = dm.disagreement_probability(model, u, v, n_mc=n_mc, rng=rng)
        slack = 3.0 * est.std_error
        if sphere:
            passed = abs(est.mean - exact) <= slack + 1e-12
        else:
            passed = exact <= est.mean + slack + 1e-12
        rows.append(
            CheckRow(
                check_name=name,
                parameter=f"pair{i:02d}",
                observed=est.mean,
                bound_or_target=repr(exact),
                sigma=est.std_error,
                passed=bool(passed),
            )
        )
    return rows


def _arc_query_mask(X: np.ndarray, ball: HypothesisBall) -> tuple[np.ndarray, np.ndarray]:
    """Arc form of the query rule over the rows of X, and each row's distance from the edge.

    θ is the arccos of the clipped cosine between the row and the center; a
    row queries when |θ - π/2| <= ball.half_angle (ties query, and every row
    does at r = 2, where the half angle is π).  Independent of the margin
    code that ``query_mask`` runs.
    """
    cos = (X / np.linalg.norm(X, axis=1, keepdims=True)) @ ball.center.coords
    off = np.abs(np.arccos(np.clip(cos, -1.0, 1.0)) - math.pi / 2.0)
    return off <= ball.half_angle, np.abs(off - ball.half_angle)


def check_query_rule_equivalence(*, total: int, seed: int) -> list[CheckRow]:
    """Margin rule vs. arc oracle on random (x, w, r): agreement must be exact.

    Each block draws a center, then its instance rows, and compares
    ``query_mask`` with the batched arc oracle on every row.  The rows
    nearest the arc's edge, where rounding could split the two forms (the
    first rows at r = 2), also go through the scalar ``should_query`` and
    ``disagreement_exists_oracle``.  A row agrees only if every verdict
    taken on it does.
    """
    dims, radii = (2, 3, 10), (2.0, 1.0, 0.5, 0.25, 0.125)
    rng = substream(seed, "query-rule-equivalence")
    per_cell = max(1, total // (len(dims) * len(radii)))
    rows = []
    for d in dims:
        for r in radii:
            agree = 0
            for start in range(0, per_cell, _QUERY_RULE_BLOCK):
                ball = HypothesisBall(normalize(rng.standard_normal(d)), r)
                X = rng.standard_normal((min(_QUERY_RULE_BLOCK, per_cell - start), d))
                mask = query_mask(X, ball)
                arc, edge = _arc_query_mask(X, ball)
                ok = mask == arc
                spot = range(len(X)) if r == FULL_RADIUS else np.argsort(edge)
                for i in spot[:_QUERY_RULE_SPOT]:
                    margin, arc_i = should_query(X[i], ball), disagreement_exists_oracle(X[i], ball)
                    ok[i] &= margin == arc_i == mask[i]
                agree += int(np.count_nonzero(ok))
            rows.append(
                CheckRow(
                    check_name="query-rule-equivalence",
                    parameter=f"d={d},r={r}",
                    observed=agree / per_cell,
                    bound_or_target="1.0",
                    sigma=0.0,
                    passed=agree == per_cell,
                )
            )
    return rows


def check_psi_transform() -> list[CheckRow]:
    """Closed-form ψ vs. the numeric double infimum, plus the z²/2 minorant."""
    tol = 1e-6
    grid = [round(0.05 * i, 2) for i in range(1, 20)]
    rows = []
    for loss in (exponential_loss(), truncated_quadratic_loss()):
        worst = max(abs(psi(loss, z) - psi_numeric(loss, z)) for z in grid)
        rows.append(
            CheckRow(
                check_name="psi-closed-vs-numeric",
                parameter=loss.name,
                observed=worst,
                bound_or_target=repr(tol),
                sigma=0.0,
                passed=worst <= tol,
            )
        )
    exp = exponential_loss()
    minorant_ok = all(psi(exp, z) >= z * z / 2.0 for z in grid)
    rows.append(
        CheckRow(
            check_name="psi-exponential-minorant",
            parameter="z^2/2",
            observed=float(minorant_ok),
            bound_or_target="1.0",
            sigma=0.0,
            passed=minorant_ok,
        )
    )
    return rows


def _pair_model(marginal: str, d: int) -> DataModel:
    w = np.zeros(d)
    w[0] = 1.0
    return DataModel(d, marginal, "powered-margin", w, kappa=1.0)


def check_sphere_identity(*, pairs: int, n_mc: int, seed: int) -> list[CheckRow]:
    rows = []
    for d in (2, 5):
        rng = substream(seed, "sphere-identity", d)
        model = _pair_model("uniform-sphere", d)
        for row in angle_disagreement_report(model, pairs, n_mc, rng):
            rows.append(replace(row, parameter=f"d={d},{row.parameter}"))
    return rows


def check_gaussian_lower_bound(*, pairs: int, n_mc: int, seed: int) -> list[CheckRow]:
    d = 10
    rng = substream(seed, "gaussian-lower", d)
    model = _pair_model("gaussian", d)
    return [
        replace(row, parameter=f"d={d},{row.parameter}")
        for row in angle_disagreement_report(model, pairs, n_mc, rng)
    ]


def check_gradient_finite_difference(*, triples: int, seed: int) -> list[CheckRow]:
    """Analytic surrogate gradient vs. central differences on random data.

    Margins within h of the truncated-quadratic kink are nudged away;
    the derivative check is only meaningful where φ' exists.
    """
    rng = substream(seed, "gradient-fd")
    losses_pool = (exponential_loss(), truncated_quadratic_loss())
    h, tol = 1e-6, 1e-5
    worst = 0.0
    for _ in range(triples):
        loss = losses_pool[int(rng.integers(len(losses_pool)))]
        d = int(rng.integers(2, 6))
        n = int(rng.integers(5, 40))
        X = rng.standard_normal((n, d))
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        w = rng.standard_normal(d) * 0.5
        margins = y * (X @ w)
        near_kink = np.abs(margins - 1.0) < 1e-4
        if np.any(near_kink):
            X[near_kink] *= 1.01
        data = stack_examples((X, y))
        g = surrogate_gradient(loss, w, data)
        fd = np.empty(d)
        for i in range(d):
            e = np.zeros(d)
            e[i] = h
            fd[i] = (
                surrogate_objective(loss, w + e, data) - surrogate_objective(loss, w - e, data)
            ) / (2.0 * h)
        rel = _norm(g - fd) / max(1.0, _norm(g))
        worst = max(worst, rel)
    return [
        CheckRow(
            check_name="gradient-finite-difference",
            parameter=f"{triples}-triples",
            observed=worst,
            bound_or_target=repr(tol),
            sigma=0.0,
            passed=worst <= tol,
        )
    ]


def check_concentration_scaling(*, trials: int, n: int, candidates: int, seed: int) -> list[CheckRow]:
    """Gap ratios under radius doubling and sample quadrupling.

    The bound predicts gap ∝ r/√n, so both ratios target 2; the band is
    wide because the sup is approximated by candidate sampling.
    """
    r = 0.4
    model = DataModel(2, "uniform-sphere", "affine", np.array([0.8, 0.0]))
    loss = truncated_quadratic_loss()
    prof = empirical_process_gap_profile(
        loss, model, [r, 2 * r], n, trials, candidates, substream(seed, "th4-radius")
    )
    ratio_r = prof[2 * r] / prof[r]
    gap_small = empirical_process_gap_profile(
        loss, model, [r], n, trials, candidates, substream(seed, "th4-n-small")
    )[r]
    gap_large = empirical_process_gap_profile(
        loss, model, [r], 4 * n, trials, candidates, substream(seed, "th4-n-large")
    )[r]
    ratio_n = gap_small / gap_large
    lo, hi = 1.4, 2.8
    return [
        CheckRow(
            check_name="concentration-scaling",
            parameter=f"gap({2*r})/gap({r}),n={n}",
            observed=ratio_r,
            bound_or_target=f"[{lo},{hi}]",
            sigma=0.0,
            passed=lo <= ratio_r <= hi,
        ),
        CheckRow(
            check_name="concentration-scaling",
            parameter=f"gap(n={n})/gap(n={4*n}),r={r}",
            observed=ratio_n,
            bound_or_target=f"[{lo},{hi}]",
            sigma=0.0,
            passed=lo <= ratio_n <= hi,
        ),
    ]


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: str, header: list[str], rows, comment: str) -> None:
    buf = io.StringIO()
    buf.write(comment + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())


def export_results(
    records,
    curve: CurveResult | None,
    reports,
    out_dir: str,
    config_digest: str = "",
    master_seed: int = 0,
) -> dict[str, str]:
    """Write run_records.json, curve.csv, and checks.csv under out_dir.

    Outputs are byte-stable for fixed inputs; every file carries the
    config digest and master seed (JSON records as fields, CSVs as a
    leading comment).
    """
    os.makedirs(out_dir, exist_ok=True)
    comment = f"# config_digest={config_digest} master_seed={master_seed}"
    paths = {}

    records_path = os.path.join(out_dir, "run_records.json")
    with open(records_path, "w", encoding="utf-8", newline="") as fh:
        for rec in records:
            fh.write(rec.to_json_line() + "\n")
    paths["run_records"] = records_path

    curve_path = os.path.join(out_dir, "curve.csv")
    curve_rows = []
    if curve is not None:
        for p in curve.points:
            curve_rows.append([
                p.epsilon,
                p.labels_active_med, p.labels_active_q1, p.labels_active_q3,
                p.labels_passive_med, p.labels_passive_q1, p.labels_passive_q3,
                p.censored,
            ])
    _write_csv(curve_path, CURVE_HEADER, curve_rows, comment)
    paths["curve"] = curve_path

    checks_path = os.path.join(out_dir, "checks.csv")
    check_rows = [
        [r.check_name, r.parameter, r.observed, r.bound_or_target, r.sigma, r.passed]
        for r in reports
    ]
    _write_csv(checks_path, CHECKS_HEADER, check_rows, comment)
    paths["checks"] = checks_path
    return paths
