"""The epoch loop: collect the queried rows, label, fit, normalize, halve the radius.

Each run starts from a random unit vector with the whole sphere as its
hypothesis ball (radius 2, every instance queried), fits by the chosen
update on the labels collected that epoch, and halves the ball radius.
A finite pool is scanned in order; at r = 2, where every row is queried,
its epoch is the slice of its next n_k rows.  A model epoch at r = 2
scans fresh marginal draws; every narrower band draws its queried rows
directly from the marginal conditioned on the band, and draws the count
``scanned`` from its exact law instead of counting it, so the epoch
costs O(n_k) however narrow its band.  Budgets per epoch come from a
fixed/geometric schedule or from the theoretical formulas, which are
implemented for verification but are far too conservative for desk-scale
experiments.
"""

from __future__ import annotations

import functools
import json
import logging
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .data_models import (
    SUPPORTED_PAIRINGS,
    DataModel,
    _Examples,
    _check_labels,
    label_batch,
    sample_in_band,
    sample_unlabeled,
)
from .errors import DegenerateSolution, HalfspaceActiveError, ScheduleError, StreamExhausted
from .geometry import (
    FULL_RADIUS,
    HypothesisBall,
    UnitVector,
    _norm,
    chord_length,
    normalize,
    query_mask,
)
from .losses import SurrogateLoss
from .solvers import (
    SurrogateBall,
    _SweepTable,
    erm_zero_one_2d,
    erm_zero_one_search,
    minimize_in_ball,
)
from .streams import substream

__all__ = [
    "ScheduleParams",
    "ZeroOneUpdate",
    "ConvexUpdate",
    "EpochRecord",
    "RunRecord",
    "FinitePool",
    "radius_at",
    "epochs_for_target",
    "nk_nonconvex",
    "nk_convex",
    "sample_floor",
    "kappa_threshold",
    "total_label_bound",
    "run_active",
    "run_passive",
    "passive_prefix",
]

logger = logging.getLogger(__name__)

_SCAN_CHUNK = 4096


def radius_at(k: int) -> float:
    """Ball radius of epoch k: r_1 = 2, then exact halvings 2^(2-k)."""
    if k < 1:
        raise ValueError("epochs are numbered from 1")
    return 2.0 ** (2 - k)


def epochs_for_target(epsilon: float) -> int:
    """Epoch count guaranteeing r_{m+1} <= epsilon: ceil(log2(2/eps))."""
    if not 0.0 < epsilon < 2.0:
        raise ValueError("target accuracy must lie in (0, 2)")
    return math.ceil(math.log2(2.0 / epsilon))


# ---------------------------------------------------------------------------
# Label budgets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScheduleParams:
    """Per-epoch label budget specification.

    ``fixed`` uses n every epoch; ``geometric`` uses ceil(n0 * ratio^(k-1)).
    The two theory modes evaluate the label-budget formulas from the
    analysis; their constants are those of the excess-risk sandwich
    (ell/gamma pairs), the noise condition (mu, kappa), the disagreement
    coefficient at the target accuracy, and for the convex mode the loss
    constants (L, R, a, gamma).
    """

    mode: str
    n: int | None = None
    n0: float | None = None
    ratio: float | None = None
    mu: float = 1.0
    kappa: float = 1.0
    ell_minus: float = 1.0
    ell_plus: float = 1.0
    gamma_minus: float = 1.0
    gamma_plus: float = 1.0
    theta_eps: float = 1.0
    delta: float = 0.1
    d: int = 2
    m: int = 1
    L: float = 1.0
    R: float = 1.0
    a: float = 1.0
    gamma: float = 2.0
    floor_enabled: bool = False

    def __post_init__(self):
        modes = ("fixed", "geometric", "theory-nonconvex", "theory-convex")
        if self.mode not in modes:
            raise ScheduleError(f"unknown schedule mode {self.mode!r}; expected one of {modes}")
        if self.mode == "fixed":
            if self.n is None or self.n < 1:
                raise ScheduleError("fixed schedule needs n >= 1")
        elif self.mode == "geometric":
            if self.n0 is None or self.n0 < 1 or self.ratio is None or self.ratio <= 0:
                raise ScheduleError("geometric schedule needs n0 >= 1 and ratio > 0")
        else:
            positives = {
                "mu": self.mu, "ell_minus": self.ell_minus, "ell_plus": self.ell_plus,
                "gamma_plus": self.gamma_plus, "theta_eps": self.theta_eps,
                "L": self.L, "R": self.R, "a": self.a, "gamma": self.gamma,
            }
            for name, value in positives.items():
                if value <= 0:
                    raise ScheduleError(f"{name} must be positive, got {value!r}")
            if self.kappa < 1:
                raise ScheduleError("kappa must be at least 1")
            if self.gamma_minus < self.gamma_plus:
                raise ScheduleError("need gamma_minus >= gamma_plus")
            if not 0.0 < self.delta < 1.0:
                raise ScheduleError("delta must lie in (0, 1)")
            if self.m < 1 or self.d < 2:
                raise ScheduleError("need m >= 1 and d >= 2")

    def budget(self, k: int) -> int:
        if self.mode == "fixed":
            return int(self.n)
        if self.mode == "geometric":
            return max(1, math.ceil(self.n0 * self.ratio ** (k - 1)))
        if self.mode == "theory-nonconvex":
            return nk_nonconvex(k, self)
        return nk_convex(k, self)


def _checked_count(value: float, what: str) -> int:
    if not math.isfinite(value) or value <= 0:
        raise ScheduleError(f"{what} evaluated to {value!r}; parameters are inconsistent")
    return math.ceil(value)


def nk_nonconvex(k: int, s: ScheduleParams) -> int:
    """Epoch budget for the 0-1 update.

    2 c² θ²(ε) [log(4m/δ) + 2(d+1)(log 8 + 2 log(c θ(ε) / r^p))] r^(-2p)
    with p = γ₋ - γ₊/κ and c = μ ℓ₊^{1/κ} 2^{γ₀} / ℓ₋, γ₀ = 2 + γ₋ + γ₊/κ.
    """
    r = radius_at(k)
    gamma0 = 2.0 + s.gamma_minus + s.gamma_plus / s.kappa
    c = s.mu * s.ell_plus ** (1.0 / s.kappa) * 2.0**gamma0 / s.ell_minus
    p = s.gamma_minus - s.gamma_plus / s.kappa
    log_arg = c * s.theta_eps / r**p
    if not math.isfinite(log_arg) or log_arg <= 0:
        raise ScheduleError(f"log argument {log_arg!r} is not positive")
    bracket = math.log(4.0 * s.m / s.delta) + 2.0 * (s.d + 1) * (
        math.log(8.0) + 2.0 * math.log(log_arg)
    )
    value = 2.0 * c * c * s.theta_eps**2 * bracket * r ** (2.0 * (s.gamma_plus / s.kappa - s.gamma_minus))
    return _checked_count(value, "non-convex epoch budget")


def nk_convex(k: int, s: ScheduleParams) -> int:
    """Epoch budget for the convex update, optionally floored by the
    minimum sample count that the concentration argument needs."""
    r = radius_at(k)
    log_md = math.log(s.m / s.delta)
    if log_md < 0:
        raise ScheduleError("theory-convex budget needs m/delta > 1")
    base = (
        s.mu * s.ell_plus ** (1.0 / s.kappa) * 2.0 ** (s.gamma_minus + s.gamma_plus / s.kappa)
        * s.theta_eps / s.ell_minus
    ) ** (2.0 * s.gamma)
    deviation = (2.0 * s.L * s.R / s.a * (4.0 + math.sqrt(2.0 * log_md))) ** 2
    exponent = 2.0 * (1.0 + s.gamma * s.gamma_plus / s.kappa - s.gamma * s.gamma_minus)
    n = _checked_count(base * deviation * r**exponent, "convex epoch budget")
    if s.floor_enabled:
        n = max(n, sample_floor(s.m, s.delta))
    return n


def sample_floor(m: int, delta: float) -> int:
    """Minimum epoch sample count 1 + 2 log(m/δ) log((2/e) log(m/δ))."""
    if m < 1 or not 0.0 < delta < 1.0:
        raise ScheduleError("need m >= 1 and delta in (0, 1)")
    log_md = math.log(m / delta)
    arg = (2.0 / math.e) * log_md
    if arg <= 0:
        raise ScheduleError("sample floor needs m/delta > 1")
    return math.ceil(1.0 + 2.0 * log_md * math.log(arg))


def kappa_threshold(gamma: float) -> float:
    """Largest noise exponent with exponential savings: (1 + sqrt(1+4γ²))/(2γ)."""
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma!r}")
    return (1.0 + math.sqrt(1.0 + 4.0 * gamma * gamma)) / (2.0 * gamma)


def total_label_bound(alpha: float, epsilon: float, n0: float) -> float:
    """Total-label bound over all epochs given the per-epoch growth rate α."""
    if not 0.0 < epsilon < 2.0:
        raise ValueError("epsilon must lie in (0, 2)")
    if n0 <= 0:
        raise ValueError("n0 must be positive")
    if alpha > 0:
        growth = 2.0 ** (2.0 * alpha)
        return n0 * growth / (growth - 1.0) * (4.0 / epsilon) ** (2.0 * alpha)
    return n0 * math.log2(4.0 / epsilon)


# ---------------------------------------------------------------------------
# Updates and run records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZeroOneUpdate:
    """Exact 2-D sweep when d = 2, restart search otherwise."""

    restarts: int = 32


@dataclass(frozen=True)
class ConvexUpdate:
    loss: SurrogateLoss


@dataclass(frozen=True)
class EpochRecord:
    k: int
    r_k: float
    n_k: int
    labels: int
    scanned: int
    w_k: tuple[float, ...]
    chord_error: float | None


_EPOCH_JSON_FIELDS = tuple(f.name for f in fields(EpochRecord) if f.name != "w_k")


@dataclass(frozen=True)
class RunRecord:
    """Full trace of one run; radius halving and label totals are enforced."""

    seed: int
    config_digest: str
    epochs: tuple[EpochRecord, ...]
    final_w: tuple[float, ...]
    total_labels: int

    def __post_init__(self):
        for a, b in zip(self.epochs, self.epochs[1:]):
            if b.r_k != a.r_k / 2.0:
                raise ValueError(f"radius must halve between epochs: {a.r_k} -> {b.r_k}")
        if self.total_labels != sum(e.labels for e in self.epochs):
            raise ValueError("total_labels must equal the sum of per-epoch labels")

    def to_json_obj(self) -> dict:
        """Every field of the record and its epochs, except each epoch's w_k."""
        obj = {f.name: getattr(self, f.name) for f in fields(self)}
        obj["epochs"] = [
            {name: getattr(e, name) for name in _EPOCH_JSON_FIELDS} for e in self.epochs
        ]
        obj["final_w"] = list(self.final_w)
        return obj

    def to_json_line(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":"))


@dataclass
class FinitePool:
    """A fixed instance pool scanned sequentially across epochs.

    Labels come from ``y`` when given, else from the model's conditional.
    A pool is always scanned row by row, so its ``scanned`` is counted,
    never drawn.  It exercises StreamExhausted, and a pool of pre-drawn
    marginal rows with ``model`` is the scan that a model epoch's direct
    draw must match in law.  The generative sources never run dry.

    Labels in ``y`` are checked once, here; an epoch hands its slice of
    them to the 2-D fit as checked when they are read-only, since writable
    ones may have changed since.  A 2-D pool whose rows and labels are
    read-only (as passive_prefix's are) keeps one sweep table for its r = 2
    epoch: the events of all its rows, sorted once, about the last center
    w_1 it was fitted from.  A zero-one epoch on its first rows at r = 2
    from that w_1 filters the table for its prefix instead of sorting; one
    from another center builds a new table.
    """

    X: np.ndarray
    model: DataModel | None = None
    y: np.ndarray | None = None
    _table: _SweepTable | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        if self.X.ndim != 2:
            raise ValueError("pool must be a 2-D array of instances")
        if self.model is None and self.y is None:
            raise ValueError("pool needs a label source (model or y)")
        if self.y is not None:
            self.y = np.asarray(self.y, dtype=np.float64)
            if self.y.shape[0] != self.X.shape[0]:
                raise ValueError("pool labels must match pool instances")
            _check_labels(self.y)

    def _full_circle_table(self, w_1: UnitVector) -> _SweepTable | None:
        """The r = 2 sweep table of every example about w_1; None for examples that may change."""
        if self.X.flags.writeable or self.y is None or self.y.flags.writeable:
            return None
        if self._table is None or not self._table.centered_at(w_1, FULL_RADIUS):
            self._table = _SweepTable(self.X, self.y, w_1, FULL_RADIUS)
        return self._table


def _collect_epoch(draw, ball: HypothesisBall, n_k: int):
    """Scan rows from ``draw`` until n_k queried instances are found.

    ``draw(need)`` returns the next rows, given how many queried rows are
    still missing, or None once the source has run out.  Returns (X, at,
    scanned): the queried rows, their positions ``at`` in this epoch's
    scan, and the rows scanned.  Scanning stops at the instance that fills
    the budget, so fewer than n_k rows means the source ran out.
    """
    xs, ats = [np.empty((0, ball.dim))], [np.empty(0, dtype=np.intp)]
    scanned = found = 0
    while found < n_k:
        rows = draw(n_k - found)
        if rows is None:
            break
        take = np.nonzero(query_mask(rows, ball))[0][: n_k - found]
        xs.append(rows[take])
        ats.append(scanned + take)
        found += take.size
        scanned += int(take[-1]) + 1 if found == n_k else rows.shape[0]
    return np.vstack(xs), np.concatenate(ats), scanned


def _model_epoch(model: DataModel, ball: HypothesisBall, n_k: int, rng):
    """One epoch of a DataModel, by rejection sampling through query_mask.

    At r = 2 every row is queried, so the epoch scans fresh marginal rows
    and counts ``scanned``.  Every narrower band proposes rows from the
    band itself (sample_in_band), which costs O(n_k) however narrow the
    band, and draws ``scanned`` from its exact law, the position of a
    scan's n_k-th hit: n_k + NegBin(n_k, p_k), p_k =
    ``ball.band_probability``.  query_mask still filters the direct rows;
    one it drops (rounded a last bit out of the band) is redrawn, alone.
    So both hand on i.i.d. marginal rows conditioned on the band.  All
    draws come from ``rng``.  Returns (X, at, scanned) as _collect_epoch
    does; below r = 2, ``at`` indexes the direct draws.
    """
    if ball.radius == FULL_RADIUS:
        return _collect_epoch(lambda need: sample_unlabeled(model, _SCAN_CHUNK, rng), ball, n_k)
    X, at, _ = _collect_epoch(lambda need: sample_in_band(model, ball, need, rng), ball, n_k)
    return X, at, n_k + int(rng.negative_binomial(n_k, ball.band_probability))


def _pool_epoch(pool: FinitePool, start: int, ball: HypothesisBall, n_k: int):
    """One epoch's scan of the pool's rows from ``start`` on, until they run out.

    At r = 2 every row is queried, so the epoch is the slice of the next n_k
    rows, a view into the pool, with the (X, at, scanned) that the scan
    would return.
    """
    if ball.radius == FULL_RADIUS:
        X = pool.X[start:start + n_k]
        return X, np.arange(X.shape[0]), X.shape[0]
    chunks = (pool.X[i:i + _SCAN_CHUNK] for i in range(start, pool.X.shape[0], _SCAN_CHUNK))
    return _collect_epoch(lambda need: next(chunks, None), ball, n_k)


def _model_labels(model: DataModel, X: np.ndarray, seed: int, k: int) -> np.ndarray:
    """Epoch k's labels of rows X: the model's conditional on the "epoch", k, "labels" substream."""
    return label_batch(model, X, substream(seed, "epoch", k, "labels"))


@functools.lru_cache(maxsize=4096)
def _initial_vector(seed: int, dim: int) -> UnitVector:
    """w_1 of every run of ``seed`` in dimension ``dim``, from its "init" substream.

    A curve reruns each seed hundreds of times as one-epoch passive probes,
    so the vector is derived once per (seed, dim) and shared; that is safe
    because a UnitVector is frozen and its coords are read-only.  The
    cache is bounded, far above any curve's seed count, so a process that
    runs many distinct seeds keeps a fixed amount of memory.
    """
    return normalize(substream(seed, "init").standard_normal(dim))


def _solve_epoch(update, X, y, w_k: UnitVector, r_k: float, R: float, seed: int, k: int,
                 pool: FinitePool | None = None):
    """Epoch k's fit; ``pool`` is the FinitePool whose first rows X are, in epoch 1 at r = 2.

    When the pool's labels are read-only, y is their slice, which the pool
    has checked; labels that may have changed since are checked again.
    """
    if isinstance(update, ZeroOneUpdate):
        if X.shape[1] == 2:
            if pool is None or pool.y is None or pool.y.flags.writeable:
                return erm_zero_one_2d((X, y), w_k, r_k)
            return erm_zero_one_2d(_Examples((X, y)), w_k, r_k, table=pool._full_circle_table(w_k))
        rng = substream(seed, "epoch", k, "search")
        return erm_zero_one_search((X, y), w_k, r_k, restarts=update.restarts, rng=rng)
    ball = SurrogateBall(center=R * w_k.coords, radius=R * r_k)
    w_tilde = minimize_in_ball(update.loss, X, y, ball)
    if _norm(w_tilde) <= 1e-12:
        raise DegenerateSolution("convex update returned a near-zero vector")
    return normalize(w_tilde)


_warned_pairings: set[tuple[str, str]] = set()


def _check_pairing(model: DataModel | None, update) -> None:
    if model is None or not isinstance(update, ConvexUpdate):
        return
    pairing = (update.loss.name, model.conditional)
    if pairing not in SUPPORTED_PAIRINGS and pairing not in _warned_pairings:
        _warned_pairings.add(pairing)
        logger.warning(
            "no linear surrogate-risk minimizer for loss %r with conditional %r; "
            "running anyway, convergence guarantees do not apply",
            update.loss.name,
            model.conditional,
        )


def run_active(
    source,
    update,
    schedule: ScheduleParams,
    m: int,
    seed: int,
    config_digest: str = "",
) -> RunRecord:
    """Run the full epoch loop and return its trace.

    ``source`` is a DataModel or a FinitePool.  Epoch k of a DataModel
    takes every draw from its "epoch", k, "scan" substream, which never
    runs dry: at r = 2 it scans fresh marginal draws, and on every
    narrower band it draws the queried rows directly and ``scanned`` from
    its law (see _model_epoch).  A FinitePool is
    scanned in order from where the previous epoch stopped, and
    StreamExhausted is raised once its rows run out.  Labels are only ever
    drawn for instances the query rule selected (epoch 1 selects
    everything), once per epoch: the pool's ``y`` when it has one, else the
    model's conditional on the "epoch", k, "labels" substream.  A convex
    update needs R, the known norm of the model's w_star, so on a pool
    without a model it raises ValueError before any epoch.  Any package
    error or ValueError (numpy's LinAlgError is one) raised mid-run carries the
    trace of the epochs recorded so far as ``partial``.  The schedule budgets
    for the m epochs that run: its own m is replaced by this one.
    """
    if m < 1:
        raise ValueError("need at least one epoch")
    if schedule.m != m:
        schedule = replace(schedule, m=m)
    if isinstance(source, DataModel):
        pool, model, dim = None, source, source.dimension
    else:
        pool, model, dim = source, source.model, source.X.shape[1]

    _check_pairing(model, update)
    if model is None and isinstance(update, ConvexUpdate):
        raise ValueError("convex update needs a model: R is the norm of the model's w_star")
    R = None if model is None else model.R

    w_star_bar = None if model is None else model.w_star / R
    w_k = _initial_vector(seed, dim)
    cursor = 0  # pool rows scanned by earlier epochs
    epochs: list[EpochRecord] = []

    def entry(k, n_k, labels, scanned):
        chord = None if w_star_bar is None else chord_length(w_k, w_star_bar)
        return EpochRecord(
            k=k, r_k=r_k, n_k=n_k, labels=labels, scanned=scanned,
            w_k=tuple(float(v) for v in w_k.coords), chord_error=chord,
        )

    def record() -> RunRecord:
        return RunRecord(
            seed=seed,
            config_digest=config_digest,
            epochs=tuple(epochs),
            final_w=tuple(float(v) for v in w_k.coords),
            total_labels=sum(e.labels for e in epochs),
        )

    try:
        for k in range(1, m + 1):
            r_k = radius_at(k)
            n_k = schedule.budget(k)
            ball = HypothesisBall(w_k, r_k)
            if pool is None:
                X, at, scanned = _model_epoch(model, ball, n_k, substream(seed, "epoch", k, "scan"))
            else:
                X, at, scanned = _pool_epoch(pool, cursor, ball, n_k)
            if pool is not None and pool.y is not None:
                # at r = 2 the epoch's rows, and so its labels, are a slice
                y = pool.y[cursor:cursor + scanned] if r_k == FULL_RADIUS else pool.y[cursor + at]
            else:
                y = _model_labels(model, X, seed, k)
            cursor += scanned
            epochs.append(entry(k, n_k, int(y.shape[0]), scanned))
            if y.shape[0] < n_k:
                raise StreamExhausted(f"pool ran dry in epoch {k} after {y.shape[0]}/{n_k} labels")
            w_k = _solve_epoch(update, X, y, w_k, r_k, R, seed, k, pool if k == 1 else None)
    except (HalfspaceActiveError, ValueError) as exc:
        if epochs:
            exc.partial = record()
        raise
    return record()


def run_passive(source, update, n_total: int, seed: int) -> RunRecord:
    """Label the first n_total instances unconditionally and fit once.

    Equivalent to a single epoch at radius 2: the 0-1 update sweeps the
    whole circle, the convex update searches the ball of radius 2R around
    R·w_1.  On a pool, that epoch is a slice of the pool's first n_total
    rows, not a scan (see _pool_epoch).
    """
    if n_total < 1:
        raise ValueError("passive run needs n_total >= 1")
    schedule = ScheduleParams(mode="fixed", n=n_total)
    return run_active(source, update, schedule, m=1, seed=seed)


def passive_prefix(model: DataModel, n: int, seed: int) -> FinitePool:
    """The first n rows and labels of seed's passive stream, as a labelled pool.

    n is rounded up to whole scan chunks.  The rows are drawn as
    run_passive(model, update, n_total, seed) draws them, by the same r = 2
    epoch on the "epoch", 1, "scan" and "epoch", 1, "labels" substreams.
    Rows come in whole chunks and labels one per row in scan order, so
    run_passive(pool, update, n_total, seed) returns the same record bit
    for bit for every n_total up to the pool's size.  The pool's X and y are
    read-only: each run's epoch is a view of its rows, so a write raises
    instead of changing what later runs on the pool see.
    """
    rows = -(-n // _SCAN_CHUNK) * _SCAN_CHUNK
    ball = HypothesisBall(model.w_bar, FULL_RADIUS)
    X, _, _ = _model_epoch(model, ball, rows, substream(seed, "epoch", 1, "scan"))
    y = _model_labels(model, X, seed, 1)
    X.flags.writeable = y.flags.writeable = False
    return FinitePool(X, model=model, y=y)
