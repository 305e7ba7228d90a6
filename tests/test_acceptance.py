"""Acceptance suite: one test per pinned criterion, printed as PASS/FAIL lines.

Every tolerance here is frozen; expected numbers were computed with an
independent high-precision evaluation of the budget formulas, closed-form
geometry on the circle, or brute-force oracles, never from the code paths
under test.
"""

import json
import math
import time

import numpy as np
import pytest

from halfspace_active import cli, harness
from halfspace_active.data_models import DataModel, verify_tsybakov_exponent
from halfspace_active.driver import (
    ConvexUpdate,
    ScheduleParams,
    ZeroOneUpdate,
    kappa_threshold,
    nk_convex,
    nk_nonconvex,
    run_active,
    sample_floor,
    total_label_bound,
)
from halfspace_active.harness import ExperimentConfig, curve_fits, label_complexity_curve
from halfspace_active.losses import (
    exponential_loss,
    psi,
    psi_numeric,
    truncated_quadratic_loss,
)
from halfspace_active.solvers import erm_zero_one_2d, zero_one_objective
from halfspace_active.geometry import normalize
from halfspace_active.streams import substream

PSI_GRID = [round(0.05 * i, 2) for i in range(1, 20)]

W_STAR_2D = np.array([1.0, 0.0])


def report(num: int, name: str, passed: bool, detail: str = "") -> None:
    print(f"[ACCEPTANCE {num:02d}] {'PASS' if passed else 'FAIL'} {name}: {detail}")


def powered_model(kappa: float, seed: int = 0) -> DataModel:
    return DataModel(
        2, "uniform-sphere", "powered-margin", W_STAR_2D, seed=seed, kappa=kappa
    )


def test_criterion_01_query_rule_equivalence():
    t0 = time.perf_counter()
    rows = harness.check_query_rule_equivalence(total=100_000, seed=101)
    elapsed = time.perf_counter() - t0
    all_exact = all(r.passed for r in rows)
    n_checked = 100_000 // 15 * 15
    report(1, "query rule vs arc oracle", all_exact and elapsed < 10,
           f"{n_checked} triples, agreement={min(r.observed for r in rows):.6f}, {elapsed:.1f}s")
    assert all_exact
    assert elapsed < 10.0


def test_criterion_02_psi_transform():
    worst = 0.0
    for loss in (exponential_loss(), truncated_quadratic_loss()):
        for z in PSI_GRID:
            worst = max(worst, abs(psi(loss, z) - psi_numeric(loss, z)))
    exp = exponential_loss()
    minorant = all(psi(exp, z) >= z * z / 2.0 for z in PSI_GRID)
    identity = all(
        abs(psi(exp, z) - (1.0 - math.sqrt(1.0 - z * z))) < 1e-12 for z in PSI_GRID
    )
    ok = worst <= 1e-6 and minorant and identity
    report(2, "psi closed form vs numeric", ok, f"max |closed - numeric| = {worst:.2e}")
    assert worst <= 1e-6
    assert minorant and identity


def test_criterion_03_sphere_identity():
    t0 = time.perf_counter()
    rows = harness.check_sphere_identity(pairs=20, n_mc=1_000_000, seed=103)
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in rows) and elapsed < 60
    report(3, "sphere disagreement = angle/pi", ok,
           f"{len(rows)} pairs within 3 sigma, {elapsed:.1f}s")
    assert all(r.passed for r in rows)
    assert elapsed < 60.0


def test_criterion_04_gaussian_lower_bound():
    rows = harness.check_gaussian_lower_bound(pairs=20, n_mc=1_000_000, seed=104)
    ok = all(r.passed for r in rows)
    report(4, "gaussian angle lower bound", ok, f"{len(rows)} pairs")
    assert ok


def test_criterion_05_gradient_finite_difference():
    rows = harness.check_gradient_finite_difference(triples=100, seed=105)
    ok = rows[0].passed
    report(5, "gradient vs central differences", ok,
           f"worst relative error = {rows[0].observed:.2e}")
    assert ok


def test_criterion_06_convex_update_convergence():
    """Per-epoch error contraction of the ball-constrained convex update.

    This check FAILS, and the failure is a property of the configured
    problem, not of the solver.  It is not a sampling floor: more labels
    make it worse.  The median chord error of w_7 is 0.0117, 0.0255 and
    0.0437 at n = 500, 5,000 and 50,000 labels an epoch.  With hard labels
    the pointwise surrogate minimizer is a sign function, so the surrogate
    risk keeps falling along w̄* and has no finite linear minimizer; each
    epoch's fit is pushed toward the ball's outer edge and past w*, and
    once the radius is small that leaves w* at or past the edge of the
    next ball.  The epoch solver itself was verified optimal against a
    dense grid search over the feasible disk; the 0-1 update on the
    identical stream does keep contracting (see test_driver).  Kept red as
    an executable record of the negative result.
    """
    t0 = time.perf_counter()
    model = powered_model(kappa=1.0, seed=6)
    update = ConvexUpdate(truncated_quadratic_loss())
    schedule = ScheduleParams(mode="fixed", n=500)
    errors = []
    for seed in range(20):
        rec = run_active(model, update, schedule, m=6, seed=seed)
        seq = [e.chord_error for e in rec.epochs]
        seq.append(float(np.linalg.norm(np.asarray(rec.final_w) - W_STAR_2D)))
        errors.append(seq)  # chord errors of w_1 .. w_7
    errors = np.asarray(errors)
    elapsed = time.perf_counter() - t0
    # ratio ||w_{k+1} - w*|| / ||w_k - w*||, medians over seeds, for k = 2..5
    ratios = {k: float(np.median(errors[:, k] / errors[:, k - 1])) for k in range(2, 6)}
    ok = all(v <= 0.75 for v in ratios.values()) and elapsed < 300
    detail = ", ".join(f"k={k}: {v:.3f}" for k, v in ratios.items())
    report(6, "convex-update error halving", ok, f"median ratios {detail}, {elapsed:.1f}s")
    assert elapsed < 300.0
    assert all(v <= 0.75 for v in ratios.values()), (
        f"median contraction ratios {ratios} exceed 0.75; see docstring for the analysis"
    )


def test_criterion_07_label_complexity_trend():
    t0 = time.perf_counter()
    # mildly noisy member of the same conditional family: the passive rate is
    # clearly super-linear in 1/eps while fixed epoch budgets still reach
    # every target accuracy
    model = DataModel(
        2, "uniform-sphere", "powered-margin", W_STAR_2D, seed=7, kappa=1.5
    )
    config = ExperimentConfig(
        model=model,
        update=ZeroOneUpdate(),
        schedule=ScheduleParams(mode="fixed", n=500),
        epsilons=(0.2, 0.1, 0.05, 0.025),
        seeds=tuple(range(20)),
        passive_update=ZeroOneUpdate(),
        passive_cap=200_000,
    )
    result = label_complexity_curve(config)
    fits = curve_fits(result, bootstrap=500, seed=107)
    elapsed = time.perf_counter() - t0
    uncensored = not any(p.censored for p in result.points)
    ok = (
        fits.active_r2 >= 0.8
        and fits.passive_slope >= 1.0
        and fits.passive_slope_ci[0] >= 0.5
        and uncensored
        and elapsed < 1200
    )
    report(
        7, "label-complexity trend", ok,
        f"active R2={fits.active_r2:.3f}, passive slope={fits.passive_slope:.2f} "
        f"CI=[{fits.passive_slope_ci[0]:.2f},{fits.passive_slope_ci[1]:.2f}], {elapsed:.0f}s",
    )
    assert uncensored
    assert fits.active_r2 >= 0.8
    assert fits.passive_slope >= 1.0
    assert fits.passive_slope_ci[0] >= 0.5
    assert elapsed < 1200.0


def test_criterion_08_concentration_scaling():
    t0 = time.perf_counter()
    rows = harness.check_concentration_scaling(trials=50, n=400, candidates=128, seed=108)
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in rows) and elapsed < 300
    detail = ", ".join(f"{r.parameter}: {r.observed:.2f}" for r in rows)
    report(8, "empirical-process gap scaling", ok, f"{detail}, {elapsed:.0f}s")
    for row in rows:
        assert 1.4 <= row.observed <= 2.8, row
    assert elapsed < 300.0


def test_criterion_09_exact_zero_one_erm():
    rng = substream(109, "erm")
    mismatches = 0
    for trial in range(100):
        X = rng.standard_normal((50, 2))
        probs = 1.0 / (1.0 + np.exp(-3.0 * X[:, 0]))
        y = np.where(rng.random(50) < probs, 1.0, -1.0)
        w_k = normalize(rng.standard_normal(2))
        r_k = (2.0, 1.0, 0.5, 0.25)[trial % 4]
        found = zero_one_objective(erm_zero_one_2d((X, y), w_k, r_k), (X, y))
        # brute-force oracle over 10^4 uniformly spaced feasible angles
        half = math.pi if r_k == 2.0 else 2.0 * math.asin(r_k / 2.0)
        psi_k = math.atan2(w_k.coords[1], w_k.coords[0])
        angles = np.linspace(psi_k - half, psi_k + half, 10_000)
        W = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        oracle = int(((y[None, :] * (W @ X.T)) <= 0).sum(axis=1).min())
        mismatches += found != oracle
    report(9, "exact 2-D 0-1 ERM vs grid oracle", mismatches == 0,
           f"{mismatches}/100 mismatches")
    assert mismatches == 0


def test_criterion_10_budget_formulas():
    base = dict(
        mu=1.0, kappa=1.0, ell_minus=1.0, ell_plus=1.0, gamma_minus=1.0,
        gamma_plus=1.0, theta_eps=1.0, delta=0.1, m=5, d=2,
    )
    s_ncx = ScheduleParams(mode="theory-nonconvex", **base)
    s_cvx = ScheduleParams(mode="theory-convex", gamma=2.0, L=1.0, R=1.0, a=1.0, **base)
    checks = {
        # hand-evaluated: c = 16, 2c^2 [log 200 + 6(log 8 + 2 log 16)] = 26135.57
        "nk_nonconvex(k=2)": (nk_nonconvex(2, s_ncx), 26136),
        "nk_nonconvex(k=3)": (nk_nonconvex(3, s_ncx), 26136),
        # hand-evaluated: 256 * (2(4 + sqrt(2 log 50)))^2 = 47310.07
        "nk_convex(k=2)": (nk_convex(2, s_cvx), 47311),
        # hand-evaluated: ceil(1 + 2 log 50 log((2/e) log 50)) = 10
        "sample_floor(5, 0.1)": (sample_floor(5, 0.1), 10),
    }
    ok = all(got == want for got, want in checks.values())
    thresholds = {
        2.0: 1.280776, 1.0: 1.6180340, 10.0: 1.051249,
    }
    for gamma, want in thresholds.items():
        ok = ok and abs(kappa_threshold(gamma) - want) <= 1e-6
    ok = ok and abs(total_label_bound(0.0, 0.25, 100.0) - 400.0) <= 1e-9
    ok = ok and abs(total_label_bound(0.5, 1.0, 1.0) - 8.0) <= 1e-9
    report(10, "budget formulas vs hand-computed values", ok,
           ", ".join(f"{k}={got}" for k, (got, _) in checks.items()))
    for name, (got, want) in checks.items():
        assert got == want, f"{name}: got {got}, expected {want}"
    for gamma, want in thresholds.items():
        assert kappa_threshold(gamma) == pytest.approx(want, abs=1e-6)
    assert total_label_bound(0.0, 0.25, 100.0) == pytest.approx(400.0, abs=1e-9)
    assert total_label_bound(0.5, 1.0, 1.0) == pytest.approx(8.0, abs=1e-9)


def test_criterion_11_cli_determinism(tmp_path):
    config = {
        "model": {"dimension": 2, "marginal": "uniform-sphere",
                  "conditional": "powered-margin", "w_star": [1.0, 0.0], "kappa": 1.0},
        "update": {"kind": "convex", "loss": "truncated-quadratic"},
        "schedule": {"mode": "fixed", "n": 120},
        "run": {"epochs": 3, "seeds": [5, 6]},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "run_records.json").read_bytes()
    b = (tmp_path / "b" / "run_records.json").read_bytes()
    report(11, "byte-identical records across reruns", a == b, f"{len(a)} bytes")
    assert a == b
    assert len(a) > 0


def test_criterion_12_tsybakov_generator():
    grid = np.linspace(0.05, math.pi / 4.0, 12)
    hard = verify_tsybakov_exponent(powered_model(kappa=1.0), grid)
    quad = verify_tsybakov_exponent(powered_model(kappa=2.0), grid)
    ok = abs(hard.kappa_hat - 1.0) <= 0.1 and 1.7 <= quad.kappa_hat <= 2.3
    report(12, "measured noise exponents", ok,
           f"kappa_hat(hard)={hard.kappa_hat:.4f}, kappa_hat(quadratic)={quad.kappa_hat:.3f}")
    assert hard.kappa_hat == pytest.approx(1.0, abs=0.1)
    assert 1.7 <= quad.kappa_hat <= 2.3
