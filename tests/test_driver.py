import math

import numpy as np
import pytest

from halfspace_active import driver
from halfspace_active.data_models import DataModel
from halfspace_active.driver import (
    ConvexUpdate,
    EpochRecord,
    FinitePool,
    RunRecord,
    ScheduleParams,
    ZeroOneUpdate,
    epochs_for_target,
    kappa_threshold,
    nk_convex,
    nk_nonconvex,
    radius_at,
    run_active,
    run_passive,
    sample_floor,
    total_label_bound,
)
from halfspace_active.errors import ScheduleError, StreamExhausted
from halfspace_active.geometry import HypothesisBall, UnitVector, query_mask
from halfspace_active.losses import truncated_quadratic_loss

TQ = truncated_quadratic_loss()

# the worked schedule example: all sandwich/noise constants 1, theta = 1,
# delta = 0.1, m = 5, d = 2
EXAMPLE = dict(
    mu=1.0, kappa=1.0, ell_minus=1.0, ell_plus=1.0, gamma_minus=1.0,
    gamma_plus=1.0, theta_eps=1.0, delta=0.1, d=2, m=5,
)


def circle_model(kappa=1.0, seed=0):
    return DataModel(
        dimension=2,
        marginal="uniform-sphere",
        conditional="powered-margin",
        w_star=np.array([1.0, 0.0]),
        seed=seed,
        kappa=kappa,
    )


class TestSchedules:
    def test_radius_sequence(self):
        assert [radius_at(k) for k in (1, 2, 3, 4, 5)] == [2.0, 1.0, 0.5, 0.25, 0.125]

    def test_epochs_for_target(self):
        assert epochs_for_target(0.2) == 4
        assert epochs_for_target(0.1) == 5
        assert epochs_for_target(0.05) == 6
        assert epochs_for_target(0.025) == 7
        assert epochs_for_target(1.0) == 1

    def test_nonconvex_worked_example(self):
        # hand-evaluated: c = 2^4 = 16, bracket = log 200 + 6(log 8 + 2 log 16),
        # budget = ceil(512 * bracket) = 26136
        s = ScheduleParams(mode="theory-nonconvex", **EXAMPLE)
        assert nk_nonconvex(2, s) == 26136

    def test_nonconvex_alpha_zero_is_constant(self):
        # gamma_- = gamma_+/kappa makes both the power factor and the log
        # term independent of the epoch
        s = ScheduleParams(mode="theory-nonconvex", **EXAMPLE)
        assert nk_nonconvex(3, s) == nk_nonconvex(2, s) == 26136

    def test_nonconvex_grows_when_noise_increases(self):
        grow = dict(EXAMPLE, kappa=2.0, gamma_minus=2.0)
        s = ScheduleParams(mode="theory-nonconvex", **grow)
        assert nk_nonconvex(2, s) < nk_nonconvex(3, s) < nk_nonconvex(4, s)

    def test_convex_worked_example(self):
        # base (2^2)^4 = 256 times (2(4 + sqrt(2 log 50)))^2, r-power 1
        s = ScheduleParams(
            mode="theory-convex", gamma=2.0, L=1.0, R=1.0, a=1.0, **EXAMPLE
        )
        assert nk_convex(2, s) == 47311

    def test_convex_alpha_zero_exponent(self):
        # gamma*gamma_- - gamma*gamma_+/kappa - 1 = 0 keeps the budget flat
        flat = dict(EXAMPLE, kappa=2.0, gamma_minus=1.0, gamma_plus=1.0)
        s = ScheduleParams(mode="theory-convex", gamma=1.0, **flat)
        # alpha = 1*1 - 1*1/2 - 1 = -1/2 -> exponent 2*(1 + 1/2 - 1) = 1 > 0
        assert nk_convex(3, s) < nk_convex(2, s)

    def test_convex_floor(self):
        # floor for m=5, delta=0.1: ceil(1 + 2 log 50 log((2/e) log 50)) = 10
        assert sample_floor(5, 0.1) == 10
        s = ScheduleParams(
            mode="theory-convex", gamma=2.0, L=1e-6, R=1e-6, a=1.0,
            floor_enabled=True, **EXAMPLE,
        )
        assert s.budget(2) == 10

    def test_kappa_threshold_values(self):
        assert kappa_threshold(2.0) == pytest.approx(1.280776, abs=1e-6)
        assert kappa_threshold(1.0) == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-12)
        assert kappa_threshold(10.0) == pytest.approx(1.051249, abs=1e-6)
        with pytest.raises(ValueError):
            kappa_threshold(0.0)

    def test_total_label_bound(self):
        assert total_label_bound(0.0, 0.25, 100.0) == pytest.approx(400.0)
        assert total_label_bound(0.5, 1.0, 1.0) == pytest.approx(8.0)
        # the nonpositive-alpha branch has no alpha dependence
        assert total_label_bound(-0.5, 0.1, 7.0) == total_label_bound(-2.0, 0.1, 7.0)
        with pytest.raises(ValueError):
            total_label_bound(0.5, 2.5, 1.0)

    def test_mode_validation(self):
        with pytest.raises(ScheduleError):
            ScheduleParams(mode="fixed")
        with pytest.raises(ScheduleError):
            ScheduleParams(mode="geometric", n0=10.0)
        with pytest.raises(ScheduleError):
            ScheduleParams(mode="adaptive", n=3)
        with pytest.raises(ScheduleError):
            ScheduleParams(mode="theory-convex", delta=1.5, **{k: v for k, v in EXAMPLE.items() if k != "delta"})

    def test_geometric_budget(self):
        s = ScheduleParams(mode="geometric", n0=100.0, ratio=2.0)
        assert [s.budget(k) for k in (1, 2, 3)] == [100, 200, 400]


class TestRunActive:
    def test_single_epoch_queries_everything(self):
        model = circle_model()
        rec = run_active(model, ZeroOneUpdate(), ScheduleParams(mode="fixed", n=50), m=1, seed=1)
        assert len(rec.epochs) == 1
        e = rec.epochs[0]
        assert e.r_k == 2.0
        assert e.scanned == e.labels == e.n_k == 50
        assert rec.total_labels == 50

    def test_radius_halving_and_unit_norm(self):
        model = circle_model()
        rec = run_active(
            model, ConvexUpdate(TQ), ScheduleParams(mode="fixed", n=100), m=4, seed=2
        )
        assert [e.r_k for e in rec.epochs] == [2.0, 1.0, 0.5, 0.25]
        for e in rec.epochs:
            assert np.linalg.norm(e.w_k) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(rec.final_w) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_trace(self):
        model = circle_model(seed=3)
        args = (model, ConvexUpdate(TQ), ScheduleParams(mode="fixed", n=120), 3, 7)
        a = run_active(*args)
        b = run_active(*args)
        assert a.to_json_line() == b.to_json_line()
        assert a == b

    def test_error_shrinks_on_easy_problem(self):
        model = circle_model(kappa=1.0, seed=4)
        rec = run_active(
            model, ConvexUpdate(TQ), ScheduleParams(mode="fixed", n=300), m=4, seed=11
        )
        errs = [e.chord_error for e in rec.epochs]
        final = np.linalg.norm(np.asarray(rec.final_w) - np.array([1.0, 0.0]))
        assert final < errs[1] < errs[0] + 1e-12 or final < 0.05

    def test_zero_one_update_keeps_contracting_on_hard_labels(self):
        # contrast for the convex-update acceptance check: on the identical
        # stream the exact 0-1 update drives the error down every epoch
        model = circle_model(kappa=1.0, seed=16)
        errs = []
        for seed in range(20):
            rec = run_active(
                model, ZeroOneUpdate(), ScheduleParams(mode="fixed", n=500), m=6, seed=seed
            )
            errs.append([e.chord_error for e in rec.epochs])
        med = np.median(np.asarray(errs), axis=0)
        assert all(b < a for a, b in zip(med[1:], med[2:]))
        assert med[-1] < 1e-3

    def test_excess_risk_estimates_recorded(self):
        model = circle_model(seed=5)
        rec = run_active(
            model, ZeroOneUpdate(), ScheduleParams(mode="fixed", n=60), m=2, seed=3,
            excess_risk_mc=2000,
        )
        assert all(isinstance(e.excess_risk_est, float) for e in rec.epochs)

    def test_theory_schedule_realized(self):
        s = ScheduleParams(
            mode="theory-nonconvex", mu=1.0, kappa=1.0, ell_minus=1.0, ell_plus=1.0,
            gamma_minus=1.0, gamma_plus=1.0, theta_eps=0.25, delta=0.1, d=2, m=2,
        )
        model = circle_model(seed=6)
        rec = run_active(model, ZeroOneUpdate(), s, m=2, seed=5)
        for e in rec.epochs:
            assert e.n_k == s.budget(e.k)
            assert e.labels == e.n_k

    def test_pairing_warning_logged_once(self, caplog):
        driver._warned_pairings.clear()
        model = circle_model(seed=7)  # powered-margin + truncated quadratic
        with caplog.at_level("WARNING"):
            run_active(model, ConvexUpdate(TQ), ScheduleParams(mode="fixed", n=30), m=1, seed=1)
            run_active(model, ConvexUpdate(TQ), ScheduleParams(mode="fixed", n=30), m=1, seed=2)
        hits = [r for r in caplog.records if "no linear surrogate-risk minimizer" in r.message]
        assert len(hits) == 1

    def test_dimension_above_two_uses_search(self):
        model = DataModel(
            dimension=4, marginal="uniform-sphere", conditional="powered-margin",
            w_star=np.array([1.0, 0.0, 0.0, 0.0]), seed=8, kappa=1.0,
        )
        rec = run_active(
            model, ZeroOneUpdate(restarts=8), ScheduleParams(mode="fixed", n=80), m=2, seed=2
        )
        assert len(rec.epochs) == 2


class TestFinitePool:
    def test_exhaustion_carries_partial_trace(self):
        model = circle_model(seed=9)
        X = model.stream("pool").standard_normal((120, 2))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        pool = FinitePool(X, model=model)
        with pytest.raises(StreamExhausted) as ei:
            run_active(pool, ZeroOneUpdate(), ScheduleParams(mode="fixed", n=100), m=3, seed=4)
        partial = ei.value.partial
        assert isinstance(partial, RunRecord)
        assert partial.epochs[0].labels == 100
        assert partial.epochs[-1].labels < 100
        assert partial.total_labels == sum(e.labels for e in partial.epochs)

    def test_pool_scan_is_sequential_across_epochs(self):
        model = circle_model(seed=10)
        X = model.stream("pool").standard_normal((5000, 2))
        pool = FinitePool(X, model=model)
        rec = run_active(pool, ZeroOneUpdate(), ScheduleParams(mode="fixed", n=40), m=2, seed=6)
        assert sum(e.scanned for e in rec.epochs) <= 5000

    def test_only_queried_instances_are_labeled(self):
        # drive the collection loop directly and check the query predicate
        model = circle_model(seed=11)
        X = model.stream("pool").standard_normal((4000, 2))
        y = np.where(X @ model.w_star > 0, 1.0, -1.0)
        pool = FinitePool(X, y=y)
        ball = HypothesisBall(UnitVector(np.array([0.0, 1.0])), 0.5)
        chunks = (pool.X[i:i + 250] for i in range(0, 4000, 250))
        charged = []

        def labels(rows, at):
            charged.extend(at)
            return y[at]

        Xq, yq, scanned = driver._collect_epoch(chunks, ball, 200, labels)
        assert yq.shape[0] == 200  # not exhausted
        assert len(charged) == 200 == Xq.shape[0]
        assert np.all(query_mask(Xq, ball))
        np.testing.assert_array_equal(Xq, X[charged])
        assert scanned <= 4000

    def test_label_audit_catches_a_lost_label(self):
        X = np.random.default_rng(2).standard_normal((50, 2))
        ball = HypothesisBall(UnitVector(np.array([1.0, 0.0])), 2.0)
        with pytest.raises(AssertionError, match="label audit"):
            driver._collect_epoch(iter([X]), ball, 10, lambda rows, at: np.ones(rows.shape[0] - 1))

    def test_budget_filled_on_last_row_then_exhausted(self):
        # epoch 1 (radius 2 queries everything) takes all 100 rows and is not
        # exhausted; epoch 2 starts past the end and records an empty epoch
        X = np.random.default_rng(1).standard_normal((100, 2))
        pool = FinitePool(X, y=np.where(X[:, 0] > 0, 1.0, -1.0))
        with pytest.raises(StreamExhausted) as ei:
            run_active(pool, ZeroOneUpdate(), ScheduleParams(mode="fixed", n=100), m=3, seed=5)
        partial = ei.value.partial
        assert [(e.labels, e.scanned) for e in partial.epochs] == [(100, 100), (0, 0)]
        assert partial.total_labels == 100

    def test_fixed_labels_pool(self):
        X = np.random.default_rng(0).standard_normal((500, 2))
        y = np.where(X[:, 0] > 0, 1.0, -1.0)
        pool = FinitePool(X, y=y)
        rec = run_active(pool, ZeroOneUpdate(), ScheduleParams(mode="fixed", n=200), m=1, seed=3)
        assert rec.total_labels == 200


class TestRunPassive:
    def test_needs_positive_budget(self):
        with pytest.raises(ValueError):
            run_passive(circle_model(), ZeroOneUpdate(), 0, seed=1)

    def test_single_epoch_structure(self):
        model = circle_model(seed=12)
        rec = run_passive(model, ZeroOneUpdate(), 150, seed=9)
        assert len(rec.epochs) == 1
        assert rec.epochs[0].scanned == rec.epochs[0].labels == 150

    def test_deterministic(self):
        model = circle_model(seed=13)
        a = run_passive(model, ConvexUpdate(TQ), 100, seed=2)
        b = run_passive(model, ConvexUpdate(TQ), 100, seed=2)
        assert a.to_json_line() == b.to_json_line()

    def test_matches_active_first_epoch_behavior(self):
        # radius 2 queries everything, so passive and active epoch 1 see the
        # same stream prefix under the same seed
        model = circle_model(seed=14)
        act = run_active(model, ZeroOneUpdate(), ScheduleParams(mode="fixed", n=80), m=1, seed=5)
        pas = run_passive(model, ZeroOneUpdate(), 80, seed=5)
        assert act.to_json_obj()["epochs"] == pas.to_json_obj()["epochs"]


class TestRunRecord:
    def test_rejects_bad_radius_sequence(self):
        e1 = EpochRecord(1, 2.0, 5, 5, 5, (1.0, 0.0), None, None)
        e2 = EpochRecord(2, 0.7, 5, 5, 5, (1.0, 0.0), None, None)
        with pytest.raises(ValueError):
            RunRecord(seed=0, config_digest="", epochs=(e1, e2), final_w=(1.0, 0.0), total_labels=10)

    def test_rejects_bad_total(self):
        e1 = EpochRecord(1, 2.0, 5, 5, 5, (1.0, 0.0), None, None)
        with pytest.raises(ValueError):
            RunRecord(seed=0, config_digest="", epochs=(e1,), final_w=(1.0, 0.0), total_labels=11)

    def test_json_schema_fields(self):
        model = circle_model(seed=15)
        rec = run_active(model, ZeroOneUpdate(), ScheduleParams(mode="fixed", n=30), m=2, seed=8)
        obj = rec.to_json_obj()
        assert set(obj) == {"seed", "config_digest", "epochs", "total_labels", "final_w"}
        assert set(obj["epochs"][0]) == {
            "k", "r_k", "n_k", "labels", "scanned", "chord_error", "excess_risk_est"
        }
