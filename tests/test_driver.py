import math

import numpy as np
import pytest

from halfspace_active import driver
from halfspace_active.data_models import DataModel, label_batch, sample_in_band, sample_unlabeled
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
from halfspace_active.geometry import (
    HypothesisBall,
    UnitVector,
    margin_threshold,
    normalize,
    query_mask,
)
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

        Xq, yq, scanned = driver._collect_epoch(lambda need: next(chunks, None), ball, 200, labels)
        assert yq.shape[0] == 200  # not exhausted
        assert len(charged) == 200 == Xq.shape[0]
        assert np.all(query_mask(Xq, ball))
        np.testing.assert_array_equal(Xq, X[charged])
        assert scanned <= 4000

    def test_label_audit_catches_a_lost_label(self):
        X = np.random.default_rng(2).standard_normal((50, 2))
        ball = HypothesisBall(UnitVector(np.array([1.0, 0.0])), 2.0)
        with pytest.raises(AssertionError, match="label audit"):
            driver._collect_epoch(lambda need: X, ball, 10,
                                  lambda rows, at: np.ones(rows.shape[0] - 1))

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

    def test_convex_update_without_a_model_fails_before_any_epoch(self, monkeypatch):
        # R, the radius scale of the convex ball, is the norm of the model's w_star
        X = np.random.default_rng(0).standard_normal((500, 2))
        pool = FinitePool(X, y=np.where(X[:, 0] > 0, 1.0, -1.0))
        scans = []
        monkeypatch.setattr(driver, "_pool_epoch", lambda *args: scans.append(args))
        with pytest.raises(ValueError, match="norm of the model's w_star") as ei:
            run_active(pool, ConvexUpdate(TQ), ScheduleParams(mode="fixed", n=200), m=2, seed=3)
        assert scans == []
        assert getattr(ei.value, "partial", None) is None


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


class CountingRng:
    """A Generator that counts the random values its draws return."""

    def __init__(self, rng):
        self.rng, self.values = rng, 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def draw(*args, **kwargs):
            out = method(*args, **kwargs)
            self.values += np.size(out)
            return out

        return draw


def ks_statistic(a, b):
    """Two-sample Kolmogorov–Smirnov statistic sup |F_a - F_b|."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


class TestEpochCost:
    """A model epoch draws O(n_k) random values, however narrow its band."""

    def test_d20_sphere_run_down_to_r_2_minus_10(self, monkeypatch):
        d, n = 20, 1000
        model = DataModel(d, "uniform-sphere", "affine", np.eye(d)[0] * 0.4)
        streams, substream = {}, driver.substream

        def counted(seed, *labels):
            streams[labels] = CountingRng(substream(seed, *labels))
            return streams[labels]

        monkeypatch.setattr(driver, "substream", counted)
        rec = run_active(model, ConvexUpdate(TQ), ScheduleParams(mode="fixed", n=n), m=12, seed=3)
        assert rec.epochs[-1].r_k == 2.0**-10
        drawn = [streams["epoch", e.k, "scan"].values for e in rec.epochs]
        # a scan at r = 2^-10 would draw n / p_k = 286,000 rows of 20 values
        p = HypothesisBall(normalize(rec.final_w), 2.0**-10).band_probability
        assert rec.epochs[-1].scanned > 0.9 * n / p
        assert max(drawn) <= 10 * d * n

    def test_theory_budget_epoch_at_r_2_minus_6(self):
        # epoch 8 of the kappa = 1.5 theory-nonconvex budget; scanning its
        # band (p_k = 0.99 %) would take about 34 M rows
        n_k = ScheduleParams(mode="theory-nonconvex", kappa=1.5, m=8).budget(8)
        assert n_k == 337_398
        model = circle_model(kappa=1.5, seed=17)
        ball = HypothesisBall(normalize([0.6, 0.8]), radius_at(8))
        rng = CountingRng(np.random.default_rng(8))
        X, y, scanned = driver._model_epoch(
            model, ball, n_k, rng, lambda rows, at: np.ones(rows.shape[0])
        )
        assert X.shape == (n_k, 2) and y.shape == (n_k,)
        assert rng.values <= 10 * n_k
        p = ball.band_probability
        assert abs(scanned - n_k / p) <= 4.0 * math.sqrt(n_k * (1.0 - p)) / p


class TestDirectBandDraw:
    """The direct draw hands on what the scan of the same model would.

    The scan is the pool path: pre-drawn marginal rows in a FinitePool.
    """

    N = 2000

    @pytest.mark.parametrize("marginal", ["uniform-sphere", "gaussian", "uniform-ball"])
    @pytest.mark.parametrize("d", [2, 3, 10])
    def test_same_law_as_the_scan(self, d, marginal):
        n = self.N
        w_star = np.zeros(d)
        w_star[0] = 2.0
        model = DataModel(d, marginal, "logistic", w_star, seed=d)
        center = normalize(np.arange(1.0, d + 1.0))
        for i, r in enumerate((1.0, 2.0**-3, 2.0**-8)):
            ball = HypothesisBall(center, r)
            p = ball.band_probability
            size = int(1.2 * n / p) + 4096
            pool = FinitePool(sample_unlabeled(model, size, model.stream("pool", i)), model=model)

            def labels(rows, at, rng=model.stream("labels", i)):
                return label_batch(model, rows, rng)

            runs = [driver._pool_epoch(pool, 0, ball, n, labels),
                    driver._model_epoch(model, ball, n, model.stream("direct", i), labels)]
            (Xs, ys, scan_s), (Xd, yd, scan_d) = runs
            assert Xs.shape == Xd.shape == (n, d)
            crit = 2.15 * math.sqrt(2.0 / n)  # KS at the 1e-4 level
            s_scan, s_direct = (np.abs(X @ center.coords) / np.linalg.norm(X, axis=1) for X in (Xs, Xd))
            assert ks_statistic(s_scan, s_direct) <= crit
            norms = [np.linalg.norm(X, axis=1) for X in (Xs, Xd)]
            if marginal == "uniform-sphere":
                np.testing.assert_allclose(np.concatenate(norms), 1.0, rtol=1e-12)
            else:
                assert ks_statistic(*norms) <= crit
            rates = [np.mean(y > 0) for y in (ys, yd)]
            q = 0.5 * sum(rates)
            assert abs(rates[0] - rates[1]) <= 4.0 * math.sqrt(2.0 * q * (1.0 - q) / n)
            for scanned in (scan_s, scan_d):
                assert abs(scanned - n / p) <= 4.0 * math.sqrt(n * (1.0 - p)) / p

    @pytest.mark.parametrize("d", [2, 3, 4, 10, 20])
    def test_margin_law_matches_band_probability(self, d):
        # Pr(|s| <= u | band) = p(u) / p(t), where p(u) is the band
        # probability of the radius whose margin threshold is u
        model = DataModel(d, "uniform-sphere", "logistic", np.eye(d)[0])
        rng = np.random.default_rng(30 + d)
        n = 50_000
        for r in (1.0, 0.25):
            ball = HypothesisBall(normalize(rng.standard_normal(d)), r)
            X = sample_in_band(model, ball, n, rng)
            s = np.sort(np.abs(X @ ball.center.coords))
            u = np.linspace(0.02, 0.98, 25) * margin_threshold(r)
            exact = [HypothesisBall(ball.center, math.sqrt(2.0 - 2.0 * math.sqrt(1.0 - v * v)))
                     .band_probability / ball.band_probability for v in u]
            empirical = np.searchsorted(s, u, side="right") / n
            assert np.max(np.abs(empirical - exact)) <= 2.15 / math.sqrt(n)

    def test_dropped_direct_row_is_redrawn_alone(self, monkeypatch):
        # a direct row query_mask drops costs one more row, not a new batch
        model = DataModel(3, "uniform-sphere", "logistic", np.eye(3)[0])
        ball = HypothesisBall(normalize([0.0, 0.6, 0.8]), 0.25)
        asked = []

        def one_off_band(model, ball, n, rng):
            asked.append(n)
            X = sample_in_band(model, ball, n, rng)
            if len(asked) == 1:
                X[0] = ball.center.coords  # |s| = 1, outside every band
            return X

        monkeypatch.setattr(driver, "sample_in_band", one_off_band)
        X, y, _ = driver._model_epoch(
            model, ball, 500, np.random.default_rng(4), lambda rows, at: np.ones(rows.shape[0])
        )
        assert asked == [500, 1]
        assert X.shape == (500, 3) and np.all(query_mask(X, ball))

    @pytest.mark.parametrize("d", [2, 3, 4, 10])
    def test_query_mask_keeps_direct_rows(self, d):
        model = DataModel(d, "gaussian", "logistic", np.eye(d)[0])
        rng = np.random.default_rng(d)
        for r in (1.0, 2.0**-3, 2.0**-8, 2.0**-30):
            ball = HypothesisBall(normalize(rng.standard_normal(d)), r)
            X = sample_in_band(model, ball, 5000, rng)
            assert np.count_nonzero(~query_mask(X, ball)) <= 1
            assert sample_in_band(model, ball, 0, rng).shape == (0, d)
