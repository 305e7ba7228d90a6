import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfspace_active import data_models as dm
from halfspace_active.errors import AssumptionIIViolation, UnsupportedMarginal
from halfspace_active.geometry import HypothesisBall, angle, normalize, query_mask
from halfspace_active.losses import get_loss
from halfspace_active.streams import substream


def sphere_model(conditional="powered-margin", d=2, kappa=2.0, tau0=1.0, seed=0, **kw):
    w = np.zeros(d)
    w[0] = kw.pop("R", 1.0)
    return dm.DataModel(
        dimension=d,
        marginal=kw.pop("marginal", "uniform-sphere"),
        conditional=conditional,
        w_star=w,
        seed=seed,
        kappa=kappa if conditional == "powered-margin" else None,
        tau0=tau0,
        **kw,
    )


class TestConstruction:
    def test_affine_needs_bounded_margin(self):
        with pytest.raises(ValueError):
            sphere_model("affine", kappa=None, R=0.8)
        with pytest.raises(ValueError):
            dm.DataModel(2, "gaussian", "affine", np.array([0.3, 0.0]))

    def test_powered_margin_parameter_ranges(self):
        with pytest.raises(ValueError):
            sphere_model(kappa=0.5)
        with pytest.raises(ValueError):
            sphere_model(tau0=0.0)

    def test_unknown_kinds(self):
        with pytest.raises(ValueError):
            dm.DataModel(2, "cauchy", "affine", np.array([0.3, 0.0]))
        with pytest.raises(ValueError):
            dm.DataModel(2, "gaussian", "tree", np.array([0.3, 0.0]))


class TestSampling:
    def test_sphere_draws_are_unit(self):
        model = sphere_model(d=3)
        X = dm.sample_unlabeled(model, 100_000, model.stream("t"))
        norms = np.linalg.norm(X, axis=1)
        assert np.all(np.abs(norms - 1.0) <= 1e-12)
        assert np.all(np.abs(X.mean(axis=0)) <= 0.02)

    def test_gaussian_covariance(self):
        model = sphere_model(d=2, marginal="gaussian")
        X = dm.sample_unlabeled(model, 100_000, model.stream("t"))
        cov = np.cov(X.T)
        assert np.all(np.abs(cov - np.eye(2)) <= 0.03)

    def test_ball_radii(self):
        model = sphere_model(d=3, marginal="uniform-ball")
        X = dm.sample_unlabeled(model, 50_000, model.stream("t"))
        norms = np.linalg.norm(X, axis=1)
        assert np.all(norms <= 1.0)
        # E[||x||] for the uniform ball is d/(d+1) = 3/4
        assert abs(norms.mean() - 0.75) < 0.01

    def test_empty_draw(self):
        model = sphere_model()
        assert dm.sample_unlabeled(model, 0, model.stream("t")).shape == (0, 2)

    def test_streams_reproduce(self):
        model = sphere_model(seed=123)
        a = dm.sample_unlabeled(model, 100, substream(9, "x"))
        b = dm.sample_unlabeled(model, 100, substream(9, "x"))
        np.testing.assert_array_equal(a, b)


class TestEta:
    def test_logistic_boundary(self):
        model = sphere_model("logistic", kappa=None)
        assert dm.eta_batch(model, [[0.0, 1.0]])[0] == pytest.approx(0.5)

    def test_affine_value(self):
        model = sphere_model("affine", kappa=None, R=0.5)
        # w* = (0.5, 0), x on the circle with w*.x = 0.3
        assert dm.eta_batch(model, [[0.6, 0.8]])[0] == pytest.approx(0.8, abs=1e-12)

    def test_powered_margin_value(self):
        model = sphere_model(kappa=2.0, tau0=1.0)
        x = [0.25, math.sqrt(1 - 0.0625)]
        assert dm.eta_batch(model, [x])[0] == pytest.approx(0.625, abs=1e-12)

    def test_hard_labels_at_kappa_one(self):
        model = sphere_model(kappa=1.0)
        X = [[0.3, 0.95], [-0.3, 0.95], [0.0, 1.0]]
        assert dm.eta_batch(model, X).tolist() == [1.0, 0.0, 0.5]

    def test_tau0_clamp(self):
        model = sphere_model(kappa=3.0, tau0=0.5)
        assert dm.eta_batch(model, [[0.9, math.sqrt(1 - 0.81)]])[0] == 1.0


class TestLabels:
    def test_deterministic_regions(self):
        model = sphere_model(kappa=1.0)
        rng = model.stream("labels")
        X = np.tile([[0.5, 0.5], [-0.5, 0.5]], (50, 1))
        np.testing.assert_array_equal(dm.label_batch(model, X, rng), np.tile([1.0, -1.0], 50))

    def test_balanced_at_boundary(self):
        model = sphere_model("logistic", kappa=None)
        rng = model.stream("labels")
        X = np.tile([0.0, 1.0], (100_000, 1))
        y = dm.label_batch(model, X, rng)
        assert abs(np.mean(y == 1.0) - 0.5) <= 0.005


class TestBayesTau:
    def test_exponential_logistic(self):
        model = sphere_model("logistic", kappa=None, scale=1.0, R=0.5)
        x = [0.8, 0.6]  # w*.x = 0.4
        assert dm.bayes_tau(model, "exponential", x) == pytest.approx(0.2)

    def test_truncated_quadratic_affine(self):
        model = sphere_model("affine", kappa=None, R=0.5)
        assert dm.bayes_tau(model, "truncated-quadratic", [0.6, 0.8]) == pytest.approx(0.3)

    def test_zero_margin(self):
        model = sphere_model("logistic", kappa=None)
        assert dm.bayes_tau(model, "exponential", [0.0, 1.0]) == 0.0

    def test_unsupported_pairing(self):
        model = sphere_model(kappa=2.0)
        with pytest.raises(AssumptionIIViolation):
            dm.bayes_tau(model, "exponential", [1.0, 0.0])


class TestExactRisk:
    # l_b(w) + l_b(-w) = 1, so the excess risk of the antipode of w* is
    # 1 - 2 l_b(w*): the Bayes risk follows from the exact excess oracle
    def test_bayes_risk_closed_form(self):
        # kappa=2, tau0=1 circle: l_b(w*) = 1/2 - 1/pi
        model = sphere_model(kappa=2.0)
        got = 0.5 * (1.0 - dm.exact_excess_binary_risk(model, -model.w_bar.coords))
        assert got == pytest.approx(0.5 - 1.0 / math.pi, abs=1e-10)

    def test_noiseless_bayes_risk_is_zero(self):
        model = sphere_model(kappa=1.0)
        got = 0.5 * (1.0 - dm.exact_excess_binary_risk(model, -model.w_bar.coords))
        assert got == pytest.approx(0.0, abs=1e-10)

    def test_excess_closed_form(self):
        # kappa=2, tau0=1: excess(theta) = (1 - cos theta)/pi
        model = sphere_model(kappa=2.0)
        for theta in (0.1, 0.5, 0.78):
            w = [math.cos(theta), math.sin(theta)]
            expected = (1.0 - math.cos(theta)) / math.pi
            assert dm.exact_excess_binary_risk(model, w) == pytest.approx(expected, abs=1e-9)

    def test_mc_agrees_with_exact(self):
        model = sphere_model(kappa=2.0, seed=5)
        w = normalize([0.8, 0.6]).coords
        rng = model.stream("mc")
        X = dm.sample_unlabeled(model, 200_000, rng)
        y = dm.label_batch(model, X, rng)
        # per-draw difference of the 0-1 losses of w and w*, on shared draws
        diff = (y * (X @ w) <= 0.0).astype(float) - (y * (X @ model.w_bar.coords) <= 0.0)
        sigma = float(diff.std(ddof=1)) / math.sqrt(diff.size)
        assert abs(float(diff.mean()) - dm.exact_excess_binary_risk(model, w)) <= 3 * sigma

    def test_exact_flag(self):
        # the exact disagreement is θ/π; the Monte Carlo estimate needs n_mc >= 100
        model = sphere_model(kappa=2.0)
        w = normalize([0.8, 0.6])
        exact = angle(w, model.w_bar) / math.pi
        assert exact == pytest.approx(math.atan2(0.6, 0.8) / math.pi, abs=1e-15)
        with pytest.raises(ValueError):
            dm.disagreement_probability(model, w, model.w_bar, n_mc=99, rng=model.stream("mc"))

    def test_unsupported_exact(self):
        model = sphere_model("logistic", kappa=None, d=2, marginal="gaussian")
        with pytest.raises(UnsupportedMarginal):
            dm.exact_excess_binary_risk(model, model.w_bar)


# 2^20 midpoint cells on the circle; angles 2π·j/MIDPOINT_CELLS are cell edges
MIDPOINT_CELLS = 1 << 20


def midpoint_mean(integrand):
    """(1/2π)∮ integrand by the midpoint rule, numpy only."""
    t = (np.arange(MIDPOINT_CELLS) + 0.5) * (2.0 * math.pi / MIDPOINT_CELLS)
    return float(np.mean(integrand(t, np.stack([np.cos(t), np.sin(t)], axis=1))))


class TestExactSurrogateRisk:
    AFFINE = dm.DataModel(2, "uniform-sphere", "affine", np.array([0.4, 0.0]))
    TQ = get_loss("truncated-quadratic")

    def test_affine_truncated_quadratic_closed_form(self):
        # |w·x| <= 1 keeps the loss quadratic: 1 + E[m²] - 2 E[m (2η - 1)]
        w_star = self.AFFINE.w_star
        for w in ([0.0, 0.0], [0.3, -0.2], [0.6, 0.8], [-1.0, 0.0], [0.1, 0.7]):
            w = np.asarray(w)
            expected = 1.0 + 0.5 * float(w @ w) - 2.0 * float(w @ w_star)
            assert dm.exact_surrogate_risk(self.AFFINE, self.TQ, w) == pytest.approx(
                expected, rel=0.0, abs=1e-13)

    @pytest.mark.parametrize("loss_name, w, tolerance", [
        # ||w|| > 1: the truncated quadratic kinks inside
        pytest.param("truncated-quadratic", [1.7, -0.9], dict(rel=0.0, abs=1e-7),
                     id="truncated-quadratic"),
        pytest.param("logistic", [1.7, -0.9], dict(rel=0.0, abs=1e-7), id="logistic"),
        # ||w|| > 50: the exponential's clamp at margin -50 kinks inside
        pytest.param("exponential", [36.0, -48.0], dict(rel=1e-8), id="exponential-norm-60"),
        pytest.param("exponential", [-120.0, 160.0], dict(rel=1e-8), id="exponential-norm-200"),
    ])
    def test_powered_margin_against_midpoint_rule(self, loss_name, w, tolerance):
        model = sphere_model(kappa=1.5, tau0=0.5)
        loss = get_loss(loss_name)
        w = np.array(w)

        def integrand(t, X):
            e = dm.eta_batch(model, X)
            m = X @ w
            return e * loss.phi(m) + (1.0 - e) * loss.phi(-m)

        got = dm.exact_surrogate_risk(model, loss, w)
        assert got == pytest.approx(midpoint_mean(integrand), **tolerance)

    def test_stack_rows_equal_single_calls(self):
        W = substream(3, "stack").standard_normal((40, 2)) * 1.5
        for model, loss in ((self.AFFINE, self.TQ),
                            (sphere_model(kappa=1.5, tau0=0.7), get_loss("exponential"))):
            rows = dm.exact_surrogate_risk(model, loss, W)
            assert rows.shape == (40,)
            singles = [dm.exact_surrogate_risk(model, loss, w) for w in W]
            assert all(isinstance(v, float) for v in singles)
            np.testing.assert_allclose(rows, singles, rtol=0.0, atol=1e-15)
            excess = dm.exact_excess_binary_risk(model, W)
            singles = [dm.exact_excess_binary_risk(model, w) for w in W]
            np.testing.assert_allclose(excess, singles, rtol=0.0, atol=1e-15)

    def test_blocks_do_not_change_values(self, monkeypatch):
        W = substream(4, "blocks").standard_normal((50, 2))
        whole = dm.exact_surrogate_risk(self.AFFINE, self.TQ, W)
        monkeypatch.setattr(dm, "_QUAD_CHUNK", 1000)  # a few hypotheses per block
        np.testing.assert_array_equal(dm.exact_surrogate_risk(self.AFFINE, self.TQ, W), whole)

    def test_excess_binary_risk_against_midpoint_rule(self):
        model = sphere_model(kappa=1.5)
        # on a cell edge, so the wedge edges ψ_w ± π/2 are cell edges too
        theta = 2.0 * math.pi * (MIDPOINT_CELLS // 16 + 1000) / MIDPOINT_CELLS
        w = np.array([math.cos(theta), math.sin(theta)])

        def integrand(t, X):
            wedge = (X @ w) * X[:, 0] < 0.0
            return np.where(wedge, np.abs(2.0 * dm.eta_batch(model, X) - 1.0), 0.0)

        got = dm.exact_excess_binary_risk(model, w)
        assert got == pytest.approx(midpoint_mean(integrand), rel=0.0, abs=1e-7)

    @settings(max_examples=60, deadline=None)
    @given(
        scale=st.one_of(st.just(0.0), st.just(1.0), st.floats(-323.0, 150.0).map(lambda e: 10.0**e)),
        direction=st.one_of(
            st.sampled_from([(1.0, 0.0), (0.0, -1.0), (0.6, 0.8), (-0.8, 0.6)]),
            st.floats(0.0, 2.0 * math.pi).map(lambda a: (math.cos(a), math.sin(a))),
        ),
        loss_name=st.sampled_from(["truncated-quadratic", "exponential", "logistic"]),
        conditional=st.sampled_from(["affine", "logistic", "powered-margin"]),
    )
    def test_edge_norms_are_finite_and_quiet(self, scale, direction, loss_name, conditional):
        # w = 0, unit norm (the truncated-quadratic kinks coincide), tiny and huge norms
        model = {"affine": self.AFFINE,
                 "logistic": sphere_model("logistic", kappa=None),
                 "powered-margin": sphere_model(kappa=1.5, tau0=0.5)}[conditional]
        w = scale * np.asarray(direction)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            risk = dm.exact_surrogate_risk(model, get_loss(loss_name), w)
            excess = dm.exact_excess_binary_risk(model, w)
        assert math.isfinite(risk) and risk >= 0.0
        assert math.isfinite(excess) and -1e-15 <= excess <= 1.0


class TestDisagreementProbability:
    def test_exact_values(self):
        model = sphere_model(d=3)
        u = normalize([1.0, 0.0, 0.0])
        assert angle(u, [0.0, 1.0, 0.0]) / math.pi == pytest.approx(0.5)
        assert angle(u, [-1.0, 0.0, 0.0]) / math.pi == pytest.approx(1.0)

    def test_mc_matches_angle_over_pi(self):
        model = sphere_model(d=5, marginal="gaussian", seed=3)
        theta = math.pi / 4
        u = normalize([1.0, 0.0, 0.0, 0.0, 0.0])
        v = normalize([math.cos(theta), math.sin(theta), 0.0, 0.0, 0.0])
        est = dm.disagreement_probability(model, u, v, n_mc=400_000, rng=model.stream("mc"))
        assert abs(est.mean - 0.25) <= 3 * est.std_error

    def test_sphere_pairs_match_within_3_sigma(self):
        model = sphere_model(d=3, seed=11)
        rng = model.stream("pairs")
        for _ in range(10):
            u = normalize(rng.standard_normal(3))
            v = normalize(rng.standard_normal(3))
            exact = angle(u, v) / math.pi
            est = dm.disagreement_probability(model, u, v, n_mc=100_000, rng=rng)
            assert abs(est.mean - exact) <= 3 * est.std_error + 1e-9


class TestTsybakovExponent:
    GRID = np.linspace(0.08, math.pi / 4, 10)

    def test_hard_labels_give_kappa_one(self):
        model = sphere_model(kappa=1.0)
        fit = dm.verify_tsybakov_exponent(model, self.GRID)
        assert fit.kappa_hat == pytest.approx(1.0, abs=0.1)
        assert fit.r_squared > 0.999

    def test_quadratic_noise_gives_kappa_two(self):
        model = sphere_model(kappa=2.0)
        fit = dm.verify_tsybakov_exponent(model, self.GRID)
        assert 1.7 <= fit.kappa_hat <= 2.3

    def test_logistic_reports_without_assertion(self):
        model = sphere_model("logistic", kappa=None, scale=4.0, seed=2)
        fit = dm.verify_tsybakov_exponent(model, self.GRID)
        assert fit.kappa_hat > 0
        assert len(fit.angles) + len(fit.dropped) == len(self.GRID)

    def test_grid_domain(self):
        model = sphere_model(kappa=1.0)
        with pytest.raises(ValueError):
            dm.verify_tsybakov_exponent(model, [0.0, 0.1])


class TestDisagreementCoefficient:
    # Pr(DIS(B(w*, r))) for r the disagreement-probability radius: on the
    # circle the region is the query arc of a hypothesis ball whose chord
    # radius is 2 sin(pi r / 2), so its measure is min(2r, 1)
    @staticmethod
    def dis_fraction(model, X, r):
        if r >= 0.5:
            ball = HypothesisBall(normalize(model.w_star), 2.0)
        else:
            ball = HypothesisBall(normalize(model.w_star), 2.0 * math.sin(math.pi * r / 2.0))
        return float(np.count_nonzero(query_mask(X, ball))) / X.shape[0]

    def test_full_radius_ratio_one(self):
        model = sphere_model(d=2, seed=7)
        X = dm.sample_unlabeled(model, 20_000, model.stream("dis-coefficient"))
        prob = self.dis_fraction(model, X, 1.0)
        assert prob == 1.0 and prob / 1.0 == 1.0

    def test_circle_exact_measure(self):
        # on the circle Pr(DIS(B(w, r))) = min(2r, 1); at r = 1/8 this is 1/4
        model = sphere_model(d=2, seed=8)
        X = dm.sample_unlabeled(model, 200_000, model.stream("dis-coefficient"))
        prob = self.dis_fraction(model, X, 0.125)
        sigma = math.sqrt(0.25 * 0.75 / 200_000)
        assert abs(prob - 0.25) <= 3 * sigma

    def test_monotone_in_epsilon(self):
        # theta(eps) = sup over r >= eps of Pr(DIS(B(w*, r)))/r
        model = sphere_model(d=2, seed=9)
        X = dm.sample_unlabeled(model, 50_000, model.stream("dis-coefficient"))
        grid = [0.05, 0.1, 0.2, 0.3, 0.8]
        ratios = {r: self.dis_fraction(model, X, r) / r for r in grid}
        vals = [max(ratios[r] for r in grid if r >= eps) for eps in (0.05, 0.1, 0.3)]
        assert vals[0] >= vals[1] >= vals[2]
        # 2 below r = 1/2, 1/r above it
        assert abs(ratios[0.2] - 2.0) <= 0.05 and ratios[0.8] == pytest.approx(1.25)


class TestExcessRiskSandwich:
    def test_power_bounds_hold_on_angle_grid(self):
        # kappa=2, tau0=1 on the circle with unit w*: the exact low-noise
        # constant is sqrt(pi/2) (the probability/sqrt(excess) ratio peaks at
        # the antipode), the curvature-based upper constants are (1, 1)
        from halfspace_active.losses import (
            lower_bound_constants,
            truncated_quadratic_loss,
            upper_bound_constants,
        )

        model = sphere_model(kappa=2.0, seed=21)
        mu = math.sqrt(math.pi / 2.0)
        ell_minus, gamma_minus = lower_bound_constants(mu, 2.0, c=1.0 / math.pi)
        ell_plus, gamma_plus = upper_bound_constants(truncated_quadratic_loss(), R=1.0)

        rng = model.stream("sandwich")
        for theta in np.linspace(0.2, 2.8, 8):
            w = np.array([math.cos(theta), math.sin(theta)])
            chord = 2.0 * math.sin(theta / 2.0)
            # closed-form oracle for this conditional: excess = (1 - cos)/pi,
            # disagreement = theta/pi; check the noise condition itself first
            excess_exact = (1.0 - math.cos(theta)) / math.pi
            assert theta / math.pi <= mu * excess_exact ** 0.5 + 1e-12
            # Monte Carlo excess with a per-draw |2 eta - 1| wedge estimator
            X = dm.sample_unlabeled(model, 100_000, rng)
            e = dm.eta_batch(model, X)
            flip = ((X @ w) <= 0.0).astype(float) - ((X @ model.w_star) <= 0.0).astype(float)
            samples = (2.0 * e - 1.0) * flip
            mean = float(samples.mean())
            sigma = float(samples.std(ddof=1) / math.sqrt(samples.size))
            assert ell_minus * chord**gamma_minus <= mean + 3 * sigma
            assert mean - 3 * sigma <= ell_plus * chord**gamma_plus


class TestStackExamples:
    def test_round_trip(self):
        X, y = dm.stack_examples(([[1.0, 2.0], [3.0, 4.0]], [1, -1]))
        np.testing.assert_array_equal(X, [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(y, [1.0, -1.0])
        assert X.dtype == y.dtype == np.float64

    def test_pair_passthrough(self):
        X, y = dm.stack_examples((np.eye(2), np.array([1.0, -1.0])))
        assert X.shape == (2, 2)

    def test_bad_labels(self):
        with pytest.raises(ValueError):
            dm.stack_examples((np.eye(2), np.array([1.0, 0.0])))
