import math

import numpy as np
import pytest

from halfspace_active import losses
from halfspace_active.errors import LossSpecError
from halfspace_active.losses import (
    SurrogateLoss,
    exponential_loss,
    get_loss,
    logistic_loss,
    lower_bound_constants,
    psi,
    psi_numeric,
    truncated_quadratic_loss,
    upper_bound_constants,
)

EXP = exponential_loss()
TQ = truncated_quadratic_loss()
LOGI = logistic_loss()

PSI_GRID = [round(0.05 * i, 2) for i in range(1, 20)]  # 0.05 .. 0.95


class TestPhi:
    def test_exponential_values(self):
        vals = EXP.phi(np.array([0.0, 1.0]))
        assert vals[0] == pytest.approx(1.0, abs=1e-15)
        assert vals[1] == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_truncated_quadratic_values(self):
        assert TQ.phi(np.array([2.0, -1.0])).tolist() == [0.0, 4.0]

    def test_exponential_saturates_at_clamp(self):
        assert EXP.phi(np.array([-60.0]))[0] == EXP.phi(np.array([losses.EXP_CLAMP]))[0]

    def test_convexity_on_grid(self):
        zs = np.linspace(-4.0, 4.0, 100)
        for loss in (EXP, TQ, LOGI):
            f = loss.phi(zs)
            mid = loss.phi((zs[:-1] + zs[1:]) / 2)
            assert np.all(mid <= (f[:-1] + f[1:]) / 2 + 1e-9)

    def test_phi_prime_matches_finite_differences(self):
        h = 1e-6
        rng = np.random.default_rng(0)
        for loss in (EXP, TQ, LOGI):
            zs = rng.uniform(-3.0, 3.0, size=200)
            # stay away from the truncated-quadratic kink at z = 1
            zs = zs[np.abs(zs - 1.0) > 1e-3]
            fd = (loss.phi(zs + h) - loss.phi(zs - h)) / (2 * h)
            assert loss.phi_prime(zs) == pytest.approx(fd, rel=1e-5, abs=1e-9)

    def test_phi_second_matches_finite_differences(self):
        h = 1e-6
        rng = np.random.default_rng(1)
        for loss in (EXP, TQ, LOGI):
            zs = rng.uniform(-3.0, 3.0, size=200)
            zs = zs[np.abs(zs - 1.0) > 1e-3]
            fd = (loss.phi_prime(zs + h) - loss.phi_prime(zs - h)) / (2 * h)
            assert loss.phi_second(zs) == pytest.approx(fd, rel=1e-5, abs=1e-9)

    def test_phi_second_saturates(self):
        # zero below the exponential's clamp and from the quadratic's kink on;
        # the logistic's tails underflow to zero where e^{-z}/(1+e^{-z})² overflows
        assert EXP.phi_second(np.array([-60.0]))[0] == 0.0
        assert TQ.phi_second(np.array([1.0, 3.0])).tolist() == [0.0, 0.0]
        tails = LOGI.phi_second(np.array([-800.0, 800.0]))
        assert np.all(np.isfinite(tails)) and np.all(tails >= 0.0)


class TestPsi:
    def test_exponential_closed_form(self):
        assert psi(EXP, 0.0) == 0.0
        assert psi(EXP, 0.6) == pytest.approx(0.2, abs=1e-12)

    def test_truncated_quadratic_closed_form(self):
        assert psi(TQ, 0.5) == pytest.approx(0.25, abs=1e-15)

    def test_numeric_matches_closed_exponential(self):
        assert psi_numeric(EXP, 0.6) == pytest.approx(0.2, abs=1e-6)

    def test_numeric_matches_closed_truncated_quadratic(self):
        assert psi_numeric(TQ, 0.3) == pytest.approx(0.09, abs=1e-6)

    def test_numeric_zero_at_zero(self):
        for loss in (EXP, TQ, LOGI):
            assert psi_numeric(loss, 0.0) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("loss", [EXP, TQ], ids=lambda l: l.name)
    def test_numeric_agrees_on_grid(self, loss):
        for z in PSI_GRID:
            assert psi_numeric(loss, z) == pytest.approx(psi(loss, z), abs=1e-6)

    def test_exponential_minorant_identity(self):
        # psi(z) = 1 - sqrt(1 - z^2) >= z^2 / 2
        for z in PSI_GRID:
            val = psi(EXP, z)
            assert val == pytest.approx(1 - math.sqrt(1 - z * z), abs=1e-12)
            assert val >= z * z / 2

    def test_logistic_is_numeric_only(self):
        assert LOGI.psi_closed is None
        for z in (0.1, 0.5, 0.9):
            assert psi(LOGI, z) >= 0.5 * z * z - 1e-9

    def test_domain(self):
        with pytest.raises(ValueError):
            psi(EXP, 1.5)
        with pytest.raises(ValueError):
            psi_numeric(EXP, -0.1)


class TestCalibration:
    # a loss is classification calibrated iff H^-(eta) > H(eta) at every
    # eta != 1/2, i.e. iff psi(z) > 0 at z = |2 eta - 1| in (0, 1]; psi_numeric
    # computes that gap from the two conditional-risk infima directly
    Z = [0.2, 0.4, 0.6, 0.8]  # eta in {0.1, ..., 0.4, 0.6, ..., 0.9}

    def test_builtin_losses_are_calibrated(self):
        for loss in (EXP, TQ, LOGI):
            assert all(psi_numeric(loss, z) > 1e-9 for z in self.Z)

    def test_constant_loss_is_not(self):
        flat = SurrogateLoss(
            name="constant",
            phi=lambda z: np.ones_like(np.asarray(z, dtype=float)),
            phi_prime=lambda z: np.zeros_like(np.asarray(z, dtype=float)),
            lipschitz=0.0,
            margin_bound=4.0,
            smoothness=0.0,
            psi_lower_a=1.0,
            psi_lower_gamma=2.0,
        )
        assert [psi_numeric(flat, z) for z in self.Z] == [0.0] * len(self.Z)


class TestSandwichConstants:
    def test_truncated_quadratic_unit_radius(self):
        assert upper_bound_constants(TQ, 1.0) == pytest.approx((1.0, 1.0))

    def test_truncated_quadratic_radius_two(self):
        assert upper_bound_constants(TQ, 2.0) == pytest.approx((2.0, 1.0))

    def test_custom_constants(self):
        loss = SurrogateLoss(
            name="custom",
            phi=lambda z: np.square(np.asarray(z, dtype=float)),
            phi_prime=lambda z: 2.0 * np.asarray(z, dtype=float),
            lipschitz=8.0,
            margin_bound=4.0,
            smoothness=1.0,
            psi_lower_a=0.5,
            psi_lower_gamma=2.0,
        )
        assert upper_bound_constants(loss, 1.0) == pytest.approx((1.0, 1.0))

    def test_lower_bound_values(self):
        assert lower_bound_constants(1.0, 1.0, 1.0) == pytest.approx((1.0, 1.0))
        assert lower_bound_constants(2.0, 2.0, 1.0) == pytest.approx((0.25, 2.0))
        ell, gamma = lower_bound_constants(1.0, 1.5, 0.5)
        assert ell == pytest.approx(0.353553, abs=1e-6)
        assert gamma == 1.5

    def test_lower_bound_domain(self):
        with pytest.raises(ValueError):
            lower_bound_constants(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            lower_bound_constants(1.0, 0.5, 1.0)

    def test_lower_bound_names_bad_mu(self):
        with pytest.raises(ValueError, match=r"^mu must be positive, got 0\.0$"):
            lower_bound_constants(0.0, 1.0, 1.0)

    def test_lower_bound_names_bad_c(self):
        with pytest.raises(ValueError, match=r"^c must be positive, got -0\.5$"):
            lower_bound_constants(1.0, 1.0, -0.5)


class TestLossRegistry:
    def test_lookup(self):
        assert get_loss("exponential").name == "exponential"
        assert get_loss("truncated-quadratic", R=2.0).margin_bound == pytest.approx(7.0)

    def test_unknown_name(self):
        with pytest.raises(LossSpecError):
            get_loss("perceptron")

    def test_lipschitz_tracks_working_interval(self):
        assert exponential_loss(R=1.0).lipschitz == pytest.approx(math.exp(4.0))
        assert truncated_quadratic_loss(R=1.0).lipschitz == pytest.approx(10.0)

    def test_validation_rejects_nonconvex(self):
        with pytest.raises(LossSpecError):
            losses._validate(
                SurrogateLoss(
                    name="bad",
                    phi=lambda z: -np.square(np.asarray(z, dtype=float)),
                    phi_prime=lambda z: -2.0 * np.asarray(z, dtype=float),
                    lipschitz=100.0,
                    margin_bound=4.0,
                    smoothness=2.0,
                    psi_lower_a=1.0,
                    psi_lower_gamma=2.0,
                )
            )
