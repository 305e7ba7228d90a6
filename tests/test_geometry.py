import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfspace_active import geometry
from halfspace_active.errors import (
    DimensionMismatch,
    NormalizationError,
    UnsupportedRadius,
)
from halfspace_active.geometry import (
    HypothesisBall,
    UnitVector,
    angle,
    chord_length,
    disagreement_exists_oracle,
    normalize,
    query_mask,
    should_query,
)

E1 = normalize([1.0, 0.0])
E2 = normalize([0.0, 1.0])


def unit_at(theta, d=2):
    """Unit vector at angle theta from e1 in the (e1, e2) plane."""
    v = np.zeros(d)
    v[0] = math.cos(theta)
    v[1] = math.sin(theta)
    return normalize(v)


class TestNormalize:
    def test_scales_to_unit(self):
        u = normalize([3.0, 4.0])
        np.testing.assert_allclose(u.coords, [0.6, 0.8], atol=1e-15)

    def test_already_unit(self):
        u = normalize([1.0, 0.0])
        np.testing.assert_allclose(u.coords, [1.0, 0.0], atol=0)

    def test_zero_vector_rejected(self):
        with pytest.raises(NormalizationError):
            normalize([0.0, 0.0])

    def test_nonunit_construction_rejected(self):
        with pytest.raises(NormalizationError):
            UnitVector(np.array([1.0, 1.0]))

    def test_one_dimensional_rejected(self):
        with pytest.raises(ValueError):
            normalize([2.0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("v", [[0.0, 3.44e-158], [1e-200, 1e-200], [1e300, 1e300]])
    def test_tiny_and_huge_vectors(self, v):
        # the squared norm of each underflows or overflows
        assert abs(np.linalg.norm(normalize(v).coords) - 1.0) <= 1e-12

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=6))
    def test_norm_is_one_or_error(self, coords):
        v = np.asarray(coords)
        if not np.any(v):
            with pytest.raises(NormalizationError):
                normalize(v)
        else:
            assert abs(np.linalg.norm(normalize(v).coords) - 1.0) <= 1e-12


def _np_norm_unit_coords(v):
    """_unit_coords with its norms taken by np.linalg.norm: the bits _norm must keep."""
    arr = np.asarray(v, dtype=np.float64)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(arr))
    if not geometry._SAFE_NORMS[0] <= norm <= geometry._SAFE_NORMS[1]:
        scale = float(np.max(np.abs(arr), initial=0.0))
        if not math.isfinite(scale) or scale <= 0.0:
            raise NormalizationError(f"cannot normalize vector with norm {norm!r}")
        arr = arr / scale
        norm = float(np.linalg.norm(arr))
    return arr / norm


def _same_bits(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or np.float64(a).tobytes() == np.float64(b).tobytes()


# entries of normal, subnormal and ~1e150 magnitude; d <= 12 keeps the
# squared norm of 1e151-sized entries finite
_ENTRY = st.one_of(
    st.floats(-10.0, 10.0),
    st.floats(-2.2e-308, 2.2e-308),
    st.floats(1e149, 1e151),
    st.floats(-1e151, -1e149),
)
_VECTORS = st.integers(2, 12).flatmap(lambda d: st.lists(_ENTRY, min_size=d, max_size=d))


class TestNormBits:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @given(_VECTORS)
    def test_norm_and_normalize_keep_numpy_bits(self, coords):
        v = np.asarray(coords)
        assert _same_bits(geometry._norm(v), float(np.linalg.norm(v)))
        try:
            expected = _np_norm_unit_coords(v)
        except NormalizationError:
            with pytest.raises(NormalizationError):
                normalize(v)
        else:
            assert normalize(v).coords.tobytes() == expected.tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @given(_VECTORS, st.integers(0, 11), st.sampled_from([math.inf, -math.inf, math.nan]))
    def test_non_finite_entries_rejected(self, coords, i, bad):
        v = np.asarray(coords)
        v[i % v.size] = bad
        with pytest.raises(NormalizationError, match="non-finite entries"):
            UnitVector(v)

    @pytest.mark.parametrize("v", [np.float64(1.0), np.ones((2, 2)) / 2.0, np.eye(3)[:, :2]])
    def test_unit_vector_not_1d_rejected(self, v):
        with pytest.raises(ValueError):
            UnitVector(v)

    @pytest.mark.parametrize("v, error", [
        (3.0, ValueError),
        (np.ones((2, 2)), ValueError),
        (np.full((3, 2), 1e300), ValueError),
        (0.0, NormalizationError),
        (np.zeros((2, 2)), NormalizationError),
    ])
    def test_normalize_not_1d_keeps_its_error(self, v, error):
        with pytest.raises(error):
            normalize(v)


class TestAngleAndChord:
    def test_identical(self):
        assert angle(E1, E1) == 0.0
        assert chord_length(E1, E1) == 0.0

    def test_orthogonal(self):
        assert angle(E1, E2) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_antipodal(self):
        m = normalize([-1.0, 0.0])
        assert angle(E1, m) == pytest.approx(math.pi, abs=1e-15)
        assert chord_length(E1, m) == pytest.approx(2.0, abs=1e-15)

    def test_right_angle_chord(self):
        assert chord_length(E1, E2) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            angle(E1, normalize([1.0, 0.0, 0.0]))
        with pytest.raises(DimensionMismatch):
            chord_length(E1, normalize([1.0, 0.0, 0.0]))

    def test_chord_identity_random_pairs(self):
        # ||u - v|| == 2 sin(theta/2) within 1e-10 on 10^4 random pairs
        rng = np.random.default_rng(7)
        for d in (2, 3, 10):
            us = rng.standard_normal((3400, d))
            vs = rng.standard_normal((3400, d))
            for u, v in zip(us, vs):
                uu, vv = normalize(u), normalize(v)
                assert abs(chord_length(uu, vv) - 2 * math.sin(angle(uu, vv) / 2)) < 1e-10

    @given(st.floats(0.0, math.pi))
    @settings(max_examples=50)
    def test_angle_recovers_construction(self, theta):
        assert angle(E1, unit_at(theta)) == pytest.approx(theta, abs=1e-7)


class TestShouldQuery:
    def test_radius_two_queries_everything(self):
        ball = HypothesisBall(E1, 2.0)
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert should_query(rng.standard_normal(2), ball)

    def test_radius_one_threshold(self):
        # threshold at r=1 is sqrt(3)/2 ~= 0.8660
        ball = HypothesisBall(E1, 1.0)
        assert not should_query([0.9, math.sqrt(1 - 0.81)], ball)
        assert should_query([0.5, math.sqrt(0.75)], ball)

    def test_tie_is_inclusive(self):
        ball = HypothesisBall(E1, 1.0)
        t = geometry.margin_threshold(1.0)
        assert should_query([t, math.sqrt(1 - t * t)], ball)

    def test_zero_instance_rejected(self):
        with pytest.raises(NormalizationError):
            should_query([0.0, 0.0], HypothesisBall(E1, 1.0))

    def test_intermediate_radius_rejected(self):
        with pytest.raises(UnsupportedRadius):
            should_query([1.0, 0.0], HypothesisBall(E1, 1.5))
        with pytest.raises(UnsupportedRadius):
            HypothesisBall(E1, 2.5)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        ball = HypothesisBall(normalize(rng.standard_normal(3)), 0.5)
        for _ in range(50):
            x = rng.standard_normal(3)
            c = float(rng.uniform(1e-6, 1e6))
            assert should_query(x, ball) == should_query(c * x, ball)

    def test_monotone_in_radius(self):
        rng = np.random.default_rng(4)
        radii = [0.125, 0.25, 0.5, 1.0, 2.0]
        w = normalize(rng.standard_normal(3))
        for _ in range(200):
            x = rng.standard_normal(3)
            flags = [should_query(x, HypothesisBall(w, r)) for r in radii]
            # once true, stays true at larger radii
            assert flags == sorted(flags)


class TestOracleEquivalence:
    def test_boundary_instance_always_ambiguous(self):
        assert disagreement_exists_oracle([0.0, 1.0], HypothesisBall(E1, 1.0))

    def test_aligned_instance_unambiguous(self):
        # pi/2 exceeds the half-angle 2 arcsin(1/2) = pi/3
        assert not disagreement_exists_oracle([1.0, 0.0], HypothesisBall(E1, 1.0))

    def test_radius_two(self):
        assert disagreement_exists_oracle([1.0, 0.0], HypothesisBall(E1, 2.0))

    def test_matches_should_query_randomly(self):
        rng = np.random.default_rng(11)
        for d in (2, 3, 10):
            for r in (2.0, 1.0, 0.5, 0.25, 0.125):
                w = normalize(rng.standard_normal(d))
                ball = HypothesisBall(w, r)
                X = rng.standard_normal((500, d))
                mask = query_mask(X, ball)
                for x, expected in zip(X, mask):
                    assert should_query(x, ball) == expected
                    assert disagreement_exists_oracle(x, ball) == expected

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("x", [[1e-200, 1e-200], [0.0, 3.44e-158], [1e300, 1e300]])
    def test_mask_agrees_on_tiny_and_huge_rows(self, x):
        # each row's squared norm underflows or overflows
        rng = np.random.default_rng(12)
        X = rng.standard_normal((50, 2))
        for r in (1.0, 0.5, 0.25):
            for w in (E1, E2, unit_at(math.pi / 4.0), unit_at(-0.3)):
                ball = HypothesisBall(w, r)
                mask = query_mask(np.vstack([X, x]), ball)
                assert mask[-1] == should_query(x, ball)
                np.testing.assert_array_equal(mask[:-1], query_mask(X, ball))

    def test_mask_rejects_zero_and_non_finite_rows(self):
        ball = HypothesisBall(E1, 0.5)
        for x in ([0.0, 0.0], [np.inf, 1.0], [np.nan, 1.0]):
            with pytest.raises(NormalizationError):
                query_mask(np.array([[1.0, 2.0], x]), ball)


class TestDisRegion:
    # DIS(B(w, r)), the instances on which some hypothesis within chord
    # distance r of w disagrees with w, is the query region of the ball
    def test_large_radius_covers_everything(self):
        rng = np.random.default_rng(5)
        for d in (2, 3):
            ball = HypothesisBall(normalize(rng.standard_normal(d)), 2.0)
            X = rng.standard_normal((20, d))
            assert query_mask(X, ball).all()
            assert all(should_query(x, ball) for x in X)

    def test_boundary_point(self):
        assert should_query([0.0, 1.0], HypothesisBall(E1, 0.25))

    def test_far_from_boundary(self):
        assert not should_query(unit_at(0.2).coords, HypothesisBall(E1, 0.125))

    def test_radius_domain(self):
        with pytest.raises(UnsupportedRadius):
            HypothesisBall(E1, 0.0)
        with pytest.raises(UnsupportedRadius):
            HypothesisBall(E1, 2.5)
        with pytest.raises(UnsupportedRadius):
            HypothesisBall(E1, 1.5)

    def test_half_angle(self):
        assert HypothesisBall(E1, 2.0).half_angle == math.pi
        assert HypothesisBall(E1, 1.0).half_angle == pytest.approx(math.pi / 3.0, abs=1e-15)

    def test_band_probability_closed_forms(self):
        for r in (1.0, 0.5, 2.0**-8):
            t = geometry.margin_threshold(r)
            ball = {d: HypothesisBall(unit_at(0.3, d), r) for d in (2, 3, 4, 5)}
            assert ball[2].band_probability == pytest.approx(4.0 / math.pi * math.asin(r / 2.0))
            assert ball[3].band_probability == pytest.approx(t)
            assert ball[4].band_probability == pytest.approx(
                2.0 / math.pi * (math.asin(t) + t * math.sqrt(1.0 - t * t)))
            assert ball[5].band_probability == pytest.approx((3.0 * t - t**3) / 2.0)
        assert HypothesisBall(unit_at(0.3, 7), 2.0).band_probability == 1.0

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 10, 20])
    def test_band_probability_matches_query_rate(self, d):
        # the rule reads x̄ only, so any rotation-invariant marginal will do
        rng = np.random.default_rng(d)
        X = rng.standard_normal((200_000, d))
        for r in (1.0, 0.25, 2.0**-6):
            ball = HypothesisBall(normalize(rng.standard_normal(d)), r)
            p = ball.band_probability
            rate = np.mean(query_mask(X, ball))
            assert abs(rate - p) <= 3.0 * math.sqrt(p * (1.0 - p) / X.shape[0])

    def test_mask_agrees_with_scalar(self):
        rng = np.random.default_rng(6)
        ball = HypothesisBall(normalize(rng.standard_normal(3)), 0.2)
        X = rng.standard_normal((300, 3))
        mask = query_mask(X, ball)
        for x, expected in zip(X, mask):
            assert should_query(x, ball) == expected

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_mask_agrees_on_tiny_and_huge_rows(self):
        X = np.array([[1e-200, 1e-200], [0.0, 3.44e-158], [1e300, 1e300], [-1e300, 2e-300]])
        for w in (E1, E2, unit_at(0.9)):
            for r in (0.125, 0.25):
                ball = HypothesisBall(w, r)
                assert query_mask(X, ball).tolist() == [should_query(x, ball) for x in X]
