"""Exact Gaussian routines: depth inversion and half-space representation."""

import numpy as np
import pytest

from liftzonoid import (
    Direction,
    GaussianMeasure,
    HalfSpace,
    g_inverse,
    g_ratio,
    gaussian_depth,
    gaussian_represent,
    normal_cdf,
    radius,
)

# mpmath dps=50 references
G_AT_1 = 0.2875999709391783612          # pdf(1)/cdf(1)
PHI_1 = 0.8413447460685429486           # cdf(1)
R_INV_1 = 0.3810856042280729054         # alpha with radius(alpha) = 1
SQRT_2_OVER_PI = 0.7978845608028653559


class TestGaussianDepth:
    def test_mean_has_full_depth(self, std2):
        assert gaussian_depth(std2, [0.0, 0.0]) == 1.0

    def test_radius_roundtrip(self, std2):
        for alpha in [0.1, 0.25, 0.5, 0.9]:
            x = radius(alpha) * np.array([1.0, 0.0])
            assert gaussian_depth(std2, x) == pytest.approx(alpha, abs=1e-10)

    def test_radius_of_depth_is_the_norm(self, std2):
        for rho in np.geomspace(1e-3, 8.0, 200):
            depth = gaussian_depth(std2, [rho, 0.0])
            assert radius(depth) == pytest.approx(rho, rel=1e-9)

    def test_reference_values(self, std2):
        assert gaussian_depth(std2, [SQRT_2_OVER_PI, 0.0]) == pytest.approx(
            0.5, abs=1e-10
        )
        assert gaussian_depth(std2, [1.0, 0.0]) == pytest.approx(R_INV_1, abs=1e-10)

    def test_rotation_invariance(self, std2):
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        x = np.array([0.7, -0.2])
        assert gaussian_depth(std2, q @ x) == pytest.approx(
            gaussian_depth(std2, x), abs=1e-12
        )

    def test_monotone_in_norm(self, std2):
        norms = [0.1, 0.5, 1.0, 2.0, 4.0]
        depths = [gaussian_depth(std2, [r, 0.0]) for r in norms]
        assert all(b < a for a, b in zip(depths, depths[1:]))

    def test_whitening_reduces_general_case(self):
        mu = GaussianMeasure.from_covariance([2.0, -1.0],
                                             [[3.0, 1.0], [1.0, 2.0]])
        x = np.array([2.5, -0.3])
        rho = float(np.linalg.norm(mu.whiten(x)))
        std = GaussianMeasure.standard(2)
        assert gaussian_depth(mu, x) == pytest.approx(
            gaussian_depth(std, [rho, 0.0]), abs=1e-12
        )

    def test_far_tail_underflows_to_zero(self, std2):
        assert gaussian_depth(std2, [60.0, 0.0]) == 0.0


class TestGaussianRepresent:
    def test_half_depth_point(self, std2):
        # x = sqrt(2/pi) e1 is the barycenter of the closed half-plane
        # {x1 >= 0}, which carries mass 1/2
        res = gaussian_represent(std2, [SQRT_2_OVER_PI, 0.0])
        np.testing.assert_allclose(res.halfspace.direction.vec, [1.0, 0.0],
                                   atol=1e-12)
        assert res.halfspace.offset == pytest.approx(0.0, abs=1e-12)
        assert res.alpha == pytest.approx(0.5, abs=1e-12)
        assert res.residual <= 1e-12
        assert res.unique
        assert res.method == "closed-form"

    def test_one_dimensional_tail_mean(self, std1):
        # G(1) is the mean of the half-line {z >= -1}: mass cdf(1)
        res = gaussian_represent(std1, [G_AT_1])
        assert res.halfspace.offset == pytest.approx(-1.0, abs=1e-9)
        assert res.alpha == pytest.approx(PHI_1, abs=1e-9)
        assert res.residual <= 1e-12

    def test_mean_maps_to_whole_space(self, std2):
        res = gaussian_represent(std2, [0.0, 0.0])
        assert res.halfspace.is_whole_space
        assert res.alpha == 1.0
        assert res.residual == 0.0
        d = res.to_json_dict()
        assert d["halfspace"] == "whole-space"

    def test_closure_general_covariance(self):
        mu = GaussianMeasure.from_covariance([1.0, -2.0, 0.5],
                                             [[4.0, 1.0, 0.0],
                                              [1.0, 2.0, 0.3],
                                              [0.0, 0.3, 1.5]])
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = mu.location + 0.8 * rng.standard_normal(3)
            if np.linalg.norm(mu.whiten(x)) < 1e-6:
                continue
            res = gaussian_represent(mu, x)
            b = mu.halfspace_barycenter(res.halfspace)
            np.testing.assert_allclose(b, x, atol=1e-9)
            # the reported mass is the true mass of the half-space
            assert mu.halfspace_mass(res.halfspace) == pytest.approx(
                res.alpha, abs=1e-12
            )

    def test_alpha_matches_depth(self, std2):
        x = [0.4, 0.9]
        res = gaussian_represent(std2, x)
        assert res.alpha == pytest.approx(gaussian_depth(std2, x), abs=1e-10)

    def test_rotation_equivariance(self, std2):
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        x = np.array([0.6, 0.1])
        r0 = gaussian_represent(std2, x)
        r1 = gaussian_represent(std2, q @ x)
        np.testing.assert_allclose(r1.halfspace.direction.vec,
                                   q @ r0.halfspace.direction.vec, atol=1e-9)
        assert r1.halfspace.offset == pytest.approx(r0.halfspace.offset,
                                                    abs=1e-9)

    def test_orientation_matters(self, std1):
        # the reflected half-space {z >= +1} has a different barycenter,
        # so the representation must pick the offset with actual closure
        wrong = HalfSpace(Direction([1.0]), 1.0)
        b = GaussianMeasure.standard(1).halfspace_barycenter(wrong)
        assert abs(b[0] - G_AT_1) > 1.0  # 1.7703... vs 0.2876...


class TestMonteCarloClosure:
    def test_barycenter_within_mc_band(self, std2):
        # sample check of the closed form: conditional mean of draws in the
        # represented half-space approaches x at the usual sqrt(K) rate
        x = np.array([0.55, -0.35])
        res = gaussian_represent(std2, x)
        rng = np.random.default_rng(123)
        z = rng.standard_normal((200_000, 2))
        keep = z @ res.halfspace.direction.vec >= res.halfspace.offset
        kept = z[keep]
        est = kept.mean(axis=0)
        se = kept.std(axis=0, ddof=1) / np.sqrt(kept.shape[0])
        assert np.all(np.abs(est - x) <= 4.0 * se)
        # retained fraction estimates alpha
        assert keep.mean() == pytest.approx(res.alpha, abs=5e-3)


def test_scalar_chain_identity():
    # radius(alpha) = G(quantile(alpha)) ties the three scalar routines
    from liftzonoid import normal_quantile

    for alpha in np.linspace(0.02, 0.98, 25):
        assert g_ratio(normal_quantile(alpha)) == pytest.approx(
            radius(alpha), abs=1e-10
        )
    # and the inverse direction
    assert normal_cdf(g_inverse(1.0)) == pytest.approx(R_INV_1, abs=1e-12)
