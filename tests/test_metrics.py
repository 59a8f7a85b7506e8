import math

import numpy as np
import pytest

from quatgan import metrics as M
from quatgan.errors import DomainError, NumericError, ShapeMismatchError


def sqrt_psd(m):
    vals, vecs = np.linalg.eigh(m)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def eigh_reference_fd(mu1, cov1, mu2, cov2):
    """Frechet distance through the square root of cov2, the other side from
    the one the metric roots: Tr((C1 C2)^{1/2}) = Tr((B C1 B)^{1/2}), B = C2^{1/2}."""
    b = sqrt_psd(cov2)
    diff = mu1 - mu2
    return diff @ diff + np.trace(cov1) + np.trace(cov2) - 2 * np.trace(sqrt_psd(b @ cov1 @ b))


def reshape_mean_features(images):
    """Mean over each 8x8 grid cell's pixels by a reshape to two window axes."""
    x = np.asarray(images, dtype=np.float64)
    n, c, h, w = x.shape
    return x.reshape(n, c, 8, h // 8, 8, w // 8).mean(axis=(3, 5)).reshape(n, -1)


def closed_form_2x2_fd(mu1, cov1, mu2, cov2):
    """Independent 2-D oracle using the explicit 2x2 PSD square root:
    sqrt(M) = (M + sqrt(det M) I) / sqrt(tr M + 2 sqrt(det M))."""

    def sqrt2x2(m):
        s = math.sqrt(max(np.linalg.det(m), 0.0))
        t = math.sqrt(m[0, 0] + m[1, 1] + 2 * s)
        return (m + s * np.eye(2)) / t

    a = sqrt2x2(cov1)
    inner = a @ cov2 @ a
    inner = 0.5 * (inner + inner.T)
    cross = sqrt2x2(inner)
    diff = np.asarray(mu1) - np.asarray(mu2)
    return float(diff @ diff + np.trace(cov1) + np.trace(cov2) - 2 * np.trace(cross))


class TestFitGaussian:
    def test_constant_batch_zero_covariance(self):
        f = np.tile(np.array([1.0, 2.0, 3.0]), (8, 1))
        mu, cov = M.fit_gaussian(f)
        assert np.allclose(mu, [1, 2, 3])
        assert np.allclose(cov, 0.0)

    def test_two_point_mean(self):
        mu, _ = M.fit_gaussian(np.array([[0.0, 2.0], [4.0, 6.0]]))
        assert np.allclose(mu, [2.0, 4.0])

    def test_matches_loop_oracle(self, rng):
        f = rng.standard_normal((10, 3))
        mu, cov = M.fit_gaussian(f)
        n, d = f.shape
        mu_loop = [sum(f[i, j] for i in range(n)) / n for j in range(d)]
        assert np.allclose(mu, mu_loop, atol=1e-12)
        for a in range(d):
            for b in range(d):
                want = sum((f[i, a] - mu_loop[a]) * (f[i, b] - mu_loop[b]) for i in range(n)) / n
                assert abs(cov[a, b] - want) < 1e-12

    def test_needs_two_samples(self):
        with pytest.raises(DomainError):
            M.fit_gaussian(np.ones((1, 4)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_features_raise(self, rng, bad):
        f = rng.standard_normal((6, 3))
        f[2, 1] = bad
        with pytest.raises(NumericError, match="non-finite entries in features"):
            M.fit_gaussian(f)


class TestFrechetDistance:
    def test_identical_gaussians(self, rng):
        a = rng.standard_normal((4, 4))
        cov = a @ a.T
        mu = rng.standard_normal(4)
        assert M.frechet_distance(mu, cov, mu, cov) < 1e-10

    def test_mean_shift_with_equal_covariance(self, rng):
        a = rng.standard_normal((3, 3))
        cov = a @ a.T
        mu = rng.standard_normal(3)
        shift = np.array([1.0, -2.0, 0.5])
        got = M.frechet_distance(mu, cov, mu + shift, cov)
        assert abs(got - shift @ shift) < 1e-8

    def test_2d_closed_form_oracle(self, rng):
        for _ in range(20):
            a = rng.standard_normal((2, 2))
            b = rng.standard_normal((2, 2))
            cov1, cov2 = a @ a.T + 0.1 * np.eye(2), b @ b.T + 0.1 * np.eye(2)
            mu1, mu2 = rng.standard_normal(2), rng.standard_normal(2)
            got = M.frechet_distance(mu1, cov1, mu2, cov2)
            want = closed_form_2x2_fd(mu1, cov1, mu2, cov2)
            assert abs(got - want) / max(abs(want), 1e-12) < 1e-6

    def test_symmetry(self, rng):
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        cov1, cov2 = a @ a.T + 0.1 * np.eye(3), b @ b.T + 0.1 * np.eye(3)
        mu1, mu2 = rng.standard_normal(3), rng.standard_normal(3)
        d12 = M.frechet_distance(mu1, cov1, mu2, cov2)
        d21 = M.frechet_distance(mu2, cov2, mu1, cov1)
        assert abs(d12 - d21) < 1e-10
        assert d12 >= 0.0

    def test_asymmetric_covariance_rejected(self):
        bad = np.array([[1.0, 0.5], [0.1, 1.0]])
        with pytest.raises(DomainError):
            M.frechet_distance(np.zeros(2), bad, np.zeros(2), np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("which", range(4))
    def test_non_finite_moment_raises(self, bad, which):
        moments = [np.zeros(2), np.eye(2), np.zeros(2), np.eye(2)]
        moments[which][0, ...] = bad
        name = ["mu_g", "cov_g", "mu_r", "cov_r"][which]
        with pytest.raises(NumericError, match=f"non-finite entries in {name}$"):
            M.frechet_distance(*moments)

    def test_rank_deficient_covariances_of_an_eval_batch(self):
        """128 samples of 192 features, as an eval point fits: both
        covariances have rank 127."""
        rng = np.random.default_rng(7)
        mu_g, cov_g = M.fit_gaussian(np.tanh(rng.standard_normal((128, 192))))
        mu_r, cov_r = M.fit_gaussian(0.5 * np.tanh(rng.standard_normal((128, 192)) + 0.3))
        assert np.linalg.matrix_rank(cov_g) == np.linalg.matrix_rank(cov_r) == 127
        got = M.frechet_distance(mu_g, cov_g, mu_r, cov_r)
        want = eigh_reference_fd(mu_g, cov_g, mu_r, cov_r)
        assert abs(got - want) <= 1e-8 * want
        assert abs(M.frechet_distance(mu_r, cov_r, mu_g, cov_g) - got) <= 1e-8 * got

    def test_collapsed_generator(self):
        """A generator that emits one image has a zero covariance; the cross
        term vanishes and the distance is |mu_g - mu_r|^2 + Tr(C_r)."""
        rng = np.random.default_rng(8)
        # float32 entries sum exactly in float64, so the mean is exact too
        row = rng.uniform(-1, 1, 192).astype(np.float32)
        mu_g, cov_g = M.fit_gaussian(np.tile(row, (128, 1)))
        assert not cov_g.any()
        mu_r, cov_r = M.fit_gaussian(np.tanh(rng.standard_normal((128, 192))))
        got = M.frechet_distance(mu_g, cov_g, mu_r, cov_r)
        closed = (mu_g - mu_r) @ (mu_g - mu_r) + np.trace(cov_r)
        assert abs(got - eigh_reference_fd(mu_g, cov_g, mu_r, cov_r)) <= 1e-12 * closed
        assert abs(got - closed) <= 1e-12 * closed
        assert abs(M.frechet_distance(mu_r, cov_r, mu_g, cov_g) - got) <= 1e-12 * closed


class TestExtractors:
    def test_pixel_features_deterministic(self, rng):
        imgs = rng.uniform(-1, 1, size=(4, 3, 16, 16))
        ex = M.PixelFeatures()
        a, b = ex(imgs), ex(imgs)
        assert np.array_equal(a, b)
        assert a.shape == (4, 192)

    @pytest.mark.parametrize("size", [8, 16, 32])
    def test_pixel_features_match_the_reshape_mean(self, rng, size):
        """Bitwise the mean over each cell for float32 images, which is what
        generated and loaded images are; float64 images move in the last bits
        because the window sum adds in another order."""
        imgs = rng.uniform(-1, 1, size=(16, 3, size, size))
        ex = M.PixelFeatures()
        f32 = imgs.astype(np.float32)
        assert np.array_equal(ex(f32), reshape_mean_features(f32))
        np.testing.assert_allclose(ex(imgs), reshape_mean_features(imgs), rtol=1e-11, atol=0)

    def test_pixel_features_refuse_non_square_images(self):
        with pytest.raises(ShapeMismatchError):
            M.PixelFeatures()(np.zeros((2, 3, 8, 16)))
