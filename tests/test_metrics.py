import math

import numpy as np
import pytest

from quatgan import metrics as M
from quatgan.errors import DomainError


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


class TestExtractors:
    def test_pixel_features_deterministic(self, rng):
        imgs = rng.uniform(-1, 1, size=(4, 3, 16, 16))
        ex = M.PixelFeatures()
        a, b = ex(imgs), ex(imgs)
        assert np.array_equal(a, b)
        assert a.shape == (4, 192)
