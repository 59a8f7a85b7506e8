"""The one distribution metric: the Frechet distance between Gaussian fits
of generated and real image features.

The features are the images average-pooled to an 8x8 grid and flattened
(:class:`PixelFeatures`). This is a stand-in: FID and the Inception Score
are defined on Inception-v3 features, and those weights are not in this
repository. So a distance here is comparable only with other distances made
by this repository, never with FID or IS values reported elsewhere.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ShapeMismatchError

__all__ = ["fit_gaussian", "frechet_distance", "PixelFeatures"]

# Side of the pooled feature grid; every preset's images are at least this big.
FEATURE_GRID = 8


def fit_gaussian(features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and biased sample covariance of a (N, d) feature batch."""
    f = np.asarray(features, dtype=np.float64)
    if f.ndim != 2 or f.shape[0] < 2:
        raise DomainError(f"need a (N>=2, d) feature batch, got {f.shape}")
    mu = f.mean(axis=0)
    centered = f - mu
    cov = centered.T @ centered / f.shape[0]
    return mu, cov


def _sym_sqrt(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    vals = np.maximum(vals, 0.0)
    return (vecs * np.sqrt(vals)) @ vecs.T


def frechet_distance(mu_g, cov_g, mu_r, cov_r) -> float:
    """Frechet distance between two Gaussians:
    |mu_g - mu_r|^2 + Tr(C_g + C_r - 2 (C_g C_r)^{1/2}).

    The cross term is evaluated through the symmetrized product
    A C_r A with A = C_g^{1/2}, using symmetric eigendecompositions; tiny
    negative results from roundoff are clamped to zero.
    """
    mu_g, mu_r = np.asarray(mu_g, dtype=np.float64), np.asarray(mu_r, dtype=np.float64)
    cov_g, cov_r = np.asarray(cov_g, dtype=np.float64), np.asarray(cov_r, dtype=np.float64)
    if mu_g.shape != mu_r.shape or cov_g.shape != cov_r.shape:
        raise ShapeMismatchError(
            f"moment shapes disagree: {mu_g.shape}/{cov_g.shape} vs {mu_r.shape}/{cov_r.shape}"
        )
    for name, c in (("cov_g", cov_g), ("cov_r", cov_r)):
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ShapeMismatchError(f"{name} must be square, got {c.shape}")
        if np.abs(c - c.T).max() > 1e-8:
            raise DomainError(f"{name} is not symmetric within 1e-8")
    a = _sym_sqrt(cov_g)
    inner = a @ cov_r @ a
    inner = 0.5 * (inner + inner.T)
    vals = np.maximum(np.linalg.eigvalsh(inner), 0.0)
    tr_sqrt = np.sqrt(vals).sum()
    diff = mu_g - mu_r
    fd = float(diff @ diff + np.trace(cov_g) + np.trace(cov_r) - 2.0 * tr_sqrt)
    return max(fd, 0.0)


class PixelFeatures:
    """Average-pool (N, 3, H, W) images to a ``FEATURE_GRID`` square and
    flatten to (N, 3 * FEATURE_GRID**2). Deterministic."""

    def __call__(self, images: np.ndarray) -> np.ndarray:
        x = np.asarray(images, dtype=np.float64)
        if x.ndim != 4 or x.shape[1] != 3:
            raise ShapeMismatchError(f"expected (N, 3, H, W) images, got {x.shape}")
        n, c, h, w = x.shape
        if h % FEATURE_GRID or w % FEATURE_GRID:
            raise ShapeMismatchError(
                f"image size {(h, w)} not divisible by feature grid {FEATURE_GRID}"
            )
        bh, bw = h // FEATURE_GRID, w // FEATURE_GRID
        pooled = x.reshape(n, c, FEATURE_GRID, bh, FEATURE_GRID, bw).mean(axis=(3, 5))
        return pooled.reshape(n, -1)
