"""The one distribution metric: the Frechet distance between Gaussian fits
of generated and real image features.

The features are the images average-pooled to an 8x8 grid and flattened
(:class:`PixelFeatures`). This is a stand-in: FID and the Inception Score
are defined on Inception-v3 features, and those weights are not in this
repository. So a distance here is comparable only with other distances made
by this repository, never with FID or IS values reported elsewhere.

Non-finite features or moments raise :class:`NumericError`, which the CLI
reports as a numeric failure (exit 2).
"""

from __future__ import annotations

import numpy as np

from . import layers as L
from .errors import DomainError, NumericError, ShapeMismatchError

__all__ = ["fit_gaussian", "frechet_distance", "PixelFeatures"]

# Side of the pooled feature grid; every preset's images are at least this big.
FEATURE_GRID = 8


def fit_gaussian(features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and biased sample covariance of a (N, d) feature batch."""
    f = np.asarray(features, dtype=np.float64)
    if f.ndim != 2 or f.shape[0] < 2:
        raise DomainError(f"need a (N>=2, d) feature batch, got {f.shape}")
    _require_finite("features", f)
    mu = f.mean(axis=0)
    centered = f - mu
    cov = centered.T @ centered / f.shape[0]
    return mu, cov


def _require_finite(name: str, a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise NumericError(f"non-finite entries in {name}")


def _sym_sqrt(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    vals = np.maximum(vals, 0.0)
    return (vecs * np.sqrt(vals)) @ vecs.T


def frechet_distance(mu_g, cov_g, mu_r, cov_r) -> float:
    """Frechet distance between two Gaussians:
    |mu_g - mu_r|^2 + Tr(C_g + C_r - 2 (C_g C_r)^{1/2}).

    The cross term is evaluated through the symmetrized product
    A C_r A with A = C_g^{1/2}, using symmetric eigendecompositions; tiny
    negative results from roundoff are clamped to zero. A non-finite moment
    raises :class:`NumericError` naming it.
    """
    mu_g, mu_r = np.asarray(mu_g, dtype=np.float64), np.asarray(mu_r, dtype=np.float64)
    cov_g, cov_r = np.asarray(cov_g, dtype=np.float64), np.asarray(cov_r, dtype=np.float64)
    if mu_g.shape != mu_r.shape or cov_g.shape != cov_r.shape:
        raise ShapeMismatchError(
            f"moment shapes disagree: {mu_g.shape}/{cov_g.shape} vs {mu_r.shape}/{cov_r.shape}"
        )
    for name, m in (("mu_g", mu_g), ("cov_g", cov_g), ("mu_r", mu_r), ("cov_r", cov_r)):
        _require_finite(name, m)
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
    """Average-pool (N, 3, H, H) images to a ``FEATURE_GRID`` square and
    flatten to (N, 3 * FEATURE_GRID**2) in (channel, row, column) order.
    Deterministic.

    The pooling is :func:`quatgan.layers.window_sum` of the float64 images
    viewed as an (H, N, W, 3) map, divided by the window's pixel count."""

    def __call__(self, images: np.ndarray) -> np.ndarray:
        x = np.asarray(images, dtype=np.float64)
        if x.ndim != 4 or x.shape[1] != 3:
            raise ShapeMismatchError(f"expected (N, 3, H, W) images, got {x.shape}")
        n, _, h, w = x.shape
        if h != w or h % FEATURE_GRID:
            raise ShapeMismatchError(
                f"image size {(h, w)} is not a square divisible by feature grid {FEATURE_GRID}"
            )
        window = h // FEATURE_GRID
        pooled = L.window_sum(x.transpose(2, 0, 3, 1), window)
        pooled /= window * window
        return pooled.transpose(1, 3, 0, 2).reshape(n, -1)
