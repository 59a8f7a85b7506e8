"""Quaternion batch normalization and the power iteration behind quaternion
spectral normalization.

QBN here is the proper-signal approximation: the four component variances are
pooled into a single per-channel scale (the 4-sigma^2 aggregate), the
quaternion mean is subtracted component-wise, and the affine stage uses one
real gain per channel plus a quaternion shift. Full whitening by the inverse
square root of the augmented covariance is deliberately not implemented.
QBN always normalizes by the statistics of the batch it is given, in training
and in sampling alike; it keeps no running statistics and has no eval mode.

Spectral normalization itself lives on the weighted modules
(:meth:`quatgan.models._WeightedModule.update_sn_scale`). Each normalized
weight owns its power-iteration vectors in one list, ``sn_u``: one vector for
:func:`quatgan.layers.hamilton_block` of the kernel in full mode, four (one
per component submatrix) in split mode. :func:`power_iteration_sigma` runs
one round per call and updates its vector in place, so the arrays a module
lists in ``states()`` stay the ones a checkpoint load writes into.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ShapeMismatchError
from .qtensor import QTensor

__all__ = [
    "EPSILON",
    "qbn",
    "power_iteration_sigma",
]


# -- batch normalization --------------------------------------------------------

EPSILON = 1e-5  # added to the pooled variance before its square root


def _reduce_axes(data: np.ndarray):
    """Axes of a (4, B, C, ...) array pooled by per-channel statistics."""
    if data.ndim < 3:
        raise ShapeMismatchError(f"expected (batch, channels, ...) input, got {data.shape[1:]}")
    return (1,) + tuple(range(3, data.ndim))


def _chan(arr: np.ndarray, ndim: int) -> np.ndarray:
    """Broadcast a (4, C) or (C,) per-channel array across (4, B, C, ...)."""
    if arr.ndim == 2:
        return arr.reshape(4, 1, -1, *([1] * (ndim - 3)))
    return arr.reshape(1, 1, -1, *([1] * (ndim - 3)))


def _batch_stats(data: np.ndarray, eps: float):
    """The centred batch ``data - mu``, the per-channel scale
    ``sqrt(sum_c var_c + eps)`` and the sample count per channel."""
    axes = _reduce_axes(data)
    n = 1
    for a in axes:
        n *= data.shape[a]
    if n < 2:
        raise DomainError("QBN needs at least two samples per channel for variance")
    mu = data.mean(axis=axes, keepdims=True)
    xc = data - mu
    var_c = (xc * xc).mean(axis=axes, keepdims=True)
    s = np.sqrt(var_c.sum(axis=0, keepdims=True) + eps)
    return xc, s, n


def qbn(x, gamma, beta):
    """QBN of a (4, B, C, ...) tape node by the statistics of its batch.

    ``gamma`` holds one real gain per channel (carried in q0) and ``beta``
    one quaternion shift per channel. The batch statistics are part of the
    recorded gradient.
    """
    saved = {}

    def fwd(xv: QTensor, gv: QTensor, bv: QTensor) -> QTensor:
        data = xv.data
        xc, s, n = _batch_stats(data, EPSILON)
        xhat = xc / s
        g0 = _chan(gv.q0, data.ndim)
        saved.update(xc=xc, s=s, n=n, xhat=xhat, gamma=g0)
        return QTensor(g0 * xhat + _chan(bv.data, data.ndim))

    def bwd(g):
        xhat, gamma, s, xc, n = (saved[k] for k in ("xhat", "gamma", "s", "xc", "n"))
        axes = _reduce_axes(g)
        dgamma = np.zeros((4, gamma.shape[2]), dtype=g.dtype)
        dgamma[0] = (g * xhat).sum(axis=(0,) + axes)
        dbeta = g.sum(axis=axes)
        dxhat = g * gamma
        dv = (dxhat * xc).sum(axis=(0,) + axes, keepdims=True) * (-0.5) / (s ** 3)
        dmu = dxhat.sum(axis=axes, keepdims=True) * (-1.0 / s)
        dx = dxhat / s + dv * (2.0 / n) * xc + dmu / n
        return dx, dgamma, dbeta

    return x.tape.record("qbn", (x, gamma, beta), fwd, bwd)


# -- spectral normalization ------------------------------------------------------


def power_iteration_sigma(m: np.ndarray, u: np.ndarray) -> float:
    """One round of persisted power iteration for the largest singular value.

    Runs v <- M^T u / |.|, u <- M v / |.| with ``u`` updated in place, and
    returns u^T M v. A matrix it finds no direction in (a zero matrix) yields
    sigma 0 and leaves ``u`` as it is.
    """
    m = np.asarray(m)
    if m.ndim != 2:
        raise ShapeMismatchError(f"power iteration expects a matrix, got shape {m.shape}")
    if not m.any():
        return 0.0
    v = m.T @ u
    nv = np.linalg.norm(v)
    if nv == 0.0:
        # u landed orthogonal to the range; restart from a ramp
        ramp = np.arange(1, u.size + 1, dtype=u.dtype)
        v = m.T @ (ramp / np.linalg.norm(ramp))
        nv = np.linalg.norm(v)
        if nv == 0.0:
            return 0.0
    v /= nv
    u[...] = m @ v
    u /= np.linalg.norm(u)
    return float(u @ m @ v)
