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

from . import layers as L
from .errors import DomainError, ShapeMismatchError
from .qtensor import QTensor

__all__ = [
    "EPSILON",
    "qbn",
    "power_iteration_sigma",
]


# -- batch normalization --------------------------------------------------------

EPSILON = 1e-5  # added to the pooled variance before its square root


def _sample_rows(data: np.ndarray):
    """A (4, B, C, ...) array as a (rows, r*4*C) matrix, r samples of the
    per-channel statistics per row, and the axis order that took it there.
    A channels-last map (H, B, W, 4, C) gives its (H, B*W*4*C) view: rows
    this wide make the column sums and per-channel broadcasts fast."""
    if data.ndim < 3:
        raise ShapeMismatchError(f"expected (batch, channels, ...) input, got {data.shape[1:]}")
    order = (3, 1, 4, 0, 2) if data.ndim == 5 else (1, *range(3, data.ndim), 0, 2)
    stored = data.transpose(order)
    return stored.reshape(stored.shape[0], -1), order


def _from_rows(m: np.ndarray, shape, order) -> np.ndarray:
    """Inverse of :func:`_sample_rows`: a (4, B, C, ...) array of ``shape``
    stored in the axis order of the matrix."""
    return m.reshape([shape[a] for a in order]).transpose(np.argsort(order))


def qbn(x, gamma, beta):
    """QBN of a (4, B, C, ...) tape node by the statistics of its batch.

    ``gamma`` holds one real gain per channel, a plain (C,) array, and
    ``beta`` one quaternion shift per channel. The batch statistics are part
    of the recorded gradient. Both passes run on the :func:`_sample_rows`
    matrix, a view of a channels-last map, and write their results in its
    layout.
    """
    saved = {}
    channels = x.value.shape[1]

    def col_sum(m):
        """Per (component, channel) sum over all samples: (4, C)."""
        return L.channel_sum(m, 4 * channels).reshape(4, channels)

    def tile(v, r):
        """A (4, C) or (C,) per-channel array as one row of the matrix."""
        return np.tile(np.broadcast_to(v, (4, channels)).reshape(-1), r)

    def fwd(xv: QTensor, gv: np.ndarray, bv: QTensor) -> QTensor:
        m, order = _sample_rows(xv.data)
        r = m.shape[1] // (4 * channels)
        n = m.shape[0] * r
        if n < 2:
            raise DomainError("QBN needs at least two samples per channel for variance")
        xc = m - tile(col_sum(m) / n, r)
        s = np.sqrt((col_sum(xc * xc) / n).sum(axis=0) + EPSILON)
        xhat = xc / tile(s, r)
        saved.update(xc=xc, s=s, n=n, r=r, xhat=xhat, gamma=gv)
        out = xhat * tile(gv, r) + tile(bv.data, r)
        return QTensor(_from_rows(out, xv.data.shape, order))

    def bwd(g):
        xhat, gamma, s, xc, n, r = (saved[k] for k in ("xhat", "gamma", "s", "xc", "n", "r"))
        gm, order = _sample_rows(g)
        dgamma = col_sum(gm * xhat).sum(axis=0)
        dbeta = col_sum(gm)
        dxhat = gm * tile(gamma, r)
        dv = col_sum(dxhat * xc).sum(axis=0) * (-0.5) / (s ** 3)
        dmu = col_sum(dxhat) * (-1.0 / s)
        dx = dxhat / tile(s, r) + tile(dv * (2.0 / n), r) * xc + tile(dmu / n, r)
        return _from_rows(dx, g.shape, order), dgamma, dbeta

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
