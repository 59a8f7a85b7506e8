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

    Forward saves only the centred input ``xc`` and the per-channel scale
    ``s``, and writes ``out = xc * (gamma / s) + beta``. Backward is the
    closed form of batch normalization's gradient (Ioffe & Szegedy,
    arXiv:1502.03167) for the pooled variance: with upstream ``g``, ``n``
    samples and per-channel ``S = sum(g * xc)`` over samples and components,
    ``dx = g * gamma / s - xc * gamma * S / (n s^3) - gamma * sum(g) / (n s)``,
    ``dgamma = S / s`` and ``dbeta = sum(g)``.
    """
    saved = {}
    channels = x.value.shape[1]

    def col_sum(m):
        """Per (component, channel) sum over all samples: (4, C)."""
        return L.channel_sum(m, 4 * channels).reshape(4, channels)

    def chan_dot(a, b):
        """Per-channel sum of ``a * b`` over samples and components: (C,)."""
        return np.einsum("ij,ij->j", a, b).reshape(-1, channels).sum(axis=0)

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
        s = np.sqrt(chan_dot(xc, xc) / n + EPSILON)
        saved.update(xc=xc, s=s, n=n, r=r, gamma=gv)
        out = xc * tile(gv / s, r)
        out += tile(bv.data, r)
        return QTensor(_from_rows(out, xv.data.shape, order))

    def bwd(g):
        gamma, s, xc, n, r = (saved[k] for k in ("gamma", "s", "xc", "n", "r"))
        gm, order = _sample_rows(g)
        dbeta = col_sum(gm)
        dot = chan_dot(gm, xc)
        dx = gm * tile(gamma / s, r)
        dx -= xc * tile(gamma * dot / (n * s ** 3), r)
        dx -= tile(gamma * dbeta / (n * s), r)
        return _from_rows(dx, g.shape, order), dot / s, dbeta

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
