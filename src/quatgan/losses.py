"""GAN objectives in the quaternion framework, as fused tape operations.

Each ``*_op`` records one node whose value is a scalar loss carried in q0.
The hinge and Wasserstein ops read (B,) real decisions carried in q0. The
quaternion cross-entropy scores a quaternion estimate in (0, 1) against a
constant target; estimates are clamped to [eps, 1-eps] with eps = 1e-7, and
clamped entries get zero gradient.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Node
from .errors import DomainError, ShapeMismatchError
from .qtensor import QTensor

__all__ = [
    "EPS",
    "qce_op",
    "hinge_discriminator_op",
    "hinge_generator_op",
    "wgan_discriminator_op",
    "wgan_generator_op",
]

EPS = 1e-7


def _scalar_node(tape_owner: Node, op: str, inputs, fwd_value, bwd):
    def forward(*values):
        out = np.zeros(4, dtype=values[0].dtype)
        out[0] = fwd_value(*values)
        return QTensor(out)

    return tape_owner.tape.record(op, inputs, forward, bwd)


def _q0(v: QTensor) -> np.ndarray:
    if len(v.shape) != 1:
        raise ShapeMismatchError(f"expected a real batch of shape (B,), got {v.shape}")
    return v.q0


def qce_op(target: QTensor, estimate: Node) -> Node:
    """Quaternion cross-entropy of a constant target against tape estimates."""
    saved = {}

    def value(ev):
        if target.shape != ev.shape:
            raise ShapeMismatchError(
                f"target shape {target.shape} != estimate shape {ev.shape}"
            )
        e = np.clip(ev.data, EPS, 1.0 - EPS)
        saved.update(e=e, inb=(ev.data > EPS) & (ev.data < 1 - EPS),
                     n=ev.data.shape[1])
        t = target.data
        return -(t * np.log(e) + (1.0 - t) * np.log(1.0 - e)).sum() / saved["n"]

    def bwd(g):
        g0 = g.reshape(4, -1)[0, 0]
        e, t = saved["e"], target.data
        de = np.where(saved["inb"], (-t / e + (1.0 - t) / (1.0 - e)) / saved["n"], 0.0)
        return (g0 * de,)

    return _scalar_node(estimate, "qce", (estimate,), value, bwd)


def hinge_discriminator_op(d_real: Node, d_fake: Node) -> Node:
    saved = {}

    def value(rv, fv):
        r, f = _q0(rv), _q0(fv)
        saved.update(r=r, f=f)
        return np.mean(np.maximum(0.0, 1.0 - r)) + np.mean(np.maximum(0.0, 1.0 + f))

    def bwd(g):
        g0 = g.reshape(4, -1)[0, 0]
        r, f = saved["r"], saved["f"]
        b = r.shape[0]
        dr = np.zeros((4, b), dtype=g.dtype)
        df = np.zeros((4, b), dtype=g.dtype)
        dr[0] = g0 * np.where(1.0 - r > 0.0, -1.0 / b, 0.0)
        df[0] = g0 * np.where(1.0 + f > 0.0, 1.0 / b, 0.0)
        return dr, df

    return _scalar_node(d_real, "hinge_d", (d_real, d_fake), value, bwd)


def hinge_generator_op(d_fake: Node) -> Node:
    saved = {}

    def value(fv):
        f = _q0(fv)
        saved["b"] = f.shape[0]
        return -np.mean(f)

    def bwd(g):
        g0 = g.reshape(4, -1)[0, 0]
        df = np.zeros((4, saved["b"]), dtype=g.dtype)
        df[0] = -g0 / saved["b"]
        return (df,)

    return _scalar_node(d_fake, "hinge_g", (d_fake,), value, bwd)


wgan_generator_op = hinge_generator_op  # both minimize -mean(D(G(z)))


def wgan_discriminator_op(d_real: Node, d_fake: Node, grad_norms: Node, lam: float) -> Node:
    if lam < 0.0:
        raise DomainError(f"penalty weight must be nonnegative, got {lam}")
    saved = {}

    def value(rv, fv, nv):
        r, f, n = _q0(rv), _q0(fv), _q0(nv)
        saved.update(b=r.shape[0], n=n)
        return -np.mean(r) + np.mean(f) + lam * np.mean((n - 1.0) ** 2)

    def bwd(g):
        g0 = g.reshape(4, -1)[0, 0]
        b = saved["b"]
        dr = np.zeros((4, b), dtype=g.dtype)
        df = np.zeros((4, b), dtype=g.dtype)
        dn = np.zeros((4, saved["n"].shape[0]), dtype=g.dtype)
        dr[0] = -g0 / b
        df[0] = g0 / b
        dn[0] = g0 * 2.0 * lam * (saved["n"] - 1.0) / saved["n"].shape[0]
        return dr, df, dn

    return _scalar_node(d_real, "wgan_d", (d_real, d_fake, grad_norms), value, bwd)
