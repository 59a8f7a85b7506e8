"""GAN objectives in the quaternion framework, as fused tape operations.

Each ``*_op`` records one node whose value is a scalar loss carried in q0.
The hinge and Wasserstein ops read (B, 1) quaternion decisions and score
each by its component sum q0+q1+q2+q3, so a loss depends on a decision only
through that sum and passes every component the same gradient. The
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


def _scores(v: QTensor) -> np.ndarray:
    """The (B,) scores q0+q1+q2+q3 of (B, 1) quaternion decisions."""
    if len(v.shape) != 2 or v.shape[1] != 1:
        raise ShapeMismatchError(f"expected (batch, 1) quaternion decisions, got {v.shape}")
    return v.data.sum(axis=0)[:, 0]


def _spread(d, b: int, dtype) -> np.ndarray:
    """Adjoint of :func:`_scores`: a (B,) or scalar score gradient as (4, B, 1)."""
    return np.broadcast_to(np.asarray(d, dtype=dtype).reshape(1, -1, 1), (4, b, 1)).copy()


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
        r, f = _scores(rv), _scores(fv)
        saved.update(r=r, f=f)
        return np.mean(np.maximum(0.0, 1.0 - r)) + np.mean(np.maximum(0.0, 1.0 + f))

    def bwd(g):
        g0 = g.reshape(4, -1)[0, 0]
        r, f = saved["r"], saved["f"]
        b = r.shape[0]
        return (_spread(g0 * np.where(1.0 - r > 0.0, -1.0 / b, 0.0), b, g.dtype),
                _spread(g0 * np.where(1.0 + f > 0.0, 1.0 / b, 0.0), b, g.dtype))

    return _scalar_node(d_real, "hinge_d", (d_real, d_fake), value, bwd)


def hinge_generator_op(d_fake: Node) -> Node:
    saved = {}

    def value(fv):
        f = _scores(fv)
        saved["b"] = f.shape[0]
        return -np.mean(f)

    def bwd(g):
        g0 = g.reshape(4, -1)[0, 0]
        return (_spread(-g0 / saved["b"], saved["b"], g.dtype),)

    return _scalar_node(d_fake, "hinge_g", (d_fake,), value, bwd)


wgan_generator_op = hinge_generator_op  # both minimize -mean(D(G(z)))


def wgan_discriminator_op(d_real: Node, d_fake: Node, d_up: Node, d_down: Node,
                          lam: float, delta: float) -> Node:
    """Critic loss -mean(D(real)) + mean(D(fake)) + lam * mean((n - 1)^2).

    ``d_up``/``d_down`` are D at interpolates x +- delta * u, u the unit
    direction (real - fake). n = |D(up) - D(down)| / (2 delta) is a central
    difference along u, so n ~ |grad D . u| <= ||grad D||: a lower bound, not
    the gradient penalty of Gulrajani et al. (arXiv:1704.00028).
    """
    if lam < 0.0:
        raise DomainError(f"penalty weight must be nonnegative, got {lam}")
    c = 1.0 / (2.0 * delta)
    saved = {}

    def value(rv, fv, uv, dv):
        r, f = _scores(rv), _scores(fv)
        diff = (_scores(uv) - _scores(dv)) * c
        n = np.abs(diff)
        saved.update(b=r.shape[0], n=n, sign=np.sign(diff))
        return -np.mean(r) + np.mean(f) + lam * np.mean((n - 1.0) ** 2)

    def bwd(g):
        g0 = g.reshape(4, -1)[0, 0]
        b, n = saved["b"], saved["n"]
        dn = (g0 * 2.0 * lam * (n - 1.0) / n.shape[0]) * saved["sign"] * c
        return (_spread(-g0 / b, b, g.dtype), _spread(g0 / b, b, g.dtype),
                _spread(dn, len(n), g.dtype), _spread(-dn, len(n), g.dtype))

    return _scalar_node(d_real, "wgan_d", (d_real, d_fake, d_up, d_down), value, bwd)
