"""Adam optimizer over named parameters.

The update is standard Adam applied independently to every real scalar a
parameter stores: all four components of a quaternion parameter, and the
entries of a real parameter, a plain array at its true shape. Each moment
accumulator has the shape of its parameter's stored array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatchError
from .qtensor import QTensor, live_array

__all__ = ["AdamState", "adam_step"]


@dataclass
class AdamState:
    lr: float = 2e-4
    beta1: float = 0.0
    beta2: float = 0.9
    epsilon: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(params: dict[str, QTensor | np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState) -> tuple[dict[str, QTensor | np.ndarray], AdamState]:
    """One Adam update, in place on the parameter tensors.

    First/second moments are created lazily per parameter; the step counter
    increments once per call.
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for name, value in params.items():
        if name not in grads:
            raise ShapeMismatchError(f"missing gradient for parameter {name!r}")
        p, g = live_array(value), grads[name]
        if g.shape != p.shape:
            raise ShapeMismatchError(
                f"gradient shape {g.shape} != parameter shape {p.shape} for {name!r}"
            )
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        update = (state.lr / bc1) * m / (np.sqrt(v / bc2) + state.epsilon)
        p -= update.astype(p.dtype, copy=False)
    return params, state
