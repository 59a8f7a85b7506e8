"""Batched quaternion tensors.

A :class:`QTensor` stores one real array per quaternion component in a single
``(4, *shape)`` ndarray (component-major indexing). ``shape`` never includes the
component axis. The index order need not be the memory order: a map on the
tape, (4, B, C, H, W), is stored channels-last (see :mod:`quatgan.autodiff`),
so its ``.data`` may be a non-contiguous view. Use ``np.ascontiguousarray``
where C order matters.

Real-valued data (real parameters, their gradients and Adam moments, and
the qsngan noise) is a plain ndarray at its true shape, with no component
axis; :func:`live_array` maps either kind of value to the array it stores.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatchError

__all__ = ["QTensor", "live_array"]


class QTensor:
    """Four equally-shaped real component arrays representing quaternion data."""

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        data = np.asarray(data)
        if data.ndim < 1 or data.shape[0] != 4:
            raise ShapeMismatchError(
                f"QTensor expects a (4, ...) array, got shape {data.shape}"
            )
        self.data = data

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, shape, dtype=np.float64) -> "QTensor":
        return cls(np.zeros((4, *shape), dtype=dtype))

    # -- views -------------------------------------------------------------

    @property
    def q0(self) -> np.ndarray:
        return self.data[0]

    @property
    def q1(self) -> np.ndarray:
        return self.data[1]

    @property
    def q2(self) -> np.ndarray:
        return self.data[2]

    @property
    def q3(self) -> np.ndarray:
        return self.data[3]

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape[1:]

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        """Element count per component."""
        return int(np.prod(self.shape, dtype=np.int64)) if self.shape else 1

    def copy(self) -> "QTensor":
        return QTensor(self.data.copy())

    def reshape(self, shape) -> "QTensor":
        return QTensor(self.data.reshape((4, *shape)))

    def __repr__(self):
        return f"QTensor(shape={self.shape}, dtype={self.dtype})"


def live_array(value: QTensor | np.ndarray) -> np.ndarray:
    """The array a value stores: a :class:`QTensor`'s ``(4, ...)`` data, or a
    real ndarray itself."""
    return value.data if isinstance(value, QTensor) else value
