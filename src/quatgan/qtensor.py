"""Batched quaternion tensors.

A :class:`QTensor` stores one real array per quaternion component in a single
``(4, *shape)`` ndarray (component-major indexing). ``shape`` never includes the
component axis. The index order need not be the memory order: a map on the
tape, (4, B, C, H, W), is stored channels-last (see :mod:`quatgan.autodiff`),
so its ``.data`` may be a non-contiguous view. Use ``np.ascontiguousarray``
where C order matters.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatchError

__all__ = ["QTensor"]


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

    @classmethod
    def from_real(cls, values, dtype=None) -> "QTensor":
        """Carry a real array in the q0 component; q1..q3 are zero."""
        v = np.asarray(values, dtype=dtype)
        data = np.zeros((4, *v.shape), dtype=v.dtype if dtype is None else dtype)
        data[0] = v
        return cls(data)

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
