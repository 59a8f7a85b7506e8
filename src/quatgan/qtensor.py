"""Batched quaternion tensors.

A :class:`QTensor` stores one real array per quaternion component in a single
``(4, *shape)`` ndarray (component-major layout). ``shape`` never includes the
component axis.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatchError
from .quaternion import Quaternion

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
    def from_components(cls, q0, q1, q2, q3) -> "QTensor":
        parts = [np.asarray(c, dtype=float) for c in (q0, q1, q2, q3)]
        for c in parts[1:]:
            if c.shape != parts[0].shape:
                raise ShapeMismatchError(
                    f"component shapes differ: {parts[0].shape} vs {c.shape}",
                    left=parts[0].shape,
                    right=c.shape,
                )
        return cls(np.stack(parts))

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

    @classmethod
    def identity(cls, shape, dtype=np.float64) -> "QTensor":
        """All-ones in q0, zeros elsewhere: the multiplicative identity per element."""
        data = np.zeros((4, *shape), dtype=dtype)
        data[0] = 1.0
        return cls(data)

    @classmethod
    def from_quaternion(cls, q: Quaternion, dtype=np.float64) -> "QTensor":
        return cls(np.array([[q.q0], [q.q1], [q.q2], [q.q3]], dtype=dtype).reshape(4))

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

    def astype(self, dtype) -> "QTensor":
        return QTensor(self.data.astype(dtype))

    def reshape(self, shape) -> "QTensor":
        return QTensor(self.data.reshape((4, *shape)))

    def item(self) -> Quaternion:
        """Convert a scalar-shaped tensor to a Quaternion."""
        flat = self.data.reshape(4, -1)
        if flat.shape[1] != 1:
            raise ShapeMismatchError(f"item() needs a single element, shape is {self.shape}")
        return Quaternion(*(float(flat[c, 0]) for c in range(4)))

    def amplitude(self) -> np.ndarray:
        """Per-position quaternion norm sqrt(q0^2 + q1^2 + q2^2 + q3^2)."""
        return np.sqrt((self.data * self.data).sum(axis=0))

    def __repr__(self):
        return f"QTensor(shape={self.shape}, dtype={self.dtype})"

    # -- arithmetic (elementwise, used mostly by tests) ---------------------

    def __add__(self, other: "QTensor") -> "QTensor":
        _check_same_shape(self, other)
        return QTensor(self.data + other.data)

    def __sub__(self, other: "QTensor") -> "QTensor":
        _check_same_shape(self, other)
        return QTensor(self.data - other.data)

    def __mul__(self, scalar) -> "QTensor":
        return QTensor(self.data * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "QTensor":
        return QTensor(-self.data)

    def allclose(self, other: "QTensor", rtol=1e-12, atol=1e-12) -> bool:
        return self.shape == other.shape and np.allclose(
            self.data, other.data, rtol=rtol, atol=atol
        )


def _check_same_shape(a: QTensor, b: QTensor):
    if a.shape != b.shape:
        raise ShapeMismatchError(
            f"QTensor shapes differ: {a.shape} vs {b.shape}",
            left=a.shape,
            right=b.shape,
        )
