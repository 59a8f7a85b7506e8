import contextlib
import warnings
from typing import NamedTuple

import numpy as np
import pytest

# When a test fails, hypothesis's pytest plugin imports this module to
# suggest a patch; it pulls in libcst and mypy_extensions, which warns
# DeprecationWarning at import. Under the suite's error::DeprecationWarning
# filter that warning is raised inside a pytest hook, and the run aborts
# with INTERNALERROR before any later test. Importing it here, once, with
# that one warning ignored, keeps a failing property test an ordinary
# failure. Without libcst the module does not import, and nothing warns.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


class Quaternion(NamedTuple):
    """Scalar quaternion q0 + q1 i + q2 j + q3 k: the element type of the
    scalar-loop oracles."""

    q0: float
    q1: float
    q2: float
    q3: float

    def add(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(*(a + b for a, b in zip(self, other)))


def hamilton_product(q: Quaternion, p: Quaternion) -> Quaternion:
    """Scalar oracle for the quaternion product q*p (non-commutative),
    written out component by component."""
    return Quaternion(
        q.q0 * p.q0 - q.q1 * p.q1 - q.q2 * p.q2 - q.q3 * p.q3,
        q.q0 * p.q1 + q.q1 * p.q0 + q.q2 * p.q3 - q.q3 * p.q2,
        q.q0 * p.q2 - q.q1 * p.q3 + q.q2 * p.q0 + q.q3 * p.q1,
        q.q0 * p.q3 + q.q1 * p.q2 - q.q2 * p.q1 + q.q3 * p.q0,
    )


def random_quaternion(rng, scale=2.0):
    return Quaternion(*(scale * rng.standard_normal(4)))


def concise_product(q, p):
    """Independent oracle for the quaternion product: scalar part
    q0*p0 - q.p, vector part q0*p + p0*q + q x p."""
    qv = np.array([q.q1, q.q2, q.q3])
    pv = np.array([p.q1, p.q2, p.q3])
    scalar = q.q0 * p.q0 - qv @ pv
    vec = q.q0 * pv + p.q0 * qv + np.cross(qv, pv)
    return Quaternion(scalar, *vec)


def tensor_hamilton(a, b):
    """Independent oracle for the elementwise Hamilton product of two
    equally shaped QTensors, written out component by component."""
    from quatgan.errors import ShapeMismatchError
    from quatgan.qtensor import QTensor

    if a.shape != b.shape:
        raise ShapeMismatchError(
            f"QTensor shapes differ: {a.shape} vs {b.shape}", left=a.shape, right=b.shape
        )
    a0, a1, a2, a3 = a.data
    b0, b1, b2, b3 = b.data
    return QTensor(
        np.stack(
            [
                a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
                a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
                a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
                a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
            ]
        )
    )


def tensor_conjugate(a):
    """Oracle for the elementwise conjugate: q1..q3 negated."""
    from quatgan.qtensor import QTensor

    out = a.data.copy()
    out[1:] = -out[1:]
    return QTensor(out)


def run_op(op, *args):
    """Value of a tape op applied to plain values: each QTensor or real
    ndarray argument becomes a constant of a gradient-free tape, the rest
    pass through."""
    from quatgan.autodiff import Tape
    from quatgan.qtensor import QTensor

    tape = Tape(needs_grad=False)
    nodes = [tape.constant(a) if isinstance(a, (QTensor, np.ndarray)) else a for a in args]
    return op(*nodes).value


@contextlib.contextmanager
def recorded_nodes():
    """The node of every op any tape records inside the block, in order. A
    tape keeps no nodes, so this wraps ``Tape.record``, as the benchmark's
    span instrumentation does; the list keeps every value alive."""
    from quatgan.autodiff import Tape

    nodes = []
    record = Tape.record

    def recording(tape, *args, **kwargs):
        node = record(tape, *args, **kwargs)
        nodes.append(node)
        return node

    Tape.record = recording
    try:
        yield nodes
    finally:
        Tape.record = record
