"""In-memory spans for the traced benchmark run, and the instrumentation that
records them from outside quatgan.

A span is a name, a parent span, a start and an end. Spans are appended in
the order they open, so a parent always has a smaller index than its
children. Self time is a span's duration minus the durations of its direct
children; summed over a subtree, self times add up to the root's duration.

``instrument`` wraps the ``forward``/``backward`` callables that quatgan ops
hand to the public ``Tape.record``, and the tensor-file functions of
``quatgan.checkpoint``, for the duration of a ``with`` block. Nothing under
``src/`` is modified.
"""

from __future__ import annotations

import contextlib
import json
import time

import numpy as np

from quatgan import autodiff as ad
from quatgan import checkpoint as ckpt

# Ops whose per-layer times and call counts the benchmark reports by name;
# every other tape op is folded into ``op.other``.
NAMED_OPS = ("qconv2d", "qtconv2d", "qdense", "real_dense", "qbn", "split_relu",
             "avg_pool", "upsample2x", "scale_components")
# Ops whose work is computed from shapes (see ``_conv_flop``).
FLOP_OPS = ("qconv2d", "qtconv2d")


class Tracer:
    """Spans kept in memory until the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(time.perf_counter())
        self.ends.append(float("nan"))
        self._stack.append(idx)
        try:
            yield idx
        finally:
            self.ends[idx] = time.perf_counter()
            self._stack.pop()

    def durations(self) -> np.ndarray:
        return np.asarray(self.ends) - np.asarray(self.starts)

    def self_times(self) -> np.ndarray:
        dur = self.durations()
        child = np.zeros_like(dur)
        parents = np.asarray(self.parents, dtype=np.int64)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        return dur - child

    def nearest(self, name: str) -> np.ndarray:
        """For each span, the index of the closest span named ``name`` among
        itself and its ancestors, or -1."""
        out = np.full(len(self.names), -1, dtype=np.int64)
        for i, (n, p) in enumerate(zip(self.names, self.parents)):
            out[i] = i if n == name else (out[p] if p >= 0 else -1)
        return out

    def write(self, path):
        """One JSON array per line: name, parent, start, end, attributes."""
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps([name, self.parents[i], self.starts[i], self.ends[i],
                                     self.attrs.get(i, {})]) + "\n")


class NullTracer:
    """Stands in for :class:`Tracer` in untraced rounds; records nothing."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


def _conv_flop(op: str, x_shape, kernel_size: int, out_shape) -> int:
    """Real flops of one forward Hamilton-product (transposed) convolution.

    Each quaternion multiply-accumulate is 16 real multiply-adds (32 flops).
    A convolution does one per kernel entry per output pixel; a transposed
    convolution scatters one per kernel entry per input pixel. ``kernel_size``
    counts quaternion kernel entries (out_q * in_q * k * k).
    """
    b = x_shape[0]
    pixels = out_shape[2] * out_shape[3] if op == "qconv2d" else x_shape[2] * x_shape[3]
    return 32 * b * pixels * kernel_size


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Record a span around every tape op's forward and backward, and around
    the checkpoint tensor-file calls, until the block exits."""
    orig_record = ad.Tape.record
    orig_save, orig_load = ckpt.save_tensors, ckpt.load_tensors

    def record(tape, op, inputs, forward, backward=None):
        seen = {}

        def fwd(*values):
            with tracer.span(f"op.{op}.fwd") as idx:
                seen["idx"] = idx
                return forward(*values)

        def bwd(g):
            with tracer.span(f"op.{op}.bwd") as idx:
                out = backward(g)
            if "flop" in seen:
                # one product for the input gradient, one for the kernel gradient
                tracer.attrs[idx] = {"flop": 2 * seen["flop"]}
            return out

        node = orig_record(tape, op, inputs, fwd, None if backward is None else bwd)
        attrs = {"bytes": node.value.data.nbytes}
        if op in FLOP_OPS:
            seen["flop"] = attrs["flop"] = _conv_flop(
                op, inputs[0].value.shape, inputs[1].value.data.size // 4, node.value.shape)
        tracer.attrs[seen["idx"]] = attrs
        return node

    def save_tensors(path, tensors):
        with tracer.span("checkpoint.save_tensors"):
            return orig_save(path, tensors)

    def load_tensors(path):
        with tracer.span("checkpoint.load_tensors"):
            return orig_load(path)

    ad.Tape.record = record
    ckpt.save_tensors, ckpt.load_tensors = save_tensors, load_tensors
    try:
        yield
    finally:
        ad.Tape.record = orig_record
        ckpt.save_tensors, ckpt.load_tensors = orig_save, orig_load
