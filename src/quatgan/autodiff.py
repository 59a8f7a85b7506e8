"""Minimal reverse-mode automatic differentiation over QTensor operations.

A :class:`Tape` records each operation eagerly (op kind, input node ids, the
forward value, and a backward closure). ``backward`` walks the record once in
reverse order and returns the gradient of every registered parameter as a
plain array of the parameter's stored shape: plain real-valued reverse mode
applied to the arrays the values store. Component c of a quaternion
parameter's gradient is the derivative of the loss with respect to
submatrix c.

Each differentiable operation is one function here that holds both its
forward and its backward; there is no separate pure forward. A node needs
a gradient if it is a parameter of a gradient tape or has an input that
needs one; constants, and what is computed only from them, do not.
``record`` keeps no backward closure for a node that needs no gradient, so
what its forward saved is freed as soon as ``record`` returns, and the layer
ops skip the input-gradient product of an input that needs none. On a
gradient-free tape (``Tape(needs_grad=False)``), which runs the same ops for
inference, no node needs one.

The layer ops take their widths from their kernel's shape. A conv op is
called with only its stride and padding besides (see :mod:`quatgan.layers`)
and refuses a map whose channels are not the kernel's.

Real-valued parameters and the qsngan noise are plain ndarrays at their true
shape, with no component axis (see :func:`real_dense` and
:func:`quatgan.qnorm.qbn`); every other value is a :class:`QTensor`. Losses
are real scalars carried in the q0 slot of a scalar-shaped QTensor; q1..q3 of
a loss must be zero.

Map values and map gradients follow one storage rule: a (4, B, C, H, W) map
is stored channels-last, as the rows-outermost (H, B, W, 4, C) array that
the conv lowering of :mod:`quatgan.layers` reads and writes, so
:func:`quatgan.layers.map_rows` of it is C-contiguous. Convs take their
operands as views and hand back views; the ops that read spatial axes
(pools, upsampling, QBN, the reshape and real-dense edges) write their
outputs and input gradients in the same layout, and elementwise ops keep
the layout of their inputs. A (B, n) value of a dense edge (``qdense``,
``reshape``) is stored batch-major, (B, 4, n), the real matrix the dense
GEMM reads and writes. The rule affects speed, not values: every op
accepts any layout, and a value's logical shape and contents do not depend
on how it is stored.

Importing this module sets the process's heap policy once (glibc
``mallopt``; nothing where the C library has none): freed blocks stay on
the heap for the next step to reuse instead of going back to the kernel.
A training step frees and reallocates the same array sizes every
iteration, and glibc's default policy unmaps or trims them after each
step, so the next step faults the pages in again. The policy is set at
import because every caller that records a tape, the CLI, tests and
benchmark harnesses alike, imports this module. It changes speed and
resident memory, not values.
"""

from __future__ import annotations

import ctypes
import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from . import layers as L
from .errors import ConfigError, DomainError, ShapeMismatchError
from .qtensor import QTensor, live_array

__all__ = ["Tape", "Node", "grad_check", "GradCheckReport"]


def _keep_freed_heap() -> None:
    """Serve arrays up to 32 MiB from the heap and trim it only past 256 MiB
    free. Under glibc's dynamic policy a warm ``qdcgan_toy16`` batch-32 step
    took ~2,300 minor page faults and ~4 ms of system time, faulting in again
    the memory the previous step had trimmed or unmapped; with this policy
    it takes 0-3. 32 MiB is the highest mmap threshold glibc's own policy
    reaches."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt in this C library
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD


_keep_freed_heap()


class Node:
    """One recorded operation; ``value`` is its eagerly evaluated result, and
    ``needs_grad`` whether backward computes a gradient for it.

    A node refers to its tape weakly, so a tape and its nodes are freed as
    soon as the last reference to the tape is dropped, without waiting for
    the cyclic garbage collector.
    """

    __slots__ = ("_tape", "nid", "op", "inputs", "value", "bwd", "needs_grad")

    def __init__(self, tape, nid, op, inputs, value, bwd=None, needs_grad=False):
        self._tape = weakref.ref(tape)
        self.nid = nid
        self.op = op
        self.inputs = inputs
        self.value = value
        self.bwd = bwd
        self.needs_grad = needs_grad

    @property
    def tape(self) -> "Tape":
        tape = self._tape()
        if tape is None:
            raise DomainError(f"node {self.nid} ({self.op}) outlived its tape")
        return tape

    def __repr__(self):
        return f"Node({self.nid}, {self.op}, shape={self.value.shape})"


class Tape:
    """Single-writer operation record; recording and backward must not be
    interleaved from multiple threads. Distinct tapes are independent.

    A tape is backpropagated at most once: backward closures may release
    what their forward saved (the conv patch matrices), so a second
    ``backward`` is refused.
    """

    def __init__(self, needs_grad: bool = True):
        self.nodes: list[Node] = []
        self.params: dict[str, int] = {}
        self.needs_grad = needs_grad
        self._backpropagated = False

    # -- recording ---------------------------------------------------------

    def record(self, op: str, inputs, forward, backward=None) -> Node:
        """Append a node: validates input ids, evaluates ``forward`` eagerly.

        ``forward`` receives the input values; ``backward`` (kept only when
        the node needs a gradient, that is when one of ``inputs`` does) maps
        the upstream gradient array to a tuple aligned with ``inputs`` of
        gradient arrays, or ``None`` for an input that needs no gradient.
        """
        ids = []
        for node in inputs:
            if not isinstance(node, Node) or node.tape is not self or node.nid >= len(self.nodes):
                raise DomainError(f"input {node!r} does not belong to this tape")
            ids.append(node.nid)
        value = forward(*(self.nodes[i].value for i in ids))
        needs_grad = any(self.nodes[i].needs_grad for i in ids)
        node = Node(self, len(self.nodes), op, tuple(ids), value,
                    bwd=backward if needs_grad else None, needs_grad=needs_grad)
        self.nodes.append(node)
        return node

    def constant(self, value: QTensor | np.ndarray) -> Node:
        return self.record("const", (), lambda: value)

    def param(self, name: str, value: QTensor | np.ndarray) -> Node:
        """Register a leaf parameter; it needs a gradient on a gradient tape."""
        if name in self.params:
            raise DomainError(f"parameter {name!r} already registered on this tape")
        node = self.record("param", (), lambda: value)
        node.needs_grad = self.needs_grad
        self.params[name] = node.nid
        return node

    # -- backward ----------------------------------------------------------

    def backward(self, loss: Node) -> dict[str, np.ndarray]:
        """Gradients of a scalar loss for every registered parameter, each a
        plain array of the parameter's stored shape.

        Parameters not on any path to the loss get all-zero gradients. A
        contribution to an input that needs no gradient is dropped.
        """
        if loss.tape is not self:
            raise DomainError("loss node belongs to a different tape")
        lv = loss.value
        if lv.shape not in ((), (1,)):
            raise DomainError(f"loss must be scalar-shaped, got {lv.shape}")
        if np.any(lv.data.reshape(4, -1)[1:] != 0.0):
            raise DomainError("loss must be real: q1..q3 components must be zero")
        if self._backpropagated:
            raise DomainError("this tape was already backpropagated; record a new tape")
        self._backpropagated = True

        grads: list[np.ndarray | None] = [None] * len(self.nodes)
        seed = np.zeros_like(lv.data)
        seed.reshape(4, -1)[0] = 1.0
        grads[loss.nid] = seed

        for nid in range(loss.nid, -1, -1):
            g = grads[nid]
            if g is None:
                continue
            node = self.nodes[nid]
            if node.bwd is None or not node.inputs:
                continue
            contribs = node.bwd(g)
            for inp, contrib in zip(node.inputs, contribs):
                if contrib is None or not self.nodes[inp].needs_grad:
                    continue
                if grads[inp] is None:
                    # a view of part of a larger buffer would pin all of it
                    partial = contrib.base is not None and contrib.nbytes < contrib.base.nbytes
                    grads[inp] = contrib.copy(order="K") if partial else contrib
                else:
                    grads[inp] = grads[inp] + contrib

        return {name: np.zeros_like(live_array(self.nodes[nid].value))
                if grads[nid] is None else grads[nid]
                for name, nid in self.params.items()}


# -- elementwise / structural ops ---------------------------------------------


def add(a: Node, b: Node) -> Node:
    def fwd(av: QTensor, bv: QTensor) -> QTensor:
        if av.shape != bv.shape:
            raise ShapeMismatchError(f"add shapes differ: {av.shape} vs {bv.shape}")
        return QTensor(av.data + bv.data)

    return a.tape.record("add", (a, b), fwd, lambda g: (g, g))


def scale_components(a: Node, factors) -> Node:
    """Multiply each quaternion component by its own scalar factor; the
    factors are cast to ``a``'s dtype, so a float32 input stays float32."""
    f = np.asarray(factors, dtype=a.value.dtype).reshape(4, *([1] * len(a.value.shape)))
    return a.tape.record("scale_components", (a,), lambda av: QTensor(av.data * f),
                         lambda g: (g * f,))


def _tape_empty(shape, dtype) -> np.ndarray:
    """An uninitialised (4, *shape) value in the tape's storage: a map
    channels-last, anything else batch-major, (B, 4, ...)."""
    if len(shape) == 4:
        b, c, h, w = shape
        return L.map_rows(np.empty((h, b, w, 4, c), dtype=dtype))
    lead = shape[:1]
    return np.moveaxis(np.empty((*lead, 4, *shape[1:]), dtype=dtype), len(lead), 0)


def _copy_reshaped(dst: np.ndarray, src: np.ndarray) -> np.ndarray:
    """Write ``src`` into ``dst``, an array of the same size in another shape,
    in one pass: the reshape is a view of ``dst`` where it can be, else of
    ``src``."""
    try:
        dst.reshape(src.shape, copy=False)[...] = src
    except ValueError:
        dst[...] = src.reshape(dst.shape)
    return dst


def _flatten_map(v: np.ndarray) -> np.ndarray:
    """The (4, B, C*H*W) flattening of a (4, B, C, H, W) map, stored
    batch-major, (B, 4, C*H*W), in two copies: the map's rows gathered
    batch-outermost, (B, H, W, 4, C), then each sample's (H*W, 4*C) matrix
    transposed. On the channels-last qdcgan_toy16 D head at batch 32 (f32,
    one Xeon core) that took 23 us against 45 us for the one strided copy
    of :func:`_copy_reshaped`, with the same bits."""
    b, c = v.shape[1:3]
    rows = np.ascontiguousarray(L.map_rows(v).transpose(1, 0, 2, 3, 4)).reshape(b, -1, 4 * c)
    out = np.empty((b, 4 * c, rows.shape[1]), dtype=v.dtype)
    out[...] = rows.transpose(0, 2, 1)
    return out.reshape(b, 4, -1).transpose(1, 0, 2)


def reshape(a: Node, shape) -> Node:
    """Reshape keeping the quaternion components; one entry of ``shape`` may
    be -1. The output takes the tape's storage and the input gradient the
    input's, so the map edge of a dense layer, whose (B, n) values are
    stored (B, 4, n), is one copy each way, two for a map flattened per
    sample (:func:`_flatten_map`)."""
    like = a.value.data
    # with one -1 entry, -prod(shape) is the product of the others
    shape = tuple(like[0].size // -math.prod(shape) if d == -1 else d for d in shape)
    flattens_map = len(a.value.shape) == 4 and shape == (like.shape[1], like[0, 0].size)

    def fwd(av):
        if flattens_map:
            return QTensor(_flatten_map(av.data))
        return QTensor(_copy_reshaped(_tape_empty(shape, av.dtype), av.data))

    return a.tape.record("reshape", (a,), fwd,
                         lambda g: (_copy_reshaped(np.empty_like(like), g),))


def inner_const(a: Node, k: QTensor) -> Node:
    """Inner product <a, k> = sum_c sum a_c k_c against a constant."""

    def fwd(av):
        if av.shape != k.shape:
            raise ShapeMismatchError(f"inner shapes differ: {av.shape} vs {k.shape}")
        out = np.zeros(4, dtype=av.dtype)
        out[0] = float((av.data * k.data).sum())
        return QTensor(out)

    return a.tape.record("inner_const", (a,), fwd,
                         lambda g: (g.reshape(4, -1)[0, 0] * k.data,))


# -- layers --------------------------------------------------------------------


def _check_conv_input(x: QTensor, kernel: QTensor, in_axis: int):
    """The map's (batch, in_q, H, W) shape, once it is a map whose channels
    are those of axis ``in_axis`` of a square (., ., k, k) kernel."""
    if len(x.shape) != 4:
        raise ShapeMismatchError(f"conv expects (batch, channels, H, W), got {x.shape}")
    if len(kernel.shape) != 4 or kernel.shape[2] != kernel.shape[3]:
        raise ShapeMismatchError(f"conv kernel must be (., ., k, k), got {kernel.shape}")
    if x.shape[1] != kernel.shape[in_axis]:
        raise ShapeMismatchError(
            f"input has {x.shape[1]} quaternion channels, kernel expects "
            f"{kernel.shape[in_axis]}"
        )
    return x.shape


def qdense(x: Node, kernel: Node, bias: Node | None = None) -> Node:
    """Quaternion fully connected layer: (B, in_q) -> (B, out_q), y = W x + b.

    With the component axis moved inward, the input is one real (B, 4*in_q)
    matrix and the layer one GEMM against the Hamilton block of the kernel.
    """
    saved = {}
    inputs = (x, kernel) if bias is None else (x, kernel, bias)
    x_grad = x.needs_grad

    def fwd(xv, kv, *rest):
        if len(xv.shape) != 2:
            raise ShapeMismatchError(f"qdense expects (batch, in_q), got {xv.shape}")
        out_q, in_q = kv.shape
        if xv.shape[1] != in_q:
            raise ShapeMismatchError(
                f"qdense input has {xv.shape[1]} quaternion features, weight expects {in_q}",
                left=xv.shape,
                right=kv.shape,
            )
        b = xv.shape[0]
        x2 = xv.data.transpose(1, 0, 2).reshape(b, 4 * in_q)
        block = L.hamilton_block(kv.data)
        saved.update(x2=x2, block=block)
        y = (x2 @ block.T).reshape(b, 4, out_q).transpose(1, 0, 2)
        if rest:
            y += rest[0].data[:, None, :]
        return QTensor(y)

    def bwd(g):
        b, out_q = g.shape[1], g.shape[2]
        g2 = g.transpose(1, 0, 2).reshape(b, 4 * out_q)
        dx = (g2 @ saved["block"]).reshape(b, 4, -1).transpose(1, 0, 2) if x_grad else None
        dk = L.fold_block(g2.T @ saved["x2"])
        if bias is None:
            return dx, dk
        return dx, dk, g.sum(axis=1)

    return x.tape.record("qdense", inputs, fwd, bwd)


def _row_weights(block: np.ndarray, k: int, s: int) -> np.ndarray:
    """A conv's Hamilton block (out, C*k*k), columns in (component, channel,
    ki, kj) order, as row weights (k', k'*s*s*C, out), k' = ceil(k/s): tap
    (s*qi + ri, s*qj + rj) goes to row qi, column (qj, ri, rj, component,
    channel), the order of the row patches of phases. Taps past k are zero.
    """
    out, kk = block.shape[0], -(-k // s)
    w = block.reshape(out, -1, k, k)
    if kk * s != k:
        w = np.pad(w, ((0, 0), (0, 0), (0, kk * s - k), (0, kk * s - k)))
    return w.reshape(out, -1, kk, s, kk, s).transpose(2, 4, 3, 5, 1, 0).reshape(kk, -1, out)


def _block_grad(dw: np.ndarray, k: int, s: int) -> np.ndarray:
    """Adjoint of :func:`_row_weights`: (k'*k'*s*s*C, out) -> (out, C*k*k)."""
    out, kk = dw.shape[-1], -(-k // s)
    dw = dw.reshape(kk, kk, s, s, -1, out).transpose(5, 4, 0, 2, 1, 3)
    return dw.reshape(out, -1, kk * s, kk * s)[:, :, :k, :k].reshape(out, -1)


def _row_gemms(patches: np.ndarray, w_rows: np.ndarray) -> np.ndarray:
    """Stride-1 correlation from :func:`layers.row_patches`: the sum over
    kernel rows ki of ``patches[ki:ki+Ho] @ w_rows[ki]``, as a
    (Ho*B*Wo, out) matrix in (row, batch, column) order."""
    k, kc, _ = w_rows.shape
    ho = patches.shape[0] - k + 1
    y = patches[:ho].reshape(-1, kc) @ w_rows[0]
    if k > 1:
        term = np.empty_like(y)
        for ki in range(1, k):
            y += np.matmul(patches[ki : ki + ho].reshape(-1, kc), w_rows[ki], out=term)
    return y


def _row_gemms_t(g_rows: np.ndarray, w_rows: np.ndarray, s: int, p: int, h: int,
                 w: int) -> np.ndarray:
    """Adjoint of the conv lowering ``_row_gemms(row_patches(to_phases(v, s,
    p, ...)))``: a (Ho, B, Wo, out) gradient -> that of the (h, B, w, C) map v.

    It is the stride-1 lowering of the gradient against the row weights
    reversed on both tap axes with in and out swapped, over only the phases
    that hold pixels of v; :func:`layers.from_phases` crops the rest.
    """
    k, _, out = w_rows.shape
    ho, b, wo = g_rows.shape[:3]
    # phases of v padded by p % s that hold pixels the conv reads
    hr = min(ho + k - 1 - p // s, -(-(h + p % s) // s))
    wr = min(wo + k - 1 - p // s, -(-(w + p % s) // s))
    flipped = w_rows.reshape(k, k, -1, out)[::-1, ::-1].transpose(0, 1, 3, 2)
    g_cols = L.row_patches(L.to_phases(g_rows, 1, k - 1 - p // s, hr + k - 1, wr + k - 1), k)
    v = _row_gemms(g_cols, flipped.reshape(k, k * out, -1))
    return L.from_phases(v.reshape(hr, b, wr, -1), s, p % s, h, w)


def _row_weights_grad(patches: np.ndarray, g2: np.ndarray, k: int) -> np.ndarray:
    """Gradient of the row weights as a (k'*k'*C, out) matrix, k' = ``k``, from
    the row patches and the (Ho*B*Wo, out) output gradient of :func:`_row_gemms`."""
    ho = patches.shape[0] - k + 1
    return np.concatenate([patches[ki : ki + ho].reshape(len(g2), -1).T @ g2
                           for ki in range(k)])


def qconv2d(x: Node, kernel: Node, bias: Node | None, stride: int, padding: int) -> Node:
    """Quaternion 2-D convolution (cross-correlation convention) by an
    (out_q, in_q, k, k) kernel.

    Every stride runs the lowering of :mod:`quatgan.layers`: row patches of
    the input's phases against the :func:`_row_weights` of the kernel's
    Hamilton block. The kernel gradient pairs the same patches with the
    output gradient, which backward then drops; the input gradient is
    :func:`_row_gemms_t` of the output gradient. The output and the input
    gradient are channels-last views of the GEMM results.
    """
    saved = {}
    inputs = (x, kernel) if bias is None else (x, kernel, bias)
    x_grad = x.needs_grad
    b, i, h, w = _check_conv_input(x.value, kernel.value, 1)
    o, _, k, _ = kernel.value.shape
    s, p = stride, padding
    ho, wo = L.conv_out_size(h, k, s, p), L.conv_out_size(w, k, s, p)
    kk = -(-k // s)

    def fwd(xv, kv, *rest):
        w_rows = _row_weights(L.hamilton_block(kv.data), k, s)
        x_ph = L.to_phases(L.map_rows(xv.data), s, p, ho + kk - 1, wo + kk - 1)
        cols = L.row_patches(x_ph, kk)
        y = _row_gemms(cols, w_rows)
        saved.update(cols=cols, w_rows=w_rows)
        if rest:
            y += rest[0].data.reshape(-1)
        return QTensor(L.map_rows(y.reshape(ho, b, wo, 4, o)))

    def bwd(g):
        g_rows = np.ascontiguousarray(L.map_rows(g)).reshape(ho, b, wo, 4 * o)
        cols = saved.pop("cols")  # released below; a tape backpropagates once
        dw = _row_weights_grad(cols, g_rows.reshape(-1, 4 * o), kk)
        del cols
        dx = None
        if x_grad:
            dx = _row_gemms_t(g_rows, saved["w_rows"], s, p, h, w)
            dx = L.map_rows(dx.reshape(h, b, w, 4, i))
        dk = L.fold_block(_block_grad(dw, k, s)).reshape(4, o, i, k, k)
        if bias is None:
            return dx, dk
        return dx, dk, L.channel_sum(g_rows, 4 * o).reshape(4, o)

    return x.tape.record("qconv2d", inputs, fwd, bwd)


def qtconv2d(x: Node, kernel: Node, bias: Node | None, stride: int, padding: int) -> Node:
    """Quaternion transposed convolution by an (in_q, out_q, k, k) kernel.

    The adjoint of the :func:`qconv2d` lowering whose block is the transpose
    of that of the per-component transposed kernel (out_q*k*k, in_q):
    forward is :func:`_row_gemms_t` of the input, and backward's row patches
    of the gradient's phases give the input gradient and, paired with the
    saved input, the kernel gradient.
    """
    saved = {}
    inputs = (x, kernel) if bias is None else (x, kernel, bias)
    x_grad = x.needs_grad
    b, _, h, w = _check_conv_input(x.value, kernel.value, 0)
    i, o, k, _ = kernel.value.shape
    s, p = stride, padding
    ho, wo = L.tconv_out_size(h, k, s, p), L.tconv_out_size(w, k, s, p)
    kk = -(-k // s)

    def fwd(xv, kv, *rest):
        block = L.hamilton_block(kv.data.reshape(4, i, -1).transpose(0, 2, 1))
        w_rows = _row_weights(block.T, k, s)
        x_rows = np.ascontiguousarray(L.map_rows(xv.data)).reshape(h, b, w, 4 * i)
        y = _row_gemms_t(x_rows, w_rows, s, p, ho, wo)
        saved.update(x2=x_rows.reshape(-1, 4 * i), w_rows=w_rows)
        if rest:
            y += rest[0].data.reshape(-1)
        return QTensor(L.map_rows(y.reshape(ho, b, wo, 4, o)))

    def bwd(g):
        g_rows = L.map_rows(g)
        g_cols = L.row_patches(L.to_phases(g_rows, s, p, h + kk - 1, w + kk - 1), kk)
        dx = None
        if x_grad:
            dx = L.map_rows(_row_gemms(g_cols, saved["w_rows"]).reshape(h, b, w, 4, i))
        dw = _row_weights_grad(g_cols, saved["x2"], kk)
        dk = L.fold_block(_block_grad(dw, k, s).T).transpose(0, 2, 1).reshape(4, i, o, k, k)
        if bias is None:
            return dx, dk
        return dx, dk, L.channel_sum(g_rows, 4 * o).reshape(4, o)

    return x.tape.record("qtconv2d", inputs, fwd, bwd)


# Per axis, a 3-tap conv w of padding 1 folds with a 2x resampling into one
# stride-2, padding-1, 4-tap conv or transposed conv whose taps are sums of
# adjacent taps of w, w @ _TAP_SUMS = [w0, w0+w1, w1+w2, w2]. Followed by a
# 2x average pool, it is the conv with half those taps; after a nearest 2x
# upsample, the transposed conv with them reversed. Over both axes each table
# is the (9, 16) Kronecker product of its axis matrix with itself, applied to
# the flattened 3x3 taps.
_TAP_SUMS = np.array([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]])
_DOWNCONV_TAPS = np.kron(_TAP_SUMS, _TAP_SUMS) / 4
_UPCONV_TAPS = np.kron(_TAP_SUMS[:, ::-1], _TAP_SUMS[:, ::-1])


def _check_three_by_three(kv: QTensor, what: str):
    if len(kv.shape) != 4 or kv.shape[2:] != (3, 3):
        raise ShapeMismatchError(f"{what} kernel must be (out_q, in_q, 3, 3), got {kv.shape}")


def downconv_kernel(kernel: Node) -> Node:
    """The (out_q, in_q, 4, 4) kernel whose stride-2, padding-1 conv equals
    the stride-1, padding-1 conv of the (out_q, in_q, 3, 3) ``kernel``
    followed by a 2x2 average pool, so the conv runs at the pooled
    resolution (Dumoulin & Visin, arXiv:1603.07285). The map is one GEMM
    against ``_DOWNCONV_TAPS``; backward is the GEMM against its
    transpose."""
    taps = _DOWNCONV_TAPS.astype(kernel.value.dtype)

    def fwd(kv):
        _check_three_by_three(kv, "downconv")
        return QTensor((kv.data.reshape(-1, 9) @ taps).reshape(*kv.data.shape[:3], 4, 4))

    def bwd(g):
        return ((g.reshape(-1, 16) @ taps.T).reshape(*g.shape[:3], 3, 3),)

    return kernel.tape.record("downconv_kernel", (kernel,), fwd, bwd)


def upconv_kernel(kernel: Node) -> Node:
    """The (in_q, out_q, 4, 4) kernel whose stride-2, padding-1 transposed
    conv equals a nearest 2x upsample followed by the stride-1, padding-1
    conv of the (out_q, in_q, 3, 3) ``kernel``, so the conv runs on the
    low-resolution map (Dumoulin & Visin, arXiv:1603.07285). The map is one
    GEMM against ``_UPCONV_TAPS``; backward is the GEMM against its
    transpose."""
    taps = _UPCONV_TAPS.astype(kernel.value.dtype)

    def fwd(kv):
        _check_three_by_three(kv, "upconv")
        o, i = kv.shape[:2]
        w = kv.data.transpose(0, 2, 1, 3, 4).reshape(-1, 9)
        return QTensor((w @ taps).reshape(4, i, o, 4, 4))

    def bwd(g):
        i, o = g.shape[1:3]
        dw = g.transpose(0, 2, 1, 3, 4).reshape(-1, 16) @ taps.T
        return (dw.reshape(4, o, i, 3, 3),)

    return kernel.tape.record("upconv_kernel", (kernel,), fwd, bwd)


def _sigmoid(v: np.ndarray) -> np.ndarray:
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


# kind -> (f, input gradient g * f'(x) given the upstream g, input x and output y)
_ACTIVATIONS = {
    "relu": (lambda v: np.maximum(v, 0.0), lambda g, x, y: g * (x > 0.0)),
    "tanh": (np.tanh, lambda g, x, y: g * (1.0 - y * y)),
    "sigmoid": (_sigmoid, lambda g, x, y: g * y * (1.0 - y)),
}


def split_act(x: Node, kind: str) -> Node:
    """Apply a real scalar nonlinearity independently to each component."""
    if kind not in _ACTIVATIONS:
        raise ConfigError(f"unknown activation {kind!r}, expected one of {tuple(_ACTIVATIONS)}")
    f, df = _ACTIVATIONS[kind]
    saved = {}

    def fwd(xv):
        saved["x"], saved["y"] = xv.data, f(xv.data)
        return QTensor(saved["y"])

    return x.tape.record(f"split_{kind}", (x,), fwd,
                         lambda g: (df(g, saved["x"], saved["y"]),))


def avg_pool(x: Node, window: int) -> Node:
    """Average pooling over non-overlapping window x window blocks, per component."""
    if window <= 0:
        raise ConfigError(f"pooling window must be positive, got {window}")
    h, w = x.value.shape[-2:]
    if h % window or w % window:
        raise ShapeMismatchError(f"pooling window {window} must divide spatial dims {(h, w)}")

    def fwd(xv):
        out = L.window_sum(L.map_rows(xv.data), window)
        out /= window * window
        return QTensor(L.map_rows(out))

    def bwd(g):
        return (L.map_rows(L.window_repeat(L.map_rows(g) / (window * window), window)),)

    return x.tape.record("avg_pool", (x,), fwd, bwd)


def global_sum_pool(x: Node) -> Node:
    """Sum over all spatial positions; spatial dims collapse to 1x1."""
    rows_shape = L.map_rows(x.value.data).shape

    def fwd(xv):
        return QTensor(L.map_rows(L.map_rows(xv.data).sum(axis=(0, 2), keepdims=True)))

    def bwd(g):
        return (L.map_rows(np.broadcast_to(L.map_rows(g), rows_shape).copy()),)

    return x.tape.record("global_sum_pool", (x,), fwd, bwd)


def upsample2x(x: Node) -> Node:
    """Nearest-neighbour upsampling by 2 along both spatial axes."""

    def fwd(xv):
        return QTensor(L.map_rows(L.window_repeat(L.map_rows(xv.data), 2)))

    def bwd(g):
        return (L.map_rows(L.window_sum(L.map_rows(g), 2)),)

    return x.tape.record("upsample2x", (x,), fwd, bwd)


# -- real-valued bridge ----------------------------------------------------------


def real_dense(x: Node, kernel: Node, bias: Node, channels: int, h: int, w: int) -> Node:
    """Real fully connected layer from real (B, in_f) features to a quaternion
    map: y = x W^T + b, a (B, 4*channels*h*w) real vector, read as the
    (B, channels, h, w) map whose channel c holds real channels 4c..4c+3 as
    its components r = 0..3. Its input, kernel and bias are plain arrays."""
    saved = {}
    b = x.value.shape[0]
    x_grad = x.needs_grad

    def fwd(xv, kv, bv):
        saved["x"], saved["k"] = xv, kv
        y = np.matmul(xv, kv.T) + bv[None, :]
        rows = y.reshape(b, channels, 4, h, w).transpose(3, 0, 4, 2, 1)
        return QTensor(L.map_rows(np.ascontiguousarray(rows)))

    def bwd(g):
        g2 = g.transpose(1, 2, 0, 3, 4).reshape(b, -1)
        dx = np.matmul(g2, saved["k"]) if x_grad else None
        return dx, g2.T @ saved["x"], g2.sum(axis=0)

    return x.tape.record("real_dense", (x, kernel, bias), fwd, bwd)


# -- gradient checking ----------------------------------------------------------


@dataclass
class GradCheckReport:
    tolerance: float
    step: float
    per_param: dict[str, float] = field(default_factory=dict)

    @property
    def max_error(self) -> float:
        return max(self.per_param.values()) if self.per_param else 0.0

    @property
    def passed(self) -> bool:
        return self.max_error < self.tolerance

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        worst = ", ".join(f"{k}={v:.3e}" for k, v in sorted(self.per_param.items()))
        return f"grad_check {status} (tol {self.tolerance:g}): {worst}"


def grad_check(build, params: dict[str, QTensor | np.ndarray], tolerance: float = 1e-4,
               step: float = 1e-6, max_entries: int | None = None) -> GradCheckReport:
    """Compare tape gradients against central finite differences.

    ``build(tape, leaves)`` must construct a scalar loss node from the dict of
    parameter leaf nodes; it is re-invoked for every perturbed evaluation, so
    it has to be deterministic. Parameters are perturbed one stored real
    entry at a time (every component of a quaternion parameter, every entry
    of a real one); ``max_entries`` caps the perturbed entries per parameter
    (an evenly spaced deterministic subset) to keep large checks affordable.
    64-bit inputs are required for the comparison to mean anything.
    """

    def loss_value(values: dict[str, QTensor | np.ndarray]) -> float:
        tape = Tape(needs_grad=False)
        leaves = {name: tape.param(name, v) for name, v in values.items()}
        node = build(tape, leaves)
        return float(node.value.data.reshape(4, -1)[0, 0])

    tape = Tape()
    leaves = {name: tape.param(name, v) for name, v in params.items()}
    loss = build(tape, leaves)
    analytic = tape.backward(loss)

    report = GradCheckReport(tolerance=tolerance, step=step)
    for name, value in params.items():
        base = live_array(value)
        worst = 0.0
        flat_an = analytic[name].reshape(-1)
        if max_entries is None or base.size <= max_entries:
            indices = range(base.size)
        else:
            indices = np.unique(np.linspace(0, base.size - 1, max_entries).astype(int))
        for idx in indices:
            perturbed = {k: (v.copy() if k == name else v) for k, v in params.items()}
            pdata = live_array(perturbed[name]).reshape(-1)
            pdata[idx] = base.reshape(-1)[idx] + step
            up = loss_value(perturbed)
            pdata[idx] = base.reshape(-1)[idx] - step
            down = loss_value(perturbed)
            numeric = (up - down) / (2.0 * step)
            a = flat_an[idx]
            # the 1e-3 floor turns near-zero entries into an absolute
            # comparison at tolerance*1e-3, below central-difference noise
            denom = max(abs(a), abs(numeric), 1e-3)
            worst = max(worst, abs(a - numeric) / denom)
        report.per_param[name] = worst
    return report
