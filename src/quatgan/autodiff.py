"""Minimal reverse-mode automatic differentiation over QTensor operations.

A :class:`Tape` records each operation eagerly (op kind, input node ids, the
forward value, and a backward closure). ``backward`` walks the record once in
reverse order and returns the per-component gradient of every registered
parameter: component c of a parameter gradient is the derivative of the loss
with respect to submatrix c, i.e. plain real-valued reverse mode applied to
the four component arrays.

Each differentiable operation is one function here that holds both its
forward and its backward; there is no separate pure forward. A gradient-free
tape (``Tape(needs_grad=False)``) runs the same ops for inference. It keeps no
backward closure, so what an op's forward saves for its backward is freed as
soon as ``record`` returns; the ops save unconditionally.

Losses are real scalars carried in the q0 slot of a scalar-shaped QTensor;
q1..q3 of a loss must be zero.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from . import layers as L
from .errors import ConfigError, DomainError, ShapeMismatchError
from .qtensor import QTensor

__all__ = ["Tape", "Node", "grad_check", "GradCheckReport"]


class Node:
    """One recorded operation; ``value`` is its eagerly evaluated result.

    A node refers to its tape weakly, so a tape and its nodes are freed as
    soon as the last reference to the tape is dropped, without waiting for
    the cyclic garbage collector.
    """

    __slots__ = ("_tape", "nid", "op", "inputs", "value", "bwd")

    def __init__(self, tape, nid, op, inputs, value, bwd=None):
        self._tape = weakref.ref(tape)
        self.nid = nid
        self.op = op
        self.inputs = inputs
        self.value = value
        self.bwd = bwd

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
        the tape needs gradients) maps the upstream gradient array to a tuple
        of gradient arrays aligned with ``inputs``.
        """
        ids = []
        for node in inputs:
            if not isinstance(node, Node) or node.tape is not self or node.nid >= len(self.nodes):
                raise DomainError(f"input {node!r} does not belong to this tape")
            ids.append(node.nid)
        value = forward(*(self.nodes[i].value for i in ids))
        node = Node(self, len(self.nodes), op, tuple(ids), value,
                    bwd=backward if self.needs_grad else None)
        self.nodes.append(node)
        return node

    def constant(self, value: QTensor) -> Node:
        return self.record("const", (), lambda: value)

    def param(self, name: str, value: QTensor) -> Node:
        """Register a leaf parameter."""
        if name in self.params:
            raise DomainError(f"parameter {name!r} already registered on this tape")
        node = self.record("param", (), lambda: value)
        self.params[name] = node.nid
        return node

    # -- backward ----------------------------------------------------------

    def backward(self, loss: Node) -> dict[str, QTensor]:
        """Gradients of a scalar loss for every registered parameter.

        Parameters not on any path to the loss get all-zero gradients.
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
                if contrib is None:
                    continue
                if grads[inp] is None:
                    grads[inp] = contrib.copy() if contrib.base is not None else contrib
                else:
                    grads[inp] = grads[inp] + contrib

        out = {}
        for name, nid in self.params.items():
            g = grads[nid]
            if g is None:
                g = np.zeros_like(self.nodes[nid].value.data)
            out[name] = QTensor(g)
        return out


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


def reshape(a: Node, shape) -> Node:
    """Reshape keeping the quaternion components; one entry of ``shape`` may be -1."""
    shape, in_shape = tuple(shape), a.value.data.shape
    return a.tape.record("reshape", (a,), lambda av: av.reshape(shape),
                         lambda g: (g.reshape(in_shape),))


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


def _check_conv_input(x: QTensor, cfg: L.ConvConfig):
    if len(x.shape) != 4:
        raise ShapeMismatchError(f"conv expects (batch, channels, H, W), got {x.shape}")
    if x.shape[1] != cfg.in_q:
        raise ShapeMismatchError(
            f"input has {x.shape[1]} quaternion channels, config expects {cfg.in_q}"
        )
    return x.shape


def _check_kernel(kernel: QTensor, want, what: str):
    if kernel.shape != want:
        raise ShapeMismatchError(
            f"{what} weight shape {kernel.shape} does not match config {want}"
        )


def qdense(x: Node, kernel: Node, bias: Node | None = None) -> Node:
    """Quaternion fully connected layer: (B, in_q) -> (B, out_q), y = W x + b.

    With the component axis moved inward, the input is one real (B, 4*in_q)
    matrix and the layer one GEMM against the Hamilton block of the kernel.
    """
    saved = {}
    inputs = (x, kernel) if bias is None else (x, kernel, bias)

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
            return QTensor(np.add(y, rest[0].data[:, None, :], order="C"))
        return QTensor(np.ascontiguousarray(y))

    def bwd(g):
        b, out_q = g.shape[1], g.shape[2]
        g2 = g.transpose(1, 0, 2).reshape(b, 4 * out_q)
        dx = (g2 @ saved["block"]).reshape(b, 4, -1).transpose(1, 0, 2)
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


def qconv2d(x: Node, kernel: Node, bias: Node | None, cfg: L.ConvConfig) -> Node:
    """Quaternion 2-D convolution (cross-correlation convention).

    Every stride runs the lowering of :mod:`quatgan.layers`: row patches of
    the input's phases against the :func:`_row_weights` of the kernel's
    Hamilton block. The kernel gradient pairs the same patches with the
    output gradient, which backward then drops; the input gradient is
    :func:`_row_gemms_t` of the output gradient.
    """
    saved = {}
    inputs = (x, kernel) if bias is None else (x, kernel, bias)
    k, s, p, o = cfg.kernel, cfg.stride, cfg.padding, cfg.out_q
    kk = -(-k // s)

    def fwd(xv, kv, *rest):
        b, i, h, w = _check_conv_input(xv, cfg)
        _check_kernel(kv, (o, i, k, k), "conv")
        ho = L.conv_out_size(h, k, s, p)
        wo = L.conv_out_size(w, k, s, p)
        w_rows = _row_weights(L.hamilton_block(kv.data), k, s)
        x_ph = L.to_phases(xv.data.transpose(3, 1, 4, 0, 2), s, p, ho + kk - 1, wo + kk - 1)
        cols = L.row_patches(x_ph, kk)
        y = _row_gemms(cols, w_rows).reshape(ho, b, wo, 4, o).transpose(3, 1, 4, 0, 2)
        saved.update(cols=cols, w_rows=w_rows, hwi=(h, w, i))
        if rest:
            return QTensor(np.add(y, rest[0].data[:, None, :, None, None], order="C"))
        return QTensor(np.ascontiguousarray(y))

    def bwd(g):
        _, b, _, ho, wo = g.shape
        h, w, i = saved["hwi"]
        g_rows = np.ascontiguousarray(g.transpose(3, 1, 4, 0, 2)).reshape(ho, b, wo, 4 * o)
        cols = saved.pop("cols")  # released below; a tape backpropagates once
        dw = _row_weights_grad(cols, g_rows.reshape(-1, 4 * o), kk)
        del cols
        dx = _row_gemms_t(g_rows, saved["w_rows"], s, p, h, w)
        dx = dx.reshape(h, b, w, 4, i).transpose(3, 1, 4, 0, 2)
        dk = L.fold_block(_block_grad(dw, k, s)).reshape(4, o, i, k, k)
        if bias is None:
            return dx, dk
        return dx, dk, g.sum(axis=(1, 3, 4))

    return x.tape.record("qconv2d", inputs, fwd, bwd)


def qtconv2d(x: Node, kernel: Node, bias: Node | None, cfg: L.ConvConfig) -> Node:
    """Quaternion transposed convolution; the kernel is (in_q, out_q, k, k).

    The adjoint of the :func:`qconv2d` lowering whose block is the transpose
    of that of the per-component transposed kernel (out_q*k*k, in_q):
    forward is :func:`_row_gemms_t` of the input, and backward's row patches
    of the gradient's phases give the input gradient and, paired with the
    saved input, the kernel gradient.
    """
    saved = {}
    inputs = (x, kernel) if bias is None else (x, kernel, bias)
    k, s, p, i, o = cfg.kernel, cfg.stride, cfg.padding, cfg.in_q, cfg.out_q
    kk = -(-k // s)

    def fwd(xv, kv, *rest):
        b, _, h, w = _check_conv_input(xv, cfg)
        _check_kernel(kv, (i, o, k, k), "transposed conv")
        ho = L.tconv_out_size(h, k, s, p)
        wo = L.tconv_out_size(w, k, s, p)
        block = L.hamilton_block(kv.data.reshape(4, i, -1).transpose(0, 2, 1))
        w_rows = _row_weights(block.T, k, s)
        x_rows = np.ascontiguousarray(xv.data.transpose(3, 1, 4, 0, 2)).reshape(h, b, w, 4 * i)
        y = _row_gemms_t(x_rows, w_rows, s, p, ho, wo).reshape(ho, b, wo, 4, o)
        y = y.transpose(3, 1, 4, 0, 2)
        saved.update(x2=x_rows.reshape(-1, 4 * i), w_rows=w_rows, hw=(h, w))
        if rest:
            return QTensor(np.add(y, rest[0].data[:, None, :, None, None], order="C"))
        return QTensor(np.ascontiguousarray(y))

    def bwd(g):
        h, w = saved["hw"]
        g_ph = L.to_phases(g.transpose(3, 1, 4, 0, 2), s, p, h + kk - 1, w + kk - 1)
        g_cols = L.row_patches(g_ph, kk)
        dx = _row_gemms(g_cols, saved["w_rows"]).reshape(h, g.shape[1], w, 4, i)
        dx = dx.transpose(3, 1, 4, 0, 2)
        dw = _row_weights_grad(g_cols, saved["x2"], kk)
        dk = L.fold_block(_block_grad(dw, k, s).T).transpose(0, 2, 1).reshape(4, i, o, k, k)
        if bias is None:
            return dx, dk
        return dx, dk, g.sum(axis=(1, 3, 4))

    return x.tape.record("qtconv2d", inputs, fwd, bwd)


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
        out = L.window_sum(xv.data.reshape(*xv.data.shape[:-2], h // window, window,
                                           w // window, window))
        out /= window * window
        return QTensor(out)

    def bwd(g):
        g4 = np.repeat(np.repeat(g, window, axis=-2), window, axis=-1)
        return (g4 / (window * window),)

    return x.tape.record("avg_pool", (x,), fwd, bwd)


def global_sum_pool(x: Node) -> Node:
    """Sum over all spatial positions; spatial dims collapse to 1x1."""
    shape = x.value.data.shape

    def bwd(g):
        return (np.broadcast_to(g, shape).copy(),)

    return x.tape.record("global_sum_pool", (x,),
                         lambda xv: QTensor(xv.data.sum(axis=(-2, -1), keepdims=True)), bwd)


def upsample2x(x: Node) -> Node:
    """Nearest-neighbour upsampling by 2 along both spatial axes."""

    def fwd(xv):
        return QTensor(np.repeat(np.repeat(xv.data, 2, axis=-2), 2, axis=-1))

    def bwd(g):
        s = g.shape
        return (L.window_sum(g.reshape(*s[:-2], s[-2] // 2, 2, s[-1] // 2, 2)),)

    return x.tape.record("upsample2x", (x,), fwd, bwd)


# -- real-valued bridge (values carried in q0) ----------------------------------


def real_dense(x: Node, kernel: Node, bias: Node, channels: int, h: int, w: int) -> Node:
    """Real fully connected layer from q0-carried data to a quaternion map:
    y0 = x0 W^T + b0, a (B, 4*channels*h*w) real vector, read as the
    (B, channels, h, w) map whose channel c holds real channels 4c..4c+3 as
    its components r = 0..3."""
    saved = {}
    b = x.value.shape[0]

    def fwd(xv, kv, bv):
        saved["x0"], saved["k0"] = xv.q0, kv.q0
        y0 = np.matmul(xv.q0, kv.q0.T) + bv.q0[None, :]
        v = y0.reshape(b, channels, 4, h, w)
        return QTensor(np.ascontiguousarray(v.transpose(2, 0, 1, 3, 4)))

    def bwd(g):
        g0 = g.transpose(1, 2, 0, 3, 4).reshape(b, -1)
        dx = np.zeros((4, *saved["x0"].shape), dtype=g.dtype)
        dx[0] = np.matmul(g0, saved["k0"])
        dk = np.zeros((4, *saved["k0"].shape), dtype=g.dtype)
        dk[0] = np.einsum("bo,bi->oi", g0, saved["x0"])
        db = np.zeros((4, saved["k0"].shape[0]), dtype=g.dtype)
        db[0] = g0.sum(axis=0)
        return dx, dk, db

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


def grad_check(build, params: dict[str, QTensor], tolerance: float = 1e-4,
               step: float = 1e-6, max_entries: int | None = None) -> GradCheckReport:
    """Compare tape gradients against central finite differences.

    ``build(tape, leaves)`` must construct a scalar loss node from the dict of
    parameter leaf nodes; it is re-invoked for every perturbed evaluation, so
    it has to be deterministic. Parameters are perturbed one real component
    entry at a time; ``max_entries`` caps the perturbed entries per parameter
    (an evenly spaced deterministic subset) to keep large checks affordable.
    64-bit inputs are required for the comparison to mean anything.
    """

    def loss_value(values: dict[str, QTensor]) -> float:
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
        base = value.data
        worst = 0.0
        flat_an = analytic[name].data.reshape(-1)
        if max_entries is None or base.size <= max_entries:
            indices = range(base.size)
        else:
            indices = np.unique(np.linspace(0, base.size - 1, max_entries).astype(int))
        for idx in indices:
            perturbed = {k: (v.copy() if k == name else v) for k, v in params.items()}
            pdata = perturbed[name].data.reshape(-1)
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
