"""Primitives behind the quaternion layers: the Hamilton block form of a
quaternion weight, the conv output sizes and the channels-last spatial
primitives (:func:`to_phases`, :func:`from_phases`, :func:`row_patches`,
:func:`window_sum`), and the polar-form weight initializer. The
differentiable layer operations themselves, forward and backward, are the
tape ops of :mod:`quatgan.autodiff`.

A conv's geometry is its kernel's shape, (out_q, in_q, k, k) for a conv and
(in_q, out_q, k, k) for a transposed conv, plus a stride and a padding.
:func:`conv_out_size` and :func:`tconv_out_size` refuse a stride below 1 or
a negative padding with :class:`ConfigError`.

Weight sharing follows the four-submatrix structure of the quaternion
product: output component c is a signed sum of the four real submatrices
applied to the input components. :func:`hamilton_block` lays the submatrices
out as that signed 4x4 real block matrix, and :func:`fold_block` is its
adjoint. They are the only code that reads the sign pattern: the dense, conv
and transposed-conv tape ops in :mod:`quatgan.autodiff` run real GEMMs
against the block, fold their kernel gradient back through the adjoint, and
spectral normalization and the sigma diagnostics measure the same block.

The spatial primitives are channels-last and rows-outermost: a quaternion
map enters them as (H, B, W, C) with its four components moved inward,
C = 4*channels in (component, channel) order. The block's singular values,
and so spectral normalization, do not depend on how its columns are
reordered to match. Tape maps arrive already rows-outermost: a map value
keeps its (4, B, C, H, W) shape but is stored as (H, B, W, 4, C), so
:func:`map_rows` of it is a C-contiguous view and the lowering reads and
writes it without moving it (see :mod:`quatgan.autodiff`).

Every conv and transposed conv, at every stride, has one lowering: phases,
row patches, row GEMMs. :func:`to_phases` pads the map and stacks each s x s
pixel block into the channels (space-to-depth), so a stride-s correlation
with a k x k kernel becomes a stride-1 correlation with a k' = ceil(k/s)
kernel; at stride 1 it is a plain pad. :func:`row_patches` copies each row
k' times into k'-wide horizontal patches (Hp, B*Wo, k'*C), and the conv is
k' GEMMs, one per kernel row, over the contiguous slices
``patches[ki:ki+Ho]``. Nothing scatters: the adjoint of a stride-1
correlation is a correlation, so a conv's input gradient, and a transposed
conv's forward, is the same lowering of the gradient against the kernel
reversed on both tap axes with in and out swapped, followed by
:func:`from_phases` (Dumoulin & Visin, arXiv:1603.07285). A nearest 2x
upsample followed by a 3x3, padding-1 conv is likewise not run at the high
resolution: it is the stride-2, padding-1 transposed conv of the low-res map
against the 4x4 kernel that combines the 3x3 taps per axis as
[w2, w1+w2, w0+w1, w0] (:func:`quatgan.autodiff.upconv_kernel`).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DomainError, ShapeMismatchError
from .qtensor import QTensor

__all__ = [
    "hamilton_block",
    "fold_block",
    "map_rows",
    "channel_sum",
    "window_sum",
    "window_repeat",
    "quaternion_init",
    "conv_out_size",
    "tconv_out_size",
    "to_phases",
    "from_phases",
    "row_patches",
]

# Output component c of the product W x receives _SIGN[c, d] * W_m x_d with
# m = c XOR d (_SUBMATRIX[c, d]): the weight-on-left Hamilton product.
_SUBMATRIX = np.arange(4)[:, None] ^ np.arange(4)[None, :]
_SIGN = np.array(
    [
        [1, -1, -1, -1],
        [1, 1, -1, 1],
        [1, 1, 1, -1],
        [1, -1, 1, 1],
    ]
)


def hamilton_block(w: np.ndarray) -> np.ndarray:
    """Real block matrix of a quaternion weight: (4, out, in, ...) -> (4*out, 4*in*...).

    Block (c, d) is ``_SIGN[c, d] * W_{c^d}``, so the block times the stacked
    input components [x_0; x_1; x_2; x_3] gives the stacked output
    components of the quaternion product. Trailing kernel dims are flattened
    into the input axis. The signs are cast to ``w``'s dtype, so a float32
    kernel gives a float32 block.
    """
    w = w.reshape(4, w.shape[1], -1)
    _, rows, cols = w.shape
    blocks = w[_SUBMATRIX] * _SIGN.astype(w.dtype)[:, :, None, None]  # (c, d, out, in)
    return blocks.transpose(0, 2, 1, 3).reshape(4 * rows, 4 * cols)


def fold_block(g: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`hamilton_block`: (4*out, 4*in) -> (4, out, in).

    Submatrix m collects the signed blocks it appears in, so the gradient of
    a loss through the block matrix folds back onto the four submatrices.
    """
    rows, cols = g.shape[0] // 4, g.shape[1] // 4
    blocks = g.reshape(4, rows, 4, cols).transpose(0, 2, 1, 3)  # (c, d, out, in)
    c = np.arange(4)[None, :]
    d = _SUBMATRIX  # row m holds d = m ^ c for each c, the block where W_m sits
    signed = blocks[c, d] * _SIGN[c, d].astype(g.dtype)[:, :, None, None]  # (m, c, out, in)
    return signed.sum(axis=1)


def _check_geometry(stride: int, padding: int) -> None:
    if stride < 1 or padding < 0:
        raise ConfigError(f"invalid conv geometry: stride={stride} padding={padding}")


def conv_out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    _check_geometry(stride, padding)
    out = (size + 2 * padding - kernel) // stride + 1
    if size + 2 * padding < kernel:
        raise ShapeMismatchError(
            f"kernel {kernel} larger than padded input {size + 2 * padding}"
        )
    return out


def tconv_out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    _check_geometry(stride, padding)
    out = (size - 1) * stride - 2 * padding + kernel
    if out < 1:
        raise ShapeMismatchError(
            f"transposed conv output collapses: size={size} kernel={kernel} "
            f"stride={stride} padding={padding}"
        )
    return out


# -- real spatial primitives -------------------------------------------------


def map_rows(v: np.ndarray) -> np.ndarray:
    """The rows-outermost (H, B, W, 4, C) view of a (4, B, C, H, W) map, and
    back: the axis permutation is its own inverse. For a map stored
    channels-last the view is C-contiguous."""
    return v.transpose(3, 1, 4, 0, 2)


def channel_sum(v: np.ndarray, c: int) -> np.ndarray:
    """Sum of a rows-outermost map over every axis but its trailing ``c``
    channels: (H, ..., c) -> (c,). It reduces the (H, ...) rows, as wide as
    the rest of the map, then the channel blocks of the one row left; numpy
    sums a tall matrix of narrow rows over its first axis several times
    slower."""
    return v.reshape(v.shape[0], -1).sum(axis=0).reshape(-1, c).sum(axis=0)


def _phase_span(i: int, stride: int, padding: int, size: int, phases: int):
    """Where phase offset ``i`` meets a map axis of ``size`` pixels padded in
    front by ``padding``: (first pixel, first phase index, count). Pixel
    y = s*r + i - padding of the map is row r of phase i."""
    y0 = (i - padding) % stride
    r0 = (y0 + padding - i) // stride
    if r0 < 0:
        y0, r0 = y0 - stride * r0, 0
    return y0, r0, max(min(-(-(size - y0) // stride), phases - r0), 0)


def to_phases(v: np.ndarray, stride: int, padding: int, rows: int, cols: int) -> np.ndarray:
    """Space-to-depth of a rows-outermost map: (H, B, W, ...) -> (rows, B, cols, s*s*C).

    The map is padded in front by ``padding`` (cropped where negative), then
    cut or zero-filled to s*rows x s*cols pixels, s = ``stride``. Phase pixel
    (r, b, c) stacks the s x s block at (s*r, s*c), channels in (row phase,
    column phase, channel) order; trailing axes of ``v``, any strided view,
    merge into the channel. Each phase is one strided copy. At stride 1 with
    no padding and an exact fit, ``v`` itself is returned (a view where its
    trailing axes merge).
    """
    h, b, w, tail = v.shape[0], v.shape[1], v.shape[2], v.shape[3:]
    if stride == 1 and padding == 0 and (rows, cols) == (h, w):
        return v.reshape(rows, b, cols, -1)
    out = np.zeros((rows, b, cols, stride, stride, *tail), dtype=v.dtype)
    for i in range(stride):
        y0, r0, n = _phase_span(i, stride, padding, h, rows)
        for j in range(stride):
            x0, c0, m = _phase_span(j, stride, padding, w, cols)
            out[r0 : r0 + n, :, c0 : c0 + m, i, j] = \
                v[y0 : y0 + stride * n : stride, :, x0 : x0 + stride * m : stride]
    return out.reshape(rows, b, cols, -1)


def from_phases(u: np.ndarray, stride: int, padding: int, h: int, w: int) -> np.ndarray:
    """Adjoint of :func:`to_phases`: (rows, B, cols, s*s*C) -> (h, B, w, C),
    the h x w window at (padding, padding) of the s*rows x s*cols pixel map,
    zero outside it, as a C-contiguous array. At stride 1 with no padding
    and an exact fit, ``u`` itself is returned."""
    rows, b, cols = u.shape[:3]
    if stride == 1 and padding == 0 and (rows, cols) == (h, w):
        return u
    u = u.reshape(rows, b, cols, stride, stride, -1)
    out = np.zeros((h, b, w, u.shape[-1]), dtype=u.dtype)
    for i in range(stride):
        y0, r0, n = _phase_span(i, stride, padding, h, rows)
        for j in range(stride):
            x0, c0, m = _phase_span(j, stride, padding, w, cols)
            out[y0 : y0 + stride * n : stride, :, x0 : x0 + stride * m : stride] = \
                u[r0 : r0 + n, :, c0 : c0 + m, i, j]
    return out


def row_patches(xp: np.ndarray, kernel: int) -> np.ndarray:
    """Horizontal patches of a padded rows-outermost map: (Hp, B, Wp, C) ->
    (Hp, B*Wo, k*C) with Wo = Wp - k + 1, columns in (kj, c) order.

    Row (r, b, ow) holds the k pixels of input row r starting at column ow,
    so a stride-1 conv is the sum over ki of ``patches[ki:ki+Ho]`` times
    the kernel's row block ki; each such slice is a contiguous matrix. One
    copy, k times the map; a 1x1 kernel gives a view.
    """
    hp, b, wp, c = xp.shape
    windows = sliding_window_view(xp, kernel, axis=2)  # (Hp, B, Wo, C, k)
    return windows.transpose(0, 1, 2, 4, 3).reshape(hp, b * (wp - kernel + 1), kernel * c)


def window_sum(v: np.ndarray, window: int) -> np.ndarray:
    """Sums over the non-overlapping window x window blocks of a
    rows-outermost map: (H, B, W, ...) -> (H/window, B, W/window, ...).

    Adds the window**2 strided slices ``v[i::window, :, j::window]``; numpy
    reduces over two strided axes of one view several times slower.
    """
    out = v[::window, :, ::window].copy()
    for i in range(window):
        for j in range(window):
            if i or j:
                out += v[i::window, :, j::window]
    return out


def window_repeat(v: np.ndarray, window: int) -> np.ndarray:
    """Adjoint of :func:`window_sum`, nearest-neighbour upsampling of a
    rows-outermost map: (H, B, W, ...) -> (H*window, B, W*window, ...),
    C-contiguous, in one broadcast copy."""
    h, b, w, tail = v.shape[0], v.shape[1], v.shape[2], v.shape[3:]
    out = np.empty((h, window, b, w, window, *tail), dtype=v.dtype)
    out[...] = v[:, None, :, :, None]
    return out.reshape(h * window, b, w * window, *tail)


# -- initialization ------------------------------------------------------------


def init_sigma(fan_in: int, fan_out: int, criterion: str) -> float:
    if fan_in <= 0 or fan_out <= 0:
        raise DomainError(f"fans must be positive, got {fan_in}, {fan_out}")
    if criterion == "glorot":
        return 1.0 / np.sqrt(2.0 * (fan_in + fan_out))
    if criterion == "he":
        return 1.0 / np.sqrt(2.0 * fan_in)
    raise ConfigError(f"unknown init criterion {criterion!r}, expected 'glorot' or 'he'")


def quaternion_init(shape, fan_in: int, fan_out: int, criterion: str = "glorot",
                    rng: np.random.Generator | int | None = None) -> QTensor:
    """Polar-form weight initializer.

    Per entry: a random pure unit quaternion u (componentwise uniform [0,1],
    normalized; the measure-zero all-zero draw is resampled), an angle theta
    uniform on [-pi, pi], and a modulus phi drawn chi(4)-distributed with
    scale sigma so that the summed component variance is exactly 4 sigma^2
    with sigma = 1/sqrt(2(n_in+n_out)) (glorot) or 1/sqrt(2 n_in) (he).
    The components are W0 = phi cos(theta), W_i = phi u_i sin(theta).
    Returns the kernel; biases are not drawn (layers start them at zero).
    """
    sigma = init_sigma(fan_in, fan_out, criterion)
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    shape = tuple(shape)
    u = rng.uniform(0.0, 1.0, size=(3, *shape))
    bad = (u == 0.0).all(axis=0)
    while bad.any():
        u[:, bad] = rng.uniform(0.0, 1.0, size=(3, int(bad.sum())))
        bad = (u == 0.0).all(axis=0)
    u /= np.sqrt((u * u).sum(axis=0, keepdims=True))
    theta = rng.uniform(-np.pi, np.pi, size=shape)
    phi = sigma * np.sqrt((rng.standard_normal(size=(4, *shape)) ** 2).sum(axis=0))
    return QTensor(
        np.stack(
            [
                phi * np.cos(theta),
                phi * u[0] * np.sin(theta),
                phi * u[1] * np.sin(theta),
                phi * u[2] * np.sin(theta),
            ]
        )
    )
