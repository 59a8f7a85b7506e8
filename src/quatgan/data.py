"""Image handling: quaternion encapsulation of RGB data, PPM and packed-binary
dataset formats, and a deterministic synthetic dataset for desk-scale runs.

Pixel data flows through the package as float arrays in [-1, 1] with layout
(3, H, W) or batched (N, 3, H, W); images become pure quaternions with q0 = 0
and the channels on the imaginary units.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import DomainError, ShapeMismatchError
from .qtensor import QTensor

__all__ = [
    "encapsulate_batch",
    "decapsulate_batch",
    "synth_dataset",
    "write_ppm",
    "read_ppm",
    "to_uint8",
    "from_uint8",
    "save_packed",
    "load_packed",
    "load_dataset",
]

PACKED_MAGIC = b"QIMG"


def encapsulate_batch(rgb: np.ndarray) -> QTensor:
    """(N, 3, H, W) pixels in [-1, 1] -> pure quaternion batch (N, 1, H, W),
    red on i, green on j, blue on k."""
    rgb = np.asarray(rgb)
    if rgb.ndim != 4 or rgb.shape[1] != 3:
        raise ShapeMismatchError(f"expected (N, 3, H, W) batch, got {rgb.shape}")
    data = np.zeros((4, rgb.shape[0], 1, *rgb.shape[2:]), dtype=rgb.dtype)
    data[1:, :, 0] = rgb.transpose(1, 0, 2, 3)
    return QTensor(data)


def decapsulate_batch(x: QTensor) -> np.ndarray:
    """Drop q0 and return the (N, 3, H, W) channels clamped to [-1, 1], as a
    C-contiguous array."""
    if len(x.shape) != 4 or x.shape[1] != 1:
        raise ShapeMismatchError(f"expected quaternion batch (N, 1, H, W), got {x.shape}")
    rgb = x.data[1:, :, 0].transpose(1, 0, 2, 3)
    return np.clip(rgb, -1.0, 1.0, out=np.empty(rgb.shape, dtype=rgb.dtype))


# -- synthetic data ---------------------------------------------------------------


def synth_dataset(n: int, size: int, seed: int = 0) -> np.ndarray:
    """Deterministic procedurally generated color images, (n, 3, size, size)
    in [-1, 1].

    Each image is a luminance field (an oriented gradient plus one or two
    filled shape bumps) modulated by per-channel positive weights, so the RGB
    channels stay strongly correlated.
    """
    if size not in (8, 16, 32):
        raise DomainError(f"synthetic dataset supports sizes 8/16/32, got {size}")
    if n < 1:
        raise DomainError(f"need at least one image, got n={n}")
    rng = np.random.default_rng(seed)
    yy, xx = np.meshgrid(np.linspace(0, 1, size), np.linspace(0, 1, size), indexing="ij")
    images = np.empty((n, 3, size, size))
    for idx in range(n):
        angle = rng.uniform(0, 2 * np.pi)
        lum = np.cos(angle) * xx + np.sin(angle) * yy
        for _ in range(int(rng.integers(1, 3))):
            cy, cx = rng.uniform(0.15, 0.85, size=2)
            radius = rng.uniform(0.12, 0.3)
            bump = rng.uniform(0.6, 1.4) * (rng.integers(0, 2) * 2 - 1)
            if rng.integers(0, 2):
                mask = (yy - cy) ** 2 + (xx - cx) ** 2 < radius ** 2
            else:
                mask = (np.abs(yy - cy) < radius) & (np.abs(xx - cx) < radius)
            lum = lum + bump * mask
        lum = lum - lum.mean()
        peak = np.abs(lum).max()
        if peak > 0:
            lum = lum / peak
        weights = rng.uniform(0.35, 1.0, size=3)
        noise = 0.04 * rng.standard_normal((3, size, size))
        images[idx] = np.clip(weights[:, None, None] * lum[None] + noise, -1.0, 1.0)
    return images


# -- u8 conversion and PPM --------------------------------------------------------


def to_uint8(img: np.ndarray) -> np.ndarray:
    """[-1, 1] float (3, H, W) -> (H, W, 3) uint8."""
    arr = np.clip(np.asarray(img), -1.0, 1.0)
    return np.round((arr + 1.0) * 127.5).astype(np.uint8).transpose(1, 2, 0)


def from_uint8(raw: np.ndarray) -> np.ndarray:
    """(H, W, 3) uint8 -> [-1, 1] float (3, H, W)."""
    return raw.astype(np.float64).transpose(2, 0, 1) / 127.5 - 1.0


def write_ppm(path, img: np.ndarray):
    """Write a binary PPM (P6, maxval 255); ``img`` is (3, H, W) float in
    [-1, 1] or (H, W, 3) uint8."""
    if img.dtype != np.uint8:
        img = to_uint8(img)
    h, w, _ = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


def read_ppm(path) -> np.ndarray:
    """Read a binary PPM into (H, W, 3) uint8."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P6"):
        raise DomainError(f"{path}: not a binary PPM (missing P6 magic)")
    fields, pos = [], 2
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        field = data[start:pos]
        if not field.isdigit():
            raise DomainError(f"{path}: PPM header field {field!r} is not a nonnegative integer"
                              if field else f"{path}: PPM header ends before its three fields")
        fields.append(int(field))
    pos += 1  # single whitespace byte after maxval
    w, h, maxval = fields
    if maxval != 255:
        raise DomainError(f"{path}: unsupported maxval {maxval}")
    need = w * h * 3
    raw = data[pos : pos + need]
    if len(raw) != need:
        raise DomainError(f"{path}: truncated pixel data ({len(raw)} of {need} bytes)")
    return np.frombuffer(raw, dtype=np.uint8).reshape(h, w, 3)


# -- packed binary dataset ---------------------------------------------------------


def save_packed(path, images: np.ndarray):
    """Single-file dataset: magic, u32 count, u16 H, u16 W, then u8 RGB frames."""
    if images.dtype != np.uint8:
        images = np.stack([to_uint8(im) for im in images])
    n, h, w, c = images.shape
    if c != 3:
        raise ShapeMismatchError(f"packed dataset stores RGB frames, got {images.shape}")
    with open(path, "wb") as fh:
        fh.write(PACKED_MAGIC)
        fh.write(struct.pack("<IHH", n, h, w))
        fh.write(images.tobytes())


def load_packed(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != PACKED_MAGIC:
            raise DomainError(f"{path}: bad magic {magic!r}; a dataset file is read as a "
                              "packed dataset, and images must be passed as a directory")
        header = fh.read(8)
        if len(header) != 8:
            raise DomainError(f"{path}: truncated packed dataset header")
        n, h, w = struct.unpack("<IHH", header)
        raw = fh.read(n * h * w * 3)
    if len(raw) != n * h * w * 3:
        raise DomainError(f"{path}: truncated packed dataset")
    if n == 0:
        raise DomainError(f"{path}: packed dataset holds no images")
    frames = np.frombuffer(raw, dtype=np.uint8).reshape(n, h, w, 3)
    return np.stack([from_uint8(f) for f in frames])


def load_dataset(path) -> np.ndarray:
    """Load a dataset into (N, 3, H, W) floats in [-1, 1].

    ``path`` is either a packed binary file or a directory of .ppm/.png
    images (PNG via Pillow when installed).
    """
    if os.path.isfile(path):
        return load_packed(path)
    if not os.path.isdir(path):
        raise DomainError(f"dataset path {path!r} is neither a file nor a directory")
    names = sorted(
        f for f in os.listdir(path) if f.lower().endswith((".ppm", ".png"))
    )
    if not names:
        raise DomainError(f"no .ppm/.png images found under {path!r}")
    images = []
    for name in names:
        full = os.path.join(path, name)
        if name.lower().endswith(".ppm"):
            images.append(from_uint8(read_ppm(full)))
        else:
            images.append(from_uint8(_read_png(full)))
    shapes = {im.shape for im in images}
    if len(shapes) != 1:
        raise ShapeMismatchError(f"dataset images disagree on shape: {sorted(shapes)}")
    return np.stack(images)


def _read_png(path) -> np.ndarray:
    try:
        from PIL import Image
    except ImportError as exc:
        raise DomainError(
            "PNG support needs pillow (pip install 'quatgan[png]')"
        ) from exc
    with Image.open(path) as im:
        return np.asarray(im.convert("RGB"), dtype=np.uint8)
