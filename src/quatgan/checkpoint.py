"""Bit-exact checkpoint serialization.

Format: magic ``QGN2``, u32 tensor count, then per tensor: u16 name length,
UTF-8 name, u8 rank, rank x u32 dims, 32-bit little-endian float payload.
Everything a run needs to resume (parameters, spectral-norm vectors, optimizer
moments, RNG streams, iteration counter, config) is framed as tensors, each
at the shape it has in memory: (4, ...) for quaternion parameters and their
Adam moments, the true shape for real-valued ones (see ``quatgan.train``).
Non-float state is packed losslessly into f32-representable integers: text
as bytes, and counters and RNG streams as 16-bit limbs, so a counter stays
exact past 2**24.
Tensors are written sorted by name so save -> load -> save is byte-identical.
A save writes a sibling file and renames it onto the path, so a save that
fails or is killed part way leaves the file it would replace as it was.
Every malformed file raises :class:`CheckpointError`, and a ``QGN1`` file of
an older build is refused by name (there is no converter). The loader does
not yet detect a flipped bit inside a float payload.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .errors import CheckpointError

__all__ = [
    "save_tensors",
    "load_tensors",
    "pack_text",
    "unpack_text",
    "pack_count",
    "unpack_count",
    "pack_rng_state",
    "unpack_rng_state",
]

MAGIC = b"QGN2"
_COUNT_LIMBS = 4


def save_tensors(path, tensors: dict[str, np.ndarray]):
    names = sorted(tensors)
    raws = [name.encode("utf-8") for name in names]
    for name, raw in zip(names, raws):
        if len(raw) > 0xFFFF:
            raise CheckpointError(f"tensor name too long: {name[:40]}...")
    size = 8 + sum(3 + len(raw) + 4 * np.ndim(tensors[name]) + 4 * np.size(tensors[name])
                   for name, raw in zip(names, raws))
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        # header fields and payloads go straight to the file: no whole-file buffer
        with open(tmp, "wb") as fh:
            if hasattr(os, "posix_fallocate"):
                # Blocks allocated up front are not delayed allocations, so ext4
                # does not flush the new file when it replaces the old one
                # (auto_da_alloc). That flush made a 7 MB save 1.5x slower.
                os.posix_fallocate(fh.fileno(), 0, size)
            fh.write(MAGIC + struct.pack("<I", len(tensors)))
            for name, raw in zip(names, raws):
                # not np.ascontiguousarray, which promotes a rank-0 tensor to rank 1
                arr = np.asarray(tensors[name], dtype="<f4", order="C")
                fh.write(struct.pack(f"<H{len(raw)}sB{arr.ndim}I",
                                     len(raw), raw, arr.ndim, *arr.shape))
                fh.write(arr)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_tensors(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] == b"QGN1":
        raise CheckpointError(
            f"checkpoint format QGN1 is not supported: this build reads {MAGIC.decode()}",
            offset=0)
    if data[:4] != MAGIC:
        raise CheckpointError(f"bad checkpoint magic {data[:4]!r}", offset=0)
    pos = 4
    (count,) = _unpack(data, "<I", pos)
    pos += 4
    out = {}
    prev = None
    for _ in range(count):
        (nlen,) = _unpack(data, "<H", pos)
        pos += 2
        if pos + nlen > len(data):
            raise CheckpointError("truncated tensor name", offset=pos)
        try:
            name = data[pos : pos + nlen].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"tensor name is not UTF-8: {exc}", offset=pos) from exc
        if prev is not None and name <= prev:
            raise CheckpointError(f"tensor {name!r} is out of name order", offset=pos)
        prev = name
        pos += nlen
        (rank,) = _unpack(data, "<B", pos)
        pos += 1
        dims = []
        for _ in range(rank):
            (d,) = _unpack(data, "<I", pos)
            pos += 4
            dims.append(d)
        nbytes = 4 * math.prod(dims)
        if pos + nbytes > len(data):
            raise CheckpointError(
                f"truncated payload for tensor {name!r}", offset=pos
            )
        out[name] = np.frombuffer(data[pos : pos + nbytes], dtype="<f4").reshape(dims)
        pos += nbytes
    if pos != len(data):
        raise CheckpointError(f"{len(data) - pos} trailing bytes", offset=pos)
    return out


def _unpack(data: bytes, fmt: str, pos: int):
    size = struct.calcsize(fmt)
    if pos + size > len(data):
        raise CheckpointError("unexpected end of file", offset=pos)
    return struct.unpack_from(fmt, data, pos)


# -- lossless packing of non-float state into f32 tensors ---------------------------


def pack_text(text: str) -> np.ndarray:
    """UTF-8 bytes as f32 values (each in [0, 255], exactly representable)."""
    return np.frombuffer(text.encode("utf-8"), dtype=np.uint8).astype(np.float32)


def unpack_text(arr: np.ndarray) -> str:
    vals = _limb_values(arr, 0xFF, "text")
    try:
        return vals.astype(np.uint8).tobytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"packed text is not UTF-8: {exc}") from exc


def _limb_values(arr: np.ndarray, top: int, what: str) -> np.ndarray:
    """A 1-D tensor of integers in [0, top], as packed by this module."""
    vals = np.asarray(arr, dtype=np.float64)
    if vals.ndim != 1 or not np.all((vals >= 0) & (vals <= top) & (vals == np.round(vals))):
        raise CheckpointError(f"{what} tensor does not hold integers in [0, {top}]")
    return vals


def _int_to_limbs(value: int, limbs: int) -> list[float]:
    return [float((value >> (16 * i)) & 0xFFFF) for i in range(limbs)]


def _limbs_to_int(vals) -> int:
    return sum(int(round(v)) << (16 * i) for i, v in enumerate(vals))


def pack_count(value: int) -> np.ndarray:
    """A nonnegative integer below 2**64 as 16-bit limbs, least significant first."""
    if not 0 <= value < 1 << (16 * _COUNT_LIMBS):
        raise CheckpointError(f"counter {value} does not fit {_COUNT_LIMBS} 16-bit limbs")
    return np.array(_int_to_limbs(value, _COUNT_LIMBS), dtype=np.float32)


def unpack_count(arr: np.ndarray, name: str) -> int:
    # Python floats, not _limb_values: numpy's per-call cost would make
    # the three counters of a load several times slower
    vals = arr.tolist() if np.shape(arr) == (_COUNT_LIMBS,) else []
    if not vals or not all(0 <= v <= 0xFFFF and v == int(v) for v in vals):
        raise CheckpointError(f"tensor {name!r} does not hold {_COUNT_LIMBS} 16-bit limbs")
    return _limbs_to_int(vals)


def pack_rng_state(gen: np.random.Generator) -> np.ndarray:
    """PCG64 state as 16-bit limbs (exactly representable in f32)."""
    st = gen.bit_generator.state
    if st["bit_generator"] != "PCG64":
        raise CheckpointError(f"unsupported bit generator {st['bit_generator']!r}")
    vals = (
        _int_to_limbs(st["state"]["state"], 8)
        + _int_to_limbs(st["state"]["inc"], 8)
        + [float(st["has_uint32"])]
        + _int_to_limbs(st["uinteger"], 2)
    )
    return np.array(vals, dtype=np.float32)


def unpack_rng_state(arr: np.ndarray) -> np.random.Generator:
    vals = _limb_values(arr, 0xFFFF, "rng state")
    if vals.shape != (19,):
        raise CheckpointError(f"rng state has {vals.size} limbs, expected 19")
    gen = np.random.default_rng(0)
    gen.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": _limbs_to_int(vals[:8]), "inc": _limbs_to_int(vals[8:16])},
        "has_uint32": int(round(vals[16])),
        "uinteger": _limbs_to_int(vals[17:19]),
    }
    return gen
