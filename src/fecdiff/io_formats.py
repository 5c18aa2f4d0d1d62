"""Binary file formats: FECTRAJ1 trajectories, FECKV1 caches, FECMASK1 masks.

All integers and floats are little-endian; tensor payloads are row-major.
Float width 32 or 64 applies to payloads only (headers are fixed width);
in-memory state is always float64 and down-conversion happens here.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .denoiser import KVCache
from .sampling import Trajectory

TRAJ_MAGIC = b"FECTRAJ1"
KV_MAGIC = b"FECKV1"
MASK_MAGIC = b"FECMASK1"

_VERSION = 1


class FormatError(ValueError):
    """A file does not hold what its format says: bad magic, version,
    float width or length, or a header that contradicts itself."""


def _dtype(width: int):
    if width == 32:
        return np.dtype("<f4")
    if width == 64:
        return np.dtype("<f8")
    raise ValueError(f"float width must be 32 or 64, got {width}")


def _write_u32s(f, *values: int):
    f.write(struct.pack("<" + "I" * len(values), *values))


def _write_array(f, arr: np.ndarray, width: int):
    f.write(np.ascontiguousarray(arr, dtype=_dtype(width)).tobytes())


class _Reader:
    """Reads a binary file against its size, taken once up front: no read
    asks for more bytes than the file has left, and the payload must end
    exactly at the end of the file."""

    def __init__(self, f, path):
        self.f, self.path = f, path
        self.left = os.fstat(f.fileno()).st_size

    def fail(self, what: str):
        raise FormatError(f"{self.path}: {what}")

    def take(self, n: int) -> bytes:
        if n > self.left:
            self.fail(f"truncated: the header needs {n} more bytes, {self.left} left")
        self.left -= n
        return self.f.read(n)

    def u32s(self, n: int) -> tuple[int, ...]:
        raw = self.take(4 * n)
        return struct.unpack(f"<{n}I", raw)

    def timesteps(self, n: int) -> tuple[int, ...]:
        timesteps = self.u32s(n)
        if len(set(timesteps)) != n:
            self.fail(f"timestep list repeats a timestep: {timesteps}")
        return timesteps

    def magic(self, magic: bytes):
        got = self.f.read(len(magic))
        self.left -= len(got)
        if got != magic:
            self.fail(f"bad magic {got!r}, expected {magic!r}")

    def version(self, version: int, what: str):
        if version != _VERSION:
            self.fail(f"unsupported {what} version {version}")

    def width(self, width: int) -> int:
        if width not in (32, 64):
            self.fail(f"float width must be 32 or 64, got {width}")
        return width // 8

    def payload(self, n_bytes: int):
        """Check that the payload still to read is ``n_bytes`` long."""
        if n_bytes != self.left:
            kind = "truncated" if n_bytes > self.left else "trailing bytes"
            self.fail(f"{kind}: the header describes {n_bytes} payload bytes, {self.left} left")

    def array(self, shape: tuple[int, ...], width: int) -> np.ndarray:
        raw = self.f.read(math.prod(shape) * (width // 8))
        return np.frombuffer(raw, dtype=_dtype(width)).reshape(shape).astype(np.float64)


def write_trajectory(path, traj: Trajectory, float_width: int = 64):
    """Header: version, steps, float width, dims, guidance, seed, timestep
    list; payload: latents by descending t, then t = 0."""
    dims = traj[0].shape
    with open(path, "wb") as f:
        f.write(TRAJ_MAGIC)
        _write_u32s(f, _VERSION, len(traj.timesteps), float_width, len(dims), *dims)
        f.write(struct.pack("<d", traj.guidance))
        f.write(struct.pack("<q", -1 if traj.seed is None else traj.seed))
        _write_u32s(f, *traj.timesteps)
        for t in traj.timesteps:
            _write_array(f, traj[t], float_width)
        _write_array(f, traj[0], float_width)


def read_trajectory(path) -> Trajectory:
    with open(path, "rb") as f:
        r = _Reader(f, path)
        r.magic(TRAJ_MAGIC)
        version, steps, width, rank = r.u32s(4)
        r.version(version, "trajectory")
        nbytes = r.width(width)
        dims = r.u32s(rank)
        (guidance,) = struct.unpack("<d", r.take(8))
        (seed,) = struct.unpack("<q", r.take(8))
        timesteps = r.timesteps(steps)
        r.payload((steps + 1) * math.prod(dims) * nbytes)
        latents = {t: r.array(dims, width) for t in timesteps}
        latents[0] = r.array(dims, width)
    return Trajectory(
        latents=latents, timesteps=tuple(timesteps), guidance=guidance,
        seed=None if seed < 0 else seed,
    )


def write_kv_cache(path, cache: KVCache, float_width: int = 64):
    """Header: version, steps, layer count, float width, K/V dims, timestep
    list; entries ordered by (t descending, layer ascending), K before V."""
    timesteps = cache.timesteps()
    if not timesteps:
        raise ValueError("cannot serialize an empty KV cache")
    layer_count = cache.layer_count or (len(cache) // len(timesteps))
    k0, v0 = cache.fetch(timesteps[0], 0)
    with open(path, "wb") as f:
        f.write(KV_MAGIC)
        _write_u32s(f, _VERSION, len(timesteps), layer_count, float_width)
        _write_u32s(f, len(k0.shape), *k0.shape)
        _write_u32s(f, len(v0.shape), *v0.shape)
        _write_u32s(f, *timesteps)
        for t in timesteps:
            for layer in range(layer_count):
                k, v = cache.fetch(t, layer)
                _write_array(f, k, float_width)
                _write_array(f, v, float_width)


def read_kv_cache(path) -> KVCache:
    cache = KVCache()
    with open(path, "rb") as f:
        r = _Reader(f, path)
        r.magic(KV_MAGIC)
        version, steps, layer_count, width = r.u32s(4)
        r.version(version, "KV cache")
        nbytes = r.width(width)
        (k_rank,) = r.u32s(1)
        k_dims = r.u32s(k_rank)
        (v_rank,) = r.u32s(1)
        v_dims = r.u32s(v_rank)
        timesteps = r.timesteps(steps)
        entry = math.prod(k_dims) + math.prod(v_dims)
        if entry == 0:
            # Empty entries would let the layer count alone set how many
            # the loop below stores, with no payload to bound it.
            r.fail(f"K/V entries of shapes {k_dims} and {v_dims} hold no values")
        r.payload(steps * layer_count * entry * nbytes)
        for t in timesteps:
            for layer in range(layer_count):
                k = r.array(k_dims, width)
                v = r.array(v_dims, width)
                cache.store(t, layer, k, v)
    cache.layer_count = layer_count
    return cache


def write_mask(path, mask: np.ndarray, float_width: int = 64):
    mask = np.asarray(mask, dtype=np.float64)
    if mask.ndim != 2:
        raise ValueError("mask must be a 2-D spatial grid")
    with open(path, "wb") as f:
        f.write(MASK_MAGIC)
        _write_u32s(f, _VERSION, float_width, *mask.shape)
        _write_array(f, mask, float_width)


def read_mask(path) -> np.ndarray:
    with open(path, "rb") as f:
        r = _Reader(f, path)
        r.magic(MASK_MAGIC)
        version, width, h, w = r.u32s(4)
        r.version(version, "mask")
        r.payload(h * w * r.width(width))
        return r.array((h, w), width)
