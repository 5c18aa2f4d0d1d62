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
from .sampling import Trajectory, as_mask
from .schedule import TimestepPlan

TRAJ_MAGIC = b"FECTRAJ1"
KV_MAGIC = b"FECKV1"
MASK_MAGIC = b"FECMASK1"

_VERSION = 1


class FormatError(ValueError):
    """A file does not hold what its format says: bad magic, version or
    length, a header that contradicts itself, or a value that the library's
    own rule refuses (float width, timestep plan, mask)."""


def _dtype(width: int):
    if width == 32:
        return np.dtype("<f4")
    if width == 64:
        return np.dtype("<f8")
    raise ValueError(f"float width must be 32 or 64, got {width}")


def _check_shape(arr: np.ndarray, shape: tuple[int, ...], what: str):
    if arr.shape != shape:
        raise ValueError(f"{what} has shape {arr.shape}, not the header's {shape}")


def _u32s(*values: int) -> bytes:
    return struct.pack(f"<{len(values)}I", *values)


def _write(path, magic: bytes, header: bytes, arrays, width: int):
    """The frame all three formats share: magic, u32 version, the format's
    header, then each array's payload at ``width``. The width is resolved
    before ``path`` is opened, so a refused width changes no file."""
    dtype = _dtype(width)
    with open(path, "wb") as f:
        f.write(magic + _u32s(_VERSION) + header)
        for arr in arrays:
            # The array's own buffer: no bytes copy when it is already
            # stored at ``width`` and contiguous.
            f.write(np.ascontiguousarray(arr, dtype=dtype).data)


class _Reader:
    """Reads a binary file against its size, taken once up front: no read
    asks for more bytes than the file has left, and the payload must end
    exactly at the end of the file. The magic and version are checked on
    construction, so each reader starts at its format's own header."""

    def __init__(self, f, path, magic: bytes, what: str):
        self.f, self.path = f, path
        self.left = os.fstat(f.fileno()).st_size
        got = f.read(len(magic))
        self.left -= len(got)
        if got != magic:
            self.fail(f"bad magic {got!r}, expected {magic!r}")
        (version,) = self.u32s(1)
        if version != _VERSION:
            self.fail(f"unsupported {what} version {version}")

    def fail(self, what: str):
        raise FormatError(f"{self.path}: {what}")

    def take(self, n: int) -> bytes:
        if n > self.left:
            self.fail(f"truncated: the header needs {n} more bytes, {self.left} left")
        self.left -= n
        return self.f.read(n)

    def u32s(self, n: int) -> tuple[int, ...]:
        return struct.unpack(f"<{n}I", self.take(4 * n))

    def check(self, rule, *args):
        """``rule(*args)``: a library rule that a file obeys as memory does,
        its ``ValueError`` reported as this file's ``FormatError``."""
        try:
            return rule(*args)
        except ValueError as exc:
            self.fail(str(exc))

    def payload(self, n_bytes: int):
        """Check that the payload still to read is ``n_bytes`` long."""
        if n_bytes != self.left:
            kind = "truncated" if n_bytes > self.left else "trailing bytes"
            self.fail(f"{kind}: the header describes {n_bytes} payload bytes, {self.left} left")

    def array(self, shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        """Decode straight into a new array; a width-32 payload is then
        widened, a width-64 one on a little-endian host is the result."""
        out = np.empty(shape, dtype=dtype)
        got = self.f.readinto(out)
        if got != out.nbytes:
            self.fail(f"truncated: read {got} of {out.nbytes} payload bytes")
        return out.astype(np.float64, copy=False)


def write_trajectory(path, traj: Trajectory, float_width: int = 64):
    """Header: version, steps, float width, dims, guidance, seed, timestep
    list; payload: latents by descending t, then t = 0. The timestep list
    must be a ``TimestepPlan``'s, and every latent is fetched (``KeyError``)
    and checked against t = 0's shape (``ValueError``), all before ``path``
    is opened, so a failed write changes no file."""
    TimestepPlan(traj.timesteps)
    order = (*traj.timesteps, 0)
    latents = [traj[t] for t in order]
    dims = latents[-1].shape
    for t, latent in zip(order, latents):
        _check_shape(latent, dims, f"latent at t={t}")
    header = (_u32s(len(traj.timesteps), float_width, len(dims), *dims)
              + struct.pack("<dq", traj.guidance, -1 if traj.seed is None else traj.seed)
              + _u32s(*traj.timesteps))
    _write(path, TRAJ_MAGIC, header, latents, float_width)


def read_trajectory(path) -> Trajectory:
    with open(path, "rb") as f:
        r = _Reader(f, path, TRAJ_MAGIC, "trajectory")
        steps, width, rank = r.u32s(3)
        dtype = r.check(_dtype, width)
        dims = r.u32s(rank)
        (guidance,) = struct.unpack("<d", r.take(8))
        (seed,) = struct.unpack("<q", r.take(8))
        timesteps = r.check(TimestepPlan, r.u32s(steps)).timesteps
        r.payload((steps + 1) * math.prod(dims) * dtype.itemsize)
        latents = {t: r.array(dims, dtype) for t in timesteps}
        latents[0] = r.array(dims, dtype)
    return Trajectory(latents, timesteps, guidance, None if seed < 0 else seed)


def write_kv_cache(path, cache: KVCache, float_width: int = 64):
    """Header: version, steps, layer count, float width, K/V dims, timestep
    list; entries ordered by (t descending, layer ascending), K before V.
    The layer count is 1 + the highest cached layer. The cached timesteps
    must be a ``TimestepPlan``'s, as the reader requires, and every
    (t, layer) is fetched (``KeyError``) and its K and V checked against
    the first entry's (``ValueError``), all before ``path`` is opened, so
    a failed write changes no file."""
    timesteps = cache.timesteps()
    TimestepPlan(timesteps)
    layer_count = 1 + max(layer for _, layer in cache.entries)
    keys = [(t, layer) for t in timesteps for layer in range(layer_count)]
    entries = [cache.fetch(*key) for key in keys]
    k0, v0 = entries[0]
    for (t, layer), (k, v) in zip(keys, entries):
        _check_shape(k, k0.shape, f"K at (t={t}, layer={layer})")
        _check_shape(v, v0.shape, f"V at (t={t}, layer={layer})")
    header = _u32s(len(timesteps), layer_count, float_width, len(k0.shape), *k0.shape,
                   len(v0.shape), *v0.shape, *timesteps)
    _write(path, KV_MAGIC, header, (arr for kv in entries for arr in kv), float_width)


def read_kv_cache(path) -> KVCache:
    cache = KVCache()
    with open(path, "rb") as f:
        r = _Reader(f, path, KV_MAGIC, "KV cache")
        steps, layer_count, width = r.u32s(3)
        dtype = r.check(_dtype, width)
        if layer_count == 0:
            # write_kv_cache writes 1 + the highest cached layer, so no file holds 0.
            r.fail("a KV cache holds at least one layer, not 0")
        (k_rank,) = r.u32s(1)
        k_dims = r.u32s(k_rank)
        (v_rank,) = r.u32s(1)
        v_dims = r.u32s(v_rank)
        timesteps = r.check(TimestepPlan, r.u32s(steps)).timesteps
        entry = math.prod(k_dims) + math.prod(v_dims)
        if entry == 0:
            # Empty entries would let the layer count alone set how many
            # the loop below stores, with no payload to bound it.
            r.fail(f"K/V entries of shapes {k_dims} and {v_dims} hold no values")
        r.payload(steps * layer_count * entry * dtype.itemsize)
        for t in timesteps:
            for layer in range(layer_count):
                k = r.array(k_dims, dtype)
                v = r.array(v_dims, dtype)
                cache.store(t, layer, k, v)
    return cache


def write_mask(path, mask: np.ndarray, float_width: int = 64):
    mask = as_mask(mask)
    if mask.ndim != 2:
        raise ValueError("mask must be a 2-D spatial grid")
    _write(path, MASK_MAGIC, _u32s(float_width, *mask.shape), (mask,), float_width)


def read_mask(path) -> np.ndarray:
    with open(path, "rb") as f:
        r = _Reader(f, path, MASK_MAGIC, "mask")
        width, h, w = r.u32s(3)
        dtype = r.check(_dtype, width)
        r.payload(h * w * dtype.itemsize)
        return r.check(as_mask, r.array((h, w), dtype))
