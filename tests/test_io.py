import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fecdiff.denoiser import KVCache
from fecdiff.io_formats import (
    KV_MAGIC,
    MASK_MAGIC,
    TRAJ_MAGIC,
    FormatError,
    read_kv_cache,
    read_mask,
    read_trajectory,
    write_kv_cache,
    write_mask,
    write_trajectory,
)
from fecdiff.sampling import Trajectory


def _traj(seed=0):
    rng = np.random.default_rng(seed)
    timesteps = (30, 20, 10)
    latents = {t: rng.standard_normal((2, 4, 4)) for t in timesteps}
    latents[0] = rng.standard_normal((2, 4, 4))
    return Trajectory(latents=latents, timesteps=timesteps, guidance=7.5, seed=seed)


def test_trajectory_roundtrip_64(tmp_path):
    path = tmp_path / "t.fectraj"
    traj = _traj()
    write_trajectory(path, traj, 64)
    back = read_trajectory(path)
    assert back.timesteps == traj.timesteps
    assert back.guidance == traj.guidance
    assert back.seed == traj.seed
    for t in (*traj.timesteps, 0):
        assert back[t].tobytes() == traj[t].tobytes()
    with open(path, "rb") as f:
        assert f.read(8) == TRAJ_MAGIC


def test_trajectory_roundtrip_32_is_lossy_but_close(tmp_path):
    path = tmp_path / "t.fectraj"
    traj = _traj()
    write_trajectory(path, traj, 32)
    back = read_trajectory(path)
    assert back[0].dtype == np.float64
    assert back[0].tobytes() != traj[0].tobytes()
    assert np.max(np.abs(back[0] - traj[0])) < 1e-6


def test_trajectory_none_seed_roundtrip(tmp_path):
    traj = _traj()
    traj.seed = None
    path = tmp_path / "t.fectraj"
    write_trajectory(path, traj)
    assert read_trajectory(path).seed is None


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
    with pytest.raises(ValueError, match="bad magic"):
        read_trajectory(path)
    with pytest.raises(ValueError, match="bad magic"):
        read_kv_cache(path)
    with pytest.raises(ValueError, match="bad magic"):
        read_mask(path)


def test_kv_cache_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    cache = KVCache(layer_count=2)
    for t in (30, 20):
        for layer in range(2):
            cache.store(t, layer, rng.standard_normal((8, 16)), rng.standard_normal((8, 16)))
    path = tmp_path / "c.feckv"
    write_kv_cache(path, cache, 64)
    back = read_kv_cache(path)
    assert back.layer_count == 2
    assert back.timesteps() == [30, 20]
    for key in cache.entries:
        k0, v0 = cache.fetch(*key)
        k1, v1 = back.fetch(*key)
        assert k0.tobytes() == k1.tobytes()
        assert v0.tobytes() == v1.tobytes()
    with open(path, "rb") as f:
        assert f.read(len(KV_MAGIC)) == KV_MAGIC


def test_empty_kv_cache_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_kv_cache(tmp_path / "c.feckv", KVCache())


def test_mask_roundtrip(tmp_path):
    mask = (np.random.default_rng(0).random((16, 16)) > 0.5).astype(np.float64)
    path = tmp_path / "m.fecmask"
    write_mask(path, mask)
    assert read_mask(path).tobytes() == mask.tobytes()
    with open(path, "rb") as f:
        assert f.read(len(MASK_MAGIC)) == MASK_MAGIC
    with pytest.raises(ValueError):
        write_mask(tmp_path / "m2.fecmask", np.zeros(4))


def test_invalid_width_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_mask(tmp_path / "m.fecmask", np.zeros((4, 4)), float_width=16)


# ------------------------------------------------ malformed files

def _valid_files(directory) -> dict[str, tuple[bytes, object]]:
    """Small valid files of every format, with the reader for each."""
    rng = np.random.default_rng(1)
    cache = KVCache(layer_count=2)
    for t in (30, 20):
        for layer in range(2):
            cache.store(t, layer, rng.standard_normal((3, 4)), rng.standard_normal((3, 5)))
    writers = {
        "traj64": (write_trajectory, _traj(), 64, read_trajectory),
        "traj32": (write_trajectory, _traj(), 32, read_trajectory),
        "kv": (write_kv_cache, cache, 32, read_kv_cache),
        "mask": (write_mask, np.eye(4), 64, read_mask),
    }
    files = {}
    for name, (write, obj, width, read) in writers.items():
        path = directory / name
        write(path, obj, width)
        files[name] = (path.read_bytes(), read)
    return files


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    return _valid_files(tmp_path_factory.mktemp("valid"))


def _read_bytes(tmp_path_factory, data: bytes, read):
    path = tmp_path_factory.mktemp("case") / "f"
    path.write_bytes(data)
    return read(path)


_FORMATS = st.sampled_from(["traj64", "traj32", "kv", "mask"])
_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@_SETTINGS
@given(name=_FORMATS, cut=st.floats(0.0, 1.0, exclude_max=True), extra=st.binary(min_size=1, max_size=16))
def test_truncated_or_extended_files_raise_format_error(
    tmp_path_factory, valid_files, name, cut, extra
):
    data, read = valid_files[name]
    with pytest.raises(FormatError):
        _read_bytes(tmp_path_factory, data[: int(cut * len(data))], read)
    with pytest.raises(FormatError, match="trailing bytes"):
        _read_bytes(tmp_path_factory, data + extra, read)


@_SETTINGS
@given(
    name=_FORMATS,
    edits=st.lists(
        st.tuples(
            st.integers(0, 127),
            st.sampled_from([0, 1, 0xFF, 0xFFFF, 0xFFFFFF, 0xFFFFFFFF]) | st.integers(0, 2**32 - 1),
            st.booleans(),
        ),
        min_size=1, max_size=4,
    ),
)
def test_mutated_headers_read_or_raise_format_error_in_bounded_memory(
    tmp_path_factory, valid_files, name, edits
):
    """Byte and 32-bit overwrites in and just past the header: the reader
    returns something or raises FormatError, and never allocates more than
    a small multiple of the file size."""
    data, read = valid_files[name]
    buf = bytearray(data)
    for pos, value, whole_word in edits:
        pos = min(pos, len(buf) - 4)
        if whole_word:
            buf[pos:pos + 4] = value.to_bytes(4, "little")
        else:
            buf[pos] = value & 0xFF
    tracemalloc.start()
    try:
        _read_bytes(tmp_path_factory, bytes(buf), read)
    except FormatError:
        pass
    finally:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    assert peak < 16 * len(buf) + (1 << 20)


def test_malformed_headers_name_the_fault(tmp_path, valid_files):
    data, _ = valid_files["traj64"]
    # rank = 0xFFFFFFFF asked the old reader for about 16 GiB of dims.
    huge_rank = data[:20] + b"\xff\xff\xff\xff" + data[24:]
    cases = [
        (huge_rank, read_trajectory, "truncated"),
        (data[:8] + b"\x02" + data[9:], read_trajectory, "unsupported trajectory version 2"),
        (data[:16] + b"\x10" + data[17:], read_trajectory, "float width must be 32 or 64"),
        (data + b"\x00", read_trajectory, "trailing bytes"),
        (data[:-1], read_trajectory, "truncated"),
        (b"", read_mask, "bad magic"),
    ]
    # Timesteps (30, 20, 10) -> (30, 30, 10).
    cases.append((data[:56] + data[52:56] + data[60:], read_trajectory, "repeats a timestep"))
    kv, _ = valid_files["kv"]
    # K dims (3, 4) -> (0, 4) and V dims (3, 5) -> (0, 5): empty entries.
    header = bytearray(kv)
    header[26:30] = (0).to_bytes(4, "little")
    header[38:42] = (0).to_bytes(4, "little")
    cases.append((bytes(header), read_kv_cache, "hold no values"))
    # Timesteps (30, 20) -> (30, 30).
    cases.append((kv[:50] + kv[46:50] + kv[54:], read_kv_cache, "repeats a timestep"))
    for i, (blob, read, message) in enumerate(cases):
        path = tmp_path / f"case{i}"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match=message):
            read(path)
    assert issubclass(FormatError, ValueError)
