import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fecdiff import io_formats
from fecdiff.denoiser import KVCache
from fecdiff.harness import generate_synthetic_latent
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
from fecdiff.sampling import (
    CaptureOptions,
    Trajectory,
    guidance_contexts,
    invert,
    sample_fec_kv_reuse,
)
from fecdiff.schedule import timestep_plan


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
    cache = KVCache()
    for t in (30, 20):
        for layer in range(2):
            cache.store(t, layer, rng.standard_normal((8, 16)), rng.standard_normal((8, 16)))
    path = tmp_path / "c.feckv"
    write_kv_cache(path, cache, 64)
    back = read_kv_cache(path)
    assert back.entries.keys() == cache.entries.keys()
    assert back.timesteps() == [30, 20]
    for key in cache.entries:
        k0, v0 = cache.fetch(*key)
        k1, v1 = back.fetch(*key)
        assert k0.tobytes() == k1.tobytes()
        assert v0.tobytes() == v1.tobytes()
    with open(path, "rb") as f:
        assert f.read(len(KV_MAGIC)) == KV_MAGIC


def test_captured_kv_cache_is_lossless_at_width_32(tmp_path, net, sched):
    # The network computes K and V in float32, so width 32 stores them exactly.
    plan = timestep_plan(4, 1000)
    ctx, edit_ctx = guidance_contexts(("a cat on a mat", "a dog on a mat"), 7.5)
    res = invert(net, generate_synthetic_latent(3), ctx, plan, sched, CaptureOptions(kv=True))
    caches = (res.kv_cache, res.kv_cache_uncond)
    back = []
    for i, cache in enumerate(caches):
        write_kv_cache(tmp_path / f"c{i}.feckv", cache, 32)
        back.append(read_kv_cache(tmp_path / f"c{i}.feckv"))
        assert back[-1].entries.keys() == cache.entries.keys()
        for key, (k, v) in cache.entries.items():
            k1, v1 = back[-1].fetch(*key)
            assert (k1.dtype, k1.tobytes(), v1.tobytes()) == (k.dtype, k.tobytes(), v.tobytes())
    z_T = res.trajectory[plan.timesteps[0]]
    descents = [
        sample_fec_kv_reuse(net, z_T, c, edit_ctx, plan, sched, cache_uncond=c_u)
        for c, c_u in (caches, back)
    ]
    assert descents[0].tobytes() == descents[1].tobytes()


def test_empty_kv_cache_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_kv_cache(tmp_path / "c.feckv", KVCache())


def test_a_kv_cache_entry_at_t_0_is_refused_before_the_file_is_opened(tmp_path):
    # read_kv_cache refuses a timestep list that is no plan, so the file
    # the writer would make could not be read back.
    cache = KVCache()
    for t in (20, 0):
        cache.store(t, 0, np.zeros((2, 3)), np.zeros((2, 3)))
    path = tmp_path / "c.feckv"
    with pytest.raises(ValueError, match="t=0 is not above 0"):
        write_kv_cache(path, cache)
    assert not path.exists()


def test_kv_cache_missing_an_entry_is_rejected_on_write(tmp_path):
    # The layer count comes from the highest cached layer; a gap below it
    # is no smaller cache.
    cache = KVCache()
    for key in ((30, 0), (30, 1), (20, 0)):
        cache.store(*key, np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(KeyError, match=r"t=20, layer=1"):
        write_kv_cache(tmp_path / "c.feckv", cache)


@pytest.mark.parametrize(
    "kind, fault, error",
    [("traj", "missing", "trajectory has no latent at t=10"),
     ("traj", "latent", r"latent at t=10 has shape \(2, 4, 5\), not the header's \(2, 4, 4\)"),
     ("kv", "missing", "no KV cached at \\(t=20, layer=1\\)"),
     ("kv", "K", r"K at \(t=20, layer=1\) has shape \(8, 15\)"),
     ("kv", "V", r"V at \(t=20, layer=1\) has shape \(8, 15\)"),
     *((kind, "width", "float width must be 32 or 64, got 16") for kind in ("traj", "kv", "mask"))],
    ids=["traj-missing", "traj-latent-shape", "kv-missing", "kv-k-shape", "kv-v-shape",
         "traj-width", "kv-width", "mask-width"],
)
def test_a_failed_write_leaves_the_file_it_would_replace_unchanged(tmp_path, kind, fault, error):
    rng = np.random.default_rng(0)
    traj = _traj()
    cache = KVCache()
    for t in (30, 20):
        for layer in range(2):
            cache.store(t, layer, rng.standard_normal((8, 16)), rng.standard_normal((8, 16)))
    write, value, store, key = {
        "traj": (write_trajectory, traj, traj.latents, 10),
        "kv": (write_kv_cache, cache, cache.entries, (20, 1)),
        "mask": (write_mask, np.eye(4), None, None),
    }[kind]
    path = tmp_path / "f"
    write(path, value)
    good = path.read_bytes()
    if fault == "missing":
        del store[key]
    elif fault == "latent":
        store[key] = np.zeros((2, 4, 5))
    elif fault in ("K", "V"):
        k, v = store[key]
        store[key] = (np.zeros((8, 15)), v) if fault == "K" else (k, np.zeros((8, 15)))
    with pytest.raises(KeyError if fault == "missing" else ValueError, match=error):
        write(path, value, 16 if fault == "width" else 64)
    assert path.read_bytes() == good


def test_mask_roundtrip(tmp_path):
    mask = (np.random.default_rng(0).random((16, 16)) > 0.5).astype(np.float64)
    path = tmp_path / "m.fecmask"
    write_mask(path, mask)
    assert read_mask(path).tobytes() == mask.tobytes()
    with open(path, "rb") as f:
        assert f.read(len(MASK_MAGIC)) == MASK_MAGIC
    with pytest.raises(ValueError):
        write_mask(tmp_path / "m2.fecmask", np.zeros(4))
    with pytest.raises(ValueError, match=r"mask is empty: shape \(0, 0\)"):
        write_mask(tmp_path / "m2.fecmask", np.zeros((0, 0)))
    for value, message in ((2.0, r"lie in \[0, 1\]"), (-0.5, r"lie in \[0, 1\]"),
                           (np.nan, "must be finite")):
        with pytest.raises(ValueError, match=message):
            write_mask(tmp_path / "m2.fecmask", np.full((16, 16), value))
    assert not (tmp_path / "m2.fecmask").exists()


# ------------------------------------------------ malformed files

def _valid_files(directory) -> dict[str, tuple[bytes, object]]:
    """Small valid files of every format, with the reader for each."""
    rng = np.random.default_rng(1)
    cache = KVCache()
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


@pytest.mark.parametrize("timesteps", [(1000, 0), (10, 1000)], ids=["ends-at-0", "ascending"])
def test_trajectory_timesteps_out_of_plan_order_are_refused(tmp_path, timesteps):
    # (1000, 0) keys two of three latents at t = 0 and loses one; (10, 1000)
    # reads back as a trajectory that covers the plan (1000, 10).
    rng = np.random.default_rng(0)
    latents = {t: rng.standard_normal((2, 4, 4)) for t in (*timesteps, 30, 20, 0)}
    path = tmp_path / "t.fectraj"
    with pytest.raises(ValueError, match="do not decrease strictly above 0"):
        write_trajectory(path, Trajectory(latents, timesteps, guidance=7.5))
    assert not path.exists()
    # The same list written by hand over a valid header: rank 3 puts the
    # timestep list at bytes 52..60.
    write_trajectory(path, Trajectory(latents, (30, 20), guidance=7.5))
    data = path.read_bytes()
    path.write_bytes(data[:52] + np.array(timesteps, dtype="<u4").tobytes() + data[60:])
    with pytest.raises(FormatError, match="do not decrease strictly above 0"):
        read_trajectory(path)


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
    cases.append((data[:56] + data[52:56] + data[60:], read_trajectory,
                  "do not decrease strictly above 0: t=30 is not above 30"))
    kv, _ = valid_files["kv"]
    # K dims (3, 4) -> (0, 4) and V dims (3, 5) -> (0, 5): empty entries.
    header = bytearray(kv)
    header[26:30] = (0).to_bytes(4, "little")
    header[38:42] = (0).to_bytes(4, "little")
    cases.append((bytes(header), read_kv_cache, "hold no values"))
    # Timesteps (30, 20) -> (30, 30).
    cases.append((kv[:50] + kv[46:50] + kv[54:], read_kv_cache,
                  "do not decrease strictly above 0: t=30 is not above 30"))
    # A cache of 0 timesteps or 0 layers, which write_kv_cache refuses to write.
    zero = (0).to_bytes(4, "little")
    cases.append((kv[:10] + zero + kv[14:], read_kv_cache, "needs at least one timestep"))
    cases.append((kv[:14] + zero + kv[18:], read_kv_cache, "at least one layer, not 0"))
    mask, _ = valid_files["mask"]
    # A 0x0 mask, which write_mask refuses to write.
    cases.append((mask[:16] + zero + zero, read_mask, r"mask is empty: shape \(0, 0\)"))
    # Values outside [0, 1], which write_mask refuses to write: the first
    # entry of np.eye(4) -> 2.0, then NaN and infinity.
    for value, message in ((2.0, r"lie in \[0, 1\]"), (np.nan, "be finite"), (np.inf, "be finite")):
        blob = mask[:24] + np.float64(value).tobytes() + mask[32:]
        cases.append((blob, read_mask, rf"case\d+: mask values must {message}"))
    for i, (blob, read, message) in enumerate(cases):
        path = tmp_path / f"case{i}"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match=message):
            read(path)
    assert issubclass(FormatError, ValueError)


class _ShortReads(io.BufferedReader):
    """A file whose payload reads stop halfway, as if it shrank after its
    size was taken."""

    def readinto(self, buffer):
        view = memoryview(buffer).cast("B")
        return super().readinto(view[: len(view) // 2])


@pytest.mark.parametrize("name", ["traj64", "traj32", "kv", "mask"])
def test_short_payload_read_raises_format_error(tmp_path, valid_files, monkeypatch, name):
    data, read = valid_files[name]
    path = tmp_path / name
    path.write_bytes(data)
    assert read(path) is not None
    monkeypatch.setattr(
        io_formats, "open", lambda p, mode: _ShortReads(io.FileIO(p, mode[0])), raising=False
    )
    with pytest.raises(FormatError, match="truncated: read"):
        read(path)
