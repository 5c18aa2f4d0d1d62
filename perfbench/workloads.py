"""The benchmark's workloads and its closed-loop job runner.

One caller runs jobs back to back in this process. Each job's inputs are
made from the workload seed and the job index before the timer starts; the
timer covers only the calls into fecdiff, and every output is checked after
the timer stops. Inside the timed region the program is always reached
through a module attribute (``harness.run_sweep``), so that an installed
tracer sees the call.

- ``sweep``: one ``harness.run_sweep`` over all six reconstruction methods
  per job. Nearly all of its time is in ``ToyDenoiser.predict`` and the
  sweep re-inverts for every method, so kernel, fan-out and fec-noise gains
  show here.
- ``edit``: one ``editing.run_edit`` per job, rotating through four
  requests. It exercises mask derivation, the attention trace and
  injection under a new prompt, with one inversion per request.
- ``io``: set-up runs one KV-capturing inversion; each job writes and reads
  back every binary format at float widths 64 and 32. ``io_formats`` does
  the work and the denoiser does none.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from fecdiff import editing, harness, io_formats
from fecdiff.denoiser import DenoiserConfig, ToyDenoiser, embed_prompt
from fecdiff.editing import EditRequest
from fecdiff.harness import RECON_METHODS, SYNTH_KINDS, ExperimentConfig, generate_synthetic_latent
from fecdiff.metrics import psnr
from fecdiff.sampling import CaptureOptions, GuidanceContext, invert
from fecdiff.schedule import build_schedule, timestep_plan

import tracing

# 10-step plans keep a 6-method sweep near one second, so one run holds
# enough jobs for a tail percentile; io keeps the 50-step default so its
# files have the size a default ``fecdiff invert --kv-out`` writes.
STEPS = {"sweep": 10, "edit": 10, "io": 50}
# Set-up repeats until both limits are reached; a 10 ms set-up then runs
# about 100 times, which keeps its median steady between runs.
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 1.0
# Two full sweep rotations (2 guidances x 2 prompt kinds x 3 data kinds).
# recon_psnr_db averages over exactly these jobs, so that it depends on the
# seed alone and not on how many jobs a run completed.
MIN_JOBS = 24
EXACT_TOLERANCE = 1e-24
ERROR_ACCUMULATING = ("direct", "neg-prompt", "fec-kv-reuse", "fec-v-reuse")
GUIDANCES = (1.0, 7.5)
EDIT_KINDS = ("fec-noise-box", "fec-noise-blend", "fec-kv-reuse", "fec-ref")
FLOAT_WIDTHS = (64, 32)
VOCABULARY = (
    "cat", "dog", "bird", "horse", "tree", "house", "car", "boat", "red", "blue",
    "green", "small", "large", "old", "mat", "hill", "river", "street", "garden", "photo",
)


def job_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, 1, index])


def setup_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, 0])


def prompt_pair(rng: np.random.Generator) -> tuple[str, str, str]:
    """A source prompt, the same prompt with one word swapped, and the new
    word. Words are distinct and fit the default 8 token slots."""
    n = int(rng.integers(3, 7))
    words = [str(w) for w in rng.choice(VOCABULARY, size=n + 1, replace=False)]
    source, new_word = words[:n], words[n]
    edit = list(source)
    edit[int(rng.integers(n))] = new_word
    return " ".join(source), " ".join(edit), new_word


def _peak(z0: np.ndarray) -> float:
    span = float(z0.max() - z0.min())
    return span if span > 0 else 1.0


class Workload:
    """Set-up builds what every job shares; ``make_input`` (untimed), ``run``
    (timed), ``check`` and ``fingerprint`` handle one job."""

    name = ""

    def __init__(self, steps: int | None = None):
        self.steps = steps if steps is not None else STEPS[self.name]

    def setup(self, seed: int):
        self.seed = seed
        self.sched = build_schedule("scaled-linear-beta")
        self.plan = timestep_plan(self.steps)
        self.net = ToyDenoiser(DenoiserConfig())
        # Warm-up evaluation, so the first timed job pays no lazy set-up.
        z = generate_synthetic_latent(seed)
        self.net.predict(z, self.plan.timesteps[0], embed_prompt("", 0), route="warmup")

    def psnrs(self, inp, out) -> list[float]:
        """PSNR values this job adds to ``recon_psnr_db``."""
        raise NotImplementedError

    def close(self):
        """Remove whatever the workload left on disk."""


class Sweep(Workload):
    name = "sweep"

    def make_input(self, i: int) -> ExperimentConfig:
        rng = job_rng(self.seed, i)
        source, _, _ = prompt_pair(rng)
        g = GUIDANCES[i % 2]
        return ExperimentConfig(
            methods=RECON_METHODS,
            inv_guidances=(g,),
            samp_guidances=(g,),
            steps=self.steps,
            seeds=(int(rng.integers(2**31)),),
            data_kind=SYNTH_KINDS[i % 3],
            prompts=(source if (i // 2) % 2 == 0 else "",),
        )

    def run(self, cfg):
        return harness.run_sweep(cfg)

    def check(self, cfg, report) -> list[str]:
        problems = []
        if [r["method"] for r in report.rows] != list(RECON_METHODS):
            problems.append(f"sweep rows {[r['method'] for r in report.rows]}")
        for r in report.rows:
            if r["error"]:
                problems.append(f"{r['method']}: {r['error']}")
            elif r["method"] == "fec-ref" and r["latent_loss"] != 0.0:
                problems.append(f"fec-ref latent_loss {r['latent_loss']!r} != 0")
            elif r["method"] == "fec-noise" and not r["latent_loss"] <= EXACT_TOLERANCE:
                problems.append(f"fec-noise latent_loss {r['latent_loss']!r} > {EXACT_TOLERANCE}")
        return problems

    def fingerprint(self, report) -> bytes:
        cells = [
            (r["method"], r["error"], *(float(r[k]).hex() for k in ("latent_loss", "psnr", "ssim")))
            for r in report.rows if not r["error"]
        ]
        return repr(cells).encode()

    def psnrs(self, cfg, report) -> list[float]:
        return [r["psnr"] for r in report.rows if r["method"] in ERROR_ACCUMULATING]


@dataclass
class EditJob:
    z0: np.ndarray
    request: EditRequest
    user_mask: np.ndarray | None


class Edit(Workload):
    name = "edit"

    def setup(self, seed: int):
        super().setup(seed)
        h, w = self.net.config.latent_shape[1:]
        rng = setup_rng(seed)
        top, left = int(rng.integers(0, h // 2 + 1)), int(rng.integers(0, w // 2 + 1))
        self.box = np.zeros((h, w))
        self.box[top : top + h // 2, left : left + w // 2] = 1.0

    def make_input(self, i: int) -> EditJob:
        rng = job_rng(self.seed, i)
        source, edit, new_word = prompt_pair(rng)
        z0 = generate_synthetic_latent(int(rng.integers(2**31)), SYNTH_KINDS[i % 3])
        kind = EDIT_KINDS[i % len(EDIT_KINDS)]
        if kind == "fec-noise-box":
            return EditJob(z0, EditRequest(source, edit, "fec-noise"), self.box)
        if kind == "fec-noise-blend":
            return EditJob(z0, EditRequest(source, edit, "fec-noise", blend_word=new_word), None)
        return EditJob(z0, EditRequest(source, edit, kind), None)

    def run(self, job: EditJob):
        return editing.run_edit(
            self.net, self.sched, self.plan, job.z0, job.request, 0, job.user_mask
        )

    def check(self, job: EditJob, result) -> list[str]:
        out, report = result
        problems = []
        if out.shape != job.z0.shape or not np.all(np.isfinite(out)):
            problems.append(f"{job.request.method}: output not a finite {job.z0.shape} latent")
        if job.user_mask is not None:
            outside = report.locality["outside_mask_mse"]
            if not outside <= EXACT_TOLERANCE:
                problems.append(f"box fec-noise outside_mask_mse {outside!r} > {EXACT_TOLERANCE}")
        return problems

    def fingerprint(self, result) -> bytes:
        out, report = result
        return out.tobytes() + repr(
            (report.locality, report.per_step_losses, report.mask_degenerate_steps)
        ).encode()

    def psnrs(self, job: EditJob, result) -> list[float]:
        """How exactly a box edit keeps the source outside its box."""
        if job.user_mask is None:
            return []
        keep = job.user_mask == 0.0
        return [psnr(job.z0[:, keep], result[0][:, keep], _peak(job.z0))]


class Io(Workload):
    name = "io"

    def __init__(self, workdir: str, steps: int | None = None):
        super().__init__(steps)
        self.workdir = workdir

    def setup(self, seed: int):
        super().setup(seed)
        rng = setup_rng(seed)
        source, _, _ = prompt_pair(rng)
        data_seed = int(rng.integers(2**31))
        z0 = generate_synthetic_latent(data_seed)
        ctx = GuidanceContext(7.5, embed_prompt(source, 0), embed_prompt("", 0))
        self.inverted = invert(
            self.net, z0, ctx, self.plan, self.sched, CaptureOptions(kv=True), seed=data_seed
        )
        h, w = z0.shape[1:]
        self.mask = (rng.random((h, w)) < 0.5).astype(np.float64)

    def make_input(self, i: int) -> str:
        """A fresh directory for job ``i``, after deleting the last job's.

        Rewriting a file in place makes ext4 start writing it back to disk
        when it is closed (``auto_da_alloc``); new files that are deleted
        soon after never reach the disk, so jobs time the format code and
        the page cache rather than the disk.
        """
        shutil.rmtree(self.workdir, ignore_errors=True)
        jobdir = os.path.join(self.workdir, str(i))
        os.makedirs(jobdir)
        return jobdir

    def run(self, jobdir: str):
        def path(kind, width):
            return os.path.join(jobdir, f"{kind}.w{width}")

        res = self.inverted
        for width in FLOAT_WIDTHS:
            io_formats.write_trajectory(path("traj", width), res.trajectory, width)
            io_formats.write_kv_cache(path("kv", width), res.kv_cache, width)
            io_formats.write_kv_cache(path("kv.uncond", width), res.kv_cache_uncond, width)
            io_formats.write_mask(path("mask", width), self.mask, width)
        return {
            width: (
                io_formats.read_trajectory(path("traj", width)),
                io_formats.read_kv_cache(path("kv", width)),
                io_formats.read_kv_cache(path("kv.uncond", width)),
                io_formats.read_mask(path("mask", width)),
            )
            for width in FLOAT_WIDTHS
        }

    def _pairs(self, width, loaded):
        """(name, written array as stored at ``width``, array read back)."""
        res = self.inverted

        def stored(a):
            return a if width == 64 else np.asarray(a, np.float32).astype(np.float64)

        traj, kv, kv_u, mask = loaded
        for t in (0, *res.trajectory.timesteps):
            yield f"traj[{t}]", stored(res.trajectory[t]), traj[t]
        for label, src, back in (("kv", res.kv_cache, kv), ("kv.uncond", res.kv_cache_uncond, kv_u)):
            for key, (k, v) in src.entries.items():
                k_back, v_back = back.fetch(*key)
                yield f"{label}{key}.K", stored(k), k_back
                yield f"{label}{key}.V", stored(v), v_back
        yield "mask", stored(self.mask), mask

    def check(self, _, loaded) -> list[str]:
        problems = []
        for width in FLOAT_WIDTHS:
            traj, kv, kv_u, _ = loaded[width]
            src = self.inverted
            if traj.timesteps != src.trajectory.timesteps or traj.seed != src.trajectory.seed:
                problems.append(f"width {width}: trajectory header differs")
            if len(kv) != len(src.kv_cache) or len(kv_u) != len(src.kv_cache_uncond):
                problems.append(f"width {width}: KV entry count differs")
                continue
            try:
                bad = [
                    name for name, want, got in self._pairs(width, loaded[width])
                    if got.shape != want.shape or got.tobytes() != want.tobytes()
                ]
            except KeyError as exc:
                bad = [str(exc)]
            if bad:
                problems.append(f"width {width}: {len(bad)} arrays differ, first {bad[0]}")
        return problems

    def fingerprint(self, loaded) -> bytes:
        digest = hashlib.sha256()
        for width in FLOAT_WIDTHS:
            for _, _, got in self._pairs(width, loaded[width]):
                digest.update(got.tobytes())
        return digest.digest()

    def psnrs(self, _, loaded) -> list[float]:
        """Precision the width-32 trajectory keeps against the in-memory one."""
        traj = self.inverted.trajectory
        ts = (0, *traj.timesteps)
        want = np.stack([traj[t] for t in ts])
        got = np.stack([loaded[32][0][t] for t in ts])
        return [psnr(want, got, _peak(want))]

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def make_workload(name: str, workdir: str, steps: int | None = None) -> Workload:
    if name == "io":
        return Io(workdir, steps)
    return {"sweep": Sweep, "edit": Edit}[name](steps)


@dataclass
class RunResult:
    setup_s: list[float]
    latencies: list[float] = field(default_factory=list)
    passed: int = 0
    failures: list[str] = field(default_factory=list)
    psnrs: list[float] = field(default_factory=list)
    tracer: tracing.Tracer | None = None

    @property
    def attempted(self) -> int:
        # Every measured job plus the repeat of job 0.
        return len(self.latencies) + 1

    @property
    def failed(self) -> int:
        return len({f.split(":", 1)[0] for f in self.failures})


def run_workload(
    wl: Workload, seed: int, seconds: float, trace: bool = False, min_jobs: int = MIN_JOBS
) -> RunResult:
    """Set up repeatedly, then run jobs until ``seconds`` have passed and at
    least ``min_jobs`` ran; finally repeat job 0 and require a
    bitwise-identical output."""
    setup_s = []
    while len(setup_s) < SETUP_MIN_REPEATS or sum(setup_s) < SETUP_MIN_SECONDS:
        t0 = time.perf_counter()
        wl.setup(seed)
        setup_s.append(time.perf_counter() - t0)
    result = RunResult(setup_s, tracer=tracing.Tracer() if trace else None)
    tracer = result.tracer
    first = None
    start = time.perf_counter()
    with tracing.installed(tracer) if tracer else nullcontext():
        i = 0
        while i < min_jobs or time.perf_counter() - start < seconds:
            inp = wl.make_input(i)
            if tracer:
                tracer.job = i
            t0 = time.perf_counter()
            try:
                out, error = wl.run(inp), None
            except Exception as exc:  # noqa: BLE001 - a failed job is counted, not fatal
                out, error = None, f"{type(exc).__name__}: {exc}"
            result.latencies.append(time.perf_counter() - t0)
            if tracer:
                tracer.job = None
            problems = [error] if error else wl.check(inp, out)
            result.failures += [f"job {i}: {p}" for p in problems]
            result.passed += not problems
            if not problems:
                if i == 0:
                    first = wl.fingerprint(out)
                if i < MIN_JOBS:
                    result.psnrs += wl.psnrs(inp, out)
            i += 1
    try:
        repeat = wl.fingerprint(wl.run(wl.make_input(0)))
    except Exception as exc:  # noqa: BLE001
        repeat = f"{type(exc).__name__}: {exc}".encode()
    if repeat != first:
        result.failures.append("repeat: job 0 output is not bitwise identical to its first run")
    return result


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with at least 10
    samples above it."""
    ordered = sorted(latencies)
    k = len(ordered) - 11
    if k < 0:
        raise ValueError(f"{len(ordered)} samples cannot give a tail with 10 beyond it")
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(result: RunResult, peak_rss_mb: float) -> dict[str, float]:
    lat = result.latencies
    return {
        "setup_s": statistics.median(result.setup_s),
        "throughput_jobs_per_s": result.passed / sum(lat),
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": tail(lat)[0],
        "ok_ratio": 1.0 - result.failed / result.attempted,
        "peak_rss_mb": peak_rss_mb,
        # Only jobs that passed their checks add PSNR values.
        "recon_psnr_db": float(np.mean(result.psnrs)) if result.psnrs else 0.0,
    }
