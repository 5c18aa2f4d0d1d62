"""Experiment harness: synthetic data, sweeps, batch-invariance checks,
the V-only ablation, timing/call accounting, and report emission."""

from __future__ import annotations

import configparser
import csv
import itertools
import json
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .denoiser import DenoiserConfig, LayerRange, ToyDenoiser
from .metrics import SSIM_WINDOW, MetricsReport, latent_loss, psnr, ssim, trajectory_loss_curve
from .sampling import (
    CaptureOptions,
    GuidanceContext,
    InvertResult,
    guidance_contexts,
    invert,
    sample_direct,
    sample_fec_kv_reuse,
    sample_fec_noise,
    sample_fec_ref,
    sample_neg_prompt_baseline,
)
from .schedule import DEFAULT_TRAIN_STEPS, build_schedule, timestep_plan

SYNTH_KINDS = ("gaussian", "blocks", "gradient")

RECON_METHODS = ("direct", "neg-prompt", "fec-ref", "fec-noise", "fec-kv-reuse", "fec-v-reuse")

# The paper's observed serial-vs-parallel divergence threshold, reported
# as context alongside batch-invariance results.
PARALLEL_DIVERGENCE_CONTEXT = 1e-5


def generate_synthetic_latent(
    seed: int, kind: str = "gaussian", shape: tuple[int, int, int] = (4, 16, 16)
) -> np.ndarray:
    """Deterministic synthetic latent of the given kind."""
    rng = np.random.default_rng(seed)
    c, h, w = shape
    if kind == "gaussian":
        return rng.standard_normal(shape)
    if kind == "blocks":
        # Quadrant blocks with per-channel constant values.
        z = np.empty(shape)
        levels = rng.standard_normal((c, 2, 2))
        z[:, : h // 2, : w // 2] = levels[:, 0, 0, None, None]
        z[:, : h // 2, w // 2 :] = levels[:, 0, 1, None, None]
        z[:, h // 2 :, : w // 2] = levels[:, 1, 0, None, None]
        z[:, h // 2 :, w // 2 :] = levels[:, 1, 1, None, None]
        return z
    if kind == "gradient":
        ys = np.linspace(-1.0, 1.0, h)[:, None]
        xs = np.linspace(-1.0, 1.0, w)[None, :]
        coef = rng.standard_normal((c, 3))
        return np.stack([a * ys + b * xs + d for a, b, d in coef])
    raise ValueError(f"unknown synthetic latent kind {kind!r}; expected one of {SYNTH_KINDS}")


@dataclass
class ExperimentConfig:
    methods: tuple[str, ...] = ("direct", "fec-ref", "fec-noise", "fec-kv-reuse")
    inv_guidances: tuple[float, ...] = (7.5,)
    samp_guidances: tuple[float, ...] = (7.5,)
    steps: int = 50
    total_train_steps: int = DEFAULT_TRAIN_STEPS
    schedule_kind: str = "scaled-linear-beta"
    seeds: tuple[int, ...] = (0,)
    denoiser_seed: int = 0
    embed_seed: int = 0
    data_kind: str = "gaussian"
    prompts: tuple[str, ...] = ("a cat sitting on a mat",)
    edit_prompts: tuple[str, ...] = ()
    blend_word: str | None = None
    layer_start: int = 0
    layer_end: int | None = None
    denoiser: DenoiserConfig = field(default_factory=DenoiserConfig)
    precision: int = 64
    out: str | None = None

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("seed list must be non-empty")
        for m in self.methods:
            if m not in RECON_METHODS:
                raise ValueError(f"unknown method {m!r}; expected one of {RECON_METHODS}")
        if self.denoiser.init_seed != self.denoiser_seed:
            self.denoiser = replace(self.denoiser, init_seed=self.denoiser_seed)

    def layer_range(self) -> LayerRange:
        """The injection layer range; ``layer_end=None`` means every layer."""
        end = self.denoiser.layer_count if self.layer_end is None else self.layer_end
        return LayerRange(self.layer_start, end)

    def components(self):
        """The (network, schedule, plan) triple this configuration describes."""
        sched = build_schedule(self.schedule_kind, self.total_train_steps)
        plan = timestep_plan(self.steps, self.total_train_steps)
        return ToyDenoiser(self.denoiser), sched, plan


@dataclass
class SweepReport:
    rows: list[dict] = field(default_factory=list)

    def aggregate_means(self, keys=("method", "inv_guidance", "samp_guidance")) -> list[dict]:
        """Mean latent loss / PSNR / SSIM per group, recomputed from rows."""
        groups: dict[tuple, list[dict]] = {}
        for row in self.rows:
            if row.get("error"):
                continue
            groups.setdefault(tuple(row[k] for k in keys), []).append(row)
        out = []
        for key, rows in sorted(groups.items(), key=lambda kv: repr(kv[0])):
            entry = dict(zip(keys, key))
            for metric in ("latent_loss", "psnr", "ssim"):
                entry[f"mean_{metric}"] = float(np.mean([r[metric] for r in rows]))
            entry["n"] = len(rows)
            out.append(entry)
        return out


KV_METHODS = ("fec-kv-reuse", "fec-v-reuse")


def reconstruct_once(
    net,
    sched,
    plan,
    z0: np.ndarray,
    method: str,
    prompt: str,
    inv_scale: float,
    samp_scale: float,
    embed_seed: int = 0,
    layers: LayerRange | None = None,
    record: dict | None = None,
):
    """Invert ``z0`` and reconstruct it with one method; returns
    (reconstruction, trajectory)."""
    (inv_ctx,) = guidance_contexts(net, (prompt,), inv_scale, embed_seed)
    res = invert(net, z0, inv_ctx, plan, sched, CaptureOptions(kv=method in KV_METHODS))
    samp_ctx = replace(inv_ctx, scale=samp_scale)
    return reconstruct_from(net, sched, plan, res, method, samp_ctx, layers, record), res.trajectory


def reconstruct_from(
    net,
    sched,
    plan,
    res: InvertResult,
    method: str,
    ctx: GuidanceContext,
    layers: LayerRange | None = None,
    record: dict | None = None,
) -> np.ndarray:
    """Reconstruct the source of an inversion with one method under the
    sampling context ``ctx``. The kv methods need ``res`` to carry K/V."""
    traj = res.trajectory
    z_start = traj[plan.timesteps[0]]
    if method == "direct":
        return sample_direct(net, z_start, ctx, plan, sched, record=record)
    if method == "neg-prompt":
        return sample_neg_prompt_baseline(net, z_start, ctx, plan, sched, record=record)
    if method == "fec-ref":
        return sample_fec_ref(net, traj, ctx, plan, sched, record=record)
    if method == "fec-noise":
        return sample_fec_noise(net, traj, ctx, plan, sched, record=record)
    if method in KV_METHODS:
        return sample_fec_kv_reuse(
            net, z_start, res.kv_cache, ctx, plan, sched, layers,
            cache_uncond=res.kv_cache_uncond,
            v_only=(method == "fec-v-reuse"), record=record,
        )
    raise ValueError(f"unknown method {method!r}")


def measure_reconstruction(z0: np.ndarray, out: np.ndarray, record, traj) -> MetricsReport:
    rng = float(z0.max() - z0.min())
    peak = rng if rng > 0 else 1.0
    return MetricsReport(
        latent_loss=latent_loss(z0, out),
        psnr=psnr(z0, out, peak),
        ssim=ssim(z0, out, peak),
        per_step_losses=trajectory_loss_curve(record, traj) if record is not None else [],
    )


def run_sweep(cfg: ExperimentConfig) -> SweepReport:
    """Reconstruction sweep over methods x guidances x prompts x seeds.

    Each (inv_guidance, prompt, seed) key is inverted once and every
    method x sampling guidance reconstructs from that inversion; rows come
    out method-major. A row's ``time_s`` covers its own sampling and
    metrics, not the shared inversion. Failures are recorded in the row,
    not raised; a failed inversion fails, and times, every row of its key.
    A latent grid too small for the SSIM window fails every row alike, so
    it raises ``ValueError`` before any inversion instead."""
    h, w = cfg.denoiser.latent_shape[1:]
    if min(h, w) < SSIM_WINDOW:
        raise ValueError(
            f"latent grid {h}x{w} is smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} SSIM window"
            " that scores every sweep row"
        )
    net, sched, plan = cfg.components()
    layers = cfg.layer_range()
    capture = CaptureOptions(kv=any(m in KV_METHODS for m in cfg.methods))
    cells = itertools.product(
        cfg.methods, cfg.inv_guidances, cfg.samp_guidances, cfg.prompts, cfg.seeds
    )
    rows = [
        {
            "method": method,
            "inv_guidance": inv_g,
            "samp_guidance": samp_g,
            "prompt": prompt,
            "prompt_type": "empty" if not prompt.split() else "non-empty",
            "seed": seed,
            "error": "",
        }
        for method, inv_g, samp_g, prompt, seed in cells
    ]
    keys: dict[tuple, list[dict]] = {}
    for row in rows:
        keys.setdefault((row["inv_guidance"], row["prompt"], row["seed"]), []).append(row)
    # One key at a time, so one inversion and its K/V caches are alive at once.
    for (inv_g, prompt, seed), key_rows in keys.items():
        _sweep_key(net, sched, plan, cfg, layers, capture, inv_g, prompt, seed, key_rows)
    return SweepReport(rows=rows)


def _sweep_key(net, sched, plan, cfg, layers, capture, inv_g, prompt, seed, rows):
    """Invert one key and fill in its rows."""
    t0 = time.perf_counter()
    try:
        z0 = generate_synthetic_latent(seed, cfg.data_kind, net.config.latent_shape)
        (inv_ctx,) = guidance_contexts(net, (prompt,), inv_g, cfg.embed_seed)
        res = invert(net, z0, inv_ctx, plan, sched, capture)
    except Exception as exc:  # noqa: BLE001 - recorded, not fatal
        failure = {"error": f"{type(exc).__name__}: {exc}", "time_s": time.perf_counter() - t0}
        for row in rows:
            row.update(failure)
        return
    for row in rows:
        t0 = time.perf_counter()
        try:
            record: dict = {}
            samp_ctx = replace(inv_ctx, scale=row["samp_guidance"])
            out = reconstruct_from(net, sched, plan, res, row["method"], samp_ctx, layers, record)
            m = measure_reconstruction(z0, out, record, res.trajectory)
            row.update(latent_loss=m.latent_loss, psnr=m.psnr, ssim=m.ssim)
        except Exception as exc:  # noqa: BLE001 - recorded, not fatal
            row["error"] = f"{type(exc).__name__}: {exc}"
        row["time_s"] = time.perf_counter() - t0


def run_ablation_v_only(cfg: ExperimentConfig) -> SweepReport:
    """Reconstruction comparison of fec-kv-reuse vs fec-v-reuse vs direct."""
    abl = replace(cfg, methods=("fec-kv-reuse", "fec-v-reuse", "direct"))
    report = run_sweep(abl)
    for row in report.rows:
        if row["method"] == "fec-v-reuse":
            row["note"] = "mechanism-only"
    return report


def check_batch_invariance(cfg: ExperimentConfig, batch: int = 2) -> dict:
    """Run identical sessions batched and sequentially; pass iff outputs
    are bit-identical at every level checked."""
    net, sched, plan = cfg.components()
    (ctx,) = guidance_contexts(net, (cfg.prompts[0],), cfg.samp_guidances[0], cfg.embed_seed)
    z0 = generate_synthetic_latent(cfg.seeds[0], cfg.data_kind, net.config.latent_shape)

    single = net.predict(z0, plan.timesteps[0], ctx.cond)
    batched = net.predict_batch([z0] * batch, plan.timesteps[0], ctx.cond)
    forward_diff = max(float(np.max(np.abs(b - single))) for b in batched)
    forward_identical = all(b.tobytes() == single.tobytes() for b in batched)

    def full_run(z):
        traj = invert(net, z, ctx, plan, sched).trajectory
        return sample_direct(net, traj[plan.timesteps[0]], ctx, plan, sched)

    sequential = [full_run(z0) for _ in range(batch)]
    batched_runs = _batched_full_runs(net, [z0] * batch, ctx, plan, sched)
    run_diff = max(
        float(np.max(np.abs(a - b))) for a, b in zip(sequential, batched_runs)
    )
    run_identical = all(
        a.tobytes() == b.tobytes() for a, b in zip(sequential, batched_runs)
    )
    return {
        "passed": forward_identical and run_identical,
        "forward_max_abs_diff": forward_diff,
        "full_run_max_abs_diff": run_diff,
        "paper_divergence_context": PARALLEL_DIVERGENCE_CONTEXT,
        "batch": batch,
    }


def _batched_full_runs(net, z0s, ctx, plan, sched):
    """Full inversion + direct descent driven over a stacked batch, with
    every network evaluation performed on the whole batch at once."""

    def guided_batch(zs, t):
        eps_c = net.predict_batch(zs, t, ctx.cond)
        eps_u = net.predict_batch(zs, t, ctx.uncond)
        from .sampling import cfg_combine

        return [cfg_combine(c, u, ctx.scale) for c, u in zip(eps_c, eps_u)]

    from .sampling import ddim_invert_step, ddim_step

    zs = [np.asarray(z, dtype=np.float64) for z in z0s]
    trajs = [{0: z.copy()} for z in zs]
    for t_prev, t in plan.inversion_pairs():
        eps = guided_batch(zs, t)
        zs = [ddim_invert_step(z, e, t_prev, t, sched) for z, e in zip(zs, eps)]
        for traj, z in zip(trajs, zs):
            traj[t] = z.copy()
    for t, t_prev in plan.sampling_pairs():
        eps = guided_batch(zs, t)
        zs = [ddim_step(z, e, t, t_prev, sched) for z, e in zip(zs, eps)]
    return zs


def report_timing(cfg: ExperimentConfig) -> dict:
    """Wall-clock and network-call accounting per editing strategy.

    The kv-reuse edit path performs no reconstruction-route evaluations;
    a paired direct edit (reconstruction route + edit route) performs
    twice the kv-reuse edit-stage call count.
    """
    from .editing import EditRequest, run_edit

    net, sched, plan = cfg.components()
    z0 = generate_synthetic_latent(cfg.seeds[0], cfg.data_kind, net.config.latent_shape)
    source = cfg.prompts[0]
    edit = cfg.edit_prompts[0] if cfg.edit_prompts else source + " edited"
    guidance = cfg.samp_guidances[0]
    out: dict[str, dict] = {}

    # kv-reuse edit: inversion + capture, then a single injected edit route.
    net.call_counts.clear()
    t0 = time.perf_counter()
    run_edit(net, sched, plan, z0, EditRequest(source, edit, "fec-kv-reuse", guidance=guidance),
             cfg.embed_seed)
    out["fec-kv-reuse"] = {
        "time_s": time.perf_counter() - t0,
        "calls": dict(net.call_counts),
        "edit_route_calls": net.call_counts["edit"],
        "reconstruction_route_calls": net.call_counts["reconstruction"],
    }

    # Paired direct editing: a reconstruction route plus an edit route.
    net.call_counts.clear()
    ctx, edit_ctx = guidance_contexts(net, (source, edit), guidance, cfg.embed_seed)
    t0 = time.perf_counter()
    traj = invert(net, z0, ctx, plan, sched).trajectory
    z_start = traj[plan.timesteps[0]]
    sample_direct(net, z_start, ctx, plan, sched, route="reconstruction")
    sample_direct(net, z_start, edit_ctx, plan, sched, route="edit")
    out["direct-paired"] = {
        "time_s": time.perf_counter() - t0,
        "calls": dict(net.call_counts),
        "edit_route_calls": net.call_counts["edit"],
        "reconstruction_route_calls": net.call_counts["reconstruction"],
    }

    for method in ("fec-ref", "fec-noise"):
        net.call_counts.clear()
        t0 = time.perf_counter()
        run_edit(net, sched, plan, z0, EditRequest(source, edit, method, guidance=guidance),
                 cfg.embed_seed)
        out[method] = {"time_s": time.perf_counter() - t0, "calls": dict(net.call_counts)}
    return out


def write_report_csv(report: SweepReport, path):
    """One CSV row per sweep cell; +/-inf serialize as "inf"/"-inf"."""
    if not report.rows:
        raise ValueError("empty report")
    fieldnames = sorted({k for row in report.rows for k in row})
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=fieldnames, restval="")
        writer.writeheader()
        for row in report.rows:
            writer.writerow({k: _csv_value(v) for k, v in row.items()})


def _csv_value(v):
    if isinstance(v, float) and np.isinf(v):
        return "inf" if v > 0 else "-inf"
    return v


def write_report_json(report: SweepReport, path):
    payload = {
        "rows": [
            {k: (_csv_value(v) if isinstance(v, float) and np.isinf(v) else v)
             for k, v in row.items()}
            for row in report.rows
        ],
        "aggregates": report.aggregate_means(),
    }
    with open(path, "w") as f:
        json.dump(payload, f, indent=2)


def _parse_floats(s: str) -> tuple[float, ...]:
    return tuple(float(x) for x in s.replace(",", " ").split())


def _parse_ints(s: str) -> tuple[int, ...]:
    return tuple(int(x) for x in s.replace(",", " ").split())


def _parse_strs(s: str) -> tuple[str, ...]:
    return tuple(x.strip() for x in s.split(";") if x.strip())


def load_config_file(path) -> ExperimentConfig:
    """Sectioned key-value configuration; every key has a CLI override.

    Sections/keys:
      [schedule] kind, total_steps
      [denoiser] layers, heads, dim, seed, attn_scale
      [run]      steps, methods, inv_guidances, samp_guidances, seeds,
                 embed_seed, data_kind, prompts (semicolon-separated),
                 edit_prompts, blend_word, layer_start, layer_end,
                 precision, out
    """
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(path)
    cfg = ExperimentConfig()
    if parser.has_section("schedule"):
        s = parser["schedule"]
        cfg.schedule_kind = s.get("kind", cfg.schedule_kind)
        cfg.total_train_steps = s.getint("total_steps", cfg.total_train_steps)
    if parser.has_section("denoiser"):
        s = parser["denoiser"]
        cfg.denoiser = DenoiserConfig(
            layer_count=s.getint("layers", cfg.denoiser.layer_count),
            head_count=s.getint("heads", cfg.denoiser.head_count),
            model_dim=s.getint("dim", cfg.denoiser.model_dim),
            init_seed=s.getint("seed", cfg.denoiser.init_seed),
            attn_scale=s.get("attn_scale", cfg.denoiser.attn_scale),
        )
        cfg.denoiser_seed = cfg.denoiser.init_seed
    if parser.has_section("run"):
        s = parser["run"]
        cfg.steps = s.getint("steps", cfg.steps)
        if "methods" in s:
            cfg.methods = _parse_strs(s["methods"]) or cfg.methods
        if "inv_guidances" in s:
            cfg.inv_guidances = _parse_floats(s["inv_guidances"])
        if "samp_guidances" in s:
            cfg.samp_guidances = _parse_floats(s["samp_guidances"])
        if "seeds" in s:
            cfg.seeds = _parse_ints(s["seeds"])
        cfg.embed_seed = s.getint("embed_seed", cfg.embed_seed)
        cfg.data_kind = s.get("data_kind", cfg.data_kind)
        if "prompts" in s:
            cfg.prompts = _parse_strs(s["prompts"])
        if "edit_prompts" in s:
            cfg.edit_prompts = _parse_strs(s["edit_prompts"])
        cfg.blend_word = s.get("blend_word", cfg.blend_word)
        cfg.layer_start = s.getint("layer_start", cfg.layer_start)
        if "layer_end" in s:
            cfg.layer_end = s.getint("layer_end")
        cfg.precision = s.getint("precision", cfg.precision)
        cfg.out = s.get("out", cfg.out)
    cfg.__post_init__()
    return cfg
