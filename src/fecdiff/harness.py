"""Experiment harness: synthetic data, sweeps, batch-invariance checks,
timing/call accounting, report emission and configuration files."""

from __future__ import annotations

import configparser
import csv
import difflib
import functools
import itertools
import json
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .denoiser import LATENT_SHAPE, ConfigError, DenoiserConfig, LayerRange, ToyDenoiser
from .editing import EDIT_METHODS, EditRequest, run_edit
from .metrics import latent_loss, psnr, ssim
from .sampling import (
    KV_METHODS,
    RECON_METHODS,
    CaptureOptions,
    _uncond_known,
    guidance_contexts,
    invert,
    reads,
    refuse_unread,
    resolve_method,
    sample_method,
)
from .schedule import (
    DEFAULT_TRAIN_STEPS,
    NoiseSchedule,
    TimestepPlan,
    build_schedule,
    timestep_plan,
)

SYNTH_KINDS = ("gaussian", "blocks", "gradient")

# The configuration fields that list entries: a sweep crosses them, and
# every other run takes the first entry of each.
LIST_FIELDS = ("methods", "inv_guidances", "samp_guidances", "seeds", "prompts", "edit_prompts")


def generate_synthetic_latent(seed: int, kind: str = "gaussian") -> np.ndarray:
    """Deterministic synthetic latent of the given kind, of ``LATENT_SHAPE``."""
    rng = np.random.default_rng(seed)
    c, h, w = LATENT_SHAPE
    if kind == "gaussian":
        return rng.standard_normal(LATENT_SHAPE)
    if kind == "blocks":
        # Quadrant blocks with per-channel constant values.
        z = np.empty(LATENT_SHAPE)
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


@dataclass(frozen=True)
class ExperimentConfig:
    methods: tuple[str, ...] = ("direct", "fec-ref", "fec-noise", "fec-kv-reuse")
    inv_guidances: tuple[float, ...] = (7.5,)
    samp_guidances: tuple[float, ...] = (7.5,)
    steps: int = 50
    total_train_steps: int = DEFAULT_TRAIN_STEPS
    schedule_kind: str = "scaled-linear-beta"
    seeds: tuple[int, ...] = (0,)
    embed_seed: int = 0
    data_kind: str = "gaussian"
    prompts: tuple[str, ...] = ("a cat sitting on a mat",)
    edit_prompts: tuple[str, ...] = ()
    blend_word: str | None = None
    layer_start: int | None = None
    layer_end: int | None = None
    denoiser: DenoiserConfig = field(default_factory=DenoiserConfig)
    out: str | None = None
    # Built by the checks and kept for the runs; ``layers`` is None if no bound is set.
    sched: NoiseSchedule = field(init=False, repr=False, compare=False)
    plan: TimestepPlan = field(init=False, repr=False, compare=False)
    layers: LayerRange | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        """Every check raises ``ConfigError`` naming the fields it rejects."""
        for name in LIST_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, tuple) or not (value or name == "edit_prompts"):
                raise ConfigError(f"{name} must be a non-empty tuple, got {value!r}", name)
            repeated = [x for i, x in enumerate(value) if x in value[:i]]
            if repeated:
                raise ConfigError(f"{name} lists {repeated[0]!r} more than once", name)
        T = self.total_train_steps
        object.__setattr__(self, "sched", build_schedule(self.schedule_kind, T))
        object.__setattr__(self, "plan", timestep_plan(self.steps, T))
        for name, label, value, known in (
            ("data_kind", "data_kind", self.data_kind, SYNTH_KINDS),
            *(("methods", "method", m, RECON_METHODS) for m in self.methods),
        ):
            if value not in known:
                raise ConfigError(f"unknown {label} {value!r}; expected one of {known}", name)
        for name in ("inv_guidances", "samp_guidances"):
            for g in getattr(self, name):
                if not math.isfinite(g):
                    raise ConfigError(f"guidance scales must be finite, got {g!r}", name)
        for name, value in (("seeds", min(self.seeds)), ("embed_seed", self.embed_seed)):
            if value < 0:
                raise ConfigError(f"{name} must be >= 0, got {value}", name)
        n = self.denoiser.layer_count
        if self.layer_start is not None or self.layer_end is not None:
            end = n if self.layer_end is None else self.layer_end
            object.__setattr__(self, "layers", LayerRange(self.layer_start or 0, end).fits(n))

    @classmethod
    def from_fields(cls, values: dict) -> ExperimentConfig:
        """The configuration with the given field values, which may include
        the ``DenoiserConfig`` fields of the ``[denoiser]`` keys; builds
        each config class once."""
        denoiser = {name for section, _, _, name in CONFIG_KEYS if section == "denoiser"}
        return cls(
            **{k: v for k, v in values.items() if k not in denoiser},
            denoiser=DenoiserConfig(**{k: v for k, v in values.items() if k in denoiser}),
        )

    def components(self):
        """The (network, schedule, plan) triple this configuration describes."""
        return ToyDenoiser(self.denoiser), self.sched, self.plan


@dataclass
class SweepReport:
    rows: list[dict] = field(default_factory=list)

    def aggregate_means(self) -> list[dict]:
        """Mean latent loss / PSNR / SSIM per method and guidance pair, from rows."""
        keys = ("method", "inv_guidance", "samp_guidance")
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
    """Invert ``z0`` and reconstruct it with one method, after refusing a
    range it does not read or that ends past the network; returns
    (reconstruction, trajectory)."""
    refuse_unread((method,), layers=layers)
    if layers is not None:
        layers.fits(net.config.layer_count)
    (inv_ctx,) = guidance_contexts((prompt,), inv_scale, embed_seed)
    res = invert(net, z0, inv_ctx, plan, sched, CaptureOptions(kv=method in KV_METHODS))
    samp_ctx = replace(inv_ctx, scale=samp_scale)
    out = sample_method(net, res, method, samp_ctx, plan, sched, layers, record=record)
    return out, res.trajectory


def measure_reconstruction(z0: np.ndarray, out: np.ndarray) -> dict[str, float]:
    """A sweep row's latent loss, PSNR and SSIM, peaked at ``z0``'s range."""
    rng = float(z0.max() - z0.min())
    peak = rng if rng > 0 else 1.0
    return {
        "latent_loss": latent_loss(z0, out),
        "psnr": psnr(z0, out, peak),
        "ssim": ssim(z0, out, peak),
    }


def run_sweep(cfg: ExperimentConfig) -> SweepReport:
    """Reconstruction sweep over methods x guidances x prompts x seeds.

    Each (inv_guidance, prompt, seed) key is inverted once and every
    method x sampling guidance reconstructs from that inversion; rows come
    out method-major. Rows with the same descent are sampled once and
    share its metrics or its error: neg-prompt is direct descent, and a
    descent whose guidance cancels (scale 1, or shared branches) is the
    same at every sampling guidance. A row's ``time_s`` covers its own
    sampling and metrics, or for a row that shares them its lookup alone,
    not the shared inversion. Failures are recorded in the row, not
    raised; a failed inversion fails, and times, every row of its key.
    An unread layer range (``refuse_unread``) raises first."""
    refuse_unread(cfg.methods, layers=cfg.layers)
    net, sched, plan = cfg.components()
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
        _sweep_key(net, sched, plan, cfg, capture, inv_g, prompt, seed, key_rows)
    return SweepReport(rows=rows)


def _sweep_key(net, sched, plan, cfg, capture, inv_g, prompt, seed, rows):
    """Invert one key and fill in its rows."""
    t0 = time.perf_counter()
    try:
        z0 = generate_synthetic_latent(seed, cfg.data_kind)
        (inv_ctx,) = guidance_contexts((prompt,), inv_g, cfg.embed_seed)
        res = invert(net, z0, inv_ctx, plan, sched, capture)
    except Exception as exc:  # noqa: BLE001 - recorded, not fatal
        failure = {"error": f"{type(exc).__name__}: {exc}", "time_s": time.perf_counter() - t0}
        for row in rows:
            row.update(failure)
        return
    # Metrics or error per descent. fec-noise samples here under the zero
    # mask, which reads no guidance at all, so sharing its descent is exact.
    descents: dict[tuple, dict] = {}
    for row in rows:
        t0 = time.perf_counter()
        method, ctx = resolve_method(row["method"], replace(inv_ctx, scale=row["samp_guidance"]))
        key = (method, None if _uncond_known(ctx) else ctx.scale)
        if key not in descents:
            try:
                out = sample_method(net, res, method, ctx, plan, sched,
                                    cfg.layers if reads(method, "layers") else None)
                descents[key] = measure_reconstruction(z0, out)
            except Exception as exc:  # noqa: BLE001 - recorded, not fatal
                descents[key] = {"error": f"{type(exc).__name__}: {exc}"}
        row.update(descents[key])
        row["time_s"] = time.perf_counter() - t0


def check_batch_invariance(cfg: ExperimentConfig) -> dict:
    """Run two copies of one latent stacked along a leading axis and the
    latent alone, through one forward and through inversion plus
    direct descent; pass iff every stacked row is bit-identical to the
    single run at both levels."""
    net, sched, plan = cfg.components()
    prompt, g = cfg.prompts[0], cfg.samp_guidances[0]
    (ctx,) = guidance_contexts((prompt,), g, cfg.embed_seed)
    z0 = generate_synthetic_latent(cfg.seeds[0], cfg.data_kind)
    stacked = np.stack([z0, z0])

    single = net.predict(z0, plan.timesteps[0], ctx.cond)
    batched = net.predict(stacked, plan.timesteps[0], ctx.cond)
    forward_diff = float(np.max(np.abs(batched - single)))
    forward_identical = all(row.tobytes() == single.tobytes() for row in batched)

    def full_run(z):
        return reconstruct_once(net, sched, plan, z, "direct", prompt, g, g, cfg.embed_seed)[0]

    sequential = full_run(z0)
    batched_runs = full_run(stacked)
    run_diff = float(np.max(np.abs(batched_runs - sequential)))
    run_identical = all(row.tobytes() == sequential.tobytes() for row in batched_runs)
    return {
        "passed": forward_identical and run_identical,
        "forward_max_abs_diff": forward_diff,
        "full_run_max_abs_diff": run_diff,
        "batch": len(stacked),
    }


def report_timing(cfg: ExperimentConfig) -> dict:
    """``{"time_s", "calls"}`` per editing strategy, ``calls`` counting
    network evaluations by route: one ``run_edit`` per edit method, then
    ``direct-paired``, a direct reconstruction and a direct edit from one
    inversion. An unset edit prompt is the source, so each entry
    reconstructs. The fec-noise edit blends under the mask of
    ``cfg.blend_word``, else of the first edit-prompt word the source
    prompt lacks; with neither, ``run_edit`` refuses it (``ConfigError``).
    The kv-reuse edit injects over ``cfg.layers`` and makes no
    reconstruction-route calls."""
    net, sched, plan = cfg.components()
    z0 = generate_synthetic_latent(cfg.seeds[0], cfg.data_kind)
    source = cfg.prompts[0]
    edit = cfg.edit_prompts[0] if cfg.edit_prompts else source
    guidance = cfg.samp_guidances[0]
    blend = cfg.blend_word or next((w for w in edit.split() if w not in source.split()), None)

    def direct_paired():
        ctx, edit_ctx = guidance_contexts((source, edit), guidance, cfg.embed_seed)
        res = invert(net, z0, ctx, plan, sched)
        sample_method(net, res, "direct", ctx, plan, sched)
        sample_method(net, res, "direct", edit_ctx, plan, sched, route="edit")

    runs = {
        method: functools.partial(
            run_edit, net, sched, plan, z0,
            EditRequest(source, edit, method, blend if reads(method, "mask") else None,
                        cfg.layers if reads(method, "layers") else None, guidance),
            cfg.embed_seed,
        )
        for method in EDIT_METHODS
    }
    runs["direct-paired"] = direct_paired
    out = {}
    for name, run in runs.items():
        net.call_counts.clear()
        t0 = time.perf_counter()
        run()
        out[name] = {"time_s": time.perf_counter() - t0, "calls": dict(net.call_counts)}
    return out


def write_report_csv(report: SweepReport, path):
    """One CSV row per sweep cell; +/-inf serialize as "inf"/"-inf"."""
    if not report.rows:
        raise ValueError("empty report")
    fieldnames = sorted({k for row in report.rows for k in row})
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=fieldnames, restval="")
        writer.writeheader()
        writer.writerows(report.rows)


def _json_value(v):
    if isinstance(v, float) and np.isinf(v):
        return "inf" if v > 0 else "-inf"
    return v


def write_report_json(report: SweepReport, path):
    payload = {
        "rows": [
            {k: _json_value(v) for k, v in row.items()}
            for row in report.rows
        ],
        "aggregates": report.aggregate_means(),
    }
    with open(path, "w") as f:
        json.dump(payload, f, indent=2)


def _parse_numbers(kind):
    return lambda s: tuple(kind(x) for x in s.replace(",", " ").split())


def _parse_strs(s: str) -> tuple[str, ...]:
    """The ``;``-separated entries of ``s``: none if every entry is blank,
    and a ``ValueError`` if some but not all are."""
    entries = tuple(x.strip() for x in s.split(";"))
    if not any(entries):
        return ()
    if not all(entries):
        raise ValueError(f"blank entry in {s.strip()!r}")
    return entries


# Every configuration-file key as (section, key, parser, field). A
# ``[denoiser]`` key sets a ``DenoiserConfig`` field, any other key an
# ``ExperimentConfig`` field.
CONFIG_KEYS = (
    ("schedule", "kind", str, "schedule_kind"),
    ("schedule", "total_steps", int, "total_train_steps"),
    ("denoiser", "layers", int, "layer_count"),
    ("denoiser", "heads", int, "head_count"),
    ("denoiser", "dim", int, "model_dim"),
    ("denoiser", "seed", int, "init_seed"),
    ("run", "steps", int, "steps"),
    ("run", "methods", _parse_strs, "methods"),
    ("run", "inv_guidances", _parse_numbers(float), "inv_guidances"),
    ("run", "samp_guidances", _parse_numbers(float), "samp_guidances"),
    ("run", "seeds", _parse_numbers(int), "seeds"),
    ("run", "embed_seed", int, "embed_seed"),
    ("run", "data_kind", str, "data_kind"),
    ("run", "prompts", _parse_strs, "prompts"),
    ("run", "edit_prompts", _parse_strs, "edit_prompts"),
    ("run", "blend_word", str, "blend_word"),
    ("run", "layer_start", int, "layer_start"),
    ("run", "layer_end", int, "layer_end"),
    ("run", "out", str, "out"),
)


def load_config_file(path) -> dict:
    """The field values a sectioned key = value file sets, keyed by each
    key's ``CONFIG_KEYS`` field; ``ExperimentConfig.from_fields`` builds
    the configuration from them. A path the OS refuses (missing, a
    directory, unreadable) raises its own ``OSError``. A malformed file
    (``configparser.Error`` or undecodable text, whose message it keeps),
    a section or key that ``CONFIG_KEYS`` does not list, or a value its
    parser rejects raises ``ConfigError``; a rejected value's message
    starts with its ``[section] key``. Lists are separated by spaces or
    commas; methods, prompts and edit_prompts by semicolons.

    Sections and keys:
      [schedule] kind, total_steps
      [denoiser] layers, heads, dim, seed
      [run] steps, methods, inv_guidances, samp_guidances, seeds,
        embed_seed, data_kind, prompts, edit_prompts, blend_word,
        layer_start, layer_end, out
    """
    parser = configparser.ConfigParser(interpolation=None)
    with open(path) as f:
        try:
            parser.read_file(f)
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(str(exc)) from exc
    table = {(section, key): (parse, name) for section, key, parse, name in CONFIG_KEYS}
    sections = list(dict.fromkeys(section for section, *_ in CONFIG_KEYS))
    values = {}
    # A [DEFAULT] section would hand its keys to every other section.
    for section in ["DEFAULT"] * bool(parser.defaults()) + parser.sections():
        if section not in sections:
            raise ConfigError(f"unknown section {section!r}{_closest(section, sections)}")
        for key, text in parser.items(section):
            if (section, key) not in table:
                known = [k for s, k in table if s == section]
                raise ConfigError(f"unknown key {key!r} in [{section}]{_closest(key, known)}")
            parse, name = table[section, key]
            try:
                values[name] = parse(text)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from None
    return values


def _closest(name: str, known) -> str:
    match = difflib.get_close_matches(name, known, n=1)
    return f"; did you mean {match[0]!r}?" if match else ""
