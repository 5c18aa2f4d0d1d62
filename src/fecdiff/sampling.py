"""DDIM stepping, classifier-free guidance, inversion, and the samplers.

Samplers: direct descent, reference-path correction (fec-ref),
desired-noise correction (fec-noise), and cached key/value injection
(fec-kv-reuse, plus its V-only ablation variant), each under the one
context it is given; ``sample_method`` maps a method name to one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .denoiser import (
    AttentionTrace,
    ConfigError,
    KVCache,
    KVInject,
    LayerRange,
    NonFiniteError,
    PromptEmbedding,
    embed_prompt,
)
from .schedule import NoiseSchedule, TimestepPlan


@dataclass(frozen=True)
class GuidanceContext:
    """Guidance scale plus conditional / unconditional embeddings.

    ``shared`` is true when the two embeddings are the same bytes (the
    empty prompt, or the negative-prompt baseline's ``uncond = cond``):
    the two guidance branches are then one network input.
    """

    scale: float
    cond: PromptEmbedding
    uncond: PromptEmbedding
    shared: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not np.isfinite(self.scale):
            raise ValueError("guidance scale must be finite")
        if self.cond.tokens.shape != self.uncond.tokens.shape:
            raise ValueError("cond/uncond embedding shapes must match")
        shared = self.cond.tokens.tobytes() == self.uncond.tokens.tobytes()
        object.__setattr__(self, "shared", shared)


def guidance_contexts(
    prompts: tuple[str, ...], scale: float, embed_seed: int = 0
) -> list[GuidanceContext]:
    """One context per prompt at ``scale``, all sharing the null embedding."""
    null = embed_prompt("", embed_seed)
    return [
        GuidanceContext(scale=scale, cond=embed_prompt(p, embed_seed), uncond=null)
        for p in prompts
    ]


@dataclass
class Trajectory:
    """Ordered inversion latents keyed by timestep (plan plus 0 and T)."""

    latents: dict[int, np.ndarray]
    timesteps: tuple[int, ...]
    guidance: float
    seed: int | None = None

    def __getitem__(self, t: int) -> np.ndarray:
        try:
            return self.latents[t]
        except KeyError:
            raise KeyError(f"trajectory has no latent at t={t}") from None

    def covers(self, plan: TimestepPlan) -> bool:
        return all(t in self.latents for t in plan.timesteps) and 0 in self.latents


@dataclass
class CaptureOptions:
    """What to record during inversion: ``kv`` records self-attention K/V
    at every step (see ``invert``)."""

    kv: bool = False


@dataclass
class InvertResult:
    """Inversion outputs: the latent path plus optional capture artifacts.

    K/V are recorded once per classifier-free-guidance branch, because the
    sampler evaluates the network separately under the conditional and the
    unconditional embedding and each evaluation produces its own K/V.
    Injecting one branch's cache into the other corrupts the cond/uncond
    difference that guidance amplifies. The entry at ``(t, layer)`` is what
    the inversion step from ``t_prev`` up to ``t`` saw, at ``(z_{t_prev}, t)``.
    """

    trajectory: Trajectory
    kv_cache: KVCache | None = None
    kv_cache_uncond: KVCache | None = None


def cfg_combine(eps_c: np.ndarray, eps_u: np.ndarray, scale: float) -> np.ndarray:
    """Classifier-free guidance: scale * eps_c + (1 - scale) * eps_u.

    Computed as eps_u + scale * (eps_c - eps_u) so that identical inputs
    pass through bit-exactly; scale 1 returns eps_c exactly.
    """
    if eps_c.shape != eps_u.shape:
        raise ValueError(f"shape mismatch: {eps_c.shape} vs {eps_u.shape}")
    if scale == 1.0:
        return eps_c.copy()
    return eps_u + scale * (eps_c - eps_u)


def _check_step(t: int, t_prev: int):
    if t <= t_prev:
        raise ValueError(f"need t > t_prev, got t={t}, t_prev={t_prev}")


def _ddim_move(z: np.ndarray, eps: np.ndarray, t_from: int, t_to: int, sched: NoiseSchedule):
    """Predict z0 from ``z`` at ``t_from``, then re-noise it to ``t_to``."""
    if z.shape != eps.shape:
        raise ValueError(f"shape mismatch: {z.shape} vs {eps.shape}")
    ab_from, ab_to = sched.ab(t_from), sched.ab(t_to)
    z0_pred = (z - np.sqrt(1.0 - ab_from) * eps) / np.sqrt(ab_from)
    return np.sqrt(ab_to) * z0_pred + np.sqrt(1.0 - ab_to) * eps


def ddim_step(
    z_t: np.ndarray, eps: np.ndarray, t: int, t_prev: int, sched: NoiseSchedule
) -> np.ndarray:
    """One deterministic DDIM descent step from t to t_prev."""
    _check_step(t, t_prev)
    return _ddim_move(z_t, eps, t, t_prev, sched)


def ddim_invert_step(
    z_prev: np.ndarray, eps: np.ndarray, t_prev: int, t: int, sched: NoiseSchedule
) -> np.ndarray:
    """One inversion step from t_prev up to t (algebraic inverse of ddim_step)."""
    _check_step(t, t_prev)
    return _ddim_move(z_prev, eps, t_prev, t, sched)


def desired_noise(
    z_tilde_t: np.ndarray, z_target_prev: np.ndarray, t: int, t_prev: int, sched: NoiseSchedule
) -> np.ndarray:
    """The unique eps so that ddim_step(z_tilde_t, eps, t, t_prev) hits the target."""
    _check_step(t, t_prev)
    if z_tilde_t.shape != z_target_prev.shape:
        raise ValueError(f"shape mismatch: {z_tilde_t.shape} vs {z_target_prev.shape}")
    ab_t, ab_p = sched.ab(t), sched.ab(t_prev)
    a = np.sqrt(ab_p / ab_t)
    b = np.sqrt(1.0 - ab_p) - np.sqrt(ab_p * (1.0 - ab_t) / ab_t)
    if b == 0.0:
        raise ZeroDivisionError(f"degenerate schedule step t={t} -> t_prev={t_prev}")
    return (z_target_prev - a * z_tilde_t) / b


def _uncond_known(ctx: GuidanceContext, kv=None, kv_uncond=None) -> bool:
    """Whether the unconditional evaluation can be skipped: under shared
    branches with one hook it is the conditional evaluation again
    (``predict`` is deterministic); otherwise only at scale 1, where it has
    no weight, and never when a ``KVCache`` records it."""
    if ctx.shared and kv_uncond is kv:
        return True
    return ctx.scale == 1.0 and not isinstance(kv_uncond, KVCache)


def guided_noise(
    net, z, t, ctx: GuidanceContext, *, route="other", kv=None, kv_uncond=None, trace_to=None
) -> np.ndarray:
    """Classifier-free-guided noise; ``kv`` and ``kv_uncond`` hook the
    conditional and the unconditional evaluation, ``trace_to`` traces the
    conditional one. The unconditional one runs only when its result is not
    already known, and then the noise is the conditional prediction."""
    eps_c = net.predict(z, t, ctx.cond, kv=kv, trace_to=trace_to, route=route)
    if _uncond_known(ctx, kv, kv_uncond):
        return eps_c
    eps_u = net.predict(z, t, ctx.uncond, kv=kv_uncond, route=route)
    return cfg_combine(eps_c, eps_u, ctx.scale)


def _finite(z: np.ndarray, t: int, stage: str) -> np.ndarray:
    if not np.all(np.isfinite(z)):
        raise NonFiniteError(f"non-finite latent during {stage} at t={t}")
    return z


def _walk(z, pairs, move, sched: NoiseSchedule, noise, record, stage: str):
    """Step ``z`` along the ``(from, to)`` timestep ``pairs`` with
    ``move(z, noise(z, from, to), from, to, sched)``, checking each new
    latent and recording every latent, the start's included, into
    ``record``."""
    if record is not None:
        record[pairs[0][0]] = z.copy()
    for t_from, t_to in pairs:
        z = _finite(move(z, noise(z, t_from, t_to), t_from, t_to, sched), t_to, stage)
        if record is not None:
            record[t_to] = z.copy()
    return z


def invert(
    net,
    z0: np.ndarray,
    ctx: GuidanceContext,
    plan: TimestepPlan,
    sched: NoiseSchedule,
    capture: CaptureOptions | None = None,
    seed: int | None = None,
) -> InvertResult:
    """Run DDIM inversion up the plan, recording every latent.

    With KV capture on, each step's guided evaluation at (z_{t_prev}, t)
    also records each branch's K/V into that branch's cache, under route
    ``capture``; the path is unchanged. Under shared branches
    ``kv_cache_uncond`` is ``kv_cache`` itself, so one evaluation fills it.
    """
    capture = capture or CaptureOptions()
    z0 = _finite(np.asarray(z0, dtype=np.float64), 0, "inversion")
    latents: dict[int, np.ndarray] = {}
    cache = cache_u = None
    if capture.kv:
        cache = KVCache()
        cache_u = cache if ctx.shared else KVCache()
    route = "capture" if capture.kv else "inversion"

    def noise(z, t_prev, t):
        return guided_noise(net, z, t, ctx, route=route, kv=cache, kv_uncond=cache_u)

    _walk(z0, plan.inversion_pairs(), ddim_invert_step, sched, noise, latents, "inversion")
    traj = Trajectory(
        latents=latents, timesteps=tuple(plan.timesteps), guidance=ctx.scale, seed=seed
    )
    return InvertResult(trajectory=traj, kv_cache=cache, kv_cache_uncond=cache_u)


def sample_direct(
    net,
    traj_start: np.ndarray,
    ctx: GuidanceContext,
    plan: TimestepPlan,
    sched: NoiseSchedule,
    *,
    record: dict[int, np.ndarray] | None = None,
    route: str = "reconstruction",
) -> np.ndarray:
    """Plain guided DDIM descent from the inversion endpoint."""

    def noise(z, t, t_prev):
        return guided_noise(net, z, t, ctx, route=route)

    z = np.asarray(traj_start, dtype=np.float64)
    return _walk(z, plan.sampling_pairs(), ddim_step, sched, noise, record, "sampling")


def sample_fec_ref(
    traj: Trajectory, plan: TimestepPlan, *, record: dict[int, np.ndarray] | None = None
) -> np.ndarray:
    """Reference-path sampler: take the saved inversion latent at every
    step, so the output is the encoded source exactly; no network runs."""
    if not traj.covers(plan):
        raise ValueError("trajectory does not cover the timestep plan")
    if record is not None:
        record.update((t, traj[t].copy()) for t in (*plan.timesteps, 0))
    return traj[0].copy()


def as_mask(values) -> np.ndarray:
    """``values`` as a float64 mask, after checking that it is not empty
    and that every value is finite and lies in [0, 1]."""
    mask = np.asarray(values, dtype=np.float64)
    if mask.size == 0:
        raise ValueError(f"mask is empty: shape {mask.shape}")
    if not np.all(np.isfinite(mask)):
        raise ValueError("mask values must be finite; the mask holds NaN or infinity")
    if mask.min() < 0.0 or mask.max() > 1.0:
        raise ValueError("mask values must lie in [0, 1]")
    return mask


def sample_fec_noise(
    net,
    traj: Trajectory,
    ctx: GuidanceContext,
    plan: TimestepPlan,
    sched: NoiseSchedule,
    mask=None,
    *,
    record: dict[int, np.ndarray] | None = None,
    route: str = "reconstruction",
) -> np.ndarray:
    """Desired-noise sampler.

    Each step blends ``guided_noise``'s noise with the desired noise
    ``eps_des``, which lands exactly on the saved inversion latent, under
    the step mask: ``m * guided + (1 - m) * eps_des``. Guidance is affine in
    the unconditional noise, so this is the paper's Eq. 13 (blend that
    noise with the one guiding to ``eps_des``, then guide) at every scale,
    1 included, and wherever the mask is 0 the step takes ``eps_des``
    exactly. ``mask`` is ``None``, an array applied at every step (checked
    with ``as_mask`` before the first step), or a function ``mask(t,
    trace)`` giving each latent's spatial mask from the step's conditional
    attention trace. ``None``, or an array with no nonzero entry, is the
    zero mask: no network runs, which reconstructs the source.
    """
    if not traj.covers(plan):
        raise ValueError("trajectory does not cover the timestep plan")
    if mask is not None and not callable(mask):
        mask = as_mask(mask)
        if not np.any(mask):
            mask = None

    def noise(z, t, t_prev):
        eps_des = desired_noise(z, traj[t_prev], t, t_prev, sched)
        if mask is None:
            return eps_des
        trace = AttentionTrace() if callable(mask) else None
        guided = guided_noise(net, z, t, ctx, route=route, trace_to=trace)
        m = mask(t, trace)[..., None, :, :] if trace is not None else mask
        return m * guided + (1.0 - m) * eps_des

    z = traj[plan.timesteps[0]].copy()
    return _walk(z, plan.sampling_pairs(), ddim_step, sched, noise, record, "fec-noise sampling")


def sample_fec_kv_reuse(
    net,
    traj_start: np.ndarray,
    cache: KVCache,
    ctx: GuidanceContext,
    plan: TimestepPlan,
    sched: NoiseSchedule,
    layers: LayerRange | None = None,
    *,
    cache_uncond: KVCache,
    v_only: bool = False,
    record: dict[int, np.ndarray] | None = None,
    route: str = "reconstruction",
) -> np.ndarray:
    """Guided descent with cached self-attention K/V injected at each step.

    Each guidance branch injects from its own cache: ``cache`` feeds the
    conditional evaluation and ``cache_uncond`` the unconditional one.
    ``v_only`` runs the ablation that reuses V while keeping K live.
    """
    if layers is None:
        layers = LayerRange(0, net.config.layer_count)
    cached = set(cache.timesteps()) & set(cache_uncond.timesteps())
    for t in plan.timesteps:
        if t not in cached:
            raise KeyError(f"KV cache has no entries at planned timestep t={t}")
    kv = KVInject(cache, layers, v_only)
    kv_u = kv if cache_uncond is cache else KVInject(cache_uncond, layers, v_only)

    def noise(z, t, t_prev):
        return guided_noise(net, z, t, ctx, route=route, kv=kv, kv_uncond=kv_u)

    z = np.asarray(traj_start, dtype=np.float64)
    return _walk(z, plan.sampling_pairs(), ddim_step, sched, noise, record, "fec-kv-reuse sampling")


RECON_METHODS = ("direct", "neg-prompt", "fec-ref", "fec-noise", "fec-kv-reuse", "fec-v-reuse")
# The methods that sample from the K/V an inversion captures.
KV_METHODS = ("fec-kv-reuse", "fec-v-reuse")
# Each input a method may read, by keyword: (what it is, the fields that set it, its readers).
METHOD_INPUTS = {
    "mask": ("a mask or a blend word", ("mask", "blend_word"), ("fec-noise",)),
    "layers": ("a layer range", ("layer_start", "layer_end"), KV_METHODS),
}


def reads(method: str, key: str) -> bool:
    """Whether ``method`` reads the ``METHOD_INPUTS`` input ``key``."""
    return method in METHOD_INPUTS[key][2]


def refuse_unread(methods, **inputs) -> None:
    """Raise ``ConfigError`` for an input set (not None) that no method of ``methods`` reads."""
    for key, value in inputs.items():
        what, fields, readers = METHOD_INPUTS[key]
        if value is not None and not any(reads(m, key) for m in methods):
            raise ConfigError(f"{what} applies to {' and '.join(readers)} only,"
                              f" not {', '.join(methods)}", *fields)


def resolve_method(method: str, ctx: GuidanceContext) -> tuple[str, GuidanceContext]:
    """The sampler method and context that ``method`` samples with under
    ``ctx``: neg-prompt is direct descent with the prompt as unconditional
    embedding, so its guidance cancels; every other method is itself."""
    if method == "neg-prompt":
        return "direct", replace(ctx, uncond=ctx.cond)
    return method, ctx


def sample_method(
    net,
    res: InvertResult,
    method: str,
    ctx: GuidanceContext,
    plan: TimestepPlan,
    sched: NoiseSchedule,
    layers: LayerRange | None = None,
    *,
    mask=None,
    record: dict[int, np.ndarray] | None = None,
    route: str = "reconstruction",
) -> np.ndarray:
    """Sample from the inversion ``res`` with one method under ``ctx``; the
    source prompt's context reconstructs, an edit prompt's edits.

    ``resolve_method`` maps neg-prompt to direct descent. ``mask`` is
    fec-noise's, as ``sample_fec_noise`` takes it (``None``: the zero
    mask); ``layers`` is the kv methods' range, for which ``res`` must
    hold K/V. ``refuse_unread`` refuses either for another method.
    """
    if method not in RECON_METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {RECON_METHODS}")
    refuse_unread((method,), mask=mask, layers=layers)
    method, ctx = resolve_method(method, ctx)
    traj = res.trajectory
    z_start = traj[plan.timesteps[0]]
    if method == "direct":
        return sample_direct(net, z_start, ctx, plan, sched, record=record, route=route)
    if method == "fec-ref":
        return sample_fec_ref(traj, plan, record=record)
    if method == "fec-noise":
        return sample_fec_noise(net, traj, ctx, plan, sched, mask, record=record, route=route)
    return sample_fec_kv_reuse(
        net, z_start, res.kv_cache, ctx, plan, sched, layers,
        cache_uncond=res.kv_cache_uncond, v_only=method == "fec-v-reuse",
        record=record, route=route,
    )
