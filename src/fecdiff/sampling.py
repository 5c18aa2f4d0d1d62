"""DDIM stepping, classifier-free guidance, inversion, and the samplers.

Samplers: direct descent, negative-prompt baseline, reference-path
correction (fec-ref), desired-noise correction (fec-noise), and cached
key/value injection (fec-kv-reuse, plus its V-only ablation variant).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .denoiser import (
    AttentionTrace,
    KVCache,
    KVCapture,
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
    net, prompts: tuple[str, ...], scale: float, embed_seed: int = 0
) -> list[GuidanceContext]:
    """One context per prompt at ``scale``, all sharing the null embedding,
    with every embedding sized to the network's token shape."""
    n_tokens, dim = net.config.n_tokens, net.config.token_dim
    null = embed_prompt("", embed_seed, n_tokens, dim)
    return [
        GuidanceContext(scale=scale, cond=embed_prompt(p, embed_seed, n_tokens, dim), uncond=null)
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
    """What to record during inversion.

    ``aligned`` chooses the two-pass KV scheme: after each inversion step
    produces z_t, one extra evaluation at (z_t, t) records K/V, so cached
    entries match exactly what the sampler presents when its latent equals
    z_t. With ``aligned=False`` K/V are recorded from the inversion
    evaluation itself (latent z_{t_prev}, timestep t).
    """

    kv: bool = False
    aligned: bool = True


@dataclass
class InvertResult:
    """Inversion outputs: the latent path plus optional capture artifacts.

    K/V are recorded once per classifier-free-guidance branch, because the
    sampler evaluates the network separately under the conditional and the
    unconditional embedding and each evaluation produces its own K/V.
    Injecting one branch's cache into the other corrupts the cond/uncond
    difference that guidance amplifies.
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
    if t_prev < 0:
        raise ValueError(f"t_prev must be >= 0, got {t_prev}")


def ddim_step(
    z_t: np.ndarray, eps: np.ndarray, t: int, t_prev: int, sched: NoiseSchedule
) -> np.ndarray:
    """One deterministic DDIM descent step from t to t_prev."""
    _check_step(t, t_prev)
    if z_t.shape != eps.shape:
        raise ValueError(f"shape mismatch: {z_t.shape} vs {eps.shape}")
    ab_t, ab_p = sched.ab(t), sched.ab(t_prev)
    z0_pred = (z_t - np.sqrt(1.0 - ab_t) * eps) / np.sqrt(ab_t)
    return np.sqrt(ab_p) * z0_pred + np.sqrt(1.0 - ab_p) * eps


def ddim_invert_step(
    z_prev: np.ndarray, eps: np.ndarray, t_prev: int, t: int, sched: NoiseSchedule
) -> np.ndarray:
    """One inversion step from t_prev up to t (algebraic inverse of ddim_step)."""
    _check_step(t, t_prev)
    if z_prev.shape != eps.shape:
        raise ValueError(f"shape mismatch: {z_prev.shape} vs {eps.shape}")
    ab_t, ab_p = sched.ab(t), sched.ab(t_prev)
    z0_pred = (z_prev - np.sqrt(1.0 - ab_p) * eps) / np.sqrt(ab_p)
    return np.sqrt(ab_t) * z0_pred + np.sqrt(1.0 - ab_t) * eps


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


def desired_uncond(eps_t: np.ndarray, eps_c: np.ndarray, scale: float) -> np.ndarray:
    """Unconditional noise making cfg_combine(eps_c, result, scale) == eps_t."""
    if scale == 1.0:
        raise ValueError("degenerate guidance: scale = 1 leaves no unconditional weight")
    if eps_t.shape != eps_c.shape:
        raise ValueError(f"shape mismatch: {eps_t.shape} vs {eps_c.shape}")
    return (eps_t - scale * eps_c) / (1.0 - scale)


def _uncond_known(ctx: GuidanceContext, kv=None, kv_uncond=None) -> bool:
    """Whether the unconditional evaluation can be skipped: at scale 1 it
    has no weight, and under shared branches with the same hook it is the
    conditional evaluation again (``predict`` is deterministic). A capture
    hook records what it sees, so its evaluation always runs."""
    if isinstance(kv, KVCapture) or isinstance(kv_uncond, KVCapture):
        return False
    return ctx.scale == 1.0 or (ctx.shared and kv_uncond is kv)


def guided_noise(
    net, z, t, ctx: GuidanceContext, *, route="other", kv=None, kv_uncond=None
) -> np.ndarray:
    """Classifier-free-guided noise; ``kv`` and ``kv_uncond`` hook the
    conditional and the unconditional evaluation. The unconditional one
    runs only when its result is not already known."""
    eps_c = net.predict(z, t, ctx.cond, kv=kv, route=route)
    if _uncond_known(ctx, kv, kv_uncond):
        eps_u = eps_c
    else:
        eps_u = net.predict(z, t, ctx.uncond, kv=kv_uncond, route=route)
    return cfg_combine(eps_c, eps_u, ctx.scale)


def _finite(z: np.ndarray, t: int, stage: str) -> np.ndarray:
    if not np.all(np.isfinite(z)):
        raise NonFiniteError(f"non-finite latent during {stage} at t={t}")
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

    With KV capture on, each step is followed by aligned evaluations at
    (z_t, t) purely to record K/V: one under the conditional embedding and
    one under the unconditional embedding, filling one cache per guidance
    branch. Under shared branches the two evaluations are the same, so one
    runs and ``kv_cache_uncond`` is ``kv_cache`` itself.
    """
    capture = capture or CaptureOptions()
    z0 = np.asarray(z0, dtype=np.float64)
    _finite(z0, 0, "inversion")
    cache = cache_u = None
    if capture.kv:
        shape = {"latent_shape": net.config.latent_shape, "layer_count": net.config.layer_count}
        cache = KVCache(**shape)
        cache_u = cache if ctx.shared else KVCache(**shape)
    latents: dict[int, np.ndarray] = {0: z0.copy()}
    z = z0
    for t_prev, t in plan.inversion_pairs():
        eps = guided_noise(net, z, t, ctx, route="inversion")
        z = _finite(ddim_invert_step(z, eps, t_prev, t, sched), t, "inversion")
        latents[t] = z.copy()
        if capture.kv:
            # The capture latent matches what the sampler will present at
            # this timestep when aligned; otherwise re-run the inversion
            # evaluation so capture stays observation-only either way.
            z_cap = z if capture.aligned else latents[t_prev]
            net.predict(z_cap, t, ctx.cond, kv=KVCapture(cache), route="capture")
            if cache_u is not cache:
                net.predict(z_cap, t, ctx.uncond, kv=KVCapture(cache_u), route="capture")
    traj = Trajectory(
        latents=latents, timesteps=tuple(plan.timesteps), guidance=ctx.scale, seed=seed
    )
    return InvertResult(trajectory=traj, kv_cache=cache, kv_cache_uncond=cache_u)


def _descend(z, plan: TimestepPlan, sched: NoiseSchedule, noise, record, stage: str):
    """DDIM descent down the plan from ``z``, taking each step's noise from
    ``noise(z, t, t_prev)`` and recording every latent into ``record``."""
    if record is not None:
        record[plan.timesteps[0]] = z.copy()
    for t, t_prev in plan.sampling_pairs():
        z = _finite(ddim_step(z, noise(z, t, t_prev), t, t_prev, sched), t_prev, stage)
        if record is not None:
            record[t_prev] = z.copy()
    return z


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
    return _descend(z, plan, sched, noise, record, "sampling")


def sample_neg_prompt_baseline(
    net, traj_start, ctx: GuidanceContext, plan, sched, *, record=None, route="reconstruction"
) -> np.ndarray:
    """Direct sampling with the unconditional embedding set to the prompt."""
    neg_ctx = GuidanceContext(scale=ctx.scale, cond=ctx.cond, uncond=ctx.cond)
    return sample_direct(net, traj_start, neg_ctx, plan, sched, record=record, route=route)


def sample_fec_ref(
    net,
    traj: Trajectory,
    ctx: GuidanceContext,
    plan: TimestepPlan,
    sched: NoiseSchedule,
    mode: str = "reconstruct",
    edit_ctx: GuidanceContext | None = None,
    *,
    record: dict[int, np.ndarray] | None = None,
    route: str = "reconstruction",
) -> np.ndarray:
    """Reference-path sampler: overwrite each step with the inversion latent.

    Reconstruct mode assigns the saved latent at every step and therefore
    returns the encoded source exactly. Edit mode runs the plain guided
    descent under the edit prompt; the reference path stays available to
    downstream consumers via ``traj``.
    """
    if not traj.covers(plan):
        raise ValueError("trajectory does not cover the timestep plan")
    if mode == "reconstruct":
        z = traj[plan.timesteps[0]]
        if record is not None:
            record[plan.timesteps[0]] = z.copy()
        for _, t_prev in plan.sampling_pairs():
            z = traj[t_prev]
            if record is not None:
                record[t_prev] = z.copy()
        return z.copy()
    if mode == "edit":
        use_ctx = edit_ctx if edit_ctx is not None else ctx
        return sample_direct(
            net, traj[plan.timesteps[0]], use_ctx, plan, sched, record=record, route=route
        )
    raise ValueError(f"unknown mode {mode!r}")


class ZeroMaskProvider:
    """All-zero masks: every position takes the desired noise."""

    needs_trace = False

    def mask(self, t, trace, embedding):
        return None


class FixedMaskProvider:
    """One user-supplied mask applied at every step."""

    needs_trace = False

    def __init__(self, mask: np.ndarray):
        mask = np.asarray(mask, dtype=np.float64)
        if mask.min() < 0.0 or mask.max() > 1.0:
            raise ValueError("mask values must lie in [0, 1]")
        self._mask = mask

    def mask(self, t, trace, embedding):
        return self._mask


def sample_fec_noise(
    net,
    traj: Trajectory,
    ctx: GuidanceContext,
    plan: TimestepPlan,
    sched: NoiseSchedule,
    mask_provider=None,
    mode: str = "reconstruct",
    edit_ctx: GuidanceContext | None = None,
    *,
    record: dict[int, np.ndarray] | None = None,
    route: str = "reconstruction",
) -> np.ndarray:
    """Desired-noise sampler.

    Each step derives the unconditional noise that would land exactly on
    the saved inversion latent, then blends it with the live unconditional
    prediction under the step mask (reconstruct mode forces the mask to
    zero, and any mask with no nonzero entry counts as zero, so the step
    takes pure desired noise and evaluates no network; the conditional
    prediction is evaluated only under a live mask or for a provider that
    needs its attention trace, and the live unconditional one only when
    ``guided_noise`` would evaluate it). With guidance scale 1 the
    unconditional derivation is singular and blending happens on total
    noise instead, preserving exactness in unmasked regions.
    """
    if mode not in ("reconstruct", "edit"):
        raise ValueError(f"unknown mode {mode!r}")
    if not traj.covers(plan):
        raise ValueError("trajectory does not cover the timestep plan")
    use_ctx = edit_ctx if (mode == "edit" and edit_ctx is not None) else ctx
    scale = use_ctx.scale
    if mode == "reconstruct" or mask_provider is None:
        mask_provider = ZeroMaskProvider()

    needs_trace = getattr(mask_provider, "needs_trace", False)

    def noise(z, t, t_prev):
        eps_des = desired_noise(z, traj[t_prev], t, t_prev, sched)
        eps_c = trace = None
        if needs_trace:
            trace = AttentionTrace()
            eps_c = net.predict(z, t, use_ctx.cond, trace_to=trace, route=route)
        m = mask_provider.mask(t, trace, use_ctx.cond)
        if m is None or not np.any(m):
            # Eq. 13 cancels the conditional prediction exactly under a
            # zero mask, so the step is the desired noise itself.
            return eps_des
        if eps_c is None:
            eps_c = net.predict(z, t, use_ctx.cond, route=route)
        if _uncond_known(use_ctx):
            eps_u_live = eps_c
        else:
            eps_u_live = net.predict(z, t, use_ctx.uncond, route=route)
        if scale == 1.0:
            # Singular Eq.-13 case: blend total noise so unmasked regions
            # still receive exactly the desired noise.
            return m * cfg_combine(eps_c, eps_u_live, scale) + (1.0 - m) * eps_des
        eps_u = m * eps_u_live + (1.0 - m) * desired_uncond(eps_des, eps_c, scale)
        return cfg_combine(eps_c, eps_u, scale)

    z = traj[plan.timesteps[0]].copy()
    return _descend(z, plan, sched, noise, record, "fec-noise sampling")


def sample_fec_kv_reuse(
    net,
    traj_start: np.ndarray,
    cache: KVCache,
    ctx: GuidanceContext,
    plan: TimestepPlan,
    sched: NoiseSchedule,
    layers: LayerRange | None = None,
    edit_ctx: GuidanceContext | None = None,
    *,
    cache_uncond: KVCache | None = None,
    v_only: bool = False,
    record: dict[int, np.ndarray] | None = None,
    route: str = "reconstruction",
) -> np.ndarray:
    """Guided descent with cached self-attention K/V injected at each step.

    Each guidance branch injects from its own cache: ``cache`` feeds the
    conditional evaluation and ``cache_uncond`` the unconditional one
    (falling back to ``cache`` when omitted). Reconstruction uses the
    source prompt over the full layer range; edits substitute the edit
    prompt while keeping injection. ``v_only`` runs the ablation that
    reuses V while keeping K live.
    """
    if layers is None:
        layers = LayerRange(0, net.config.layer_count)
    use_ctx = edit_ctx if edit_ctx is not None else ctx
    cache_u = cache_uncond if cache_uncond is not None else cache
    for t in plan.timesteps:
        if not (cache.has_timestep(t) and cache_u.has_timestep(t)):
            raise KeyError(f"KV cache has no entries at planned timestep t={t}")
    kv = KVInject(cache, layers, v_only)
    kv_u = kv if cache_u is cache else KVInject(cache_u, layers, v_only)

    def noise(z, t, t_prev):
        return guided_noise(net, z, t, use_ctx, route=route, kv=kv, kv_uncond=kv_u)

    z = np.asarray(traj_start, dtype=np.float64)
    return _descend(z, plan, sched, noise, record, "fec-kv-reuse sampling")
