"""Minimal native editing pipeline: prompt swap, blend-word masks,
layer-range KV injection, and locality reporting."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .denoiser import (
    LATENT_SHAPE,
    PATCH_SIZE,
    AttentionTrace,
    ConfigError,
    LayerRange,
    PromptEmbedding,
)
from .metrics import latent_loss, trajectory_loss_curve
from .sampling import (
    KV_METHODS,
    CaptureOptions,
    as_mask,
    guidance_contexts,
    invert,
    refuse_unread,
    sample_fec_noise,
    sample_method,
)
from .schedule import NoiseSchedule, TimestepPlan

MASK_THRESHOLD = 0.3

# fec-noise first: the method `fecdiff edit` runs when none is set.
EDIT_METHODS = ("fec-noise", "fec-ref", "fec-kv-reuse")


@dataclass(frozen=True)
class EditRequest:
    """One edit; a method other than ``EDIT_METHODS``, or an input the
    method does not read (``refuse_unread``), raises ``ConfigError``."""

    source_prompt: str
    edit_prompt: str
    method: str
    blend_word: str | None = None
    layer_range: LayerRange | None = None
    guidance: float = 7.5

    def __post_init__(self):
        if self.method not in EDIT_METHODS:
            raise ConfigError(f"edit runs one method of {', '.join(EDIT_METHODS)};"
                              f" got {self.method!r}", "methods")
        refuse_unread((self.method,), mask=self.blend_word, layers=self.layer_range)


def derive_mask(
    trace: AttentionTrace, blend_word: str, embedding: PromptEmbedding, t: int
) -> np.ndarray:
    """Binary mask over the latent grid (1 = region to edit) from the
    blend word's averaged cross-attention map, one per latent of a stacked
    trace.

    The map, on the patch grid, is averaged over heads and layers, min-max
    normalized and thresholded at ``MASK_THRESHOLD``; each patch cell then
    covers its ``PATCH_SIZE`` x ``PATCH_SIZE`` pixels. Its maximum
    normalizes to exactly 1, so the mask is all zero, or degenerate,
    exactly when the map is constant and cannot be normalized: the
    conservative "reconstruct everything" choice.
    """
    m = trace.token_map(t, embedding.word_index(blend_word))
    lo = m.min(axis=(-2, -1), keepdims=True)
    span = m.max(axis=(-2, -1), keepdims=True) - lo
    live = span > 0
    m = (m - lo) / np.where(live, span, 1.0)
    cells = ((m >= MASK_THRESHOLD) & live).astype(np.float64)
    return cells.repeat(PATCH_SIZE, axis=-2).repeat(PATCH_SIZE, axis=-1)


@dataclass
class EditReport:
    method: str
    reconstructed: bool
    per_step_losses: list[tuple[int, float]] = field(default_factory=list)
    locality: dict[str, float] | None = None
    mask_degenerate_steps: list[int] = field(default_factory=list)


def _locality(
    output: np.ndarray, reconstruction: np.ndarray, mask: np.ndarray
) -> dict[str, float]:
    """Region-restricted latent distances between an edit and the
    reconstruction (mask zero-region = the part an edit must preserve),
    averaged over the channels and over every latent of a stack."""
    keep = mask == 0.0
    edit = ~keep
    diff = (output - reconstruction) ** 2
    out = {
        "outside_mask_mse": float(diff[..., keep].mean()) if keep.any() else 0.0,
        "inside_mask_mse": float(diff[..., edit].mean()) if edit.any() else 0.0,
    }
    return out


def run_edit(
    net,
    sched: NoiseSchedule,
    plan: TimestepPlan,
    z0: np.ndarray,
    req: EditRequest,
    embed_seed: int = 0,
    user_mask: np.ndarray | None = None,
) -> tuple[np.ndarray, EditReport]:
    """Invert with the source prompt, then sample with the method under the
    edit prompt; identical prompts reconstruct (fec-noise takes the zero
    mask, fec-ref its saved path). A fec-noise edit of a changed prompt
    blends under the user mask, else the blend word's per-step attention
    mask. The report carries per-step losses against the reference
    trajectory, for fec-noise edits locality against the method's own
    reconstruction, and the ascending steps whose blend-word mask was all
    zero. Before inverting it raises ``ConfigError``, naming the fields at
    fault, for a layer range past the network, a user mask on another
    method, a user mask and a blend word together, either with identical
    prompts, a user mask off the latent grid, a fec-noise edit of a
    changed prompt with neither, and a blend word outside the edit
    prompt's token slots. A user mask that is empty or holds a value
    outside [0, 1] raises ``as_mask``'s ``ValueError``."""
    grid = LATENT_SHAPE[1:]
    if req.layer_range is not None:
        req.layer_range.fits(net.config.layer_count)
    refuse_unread((req.method,), mask=user_mask)
    if user_mask is not None and req.blend_word is not None:
        raise ConfigError("a user mask and a blend word are two mask sources; give one",
                          "blend_word", "mask")
    reconstruct = req.edit_prompt == req.source_prompt
    unmasked = user_mask is None and req.blend_word is None
    if reconstruct and not unmasked:
        raise ConfigError("a mask or a blend word needs an edit prompt that differs from the"
                          " source", "mask", "blend_word")
    if user_mask is not None:
        user_mask = as_mask(user_mask)
        if user_mask.shape != grid:
            raise ConfigError(f"user mask {user_mask.shape} does not match the latent grid"
                              f" {grid}", "mask")
    if req.method == "fec-noise" and not reconstruct and unmasked:
        raise ConfigError("a fec-noise edit needs a mask or a blend word, or it returns the source",
                          "edit_prompts")
    ctx, edit_ctx = guidance_contexts((req.source_prompt, req.edit_prompt), req.guidance,
                                      embed_seed)
    if req.blend_word is not None:
        edit_ctx.cond.word_index(req.blend_word)  # raises when absent or past the slots
    res = invert(net, z0, ctx, plan, sched, CaptureOptions(kv=req.method in KV_METHODS))
    traj = res.trajectory
    record: dict[int, np.ndarray] = {}
    report = EditReport(method=req.method, reconstructed=reconstruct)

    # The checks above leave a mask source on a fec-noise edit alone.
    method, mask = req.method, user_mask
    if method == "fec-ref" and not reconstruct:
        # fec-ref has no edit sampler of its own: its edit is plain direct descent.
        method = "direct"
    elif req.blend_word is not None:

        def mask(t, trace):
            m = derive_mask(trace, req.blend_word, edit_ctx.cond, t)
            if not m.any():
                report.mask_degenerate_steps.append(t)
            return m

    out = sample_method(
        net, res, method, edit_ctx, plan, sched, req.layer_range,
        mask=mask, record=record, route="edit",
    )
    report.mask_degenerate_steps.sort()
    if method == "fec-noise" and not reconstruct:
        recon = sample_fec_noise(net, traj, ctx, plan, sched, route="edit")
        if user_mask is not None:
            report.locality = _locality(out, recon, user_mask)
        else:
            report.locality = {"reconstruction_mse": latent_loss(out, recon)}

    report.per_step_losses = trajectory_loss_curve(record, traj)
    return out, report
