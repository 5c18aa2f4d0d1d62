"""Diffusion inversion-and-sampling toolkit with trajectory correction.

DDIM inversion plus four samplers (direct descent and the reference-path,
desired-noise and K/V-injection corrections), each under the one guidance
context it is given; inversion and every descent step through one walk,
and K/V capture hooks the inversion's own guided evaluations.
``sample_method`` maps every method name, the negative-prompt baseline
included, to a sampler.
A toy attention denoiser with callable hooks on its self-attention K/V
and its cross-attention maps, with an analytic Gaussian oracle;
reconstruction metrics; and an experiment harness.
"""

from .denoiser import (
    AttentionTrace,
    DenoiserConfig,
    GaussianDenoiser,
    KVCache,
    KVInject,
    LayerRange,
    NonFiniteError,
    PromptEmbedding,
    ToyDenoiser,
    embed_prompt,
)
from .editing import EditRequest, derive_mask, run_edit
from .harness import (
    ExperimentConfig,
    SweepReport,
    check_batch_invariance,
    generate_synthetic_latent,
    report_timing,
    run_sweep,
)
from .metrics import latent_loss, psnr, ssim, trajectory_loss_curve
from .sampling import (
    RECON_METHODS,
    CaptureOptions,
    GuidanceContext,
    Trajectory,
    cfg_combine,
    ddim_invert_step,
    ddim_step,
    desired_noise,
    guidance_contexts,
    invert,
    sample_direct,
    sample_fec_kv_reuse,
    sample_fec_noise,
    sample_fec_ref,
    sample_method,
)
from .schedule import NoiseSchedule, TimestepPlan, build_schedule, timestep_plan

__version__ = "0.1.0"
