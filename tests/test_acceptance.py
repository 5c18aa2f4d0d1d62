"""Acceptance suite: twelve criteria, one printed PASS/FAIL line each.

Each criterion is an exactness property, an oracle comparison, or a
statistical trend over seeds; tolerances are pinned in the assertions.
Verdict lines are emitted with output capture suspended so they appear
on the terminal in any pytest mode.
"""

import time

import numpy as np
import pytest

from fecdiff.cli import main as cli_main
from fecdiff.denoiser import GaussianDenoiser, embed_prompt
from fecdiff.editing import EditRequest, run_edit
from fecdiff.harness import (
    ExperimentConfig,
    check_batch_invariance,
    generate_synthetic_latent,
    reconstruct_once,
    report_timing,
    run_sweep,
)
from fecdiff.metrics import latent_loss, psnr, ssim, trajectory_loss_curve
from fecdiff.sampling import (
    GuidanceContext,
    cfg_combine,
    ddim_invert_step,
    ddim_step,
    desired_noise,
    invert,
    sample_direct,
    sample_method,
)

PROMPT = "a photo of a cat"
SEEDS = tuple(range(10))
GUIDANCES = (1.0, 5.0, 7.5)


_CAPTURE_MANAGER = None


@pytest.fixture(autouse=True)
def _track_capture_manager(request):
    global _CAPTURE_MANAGER
    _CAPTURE_MANAGER = request.config.pluginmanager.getplugin("capturemanager")


def _verdict(number: int, name: str, ok: bool, detail: str = ""):
    line = f"acceptance {number:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    if _CAPTURE_MANAGER is not None:
        with _CAPTURE_MANAGER.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def direct_losses(net, sched, plan50):
    """Direct-sampling reconstruction loss and per-step record for every
    (seed, guidance) pair, shared across the trend criteria."""
    out = {}
    for seed in SEEDS:
        z0 = generate_synthetic_latent(seed, "gaussian")
        for scale in GUIDANCES:
            record = {}
            recon, traj = reconstruct_once(
                net, sched, plan50, z0, "direct", PROMPT, scale, scale, record=record
            )
            out[(seed, scale)] = {
                "loss": latent_loss(z0, recon),
                "curve": trajectory_loss_curve(record, traj),
            }
    return out


def test_criterion_01_fec_ref_exactness(net, sched, plan50):
    ok = True
    worst = 0.0
    for scale in GUIDANCES:
        t0 = time.perf_counter()
        z0 = generate_synthetic_latent(0, "gaussian")
        recon, _ = reconstruct_once(net, sched, plan50, z0, "fec-ref", PROMPT, scale, scale)
        elapsed = time.perf_counter() - t0
        loss = latent_loss(z0, recon)
        worst = max(worst, loss)
        ok &= recon.tobytes() == z0.tobytes() and loss < 1e-12 and elapsed < 5.0
    _verdict(1, "fec-ref exactness", ok, f"max loss {worst:.3g}")


def test_criterion_02_fec_noise_machine_precision(net, sched, plan50):
    from fecdiff.denoiser import DenoiserConfig, ToyDenoiser

    rng = np.random.default_rng(20260826)
    words = "cat dog tree river castle photo painting sketch night storm".split()
    t0 = time.perf_counter()
    worst = 0.0
    cases = 0
    for scale in GUIDANCES:
        for _ in range(10):
            net_i = ToyDenoiser(DenoiserConfig(init_seed=int(rng.integers(1000))))
            prompt = " ".join(rng.choice(words, size=4))
            z0 = generate_synthetic_latent(int(rng.integers(1000)), "gaussian")
            recon, _ = reconstruct_once(
                net_i, sched, plan50, z0, "fec-noise", prompt, scale, scale
            )
            worst = max(worst, latent_loss(z0, recon))
            cases += 1
    elapsed = time.perf_counter() - t0
    ok = cases == 30 and worst < 1e-12 and elapsed < 120.0
    _verdict(2, "fec-noise machine precision", ok,
             f"30 cases, max loss {worst:.3g}, {elapsed:.1f}s")


def test_criterion_03_algebraic_roundtrips(sched):
    rng = np.random.default_rng(0)
    z = rng.standard_normal((4, 16, 16))
    eps = rng.standard_normal((4, 16, 16))
    target = rng.standard_normal((4, 16, 16))
    ok = True
    for t, t_prev in ((1000, 980), (500, 480), (20, 0)):
        back = ddim_step(ddim_invert_step(z, eps, t_prev, t, sched), eps, t, t_prev, sched)
        ok &= float(np.max(np.abs(back - z))) < 1e-12
        e = desired_noise(z, target, t, t_prev, sched)
        ok &= float(np.max(np.abs(ddim_step(z, e, t, t_prev, sched) - target))) < 1e-12
    # fec-noise's blend of guided noise is Eq. 13's blend of unconditional
    # noise with the one that guides to the desired noise, then guidance.
    m = rng.random((4, 16, 16))
    for scale in (0.0, 2.0, 7.5):
        u_des = (target - scale * z) / (1.0 - scale)
        eq13 = cfg_combine(z, m * eps + (1.0 - m) * u_des, scale)
        blend = m * cfg_combine(z, eps, scale) + (1.0 - m) * target
        ok &= float(np.max(np.abs(eq13 - blend))) < 1e-12
    ok &= cfg_combine(z, eps, 1.0).tobytes() == z.tobytes()
    _verdict(3, "algebraic roundtrips", ok)


def test_criterion_04_guidance_sensitivity_trend(net, sched, plan50, direct_losses):
    monotone = sum(
        direct_losses[(s, 1.0)]["loss"]
        <= direct_losses[(s, 5.0)]["loss"]
        <= direct_losses[(s, 7.5)]["loss"]
        for s in SEEDS
    )
    z0 = generate_synthetic_latent(0, "gaussian")
    floor = []
    for inv_scale in GUIDANCES:
        recon, _ = reconstruct_once(net, sched, plan50, z0, "direct", PROMPT, inv_scale, 7.5)
        floor.append(latent_loss(z0, recon))
    ok = monotone >= 8 and all(loss > 0.01 for loss in floor)
    _verdict(4, "guidance sensitivity trend", ok,
             f"monotone {monotone}/10, min fixed-omega loss {min(floor):.3g}")


def test_criterion_05_error_growth_curve(net, sched, plan50, direct_losses):
    growing = 0
    for seed in SEEDS:
        values = [v for _, v in direct_losses[(seed, 7.5)]["curve"]]
        steps_up = sum(1 for a, b in zip(values, values[1:]) if b >= a - 1e-12)
        growing += steps_up >= 0.9 * (len(values) - 1)
    z0 = generate_synthetic_latent(0, "gaussian")
    record = {}
    _, traj = reconstruct_once(net, sched, plan50, z0, "fec-ref", PROMPT, 7.5, 7.5,
                               record=record)
    ref_flat = all(v == 0.0 for _, v in trajectory_loss_curve(record, traj))
    record = {}
    _, traj = reconstruct_once(net, sched, plan50, z0, "fec-noise", PROMPT, 7.5, 7.5,
                               record=record)
    noise_flat = all(v < 1e-12 for _, v in trajectory_loss_curve(record, traj))
    ok = growing >= 8 and ref_flat and noise_flat
    _verdict(5, "error growth curve", ok, f"growing {growing}/10")


def test_criterion_06_kv_reuse_suppression(net, sched, plan50, direct_losses):
    kv_wins = v_wins = 0
    for seed in SEEDS:
        z0 = generate_synthetic_latent(seed, "gaussian")
        direct = direct_losses[(seed, 7.5)]["loss"]
        kv, _ = reconstruct_once(net, sched, plan50, z0, "fec-kv-reuse", PROMPT, 7.5, 7.5)
        v, _ = reconstruct_once(net, sched, plan50, z0, "fec-v-reuse", PROMPT, 7.5, 7.5)
        kv_wins += latent_loss(z0, kv) < direct
        v_wins += latent_loss(z0, v) < direct
    ok = kv_wins >= 9 and v_wins >= 8
    _verdict(6, "kv-reuse suppression", ok, f"kv {kv_wins}/10, v-only {v_wins}/10")


def test_criterion_07_negative_prompt_equivalence(net, sched, plan50):
    z0 = generate_synthetic_latent(0, "gaussian")
    ctx = GuidanceContext(scale=1.0, cond=embed_prompt(PROMPT, 0), uncond=embed_prompt("", 0))
    res = invert(net, z0, ctx, plan50, sched)
    direct = sample_direct(net, res.trajectory[plan50.timesteps[0]], ctx, plan50, sched)
    neg = sample_method(net, res, "neg-prompt", ctx, plan50, sched)
    _verdict(7, "negative-prompt equivalence", direct.tobytes() == neg.tobytes())


def test_criterion_08_prompt_type_trend():
    cfg = ExperimentConfig(
        methods=("direct",),
        prompts=("", "a photo of a cat", "a painting of a storm at sea"),
        seeds=SEEDS,
        inv_guidances=(7.5,),
        samp_guidances=(7.5,),
        steps=50,
    )
    report = run_sweep(cfg)
    empty = {r["seed"]: r["latent_loss"] for r in report.rows if r["prompt_type"] == "empty"}
    pairs = [
        (empty[r["seed"]], r["latent_loss"])
        for r in report.rows if r["prompt_type"] == "non-empty"
    ]
    mean_empty = float(np.mean([a for a, _ in pairs]))
    mean_full = float(np.mean([b for _, b in pairs]))
    ok = len(pairs) >= 20 and mean_empty <= mean_full
    _verdict(8, "prompt-type trend", ok,
             f"{len(pairs)} pairs, empty {mean_empty:.3g} vs non-empty {mean_full:.3g}")


def test_criterion_09_batch_invariance(capsys):
    result = check_batch_invariance(
        ExperimentConfig(methods=("direct",), steps=50, seeds=(0,),
                         prompts=(PROMPT,)),
    )
    rc = cli_main(["check-batch", "--steps", "5"])
    capsys.readouterr()
    ok = result["passed"] and result["full_run_max_abs_diff"] == 0.0 and rc == 0
    _verdict(9, "batch invariance", ok)


def test_criterion_10_edit_locality(net, sched, plan50):
    z0 = generate_synthetic_latent(1, "blocks")
    mask = np.zeros((16, 16))
    mask[4:12, 4:12] = 1.0
    req = EditRequest("a cat on a mat", "a dog on a mat", "fec-noise")
    _, report = run_edit(net, sched, plan50, z0, req, user_mask=mask)
    outside_ok = report.locality["outside_mask_mse"] < 1e-10

    same_ref = EditRequest(PROMPT, PROMPT, "fec-ref")
    out_ref, rep_ref = run_edit(net, sched, plan50, z0, same_ref)
    same_noise = EditRequest(PROMPT, PROMPT, "fec-noise")
    out_noise, rep_noise = run_edit(net, sched, plan50, z0, same_noise)
    degenerate_ok = (
        rep_ref.reconstructed and out_ref.tobytes() == z0.tobytes()
        and rep_noise.reconstructed and latent_loss(z0, out_noise) < 1e-12
    )
    ok = outside_ok and degenerate_ok
    _verdict(10, "edit locality", ok,
             f"outside-mask mse {report.locality['outside_mask_mse']:.3g}")


def test_criterion_11_analytic_oracle(sched, plan50):
    # Point-mass data: the probability-flow field is eps = (xbar - mu) /
    # sigma_bar in the (z / sqrt(ab), sqrt(1 - ab) / sqrt(ab)) coordinates,
    # which the DDIM discretization integrates exactly, so a 50-step chain
    # and a 10000-substep Euler reference land on the same states.
    mu = 3.0
    den = GaussianDenoiser(sched, mean=mu, std=0.0)
    ctx = GuidanceContext(scale=1.0, cond=embed_prompt(PROMPT, 0), uncond=embed_prompt("", 0))
    z_T = np.random.default_rng(0).standard_normal((4, 16, 16))

    record = {}
    sample_direct(den, z_T, ctx, plan50, sched, record=record)

    def sigma_bar(t):
        ab = sched.ab(t)
        return np.sqrt((1.0 - ab) / ab)

    def reference_state(t_end):
        # Independent Euler integration of dxbar/dsigma = (xbar - mu)/sigma
        # on a fine grid from sigma(T) down to sigma(t_end).
        sigmas = np.linspace(sigma_bar(plan50.timesteps[0]), sigma_bar(t_end), 10_001)
        x = z_T / np.sqrt(sched.ab(plan50.timesteps[0]))
        for s_now, s_next in zip(sigmas, sigmas[1:]):
            x = x + (s_next - s_now) * (x - mu) / s_now
        return np.sqrt(sched.ab(t_end)) * x

    ok = True
    worst = 0.0
    for t_end in (plan50.timesteps[-1], 0):
        chain = record[t_end]
        ref = reference_state(t_end) if t_end > 0 else np.full_like(chain, mu)
        rel = float(np.linalg.norm(chain - ref) / np.linalg.norm(ref))
        worst = max(worst, rel)
        ok &= rel < 1e-6
    _verdict(11, "analytic oracle", ok, f"max relative error {worst:.3g}")


def test_criterion_12_metric_units_and_call_accounting():
    img = np.random.default_rng(0).standard_normal((16, 16))
    units_ok = (
        ssim(img, img) == pytest.approx(1.0, abs=1e-12)
        and psnr(img, img) == float("inf")
    )
    from test_metrics import _brute_force_ssim_tile

    x = np.random.default_rng(1).standard_normal((11, 11))
    y = x + 0.2 * np.random.default_rng(2).standard_normal((11, 11))
    peak = float(x.max() - x.min())
    window_ok = abs(ssim(x, y, peak) - _brute_force_ssim_tile(x, y, peak)) < 1e-9

    timing = report_timing(
        ExperimentConfig(methods=("fec-kv-reuse",), steps=10, seeds=(0,),
                         prompts=(PROMPT,), edit_prompts=("a photo of a dog",))
    )
    calls_ok = timing["fec-kv-reuse"]["calls"].get("reconstruction", 0) == 0
    ok = units_ok and window_ok and calls_ok
    _verdict(12, "metric units and call accounting", ok)
