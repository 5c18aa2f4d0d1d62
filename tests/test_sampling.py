import itertools
from collections import Counter

import numpy as np
import pytest

from fecdiff.denoiser import (
    ConfigError,
    DenoiserConfig,
    GaussianDenoiser,
    KVCache,
    KVInject,
    LayerRange,
    ToyDenoiser,
    embed_prompt,
)
from fecdiff.harness import ExperimentConfig, reconstruct_once, run_sweep
from fecdiff.io_formats import read_trajectory, write_trajectory
from fecdiff.sampling import (
    RECON_METHODS,
    CaptureOptions,
    GuidanceContext,
    InvertResult,
    NonFiniteError,
    Trajectory,
    _uncond_known,
    as_mask,
    cfg_combine,
    ddim_invert_step,
    ddim_step,
    desired_noise,
    guided_noise,
    invert,
    sample_direct,
    sample_fec_kv_reuse,
    sample_fec_noise,
    sample_fec_ref,
    sample_method,
)
from fecdiff.schedule import timestep_plan


def _latent(seed=0, shape=(4, 16, 16)):
    return np.random.default_rng(seed).standard_normal(shape)


def _ctx(scale, prompt="a photo of a cat"):
    return GuidanceContext(
        scale=scale, cond=embed_prompt(prompt, 0), uncond=embed_prompt("", 0)
    )


# ------------------------------------------------------------ algebra


def test_cfg_combine_scale_one_is_conditional():
    eps_c, eps_u = _latent(0), _latent(1)
    out = cfg_combine(eps_c, eps_u, 1.0)
    assert out.tobytes() == eps_c.tobytes()
    assert out is not eps_c


def test_cfg_combine_extrapolates():
    eps_c, eps_u = _latent(0), _latent(1)
    out = cfg_combine(eps_c, eps_u, 7.5)
    assert np.allclose(out, 7.5 * eps_c - 6.5 * eps_u, atol=1e-12)


def test_step_inversion_roundtrip(sched):
    z = _latent(0)
    eps = _latent(1)
    for t, t_prev in ((1000, 980), (500, 250), (20, 0)):
        down = ddim_step(z, eps, t, t_prev, sched)
        back = ddim_invert_step(down, eps, t_prev, t, sched)
        assert np.max(np.abs(back - z)) < 1e-12
        up = ddim_invert_step(z, eps, t_prev, t, sched)
        there = ddim_step(up, eps, t, t_prev, sched)
        assert np.max(np.abs(there - z)) < 1e-12


def test_step_argument_validation(sched):
    z, eps = _latent(0), _latent(1)
    with pytest.raises(ValueError):
        ddim_step(z, eps, 100, 100, sched)
    with pytest.raises(ValueError):
        ddim_step(z, eps, 100, 200, sched)
    with pytest.raises(ValueError):
        ddim_step(z, eps[0], 100, 50, sched)
    # A timestep below 0 is the schedule's to refuse, in every step function.
    for call in (lambda: ddim_step(z, eps, 100, -1, sched),
                 lambda: ddim_invert_step(z, eps, -1, 100, sched),
                 lambda: desired_noise(z, eps, 100, -1, sched)):
        with pytest.raises(ValueError, match=r"^timestep -1 out of range \[0, 1000\]$"):
            call()


def test_desired_noise_hits_target(sched):
    z_t = _latent(0)
    target = _latent(1)
    for t, t_prev in ((1000, 980), (40, 20), (20, 0)):
        eps = desired_noise(z_t, target, t, t_prev, sched)
        landed = ddim_step(z_t, eps, t, t_prev, sched)
        assert np.max(np.abs(landed - target)) < 1e-12


def test_guided_blend_is_eq13_blend():
    # Guidance is affine in the unconditional noise, so blending guided
    # noise with the desired noise is Eq. 13: blend the unconditional noise
    # with the one that guides to the desired noise, then guide.
    eps_c, eps_u, eps_des = _latent(0), _latent(1), _latent(2)
    m = np.random.default_rng(3).random(eps_c.shape)
    for scale in (0.0, 2.0, 7.5):
        u_des = (eps_des - scale * eps_c) / (1.0 - scale)
        eq13 = cfg_combine(eps_c, m * eps_u + (1.0 - m) * u_des, scale)
        blend = m * cfg_combine(eps_c, eps_u, scale) + (1.0 - m) * eps_des
        assert np.max(np.abs(eq13 - blend)) < 1e-12, scale


# ------------------------------------------------------------ inversion


def test_invert_covers_plan(net, sched, plan10):
    res = invert(net, _latent(0), _ctx(7.5), plan10, sched, seed=0)
    traj = res.trajectory
    assert traj.covers(plan10)
    assert set(traj.latents) == set(plan10.timesteps) | {0}
    assert traj.guidance == 7.5
    assert res.kv_cache is None and res.kv_cache_uncond is None
    with pytest.raises(KeyError):
        traj[123]


def test_invert_steps_match_the_gaussian_oracle(sched, plan10):
    # For data N(m, s^2 I) the noise is affine in the latent,
    # eps(z, t) = c_t (z - sqrt(ab_t) m) with c_t = sqrt(1 - ab_t) / (ab_t s^2 + 1 - ab_t),
    # and each inversion step evaluates it at (z_prev, t), then moves z_prev
    # from t_prev up to t.
    m, s = 0.5, 1.0
    traj = invert(GaussianDenoiser(sched, mean=m, std=s), _latent(0), _ctx(1.0), plan10,
                  sched).trajectory
    for t_prev, t in plan10.inversion_pairs():
        ab_p, ab_t = sched.ab(t_prev), sched.ab(t)
        z_prev = traj[t_prev]
        eps = np.sqrt(1 - ab_t) / (ab_t * s**2 + 1 - ab_t) * (z_prev - np.sqrt(ab_t) * m)
        z0_pred = (z_prev - np.sqrt(1 - ab_p) * eps) / np.sqrt(ab_p)
        z_t = np.sqrt(ab_t) * z0_pred + np.sqrt(1 - ab_t) * eps
        assert np.linalg.norm(traj[t] - z_t) <= 1e-12 * np.linalg.norm(z_t), t


def _flow(sched, m, s, x0, t):
    """The exact probability-flow map for data N(m, s^2 I), taking x0 at
    t = 0 to t: z_t = sqrt(ab_t) m + (sigma_t / s)(x0 - m), with
    sigma_t^2 = ab_t s^2 + 1 - ab_t."""
    ab = sched.ab(t)
    return np.sqrt(ab) * m + np.sqrt(ab * s**2 + 1 - ab) / s * (x0 - m)


def test_inversion_and_sampling_are_first_order_against_the_exact_flow(sched):
    # DDIM integrates the probability-flow ODE to first order, so each
    # doubling of the step count halves both errors.
    m, s = 0.5, 1.0
    net, ctx, x0 = GaussianDenoiser(sched, mean=m, std=s), _ctx(1.0), _latent(0)
    errors = []
    for steps in (25, 50, 100, 200):
        plan = timestep_plan(steps, 1000)
        top = plan.timesteps[0]
        exact = _flow(sched, m, s, x0, top)
        z_top = invert(net, x0, ctx, plan, sched).trajectory[top]
        out = sample_direct(net, exact, ctx, plan, sched)
        errors.append((np.linalg.norm(z_top - exact) / np.linalg.norm(exact),
                       np.linalg.norm(out - x0) / np.linalg.norm(x0)))
    for coarse, fine in zip(errors, errors[1:]):
        for a, b in zip(coarse, fine):
            assert 1.8 <= a / b <= 2.2, errors


def test_step_counts_that_do_not_divide_t_beat_fifty_against_the_exact_flow(sched):
    # A plan whose last timestep sat several strides above 0 took one long
    # last step, so 64 and 80 steps did worse than 50 (arXiv 2305.08891 on
    # timestep spacing). Spread strides end within one stride of 0.
    m, s = 0.5, 1.0
    net, ctx, x0 = GaussianDenoiser(sched, mean=m, std=s), _ctx(1.0), _latent(0)

    def endpoint_errors(steps):
        plan = timestep_plan(steps, 1000)
        top = plan.timesteps[0]
        exact = _flow(sched, m, s, x0, top)
        z_top = invert(net, x0, ctx, plan, sched).trajectory[top]
        out = sample_direct(net, exact, ctx, plan, sched)
        return np.array([np.linalg.norm(z_top - exact) / np.linalg.norm(exact),
                         np.linalg.norm(out - x0) / np.linalg.norm(x0)])

    at_50 = endpoint_errors(50)
    for steps in (64, 80, 160):
        assert np.all(endpoint_errors(steps) < at_50), steps


def test_invert_capture_fills_both_branch_caches(net, sched, plan10):
    # Capture hooks the inversion's own evaluations, so the path is the same
    # bytes with it as without, and so are the calls, except the
    # unconditional branch that a recorder forces at scale 1.
    z0 = _latent(0)
    for prompt, scale in itertools.product(("a cat", ""), (1.0, 7.5)):
        case, ctx = (prompt, scale), _ctx(scale, prompt)
        before = Counter(net.call_counts)
        plain = invert(net, z0, ctx, plan10, sched)
        between = Counter(net.call_counts)
        res = invert(net, z0, ctx, plan10, sched, CaptureOptions(kv=True))
        forced = plan10.steps if case == ("a cat", 1.0) else 0
        calls = (between - before)["inversion"] + forced
        assert Counter(net.call_counts) - between == Counter(capture=calls), case
        assert res.trajectory.latents.keys() == plain.trajectory.latents.keys(), case
        for t, z in plain.trajectory.latents.items():
            assert res.trajectory[t].tobytes() == z.tobytes(), (case, t)
        assert (res.kv_cache_uncond is res.kv_cache) == ctx.shared, case
        for cache in (res.kv_cache, res.kv_cache_uncond):
            assert len(cache) == plan10.steps * net.config.layer_count
            assert cache.timesteps() == list(plan10.timesteps)
        if ctx.shared:
            continue
        t0 = plan10.timesteps[0]
        # Layer 0 self-attention sees only the latent stream, so its K/V are
        # branch-independent; the prompt enters through cross-attention and
        # makes the branches diverge from layer 1 on.
        k_c0, _ = res.kv_cache.fetch(t0, 0)
        k_u0, _ = res.kv_cache_uncond.fetch(t0, 0)
        assert np.array_equal(k_c0, k_u0), case
        k_c1, _ = res.kv_cache.fetch(t0, 1)
        k_u1, _ = res.kv_cache_uncond.fetch(t0, 1)
        assert not np.array_equal(k_c1, k_u1), case


def _assert_cache_entries_equal(got: KVCache, ref: KVCache):
    assert got.entries.keys() == ref.entries.keys()
    for key, (k, v) in ref.entries.items():
        k_got, v_got = got.fetch(*key)
        assert (k_got.tobytes(), v_got.tobytes()) == (k.tobytes(), v.tobytes()), key


def test_aligned_capture_matches_sampler_inputs(net, sched, plan10):
    # Each branch's entry at (t, layer) is what that branch's evaluation
    # saw in the inversion step from t_prev up to t, at (traj[t_prev], t).
    ctx = _ctx(7.5)
    res = invert(net, _latent(0), ctx, plan10, sched, CaptureOptions(kv=True))
    for cache, emb in ((res.kv_cache, ctx.cond), (res.kv_cache_uncond, ctx.uncond)):
        ref = KVCache()
        for t_prev, t in plan10.inversion_pairs():
            net.predict(res.trajectory[t_prev], t, emb, kv=ref)
        _assert_cache_entries_equal(cache, ref)


# ------------------------------------------------------------ samplers


def test_fec_ref_reconstruct_bit_identical(net, sched, plan10):
    z0 = _latent(0)
    ctx = _ctx(7.5)
    traj = invert(net, z0, ctx, plan10, sched).trajectory
    record = {}
    out = sample_fec_ref(traj, plan10, record=record)
    assert out.tobytes() == z0.tobytes()
    assert tuple(record) == (*plan10.timesteps, 0)
    for t, z in record.items():
        assert z.tobytes() == traj[t].tobytes()


def test_every_method_is_one_walk_that_records_fresh_latents(net, sched):
    # Each method's walk records the start and every latent it steps to,
    # returns the last, and hands out no array of the trajectory it read.
    plan = timestep_plan(2, 1000)
    ctx = _ctx(7.5)
    res = invert(net, _latent(0), ctx, plan, sched, CaptureOptions(kv=True))
    saved = list(res.trajectory.latents.values())
    for method in RECON_METHODS:
        rec = {}
        out = sample_method(net, res, method, ctx, plan, sched, record=rec)
        assert tuple(rec) == (*plan.timesteps, 0), method
        assert out.tobytes() == rec[0].tobytes(), method
        for z in (out, *rec.values()):
            assert not any(np.shares_memory(z, s) for s in saved), method


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["end", "middle", "start"])
def test_a_non_finite_saved_path_fails_at_its_timestep(tmp_path, net, sched, plan10, where, bad):
    # A FECTRAJ1 file holds whatever floats it was given; each sampler that
    # reads the path refuses the first non-finite latent it meets, naming its t.
    ctx = _ctx(7.5)
    traj = invert(net, _latent(0), ctx, plan10, sched).trajectory
    t = {"end": 0, "middle": plan10.timesteps[5], "start": plan10.timesteps[0]}[where]
    traj[t][1, 2, 3] = bad
    write_trajectory(tmp_path / "path.fectraj", traj)
    read = read_trajectory(tmp_path / "path.fectraj")
    res = InvertResult(read)
    for sample in (lambda: sample_fec_ref(read, plan10),
                   lambda: sample_method(net, res, "fec-ref", ctx, plan10, sched),
                   lambda: sample_fec_noise(net, read, ctx, plan10, sched),
                   lambda: sample_method(net, res, "fec-noise", ctx, plan10, sched)):
        # fec-noise's move meets inf - inf, which numpy warns of, before the walk refuses it.
        with pytest.raises(NonFiniteError, match=rf" at t={t}$"), np.errstate(invalid="ignore"):
            sample()


def test_fec_noise_reconstruct_machine_precision(net, sched, plan10):
    z0 = _latent(0)
    for scale in (1.0, 5.0, 7.5):
        ctx = _ctx(scale)
        traj = invert(net, z0, ctx, plan10, sched).trajectory
        out = sample_fec_noise(net, traj, ctx, plan10, sched)
        assert float(np.mean((out - z0) ** 2)) < 1e-12


def test_fec_noise_requires_coverage(net, sched, plan10, plan50):
    z0 = _latent(0)
    ctx = _ctx(7.5)
    traj = invert(net, z0, ctx, plan10, sched).trajectory
    with pytest.raises(ValueError):
        sample_fec_noise(net, traj, ctx, plan50, sched)
    with pytest.raises(ValueError):
        sample_fec_ref(traj, plan50)


def test_neg_prompt_equals_direct_at_scale_one(net, sched, plan10):
    z0 = _latent(0)
    ctx = _ctx(1.0)
    res = invert(net, z0, ctx, plan10, sched)
    direct = sample_direct(net, res.trajectory[plan10.timesteps[0]], ctx, plan10, sched)
    neg = sample_method(net, res, "neg-prompt", ctx, plan10, sched)
    assert direct.tobytes() == neg.tobytes()


def test_neg_prompt_at_any_scale_is_direct_at_scale_one(net, sched, plan10):
    # With the prompt as its unconditional embedding, guidance cancels to
    # the conditional noise, so neg-prompt at 7.5 is direct at 1, not at 7.5.
    res = invert(net, _latent(0), _ctx(7.5, "a cat"), plan10, sched)
    z_start = res.trajectory[plan10.timesteps[0]]
    neg = sample_method(net, res, "neg-prompt", _ctx(7.5, "a cat"), plan10, sched)
    direct_1 = sample_direct(net, z_start, _ctx(1.0, "a cat"), plan10, sched)
    direct_75 = sample_direct(net, z_start, _ctx(7.5, "a cat"), plan10, sched)
    assert neg.tobytes() == direct_1.tobytes()
    assert neg.tobytes() != direct_75.tobytes()


def test_sample_method_refuses_an_input_its_method_does_not_read(net, sched, plan10):
    res = invert(net, _latent(0), _ctx(7.5), plan10, sched)
    box = np.zeros((16, 16))
    box[4:12, 4:12] = 1.0
    for method in ("direct", "neg-prompt", "fec-ref", "fec-kv-reuse", "fec-v-reuse"):
        with pytest.raises(ConfigError, match="^a mask or a blend word applies to fec-noise"
                           f" only, not {method}$") as exc:
            sample_method(net, res, method, _ctx(7.5), plan10, sched, mask=box)
        assert exc.value.fields == ("mask", "blend_word")
    layers = "^a layer range applies to fec-kv-reuse and fec-v-reuse only, not {}$"
    for method in ("direct", "neg-prompt", "fec-ref", "fec-noise"):
        with pytest.raises(ConfigError, match=layers.format(method)) as exc:
            sample_method(net, res, method, _ctx(7.5), plan10, sched, LayerRange(0, 2))
        assert exc.value.fields == ("layer_start", "layer_end")
    # The entry points that invert first refuse before they invert.
    fresh = ToyDenoiser(DenoiserConfig())
    with pytest.raises(ConfigError, match=layers.format("direct")) as exc:
        reconstruct_once(fresh, sched, plan10, _latent(0), "direct", "a cat", 7.5, 7.5, 0,
                         LayerRange(1, 3))
    assert exc.value.fields == ("layer_start", "layer_end")
    assert not fresh.call_counts
    with pytest.raises(ConfigError, match="^layer_end 99 exceeds layer_count 4$") as exc:
        reconstruct_once(fresh, sched, plan10, _latent(0), "fec-kv-reuse", "a cat", 7.5, 7.5,
                         0, LayerRange(0, 99))
    assert exc.value.fields == ("layer_end", "layer_count")
    assert not fresh.call_counts
    cfg = ExperimentConfig(methods=("direct", "fec-noise"), steps=2, layer_start=1, layer_end=3)
    with pytest.raises(ConfigError, match=layers.format("direct, fec-noise")) as exc:
        run_sweep(cfg)
    assert exc.value.fields == ("layer_start", "layer_end")


def test_kv_reuse_requires_cache_coverage(net, sched, plan10):
    z0 = _latent(0)
    ctx = _ctx(7.5)
    cache = KVCache()
    with pytest.raises(KeyError):
        sample_fec_kv_reuse(net, z0, cache, ctx, plan10, sched, cache_uncond=cache)
    # With no layer injected, only the up-front timestep check sees the gap.
    with pytest.raises(KeyError):
        sample_fec_kv_reuse(
            net, z0, cache, ctx, plan10, sched, LayerRange(0, 0), cache_uncond=cache
        )


def test_kv_reuse_requires_the_unconditional_cache(net, sched, plan10):
    # Injecting the conditional cache into both branches corrupts guidance,
    # so there is no fallback to it.
    with pytest.raises(TypeError, match="cache_uncond"):
        sample_fec_kv_reuse(net, _latent(0), KVCache(), _ctx(7.5), plan10, sched)


def test_kv_reuse_runs_and_differs_from_direct(net, sched, plan10):
    z0 = _latent(0)
    ctx = _ctx(7.5)
    res = invert(net, z0, ctx, plan10, sched, CaptureOptions(kv=True))
    z_start = res.trajectory[plan10.timesteps[0]]
    direct = sample_direct(net, z_start, ctx, plan10, sched)
    kv = sample_fec_kv_reuse(
        net, z_start, res.kv_cache, ctx, plan10, sched,
        cache_uncond=res.kv_cache_uncond,
    )
    v_only = sample_fec_kv_reuse(
        net, z_start, res.kv_cache, ctx, plan10, sched,
        cache_uncond=res.kv_cache_uncond, v_only=True,
    )
    assert not np.array_equal(direct, kv)
    assert not np.array_equal(kv, v_only)


class _PromptLog:
    """Forwards to a network, logging the prompt of every evaluation."""

    def __init__(self, net):
        self.net, self.config, self.prompts = net, net.config, Counter()

    def predict(self, z, t, cond, **kwargs):
        self.prompts[cond.source_text] += 1
        return self.net.predict(z, t, cond, **kwargs)


def test_fec_noise_zero_mask_evaluates_no_network(net, sched, plan10):
    z0 = _latent(0)
    for scale in (1.0, 7.5):
        ctx, edit_ctx = _ctx(scale), _ctx(scale, "a photo of a dog")
        traj = invert(net, z0, ctx, plan10, sched).trajectory
        log = _PromptLog(net)
        out = sample_fec_noise(log, traj, ctx, plan10, sched)
        assert float(np.mean((out - z0) ** 2)) < 1e-24
        for mask in (None, 0.0):
            sample_fec_noise(log, traj, edit_ctx, plan10, sched, mask)
        assert log.prompts == Counter()


def test_fec_noise_live_mask_evaluates_both_branches_every_step(net, sched, plan10):
    z0 = _latent(0)
    mask = np.zeros((16, 16))
    mask[4:12, 4:12] = 1.0
    for scale in (1.0, 7.5):
        ctx, edit_ctx = _ctx(scale), _ctx(scale, "a photo of a dog")
        traj = invert(net, z0, ctx, plan10, sched).trajectory
        outs = []
        # A mask function's traced conditional evaluation is the blend's own.
        for step_mask in (mask, lambda t, trace: mask):
            log = _PromptLog(net)
            outs.append(sample_fec_noise(log, traj, edit_ctx, plan10, sched, step_mask))
            # At scale 1 the live unconditional prediction has no weight.
            uncond_calls = 0 if scale == 1.0 else plan10.steps
            assert log.prompts == Counter({"a photo of a dog": plan10.steps, "": uncond_calls})
        assert outs[0].tobytes() == outs[1].tobytes()


def test_fec_noise_all_zero_array_mask_is_the_zero_mask(net, sched, plan10):
    z0 = _latent(0)
    for scale in (1.0, 7.5):
        ctx, edit_ctx = _ctx(scale), _ctx(scale, "a photo of a dog")
        traj = invert(net, z0, ctx, plan10, sched).trajectory
        zero = sample_fec_noise(net, traj, edit_ctx, plan10, sched, None)
        for mask in (np.zeros((16, 16)), 0.0):
            log = _PromptLog(net)
            out = sample_fec_noise(log, traj, edit_ctx, plan10, sched, mask)
            assert log.prompts == Counter()
            assert out.tobytes() == zero.tobytes()
        # A mask function pays a live mask's guided evaluation even when its
        # mask comes out all zero, and the step is still the desired noise.
        log = _PromptLog(net)
        out = sample_fec_noise(
            log, traj, edit_ctx, plan10, sched, lambda t, trace: np.zeros((16, 16))
        )
        uncond_calls = 0 if scale == 1.0 else plan10.steps
        assert log.prompts == Counter({"a photo of a dog": plan10.steps, "": uncond_calls})
        assert out.tobytes() == zero.tobytes()


def _shared_cache_inject(net, sched, plan10):
    empty = _ctx(7.5, "")
    cache = invert(net, _latent(0), empty, plan10, sched, CaptureOptions(kv=True)).kv_cache
    return cache, KVInject(cache, LayerRange(0, net.config.layer_count))


def test_guided_noise_skips_an_unconditional_evaluation_whose_result_is_known(
    net, sched, plan10
):
    z, t = _latent(3), plan10.timesteps[2]
    cond = embed_prompt("a photo of a cat", 0)
    _, inject = _shared_cache_inject(net, sched, plan10)
    cases = {
        "scale 1": (_ctx(1.0), None, None),
        "empty prompt": (_ctx(7.5, ""), None, None),
        "neg-prompt": (GuidanceContext(scale=7.5, cond=cond, uncond=cond), None, None),
        "shared-cache injection": (_ctx(7.5, ""), inject, inject),
    }
    for name, (ctx, kv, kv_u) in cases.items():
        assert ctx.scale == 1.0 or ctx.shared, name
        log = _PromptLog(net)
        got = guided_noise(log, z, t, ctx, kv=kv, kv_uncond=kv_u)
        assert sum(log.prompts.values()) == 1, name
        eps_c = net.predict(z, t, ctx.cond, kv=kv)
        eps_u = net.predict(z, t, ctx.uncond, kv=kv_u)
        assert got.tobytes() == cfg_combine(eps_c, eps_u, ctx.scale).tobytes(), name
        assert got.tobytes() == eps_c.tobytes(), name


def test_guided_noise_evaluates_an_unknown_unconditional_branch(net, sched, plan10):
    z, t = _latent(3), plan10.timesteps[2]
    cache, inject = _shared_cache_inject(net, sched, plan10)
    other = KVInject(cache, inject.layers)
    assert not _ctx(7.5).shared
    for ctx, kv, kv_u in (
        (_ctx(7.5), None, None),
        # Same bytes, different hook objects: not known to be the same.
        (_ctx(7.5, ""), inject, other),
    ):
        log = _PromptLog(net)
        guided_noise(log, z, t, ctx, kv=kv, kv_uncond=kv_u)
        assert sum(log.prompts.values()) == 2
    # A capture hook records what it sees, so it never shares, even at
    # scale 1 where the unconditional result has no weight.
    cap, cap_u = KVCache(), KVCache()
    log = _PromptLog(net)
    guided_noise(log, z, t, _ctx(1.0), kv=cap, kv_uncond=cap_u)
    assert sum(log.prompts.values()) == 2
    assert len(cap_u) == net.config.layer_count


def test_uncond_known_pairs_hooks_with_guidance_branches():
    inject = KVInject(KVCache(), LayerRange(0, 4))
    cache, cache_u = KVCache(), KVCache()
    # name: (prompt, conditional hook, unconditional hook, known at scales 1 and 7.5)
    cases = {
        "no hook": ("a photo of a cat", None, None, (True, False)),
        "shared inject": ("", inject, inject, (True, True)),
        "capture pair": ("a photo of a cat", cache, cache_u, (False, False)),
        "shared capture": ("", cache, cache, (True, True)),
        "capture on cond only": ("a photo of a cat", cache, None, (True, False)),
    }
    for name, (prompt, kv, kv_u, known) in cases.items():
        assert tuple(_uncond_known(_ctx(s, prompt), kv, kv_u) for s in (1.0, 7.5)) == known, name


def test_invert_under_shared_branches_captures_once(net, sched, plan10):
    before = Counter(net.call_counts)
    res = invert(net, _latent(0), _ctx(7.5, ""), plan10, sched, CaptureOptions(kv=True))
    assert Counter(net.call_counts) - before == Counter(capture=plan10.steps)
    assert res.kv_cache_uncond is res.kv_cache
    # The one cache holds what a separate unconditional capture records.
    ref = KVCache()
    for t_prev, t in plan10.inversion_pairs():
        net.predict(res.trajectory[t_prev], t, embed_prompt("", 0), kv=ref)
    _assert_cache_entries_equal(res.kv_cache, ref)


def _assert_rejected_before_any_call(net, sched, plan, mask, match):
    """fec-noise over a zero trajectory refuses ``mask`` with no network call."""
    latents = {t: np.zeros((4, 16, 16)) for t in (*plan.timesteps, 0)}
    traj = Trajectory(latents=latents, timesteps=plan.timesteps, guidance=7.5)
    log = _PromptLog(net)
    with pytest.raises(ValueError, match=match):
        sample_fec_noise(log, traj, _ctx(7.5), plan, sched, mask)
    assert log.prompts == Counter()


def test_array_mask_validation(net, sched, plan10):
    _assert_rejected_before_any_call(
        net, sched, plan10, np.array([[0.0, 2.0]]), r"lie in \[0, 1\]"
    )
    _assert_rejected_before_any_call(
        net, sched, plan10, np.zeros((0, 0)), r"mask is empty: shape \(0, 0\)"
    )
    assert np.array_equal(as_mask(np.array([[0.0, 1.0]])), [[0.0, 1.0]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_array_mask_rejects_non_finite_values(net, sched, plan10, bad):
    mask = np.zeros((16, 16))
    mask[3, 5] = bad
    _assert_rejected_before_any_call(net, sched, plan10, mask, "must be finite")


def test_trajectory_covers():
    traj = Trajectory(latents={0: np.zeros(1), 10: np.zeros(1)}, timesteps=(10,), guidance=1.0)
    from fecdiff.schedule import TimestepPlan

    assert traj.covers(TimestepPlan((10,)))
    assert not traj.covers(TimestepPlan((20,)))


def test_guidance_context_validation():
    with pytest.raises(ValueError):
        GuidanceContext(scale=float("nan"), cond=embed_prompt("a", 0), uncond=embed_prompt("", 0))
