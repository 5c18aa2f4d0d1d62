from collections import Counter

import numpy as np
import pytest

from fecdiff.denoiser import KVCache, KVCapture, KVInject, LayerRange, embed_prompt
from fecdiff.sampling import (
    CaptureOptions,
    FixedMaskProvider,
    GuidanceContext,
    Trajectory,
    ZeroMaskProvider,
    cfg_combine,
    ddim_invert_step,
    ddim_step,
    desired_noise,
    desired_uncond,
    guided_noise,
    invert,
    sample_direct,
    sample_fec_kv_reuse,
    sample_fec_noise,
    sample_fec_ref,
    sample_neg_prompt_baseline,
)


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


def test_desired_noise_hits_target(sched):
    z_t = _latent(0)
    target = _latent(1)
    for t, t_prev in ((1000, 980), (40, 20), (20, 0)):
        eps = desired_noise(z_t, target, t, t_prev, sched)
        landed = ddim_step(z_t, eps, t, t_prev, sched)
        assert np.max(np.abs(landed - target)) < 1e-12


def test_desired_uncond_roundtrip():
    eps_t, eps_c = _latent(0), _latent(1)
    for scale in (0.0, 2.0, 7.5, -1.0):
        eps_u = desired_uncond(eps_t, eps_c, scale)
        assert np.max(np.abs(cfg_combine(eps_c, eps_u, scale) - eps_t)) < 1e-12
    with pytest.raises(ValueError):
        desired_uncond(eps_t, eps_c, 1.0)


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


def test_invert_capture_fills_both_branch_caches(net, sched, plan10):
    res = invert(net, _latent(0), _ctx(7.5), plan10, sched, CaptureOptions(kv=True))
    for cache in (res.kv_cache, res.kv_cache_uncond):
        assert len(cache) == plan10.steps * net.layer_count
        assert cache.timesteps() == list(plan10.timesteps)
    t0 = plan10.timesteps[0]
    # Layer 0 self-attention sees only the latent stream, so its K/V are
    # branch-independent; the prompt enters through cross-attention and
    # makes the branches diverge from layer 1 on.
    k_c0, _ = res.kv_cache.fetch(t0, 0)
    k_u0, _ = res.kv_cache_uncond.fetch(t0, 0)
    assert np.array_equal(k_c0, k_u0)
    k_c1, _ = res.kv_cache.fetch(t0, 1)
    k_u1, _ = res.kv_cache_uncond.fetch(t0, 1)
    assert not np.array_equal(k_c1, k_u1)


def test_aligned_capture_matches_sampler_inputs(net, sched, plan10):
    # At the inversion endpoint the sampler sees the same latent the
    # aligned capture pass recorded, so injection reproduces the live
    # evaluation bit-exactly.
    ctx = _ctx(7.5)
    res = invert(net, _latent(0), ctx, plan10, sched, CaptureOptions(kv=True))
    t = plan10.timesteps[0]
    z_t = res.trajectory[t]
    layers = LayerRange(0, net.layer_count)
    live = net.predict(z_t, t, ctx.cond)
    injected = net.predict(z_t, t, ctx.cond, kv=KVInject(res.kv_cache, layers))
    assert live.tobytes() == injected.tobytes()


def test_nonaligned_capture_differs(net, sched, plan10):
    ctx = _ctx(7.5)
    aligned = invert(net, _latent(0), ctx, plan10, sched, CaptureOptions(kv=True))
    raw = invert(
        net, _latent(0), ctx, plan10, sched, CaptureOptions(kv=True, aligned=False)
    )
    t = plan10.timesteps[0]
    k_a, _ = aligned.kv_cache.fetch(t, 0)
    k_r, _ = raw.kv_cache.fetch(t, 0)
    assert not np.array_equal(k_a, k_r)


# ------------------------------------------------------------ samplers


def test_fec_ref_reconstruct_bit_identical(net, sched, plan10):
    z0 = _latent(0)
    ctx = _ctx(7.5)
    traj = invert(net, z0, ctx, plan10, sched).trajectory
    record = {}
    out = sample_fec_ref(net, traj, ctx, plan10, sched, record=record)
    assert out.tobytes() == z0.tobytes()
    for t, z in record.items():
        assert z.tobytes() == traj[t].tobytes()


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
        sample_fec_ref(net, traj, ctx, plan50, sched)


def test_neg_prompt_equals_direct_at_scale_one(net, sched, plan10):
    z0 = _latent(0)
    ctx = _ctx(1.0)
    traj = invert(net, z0, ctx, plan10, sched).trajectory
    z_start = traj[plan10.timesteps[0]]
    direct = sample_direct(net, z_start, ctx, plan10, sched)
    neg = sample_neg_prompt_baseline(net, z_start, ctx, plan10, sched)
    assert direct.tobytes() == neg.tobytes()


def test_kv_reuse_requires_cache_coverage(net, sched, plan10):
    z0 = _latent(0)
    ctx = _ctx(7.5)
    with pytest.raises(KeyError):
        sample_fec_kv_reuse(net, z0, KVCache(), ctx, plan10, sched)


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


class _ScalarZeroMask:
    needs_trace = False

    def mask(self, t, trace, embedding):
        return 0.0


def test_fec_noise_zero_mask_evaluates_no_network(net, sched, plan10):
    z0 = _latent(0)
    for scale in (1.0, 7.5):
        ctx, edit_ctx = _ctx(scale), _ctx(scale, "a photo of a dog")
        traj = invert(net, z0, ctx, plan10, sched).trajectory
        log = _PromptLog(net)
        out = sample_fec_noise(log, traj, ctx, plan10, sched)
        assert float(np.mean((out - z0) ** 2)) < 1e-24
        for provider in (ZeroMaskProvider(), _ScalarZeroMask()):
            sample_fec_noise(log, traj, ctx, plan10, sched, provider, mode="edit",
                             edit_ctx=edit_ctx)
        assert log.prompts == Counter()


def test_fec_noise_live_mask_evaluates_both_branches_every_step(net, sched, plan10):
    z0 = _latent(0)
    mask = np.zeros((16, 16))
    mask[4:12, 4:12] = 1.0
    for scale in (1.0, 7.5):
        ctx, edit_ctx = _ctx(scale), _ctx(scale, "a photo of a dog")
        traj = invert(net, z0, ctx, plan10, sched).trajectory
        log = _PromptLog(net)
        sample_fec_noise(log, traj, ctx, plan10, sched, FixedMaskProvider(mask), mode="edit",
                         edit_ctx=edit_ctx)
        # At scale 1 the live unconditional prediction has no weight.
        uncond_calls = 0 if scale == 1.0 else plan10.steps
        assert log.prompts == Counter({"a photo of a dog": plan10.steps, "": uncond_calls})


class _TracedZeroMask:
    needs_trace = True

    def mask(self, t, trace, embedding):
        return np.zeros((16, 16))


def test_fec_noise_all_zero_array_mask_is_the_zero_mask(net, sched, plan10):
    z0 = _latent(0)
    for scale in (1.0, 7.5):
        ctx, edit_ctx = _ctx(scale), _ctx(scale, "a photo of a dog")
        traj = invert(net, z0, ctx, plan10, sched).trajectory
        zero = sample_fec_noise(net, traj, ctx, plan10, sched, ZeroMaskProvider(), mode="edit",
                                edit_ctx=edit_ctx)
        for provider in (FixedMaskProvider(np.zeros((16, 16))), FixedMaskProvider(0.0)):
            log = _PromptLog(net)
            out = sample_fec_noise(log, traj, ctx, plan10, sched, provider, mode="edit",
                                   edit_ctx=edit_ctx)
            assert log.prompts == Counter()
            assert out.tobytes() == zero.tobytes()
        # A provider that needs the trace pays the conditional evaluation
        # and nothing more when its mask comes out all zero.
        log = _PromptLog(net)
        out = sample_fec_noise(log, traj, ctx, plan10, sched, _TracedZeroMask(), mode="edit",
                               edit_ctx=edit_ctx)
        assert log.prompts == Counter({"a photo of a dog": plan10.steps})
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
    guided_noise(log, z, t, _ctx(1.0), kv=KVCapture(cap), kv_uncond=KVCapture(cap_u))
    assert sum(log.prompts.values()) == 2
    assert len(cap_u) == net.config.layer_count


def test_invert_under_shared_branches_captures_once(net, sched, plan10):
    before = Counter(net.call_counts)
    res = invert(net, _latent(0), _ctx(7.5, ""), plan10, sched, CaptureOptions(kv=True))
    assert Counter(net.call_counts) - before == Counter(
        inversion=plan10.steps, capture=plan10.steps
    )
    assert res.kv_cache_uncond is res.kv_cache
    # The one cache holds what a separate unconditional capture records.
    ref = KVCache()
    for t in plan10.timesteps:
        net.predict(res.trajectory[t], t, embed_prompt("", 0), kv=KVCapture(ref))
    assert ref.entries.keys() == res.kv_cache.entries.keys()
    for key, (k, v) in ref.entries.items():
        k_got, v_got = res.kv_cache.fetch(*key)
        assert (k_got.tobytes(), v_got.tobytes()) == (k.tobytes(), v.tobytes())


def test_fixed_mask_provider_validation():
    with pytest.raises(ValueError):
        FixedMaskProvider(np.array([[0.0, 2.0]]))
    p = FixedMaskProvider(np.array([[0.0, 1.0]]))
    assert np.array_equal(p.mask(10, None, None), [[0.0, 1.0]])


def test_trajectory_covers():
    traj = Trajectory(latents={0: np.zeros(1), 10: np.zeros(1)}, timesteps=(10,), guidance=1.0)
    from fecdiff.schedule import TimestepPlan

    assert traj.covers(TimestepPlan(steps=1, timesteps=(10,)))
    assert not traj.covers(TimestepPlan(steps=1, timesteps=(20,)))


def test_guidance_context_validation():
    with pytest.raises(ValueError):
        GuidanceContext(scale=float("nan"), cond=embed_prompt("a", 0), uncond=embed_prompt("", 0))
