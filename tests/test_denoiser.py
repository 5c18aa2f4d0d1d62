import numpy as np
import pytest

from fecdiff.denoiser import (
    AttentionTrace,
    DenoiserConfig,
    GaussianDenoiser,
    KVCache,
    KVInject,
    LayerRange,
    NonFiniteError,
    PromptEmbedding,
    ToyDenoiser,
    _gelu,
    _layer_norm,
    _sinusoidal,
    embed_prompt,
)
from fecdiff.sampling import CaptureOptions, GuidanceContext, invert, sample_fec_kv_reuse
from fecdiff.schedule import build_schedule


def _latent(seed=0, shape=(4, 16, 16)):
    return np.random.default_rng(seed).standard_normal(shape)


# ---------------------------------------------------------------- embedder


def test_embed_prompt_deterministic():
    a = embed_prompt("a red fox", 0)
    b = embed_prompt("a red fox", 0)
    assert np.array_equal(a.tokens, b.tokens)
    c = embed_prompt("a red fox", 1)
    assert not np.array_equal(a.tokens, c.tokens)


def test_embed_prompt_word_identity_across_prompts():
    a = embed_prompt("red fox", 0)
    b = embed_prompt("blue fox", 0)
    assert np.array_equal(a.tokens[1], b.tokens[1])  # same word, same slot value
    assert not np.array_equal(a.tokens[0], b.tokens[0])


def test_embed_prompt_padding_and_null():
    empty = embed_prompt("", 0)
    short = embed_prompt("cat", 0)
    # Unused slots carry the pad vector of the null embedding.
    assert np.array_equal(short.tokens[1:], empty.tokens[1:])
    assert np.array_equal(empty.tokens[0], empty.tokens[5])
    assert not np.array_equal(short.tokens[0], empty.tokens[0])


def test_word_index():
    e = embed_prompt("the quick brown fox", 0)
    assert e.word_index("brown") == 2
    with pytest.raises(ValueError):
        e.word_index("dog")
    long = embed_prompt("a b c d e f g h i j", 0)
    with pytest.raises(ValueError):
        long.word_index("j")  # beyond the 8 token slots


def test_embedding_immutable():
    e = embed_prompt("cat", 0)
    with pytest.raises(ValueError):
        e.tokens[0, 0] = 1.0


# ---------------------------------------------------------------- toy net


def test_predict_deterministic_and_shaped(net, cond):
    z = _latent(0)
    a = net.predict(z, 500, cond)
    b = net.predict(z, 500, cond)
    assert a.shape == z.shape
    assert a.tobytes() == b.tobytes()


def test_predict_depends_on_inputs(net, cond, null):
    z = _latent(0)
    base = net.predict(z, 500, cond)
    assert not np.array_equal(base, net.predict(z, 400, cond))
    assert not np.array_equal(base, net.predict(z + 0.1, 500, cond))
    assert not np.array_equal(base, net.predict(z, 500, null))


def test_predict_input_validation(net, cond):
    with pytest.raises(ValueError):
        net.predict(_latent(0, (4, 8, 8)), 500, cond)
    z = _latent(0)
    z[0, 0, 0] = np.nan
    with pytest.raises(NonFiniteError):
        net.predict(z, 500, cond)
    with pytest.raises(ValueError):
        net.predict(_latent(0), 500, PromptEmbedding(np.zeros((4, 64)), "x"))


def test_weights_depend_on_init_seed(cond):
    z = _latent(0)
    a = ToyDenoiser(DenoiserConfig(init_seed=0)).predict(z, 500, cond)
    b = ToyDenoiser(DenoiserConfig(init_seed=1)).predict(z, 500, cond)
    assert not np.array_equal(a, b)


def test_capture_is_observation_only(net, cond):
    z = _latent(1)
    plain = net.predict(z, 500, cond)
    cache = KVCache()
    captured = net.predict(z, 500, cond, kv=cache)
    assert plain.tobytes() == captured.tobytes()
    assert len(cache) == net.config.layer_count
    k, v = cache.fetch(500, 0)
    assert k.shape == v.shape == (net.grid_shape[0] * net.grid_shape[1], net.config.model_dim)


def test_capture_duplicate_guard():
    net = ToyDenoiser(DenoiserConfig(layer_count=2))
    cond = embed_prompt("x", 0)
    z = _latent(0)
    cache = KVCache()
    net.predict(z, 500, cond, kv=cache)
    with pytest.raises(ValueError):
        net.predict(z, 500, cond, kv=cache)


def test_inject_at_capture_point_is_identity(net, cond):
    # Injecting K/V captured at exactly (z, t) reproduces the plain output.
    z = _latent(2)
    cache = KVCache()
    plain = net.predict(z, 500, cond, kv=cache)
    layers = LayerRange(0, net.config.layer_count)
    injected = net.predict(z, 500, cond, kv=KVInject(cache, layers))
    v_only = net.predict(z, 500, cond, kv=KVInject(cache, layers, v_only=True))
    assert plain.tobytes() == injected.tobytes()
    assert plain.tobytes() == v_only.tobytes()


def test_inject_elsewhere_changes_output(net, cond):
    z = _latent(2)
    cache = KVCache()
    net.predict(z, 500, cond, kv=cache)
    other = _latent(3)
    layers = LayerRange(0, net.config.layer_count)
    plain = net.predict(other, 500, cond)
    injected = net.predict(other, 500, cond, kv=KVInject(cache, layers))
    assert not np.array_equal(plain, injected)
    # Empty layer range leaves the evaluation untouched.
    none = net.predict(other, 500, cond, kv=KVInject(cache, LayerRange(0, 0)))
    assert plain.tobytes() == none.tobytes()


def test_inject_validation(net, cond):
    z = _latent(0)
    with pytest.raises(ValueError):
        net.predict(z, 500, cond, kv=KVInject(KVCache(), LayerRange(0, 99)))
    with pytest.raises(KeyError):
        net.predict(z, 500, cond, kv=KVInject(KVCache(), LayerRange(0, 1)))


def test_trace_rows_are_distributions(net, cond):
    z = _latent(0)
    trace = AttentionTrace()
    net.predict(z, 500, cond, trace_to=trace)
    assert sorted(trace.maps) == [(500, layer) for layer in range(net.config.layer_count)]
    w = trace.maps[(500, 0)]
    assert w.shape == (*net.grid_shape, net.config.n_tokens)
    assert np.allclose(w.sum(axis=-1), 1.0, atol=1e-12)
    assert trace.token_map(500, 2).shape == net.grid_shape
    with pytest.raises(KeyError):
        trace.token_map(400, 0)


def test_stacked_trace_holds_each_rows_maps(net, cond):
    z = _latent(0)
    single, stacked = AttentionTrace(), AttentionTrace()
    net.predict(z, 500, cond, trace_to=single)
    net.predict(np.stack([z, z]), 500, cond, trace_to=stacked)
    assert stacked.maps.keys() == single.maps.keys()
    for key, maps in stacked.maps.items():
        assert maps.shape == (2, *net.grid_shape, net.config.n_tokens)
        assert all(row.tobytes() == single.maps[key].tobytes() for row in maps)
    token = single.token_map(500, 2)
    assert all(row.tobytes() == token.tobytes() for row in stacked.token_map(500, 2))


def test_predict_batch_rows_bit_identical(net, cond):
    zs = _latent(4, (16, 4, 16, 16))
    singles = [net.predict(z, 300, cond) for z in zs]
    for batch in (1, 2, 4, 16):
        rows = net.predict(zs[:batch], 300, cond)
        assert rows.shape == (batch, 4, 16, 16)
        assert all(r.tobytes() == s.tobytes() for r, s in zip(rows, singles))
    for shape in ((2, 4, 8, 8), (1, 2, 4, 16, 16)):
        with pytest.raises(ValueError):
            net.predict(_latent(0, shape), 300, cond)


def test_call_count_routes(cond):
    net = ToyDenoiser(DenoiserConfig(layer_count=2))
    z = _latent(0)
    net.predict(z, 500, cond, route="inversion")
    net.predict(z, 500, cond, route="inversion")
    net.predict(z, 500, cond, route="edit")
    assert net.call_counts["inversion"] == 2
    assert net.call_counts["edit"] == 1
    assert net.call_counts["reconstruction"] == 0


def test_layer_norm_is_byte_equal_to_the_np_var_form():
    rng = np.random.default_rng(0)
    for offset in (0.0, 1e-3, 3.0, -1e4, 1e8):
        for scale in (1e-6, 1e-2, 1.0, 1e3):
            x = offset + scale * rng.standard_normal((64, 128))
            mu = x.mean(axis=-1, keepdims=True)
            var = x.var(axis=-1, keepdims=True)
            reference = (x - mu) / np.sqrt(var + 1e-5)
            assert _layer_norm(x).tobytes() == reference.tobytes()


def _gelu_pow(x):
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)))


def test_gelu_matches_the_pow_form():
    x = np.linspace(-10.0, 10.0, 20001)
    assert np.max(np.abs(_gelu(x) - _gelu_pow(x))) <= 1e-15
    # Past the cube's overflow both forms saturate to the same values.
    with np.errstate(over="ignore"):
        for big in (1e110, 1e200):
            x = np.array([big, -big])
            assert _gelu(x).tobytes() == _gelu_pow(x).tobytes()


# ------------------------------------------------- reference forward


def _ref_layer_norm(x):
    d = x - x.mean(axis=-1, keepdims=True)
    var = (d * d).mean(axis=-1, keepdims=True)
    return d / np.sqrt(var + 1e-5)


def _ref_gelu(x):
    c = float(np.sqrt(2.0 / np.pi))  # a Python float keeps float32 in float32
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * (x * x * x))))


def _ref_softmax(x):
    x = x - x.max(axis=-1, keepdims=True)
    e = np.exp(x)
    return e / e.sum(axis=-1, keepdims=True)


def _reference_predict(net, z, t, cond, kv=None, trace_to=None):
    """The forward pass written out of place, one expression per step:
    ``predict`` runs the same operations in the same order in place, so it
    must give the same bytes. The network computes in float32: the patches,
    the time embedding and the prompt tokens are cast in, the noise out."""
    cfg = net.config
    c, h, w = cfg.latent_shape
    p = cfg.patch_size
    gh, gw = net.grid_shape
    nh = cfg.head_count
    dh = cfg.model_dim // nh
    scale = float(np.sqrt(dh))

    def heads(x):
        return x.reshape(x.shape[0], nh, dh).transpose(1, 0, 2)

    def attend(q, k, v):
        weights = _ref_softmax(heads(q) @ heads(k).transpose(0, 2, 1) / scale)
        out = weights @ heads(v)
        return out.transpose(1, 0, 2).reshape(out.shape[1], nh * dh), weights

    x = z.reshape(c, gh, p, gw, p).transpose(1, 3, 0, 2, 4).reshape(gh * gw, c * p * p)
    tokens = cond.tokens.astype(np.float32)
    hdd = x.astype(np.float32) @ net.w_in
    hdd = hdd + _sinusoidal(float(t), cfg.model_dim).astype(np.float32) @ net.w_time
    hdd = hdd + net.pos
    for layer, blk in enumerate(net.blocks):
        a = _ref_layer_norm(hdd)
        q, k, v = a @ blk["wq"], a @ blk["wk"], a @ blk["wv"]
        if kv is not None:
            k, v = kv(t, layer, k, v)
        out, _ = attend(q, k, v)
        hdd = hdd + out @ blk["wo"]
        a = _ref_layer_norm(hdd)
        out, weights = attend(a @ blk["cq"], tokens @ blk["ck"], tokens @ blk["cv"])
        if trace_to is not None:
            trace_to(t, layer, weights.mean(axis=0).reshape(gh, gw, -1))
        hdd = hdd + out @ blk["co"]
        a = _ref_layer_norm(hdd)
        hdd = hdd + _ref_gelu(a @ blk["w1"]) @ blk["w2"]
    out = _ref_layer_norm(hdd) @ net.w_out
    return out.reshape(gh, gw, c, p, p).transpose(2, 0, 3, 1, 4).reshape(c, h, w).astype(np.float64)


def _entries(cache):
    return {key: (k.tobytes(), v.tobytes()) for key, (k, v) in cache.entries.items()}


@pytest.mark.parametrize(
    "config",
    [
        DenoiserConfig(),
        DenoiserConfig(model_dim=48, head_count=3),
    ],
    ids=["default", "dim48-3heads"],
)
def test_predict_matches_the_reference_forward(config):
    net = ToyDenoiser(config)
    cond = embed_prompt("a photo of a cat", 0)
    L = net.config.layer_count
    rng = np.random.default_rng(7)
    for t in (999, 500, 20):
        z_src = rng.standard_normal(config.latent_shape)
        z = rng.standard_normal(config.latent_shape) * (1.0 + t / 100)

        got, ref = KVCache(), KVCache()
        seen = []

        def capture(t, layer, k, v):
            seen.append((k.dtype, v.dtype))
            return got(t, layer, k, v)

        out = net.predict(z_src, t, cond, kv=capture)
        assert out.dtype == np.float64
        assert out.tobytes() == _reference_predict(net, z_src, t, cond, ref).tobytes()
        assert seen == [(np.float32, np.float32)] * L
        assert all(a.dtype == np.float64 for pair in got.entries.values() for a in pair)
        assert _entries(got) == _entries(ref)

        trace, ref_trace = AttentionTrace(), AttentionTrace()
        out = net.predict(z, t, cond, trace_to=trace)
        assert out.tobytes() == _reference_predict(net, z, t, cond, trace_to=ref_trace).tobytes()
        assert trace.maps.keys() == ref_trace.maps.keys()
        assert all(trace.maps[key].tobytes() == ref_trace.maps[key].tobytes() for key in trace.maps)

        for hook in (
            KVInject(got, LayerRange(0, L)),
            KVInject(got, LayerRange(1, L)),
            KVInject(got, LayerRange(0, L), v_only=True),
        ):
            out = net.predict(z, t, cond, kv=hook)
            assert out.tobytes() == _reference_predict(net, z, t, cond, hook).tobytes()


def test_predict_leaves_inputs_and_cached_kv_unchanged(net, sched, plan10):
    ctx = GuidanceContext(7.5, embed_prompt("a cat on a mat", 0), embed_prompt("", 0))
    edit_ctx = GuidanceContext(7.5, embed_prompt("a dog on a mat", 0), embed_prompt("", 0))
    res = invert(net, _latent(5), ctx, plan10, sched, CaptureOptions(kv=True))
    z_T = res.trajectory[plan10.timesteps[0]]
    before = (
        z_T.tobytes(),
        [e.tokens.tobytes() for e in (ctx.cond, ctx.uncond, edit_ctx.cond)],
        _entries(res.kv_cache),
        _entries(res.kv_cache_uncond),
    )
    for v_only in (False, True):
        sample_fec_kv_reuse(
            net, z_T, res.kv_cache, edit_ctx, plan10, sched, cache_uncond=res.kv_cache_uncond,
            v_only=v_only,
        )
    after = (
        z_T.tobytes(),
        [e.tokens.tobytes() for e in (ctx.cond, ctx.uncond, edit_ctx.cond)],
        _entries(res.kv_cache),
        _entries(res.kv_cache_uncond),
    )
    assert after == before


# ---------------------------------------------------------------- gaussian


def test_gaussian_denoiser_matches_regression_oracle():
    # For z_t = sqrt(ab)*x0 + sqrt(1-ab)*e with x0 ~ N(m, s^2), the
    # posterior-mean noise E[e | z_t] is linear in z_t; fit it by least
    # squares on forward samples and compare against the closed form.
    sched = build_schedule("scaled-linear-beta", 1000)
    m, s, t = 1.5, 0.7, 600
    ab = sched.ab(t)
    rng = np.random.default_rng(0)
    n = 400_000
    x0 = m + s * rng.standard_normal(n)
    e = rng.standard_normal(n)
    zt = np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * e
    slope, intercept = np.polyfit(zt, e, 1)

    den = GaussianDenoiser(sched, mean=m, std=s)
    probe = np.array([-1.0, 0.0, 2.0, 5.0])
    got = den.predict(probe, t)
    assert np.allclose(got, slope * probe + intercept, atol=5e-3)


def test_gaussian_denoiser_point_mass():
    sched = build_schedule("scaled-linear-beta", 1000)
    den = GaussianDenoiser(sched, mean=2.0, std=0.0)
    z = np.array([3.0])
    t = 500
    ab = sched.ab(t)
    # With a point mass the noise is read off the forward process exactly.
    expected = (z - np.sqrt(ab) * 2.0) / np.sqrt(1.0 - ab)
    assert np.allclose(den.predict(z, t), expected, rtol=1e-14)


def test_gaussian_denoiser_rejects_hooks():
    sched = build_schedule("scaled-linear-beta", 1000)
    den = GaussianDenoiser(sched)
    with pytest.raises(ValueError):
        den.predict(np.zeros(3), 10, kv=KVCache())
    with pytest.raises(NonFiniteError):
        den.predict(np.array([np.inf]), 10)
