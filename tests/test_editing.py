import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fecdiff import editing
from fecdiff.denoiser import (
    AttentionTrace,
    ConfigError,
    DenoiserConfig,
    LayerRange,
    ToyDenoiser,
    embed_prompt,
)
from fecdiff.editing import (
    EditRequest,
    _locality,
    derive_mask,
    run_edit,
)
from fecdiff.harness import generate_synthetic_latent, reconstruct_once
from fecdiff.metrics import latent_loss
from fecdiff.sampling import guidance_contexts, invert, sample_fec_noise
from fecdiff.schedule import timestep_plan


def test_edit_request_validation():
    with pytest.raises(ValueError):
        EditRequest("a cat", "a dog", method="direct")
    EditRequest("a cat", "a dog", method="fec-noise", blend_word="dog")
    # An input the method would ignore is refused, not dropped; run_edit
    # checks the blend word against the prompts.
    fault = "^{} applies to {} only, not {}$"
    for method in ("fec-ref", "fec-kv-reuse"):
        with pytest.raises(ConfigError, match=fault.format(
                "a mask or a blend word", "fec-noise", method)) as exc:
            EditRequest("a cat", "a dog", method=method, blend_word="dog")
        assert exc.value.fields == ("mask", "blend_word")
    for method in ("fec-noise", "fec-ref"):
        with pytest.raises(ConfigError, match=fault.format(
                "a layer range", "fec-kv-reuse and fec-v-reuse", method)) as exc:
            EditRequest("a cat", "a dog", method=method, layer_range=LayerRange(1, 2))
        assert exc.value.fields == ("layer_start", "layer_end")
    EditRequest("a cat", "a dog", method="fec-kv-reuse", layer_range=LayerRange(1, 2))


def _trace_with_map(t, col):
    """One-layer trace whose token column is the given flat map on the 8x8
    patch grid."""
    trace = AttentionTrace()
    weights = np.full((64, 8), 1e-3)
    weights[:, 1] = col
    trace(t, 0, weights.reshape(8, 8, 8))
    return trace


def test_derive_mask_thresholds_known_map():
    emb = embed_prompt("a dog", 0)
    col = np.zeros(64)
    col[5] = 1.0
    col[6] = 0.4
    col[7] = 0.2
    col[8] = 0.3
    trace = _trace_with_map(100, col)
    mask = derive_mask(trace, "dog", emb, 100)
    # Min-max normalization leaves the column unchanged here (min 0, max 1),
    # so cells at or above the 0.3 threshold become ones, each over its patch.
    cells = np.zeros((8, 8))
    cells.flat[[5, 6, 8]] = 1.0
    assert np.array_equal(mask, np.kron(cells, np.ones((2, 2))))
    assert mask.any()


def test_derive_mask_resizes_to_latent_grid():
    emb = embed_prompt("a dog", 0)
    col = np.zeros(64)
    col[0] = 1.0
    trace = _trace_with_map(100, col)
    mask = derive_mask(trace, "dog", emb, 100)
    assert mask.shape == (16, 16)
    # The hot patch cell covers its 2x2 block of latent pixels.
    assert mask[:2, :2].sum() == 4.0
    assert mask.sum() == 4.0


def test_derive_mask_degenerate_constant_map():
    emb = embed_prompt("a dog", 0)
    trace = _trace_with_map(100, np.full(64, 0.25))
    mask = derive_mask(trace, "dog", emb, 100)
    assert mask.shape == (16, 16)
    assert not mask.any()


@st.composite
def _maps(draw):
    """A flat map on the 8x8 patch grid, random or within two ulps of a
    constant."""
    if draw(st.booleans()):
        return draw(arrays(np.float64, 64, elements=st.floats(0.0, 1.0)))
    col = np.full(64, draw(st.floats(0.0, 1.0)))
    ulps = draw(arrays(np.int64, 64, elements=st.integers(0, 2)))
    for k in (1, 2):
        col[ulps >= k] = np.nextafter(col[ulps >= k], np.inf)
    return col


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_maps())
def test_derive_mask_is_all_zero_exactly_when_the_map_is_constant(col):
    trace = _trace_with_map(100, col)
    mask = derive_mask(trace, "dog", embed_prompt("a dog", 0), 100)
    assert mask.shape == (16, 16)
    assert mask.any() == (col.min() != col.max())


def test_derive_mask_from_a_live_trace(net, cond):
    z = np.random.default_rng(0).standard_normal(net.config.latent_shape)
    trace = AttentionTrace()
    net.predict(z, 500, cond, trace_to=trace)
    mask = derive_mask(trace, "cat", cond, 500)
    assert mask.shape == net.config.latent_shape[1:]
    # Each patch cell covers its 2x2 pixels, and the mask is not uniform.
    assert mask.any() and not mask.all()
    assert np.array_equal(mask, np.kron(mask[::2, ::2], np.ones((2, 2))))


def test_blend_word_mask_gets_a_trace_every_step(net, sched, plan10, monkeypatch):
    seen = {}
    real = editing.derive_mask

    def logged(trace, blend_word, embedding, t):
        seen[t] = sorted(layer for tt, layer in trace.maps if tt == t)
        return real(trace, blend_word, embedding, t)

    monkeypatch.setattr(editing, "derive_mask", logged)
    req = EditRequest("a cat on a mat", "a dog on a mat", "fec-noise", blend_word="dog")
    run_edit(net, sched, plan10, generate_synthetic_latent(1), req)
    every_layer = list(range(net.config.layer_count))
    assert seen == {t: every_layer for t in plan10.timesteps}


def test_blend_word_edit_reports_exactly_its_degenerate_steps(net, sched, plan10, monkeypatch):
    chosen = {plan10.timesteps[1], plan10.timesteps[4], plan10.timesteps[-1]}
    real = editing.derive_mask

    def degenerate_at_chosen(trace, blend_word, embedding, t):
        mask = real(trace, blend_word, embedding, t)
        return np.zeros_like(mask) if t in chosen else mask

    monkeypatch.setattr(editing, "derive_mask", degenerate_at_chosen)
    req = EditRequest("a cat on a mat", "a dog on a mat", "fec-noise", blend_word="dog")
    _, report = run_edit(net, sched, plan10, generate_synthetic_latent(1), req)
    assert report.mask_degenerate_steps == sorted(chosen)


def _blend_mask(cond, degenerate_at, keep):
    """The blend-word mask of "dog", times ``keep`` at step ``degenerate_at``."""

    def mask(t, trace):
        m = derive_mask(trace, "dog", cond, t)
        return m * keep if t == degenerate_at else m

    return mask


def test_stacked_blend_word_descent_matches_each_single_descent(net, sched):
    plan = timestep_plan(3, 1000)
    z0s = [generate_synthetic_latent(0, "gaussian"), generate_synthetic_latent(1, "blocks")]
    # At the middle step the first row's mask is zero and the second's is not.
    keep = np.array([0.0, 1.0])
    for g in (7.5, 1.0):
        ctx, edit_ctx = guidance_contexts(("a cat on a mat", "a dog on a mat"), g)
        stacked = invert(net, np.stack(z0s), ctx, plan, sched).trajectory
        mask = _blend_mask(edit_ctx.cond, plan.timesteps[1], keep[:, None, None])
        out = sample_fec_noise(net, stacked, edit_ctx, plan, sched, mask)
        for z0, row, k in zip(z0s, out, keep):
            single = invert(net, z0, ctx, plan, sched).trajectory
            mask = _blend_mask(edit_ctx.cond, plan.timesteps[1], k)
            expected = sample_fec_noise(net, single, edit_ctx, plan, sched, mask)
            assert row.tobytes() == expected.tobytes(), (g, k)


def test_identical_prompt_edit_degenerates_to_reconstruction(net, sched, plan10):
    z0 = generate_synthetic_latent(0, "blocks")
    for method, check in (
        ("fec-ref", lambda out: out.tobytes() == z0.tobytes()),
        ("fec-noise", lambda out: latent_loss(z0, out) < 1e-12),
    ):
        req = EditRequest("a cat on a mat", "a cat on a mat", method)
        out, report = run_edit(net, sched, plan10, z0, req)
        assert report.reconstructed
        assert check(out)


def test_identical_prompt_kv_edit_matches_reconstruction(net, sched, plan10):
    z0 = generate_synthetic_latent(0, "blocks")
    req = EditRequest("a cat on a mat", "a cat on a mat", "fec-kv-reuse")
    out, report = run_edit(net, sched, plan10, z0, req)
    recon, _ = reconstruct_once(
        net, sched, plan10, z0, "fec-kv-reuse", "a cat on a mat", 7.5, 7.5
    )
    assert report.reconstructed
    assert out.tobytes() == recon.tobytes()


@pytest.mark.parametrize(
    "source, edit, guidance, inside",
    [("a cat on a mat", "a dog on a mat", 7.5, 1.0),
     ("a cat on a mat", "a dog on a mat", 5.0, 1.0),
     ("a cat on a mat", "a dog on a mat", 1.0, 1.0),
     ("", "a dog on a mat", 7.5, 1.0),
     ("a cat on a mat", "", 7.5, 1.0),
     ("a cat on a mat", "a dog on a mat", 7.5, 0.375)],
    ids=["guidance-7.5", "guidance-5", "guidance-1", "empty-source", "empty-edit", "fractional"],
)
def test_box_mask_edit_locality(net, sched, plan10, source, edit, guidance, inside):
    z0 = generate_synthetic_latent(1, "blocks")
    mask = np.zeros((16, 16))
    mask[4:12, 4:12] = inside
    req = EditRequest(source, edit, "fec-noise", guidance=guidance)
    out, report = run_edit(net, sched, plan10, z0, req, user_mask=mask)
    # Where the mask is 0 every step takes the desired noise itself, so
    # there the edit is the mask-free reconstruction, byte for byte.
    (ctx,) = guidance_contexts((source,), guidance)
    recon = sample_fec_noise(net, invert(net, z0, ctx, plan10, sched).trajectory, ctx, plan10,
                             sched)
    keep = mask == 0.0
    assert out[:, keep].tobytes() == recon[:, keep].tobytes()
    assert report.locality["outside_mask_mse"] == 0.0
    assert report.locality["inside_mask_mse"] > 0.0


def test_stacked_box_edit_matches_each_single_edit(net, sched):
    plan = timestep_plan(2, 1000)
    box = np.zeros((16, 16))
    box[4:12, 4:12] = 1.0
    req = EditRequest("a cat on a mat", "a dog on a mat", "fec-noise")
    z0s = [generate_synthetic_latent(0, "gaussian"), generate_synthetic_latent(1, "blocks")]
    out, _ = run_edit(net, sched, plan, np.stack(z0s), req, user_mask=box)
    singles = [run_edit(net, sched, plan, z0, req, user_mask=box) for z0 in z0s]
    for row, (single, _) in zip(out, singles):
        assert row.tobytes() == single.tobytes()
    # A stack's locality averages over its latents.
    _, twice = run_edit(net, sched, plan, np.stack([z0s[0], z0s[0]]), req, user_mask=box)
    single_locality = singles[0][1].locality
    assert twice.locality.keys() == single_locality.keys()
    for key, value in single_locality.items():
        assert twice.locality[key] == pytest.approx(value, rel=1e-12, abs=0.0), key


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_masks_are_rejected_as_masks(net, sched, bad):
    mask = np.zeros((16, 16))
    mask[4:12, 4:12] = bad
    # Rejected as a mask, not later as a non-finite latent in sampling.
    req = EditRequest("a cat on a mat", "a dog on a mat", "fec-noise")
    z0 = generate_synthetic_latent(1, "blocks")
    with pytest.raises(ValueError, match="must be finite"):
        run_edit(net, sched, timestep_plan(2, 1000), z0, req, user_mask=mask)


@pytest.mark.parametrize(
    "method, edit, mask, layers, blend_word, fault, fields",
    [
        ("fec-kv-reuse", "a dog on a mat", np.ones((16, 16)), None, None,
         "a mask or a blend word applies to fec-noise only, not fec-kv-reuse",
         ("mask", "blend_word")),
        ("fec-ref", "a dog on a mat", np.ones((16, 16)), None, None,
         "a mask or a blend word applies to fec-noise only, not fec-ref", ("mask", "blend_word")),
        ("fec-noise", "a dog on a mat", np.ones((8, 8)), None, None,
         "user mask (8, 8) does not match the latent grid (16, 16)", ("mask",)),
        ("fec-kv-reuse", "a dog on a mat", None, LayerRange(0, 99), None,
         "layer_end 99 exceeds layer_count 4", ("layer_end", "layer_count")),
        ("fec-noise", "a dog on a mat", None, None, None,
         "a fec-noise edit needs a mask or a blend word, or it returns the source",
         ("edit_prompts",)),
        ("fec-noise", "a cat on a mat", np.ones((16, 16)), None, None,
         "a mask or a blend word needs an edit prompt that differs from the source",
         ("mask", "blend_word")),
        ("fec-noise", "a cat on a mat", None, None, "cat",
         "a mask or a blend word needs an edit prompt that differs from the source",
         ("mask", "blend_word")),
        ("fec-noise", "a dog on a mat", np.ones((16, 16)), None, "dog",
         "a user mask and a blend word are two mask sources; give one", ("blend_word", "mask")),
        ("fec-noise", "a bird on a mat", None, None, "dog",
         "word 'dog' not in prompt 'a bird on a mat'", ("blend_word",)),
        ("fec-noise", "a b c d e f g h dog", None, None, "dog",
         "word 'dog' falls beyond the 8 token slots", ("blend_word",)),
    ],
    ids=["kv-reuse", "fec-ref", "fec-noise-8x8", "kv-reuse-layers-0:99", "fec-noise-no-mask",
         "fec-noise-same-prompt", "fec-noise-blend-word-same-prompt",
         "fec-noise-mask-and-blend-word", "fec-noise-blend-word-absent",
         "fec-noise-blend-word-past-token-slots"],
)
def test_unusable_user_mask_is_rejected_before_inverting(
    sched, plan10, method, edit, mask, layers, blend_word, fault, fields
):
    net = ToyDenoiser(DenoiserConfig())
    req = EditRequest("a cat on a mat", edit, method, blend_word, layers)
    with pytest.raises(ConfigError, match=f"^{re.escape(fault)}$") as exc:
        run_edit(net, sched, plan10, generate_synthetic_latent(1), req, user_mask=mask)
    assert exc.value.fields == fields
    assert not net.call_counts


def test_locality_counts_a_fractional_mask_entry_as_edit_region():
    recon = np.zeros((1, 2, 2))
    out = np.array([[[1.0, 2.0], [0.0, 0.0]]])
    mask = np.array([[1.0, 0.5], [0.0, 0.0]])
    assert _locality(out, recon, mask) == {"outside_mask_mse": 0.0, "inside_mask_mse": 2.5}


def test_blend_word_edit_reports_locality(net, sched, plan10):
    z0 = generate_synthetic_latent(1, "gaussian")
    req = EditRequest("a cat on a mat", "a dog on a mat", "fec-noise", blend_word="dog")
    out, report = run_edit(net, sched, plan10, z0, req)
    assert not report.reconstructed
    assert "reconstruction_mse" in report.locality
    assert report.per_step_losses[0][0] == plan10.timesteps[0]


def test_kv_edit_layer_range_changes_output(net, sched, plan10):
    z0 = generate_synthetic_latent(2, "gaussian")
    full = EditRequest("a cat on a mat", "a dog on a mat", "fec-kv-reuse",
                       layer_range=LayerRange(0, net.config.layer_count))
    half = EditRequest("a cat on a mat", "a dog on a mat", "fec-kv-reuse",
                       layer_range=LayerRange(0, net.config.layer_count // 2))
    out_full, _ = run_edit(net, sched, plan10, z0, full)
    out_half, _ = run_edit(net, sched, plan10, z0, half)
    assert not np.array_equal(out_full, out_half)


def test_kv_edit_empty_layer_range_injects_nothing(net, sched, plan10):
    # No injected layer leaves plain guided descent under the edit prompt,
    # which is what fec-ref's edit mode runs.
    z0 = generate_synthetic_latent(2, "gaussian")
    none = EditRequest("a cat on a mat", "a dog on a mat", "fec-kv-reuse",
                       layer_range=LayerRange(0, 0))
    ref = EditRequest("a cat on a mat", "a dog on a mat", "fec-ref")
    out_none, _ = run_edit(net, sched, plan10, z0, none)
    out_ref, _ = run_edit(net, sched, plan10, z0, ref)
    assert out_none.tobytes() == out_ref.tobytes()

