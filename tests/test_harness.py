import itertools
import json

import numpy as np
import pytest

from fecdiff.cli import main
from fecdiff.denoiser import DenoiserConfig
from fecdiff.harness import (
    RECON_METHODS,
    ExperimentConfig,
    check_batch_invariance,
    generate_synthetic_latent,
    load_config_file,
    measure_reconstruction,
    reconstruct_once,
    report_timing,
    run_ablation_v_only,
    run_sweep,
    write_report_csv,
    write_report_json,
)


def _small_cfg(**overrides):
    base = dict(
        methods=("direct",),
        steps=5,
        seeds=(0,),
        prompts=("a cat",),
        inv_guidances=(7.5,),
        samp_guidances=(7.5,),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_synthetic_latents_deterministic_and_distinct():
    a = generate_synthetic_latent(0, "gaussian")
    b = generate_synthetic_latent(0, "gaussian")
    assert a.tobytes() == b.tobytes()
    assert not np.array_equal(a, generate_synthetic_latent(1, "gaussian"))
    with pytest.raises(ValueError):
        generate_synthetic_latent(0, "checkerboard")


def test_synthetic_blocks_structure():
    z = generate_synthetic_latent(0, "blocks")
    quad = z[:, :8, :8]
    assert np.all(quad == quad[:, :1, :1])
    assert not np.array_equal(z[:, :8, :8], z[:, 8:, 8:])


def test_synthetic_gradient_is_planar():
    z = generate_synthetic_latent(0, "gradient")
    # Second differences of a plane vanish along both axes.
    assert np.allclose(np.diff(z, n=2, axis=1), 0.0, atol=1e-12)
    assert np.allclose(np.diff(z, n=2, axis=2), 0.0, atol=1e-12)


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(seeds=())
    with pytest.raises(ValueError):
        ExperimentConfig(methods=("warp",))
    cfg = ExperimentConfig(denoiser_seed=3)
    assert cfg.denoiser.init_seed == 3


def test_run_sweep_row_count_and_fields():
    cfg = _small_cfg(methods=("direct", "fec-ref"), seeds=(0, 1), prompts=("a cat", ""))
    report = run_sweep(cfg)
    assert len(report.rows) == 2 * 2 * 2
    for row in report.rows:
        assert not row["error"]
        assert row["prompt_type"] in ("empty", "non-empty")
        assert row["latent_loss"] >= 0.0
    aggs = report.aggregate_means()
    assert {a["method"] for a in aggs} == {"direct", "fec-ref"}
    assert all(a["n"] == 4 for a in aggs)


def test_run_sweep_records_cell_errors():
    # fec-kv-reuse with a layer range beyond the network depth fails per
    # cell without aborting the sweep.
    cfg = _small_cfg(methods=("fec-kv-reuse",), layer_start=0, layer_end=99)
    report = run_sweep(cfg)
    assert len(report.rows) == 1
    assert "layer range" in report.rows[0]["error"]


def test_empty_layer_range_injects_nothing():
    # layer_end=0 is an explicit empty range, not "all layers": kv-reuse
    # with nothing injected is direct sampling.
    cfg = ExperimentConfig(methods=("direct", "fec-kv-reuse"), steps=5, layer_start=0, layer_end=0)
    direct, kv = run_sweep(cfg).rows
    assert not direct["error"] and not kv["error"]
    assert kv["latent_loss"] == direct["latent_loss"]


def _sweep_nets(monkeypatch) -> list:
    """Collects every network a configuration builds."""
    nets = []
    components = ExperimentConfig.components

    def recording(cfg):
        built = components(cfg)
        nets.append(built[0])
        return built

    monkeypatch.setattr(ExperimentConfig, "components", recording)
    return nets


def test_sweep_inverts_once_per_key_and_matches_single_cells(monkeypatch):
    cfg = ExperimentConfig(
        methods=RECON_METHODS, inv_guidances=(1.0, 7.5), samp_guidances=(1.0, 7.5),
        prompts=("a cat", ""), seeds=(0, 1), steps=10, data_kind="blocks",
        denoiser=DenoiserConfig(latent_shape=(4, 12, 12), layer_count=2, model_dim=32),
    )
    nets = _sweep_nets(monkeypatch)
    report = run_sweep(cfg)
    (net,) = nets
    # Per seed and step, inversion evaluates both branches only at
    # (7.5, "a cat"): 2 + 1 + 1 + 1 calls over the four (guidance, prompt)
    # keys. Capture evaluates both only for "a cat": 2 + 1 per guidance.
    assert net.call_counts["inversion"] == 100
    assert net.call_counts["capture"] == 120

    cells = itertools.product(
        cfg.methods, cfg.inv_guidances, cfg.samp_guidances, cfg.prompts, cfg.seeds
    )
    keys = ("method", "inv_guidance", "samp_guidance", "prompt", "seed")
    assert [tuple(row[k] for k in keys) for row in report.rows] == list(cells)
    _, sched, plan = cfg.components()
    for row in report.rows:
        assert not row["error"]
        z0 = generate_synthetic_latent(row["seed"], cfg.data_kind, (4, 12, 12))
        record: dict = {}
        out, traj = reconstruct_once(
            net, sched, plan, z0, row["method"], row["prompt"], row["inv_guidance"],
            row["samp_guidance"], cfg.embed_seed, cfg.layer_range(), record,
        )
        m = measure_reconstruction(z0, out, record, traj)
        single = (m.latent_loss, m.psnr, m.ssim)
        assert [row[k].hex() for k in ("latent_loss", "psnr", "ssim")] == [
            v.hex() for v in single
        ]


def test_sweep_captures_kv_only_for_kv_methods(monkeypatch):
    nets = _sweep_nets(monkeypatch)
    report = run_sweep(_small_cfg(methods=("direct", "fec-ref", "fec-noise"), steps=3))
    (net,) = nets
    assert not any(row["error"] for row in report.rows)
    assert net.call_counts["inversion"] == 2 * 3
    assert net.call_counts["capture"] == 0
    # Only direct samples through the network: fec-ref copies the path
    # and fec-noise's zero mask cancels the conditional prediction.
    assert net.call_counts["reconstruction"] == 2 * 3


def test_sweep_records_a_failed_inversion_in_every_row():
    report = run_sweep(_small_cfg(methods=RECON_METHODS, steps=2, data_kind="checkerboard"))
    assert [row["method"] for row in report.rows] == list(RECON_METHODS)
    for row in report.rows:
        assert row["error"].startswith("ValueError: unknown synthetic latent kind")


def test_harness_draws_latents_at_the_network_shape():
    # 12x12 is the smallest even grid the 11x11 SSIM window fits.
    cfg = _small_cfg(
        methods=RECON_METHODS, steps=2, edit_prompts=("a dog",),
        denoiser=DenoiserConfig(latent_shape=(4, 12, 12)),
    )
    assert [row["error"] for row in run_sweep(cfg).rows] == [""] * len(RECON_METHODS)
    assert check_batch_invariance(cfg)["passed"]
    assert report_timing(cfg)["fec-kv-reuse"]["edit_route_calls"] == 2 * cfg.steps


def test_sweep_rejects_a_grid_smaller_than_the_ssim_window(monkeypatch):
    nets = _sweep_nets(monkeypatch)
    cfg = _small_cfg(denoiser=DenoiserConfig(latent_shape=(4, 8, 8)))
    with pytest.raises(ValueError, match="8x8 is smaller than the 11x11 SSIM window"):
        run_sweep(cfg)
    assert nets == []


def test_ablation_includes_v_only():
    report = run_ablation_v_only(_small_cfg())
    methods = {row["method"] for row in report.rows}
    assert methods == {"fec-kv-reuse", "fec-v-reuse", "direct"}
    assert all(
        row.get("note") == "mechanism-only"
        for row in report.rows if row["method"] == "fec-v-reuse"
    )


def test_check_batch_invariance_bit_identical():
    result = check_batch_invariance(_small_cfg(), batch=2)
    assert result["passed"]
    assert result["forward_max_abs_diff"] == 0.0
    assert result["full_run_max_abs_diff"] == 0.0


def test_check_batch_invariance_when_the_unconditional_branch_is_skipped():
    # The batched reference evaluates both branches every step, so it
    # checks the single-sample path that skips one bit for bit.
    for prompt, scale in (("", 1.0), ("", 7.5), ("a cat", 1.0)):
        result = check_batch_invariance(_small_cfg(prompts=(prompt,), samp_guidances=(scale,)))
        assert result["passed"], (prompt, scale)
        assert result["full_run_max_abs_diff"] == 0.0


def test_report_timing_call_accounting():
    cfg = _small_cfg(edit_prompts=("a dog",))
    timing = report_timing(cfg)
    kv = timing["fec-kv-reuse"]
    paired = timing["direct-paired"]
    assert kv["reconstruction_route_calls"] == 0
    assert kv["edit_route_calls"] == 2 * cfg.steps
    assert paired["reconstruction_route_calls"] == 2 * cfg.steps
    assert paired["edit_route_calls"] == 2 * cfg.steps


def test_report_writers_and_inf_token(tmp_path):
    report = run_sweep(_small_cfg(methods=("fec-ref",)))
    assert any(np.isinf(row["psnr"]) for row in report.rows)
    csv_path = tmp_path / "r.csv"
    json_path = tmp_path / "r.json"
    write_report_csv(report, csv_path)
    write_report_json(report, json_path)
    text = csv_path.read_text()
    assert "inf" in text.split("\n")[1]
    payload = json.loads(json_path.read_text())
    assert payload["rows"][0]["psnr"] == "inf"
    assert payload["aggregates"]


def test_load_config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "[schedule]\nkind = constant-beta\ntotal_steps = 100\n"
        "[denoiser]\nlayers = 2\nseed = 5\n"
        "[run]\nsteps = 4\nmethods = direct; fec-ref\n"
        "inv_guidances = 1 5\nsamp_guidances = 7.5\nseeds = 0, 1\n"
        "prompts = a cat; a dog\nprecision = 32\n"
    )
    cfg = load_config_file(path)
    assert cfg.schedule_kind == "constant-beta"
    assert cfg.total_train_steps == 100
    assert cfg.denoiser.layer_count == 2
    assert cfg.denoiser_seed == 5
    assert cfg.steps == 4
    assert cfg.methods == ("direct", "fec-ref")
    assert cfg.inv_guidances == (1.0, 5.0)
    assert cfg.seeds == (0, 1)
    assert cfg.prompts == ("a cat", "a dog")
    assert cfg.precision == 32
    with pytest.raises(FileNotFoundError):
        load_config_file(tmp_path / "missing.cfg")


def test_cli_reconstruct_and_sweep(tmp_path, capsys):
    rc = main(["reconstruct", "--method", "fec-noise", "--steps", "5",
               "--prompt", "a cat", "--guidance", "7.5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "latent_loss" in out and "ssim" in out
    sweep_out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--method", "direct", "--steps", "5",
               "--prompt", "a cat", "--out", str(sweep_out)])
    assert rc == 0
    assert sweep_out.exists() and sweep_out.with_suffix(".csv.json").exists()


def test_cli_invert_roundtrip(tmp_path):
    from fecdiff.io_formats import read_kv_cache, read_trajectory

    traj_path = tmp_path / "t.fectraj"
    kv_path = tmp_path / "c.feckv"
    rc = main(["invert", "--steps", "5", "--prompt", "a cat",
               "--out", str(traj_path), "--kv-out", str(kv_path)])
    assert rc == 0
    traj = read_trajectory(traj_path)
    assert len(traj.timesteps) == 5
    cache = read_kv_cache(kv_path)
    uncond = read_kv_cache(tmp_path / "c.uncond.feckv")
    assert len(cache) == len(uncond) == 5 * 4


def test_cli_check_batch_exit_code():
    assert main(["check-batch", "--steps", "3"]) == 0


def test_cli_edit_with_mask(tmp_path, capsys):
    mask_path = tmp_path / "box.fecmask"
    assert main(["make-mask", "--out", str(mask_path)]) == 0
    rc = main(["edit", "--method", "fec-noise", "--steps", "5",
               "--prompt", "a cat on a mat", "--edit-prompt", "a dog on a mat",
               "--mask", str(mask_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "locality.outside_mask_mse" in out


@pytest.mark.parametrize("method", ["neg-prompt", "warp"])
def test_cli_edit_rejects_non_edit_method(method, capsys):
    rc = main(["edit", "--method", method, "--steps", "2"])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("fecdiff edit: error: ")
    assert repr(method) in err[0]
