import dataclasses
import itertools
from collections import Counter
from dataclasses import replace
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fecdiff import cli, harness, sampling
from fecdiff.cli import main
from fecdiff.denoiser import ConfigError, DenoiserConfig, LayerRange, ToyDenoiser
from fecdiff.harness import (
    CONFIG_KEYS,
    RECON_METHODS,
    ExperimentConfig,
    check_batch_invariance,
    generate_synthetic_latent,
    load_config_file,
    measure_reconstruction,
    reconstruct_once,
    report_timing,
    run_sweep,
    write_report_csv,
    write_report_json,
)
from fecdiff.schedule import timestep_plan


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
    for bad in (dict(steps=0), dict(steps=1001), dict(layer_start=2, layer_end=1),
                dict(layer_start=-1), dict(samp_guidances=(float("nan"),)),
                dict(inv_guidances=(7.5, float("inf"))), dict(data_kind="checkerboard"),
                dict(schedule_kind="cosine"), dict(methods=()),
                dict(prompts=()), dict(inv_guidances=()), dict(samp_guidances=()),
                dict(prompts="a cat"), dict(seeds=(0, -1)), dict(embed_seed=-1),
                dict(total_train_steps=0), dict(layer_end=5),
                dict(layer_end=3, denoiser=DenoiserConfig(layer_count=2))):
        with pytest.raises(ValueError):
            ExperimentConfig(**bad)
    for bad in (dict(head_count=3), dict(head_count=0), dict(model_dim=0), dict(model_dim=-4),
                dict(model_dim=5, head_count=5), dict(layer_count=-1), dict(init_seed=-1)):
        with pytest.raises(ValueError):
            DenoiserConfig(**bad)
    assert ExperimentConfig(prompts=("",)).prompts == ("",)
    cfg = ExperimentConfig(denoiser=DenoiserConfig(init_seed=3))
    assert cfg.denoiser.init_seed == 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.steps = 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.denoiser.layer_count = 2


def test_a_denoiser_config_holds_what_the_denoiser_keys_set():
    # The network's shape is fixed; a configuration reads it, sets none of it.
    keys = [name for section, _, _, name in CONFIG_KEYS if section == "denoiser"]
    assert [f.name for f in dataclasses.fields(DenoiserConfig)] == keys
    cfg = DenoiserConfig()
    shape = (cfg.latent_shape, cfg.patch_size, cfg.n_tokens, cfg.token_dim)
    assert shape == ((4, 16, 16), 2, 8, 64)


@pytest.mark.parametrize(
    "name, value",
    [("methods", ("direct", "fec-ref", "direct")), ("seeds", (0, 0)),
     ("prompts", ("a cat", "a cat")), ("edit_prompts", ("a dog", "a dog")),
     ("inv_guidances", (7.5, 1.0, 7.5)), ("samp_guidances", (0.0, -0.0))],
)
def test_experiment_config_rejects_a_repeated_entry(name, value):
    # A repeated entry would compute the same sweep cell twice and count it twice.
    with pytest.raises(ConfigError, match="more than once") as exc:
        ExperimentConfig(**{name: value})
    assert exc.value.fields == (name,)


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


def _broken_sampler(*args, **kwargs):
    raise RuntimeError("sampler broke")


def test_sweep_rows_compute_no_loss_curve(monkeypatch):
    # A row scores its final latent alone; a per-step curve would be thrown away.
    def curve(*args, **kwargs):
        raise RuntimeError("loss curve computed")

    monkeypatch.setattr(harness, "trajectory_loss_curve", curve, raising=False)
    report = run_sweep(_small_cfg(methods=RECON_METHODS, steps=2))
    assert [row["error"] for row in report.rows] == [""] * len(RECON_METHODS)


def test_run_sweep_records_cell_errors(monkeypatch):
    # A sampler that raises fails its own cell without aborting the sweep.
    monkeypatch.setattr(sampling, "sample_fec_kv_reuse", _broken_sampler)
    report = run_sweep(_small_cfg(methods=("fec-kv-reuse", "direct")))
    kv, direct = report.rows
    assert kv["error"] == "RuntimeError: sampler broke"
    assert not direct["error"] and direct["latent_loss"] >= 0.0


def test_layer_range_is_none_exactly_when_no_bound_is_set():
    assert ExperimentConfig().layers is None
    assert ExperimentConfig(layer_start=0).layers == LayerRange(0, 4)
    assert ExperimentConfig(layer_start=1).layers == LayerRange(1, 4)
    assert ExperimentConfig(layer_end=2).layers == LayerRange(0, 2)


def test_a_config_builds_its_schedule_and_plan_once(monkeypatch):
    # The checks build them and the config keeps them, however often it runs.
    built = Counter()

    def counting(name, build):
        def counted(*args):
            built[name] += 1
            return build(*args)
        return counted

    for name in ("build_schedule", "timestep_plan"):
        monkeypatch.setattr(harness, name, counting(name, getattr(harness, name)))
    cfg = ExperimentConfig(steps=2, edit_prompts=("a dog sitting on a mat",))
    assert built == {"build_schedule": 1, "timestep_plan": 1}
    for _ in range(3):
        _, sched, plan = cfg.components()
        assert sched is cfg.sched and plan is cfg.plan
    run_sweep(cfg)
    check_batch_invariance(cfg)
    report_timing(cfg)
    assert built == {"build_schedule": 1, "timestep_plan": 1}


def test_a_replaced_config_rebuilds_what_it_keeps_and_compares_as_before():
    cfg = ExperimentConfig(steps=10, layer_start=1)
    five = replace(cfg, steps=5, layer_start=None, layer_end=2)
    assert five.plan == timestep_plan(5) and five.layers == LayerRange(0, 2)
    assert cfg.plan == timestep_plan(10) and cfg.layers == LayerRange(1, 4)
    # The kept parts take no part in equality, hashing or the repr.
    assert ExperimentConfig(steps=10, layer_start=1) == cfg
    assert hash(ExperimentConfig(steps=10, layer_start=1)) == hash(cfg)
    init = [f.name for f in dataclasses.fields(cfg) if f.init]
    assert [f.name for f in dataclasses.fields(cfg) if f.compare] == init
    assert repr(cfg) == f"ExperimentConfig({', '.join(f'{n}={getattr(cfg, n)!r}' for n in init)})"


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
        denoiser=DenoiserConfig(layer_count=2, model_dim=32),
    )
    nets = _sweep_nets(monkeypatch)
    report = run_sweep(cfg)
    (net,) = nets
    # Every key's inversion records K/V for the kv methods, so all of its
    # calls are capture calls. Per seed and step it evaluates both branches
    # for "a cat" (at guidance 1 the recorder forces the unconditional one)
    # and one for "": 2 + 1 per guidance.
    assert net.call_counts["inversion"] == 0
    assert net.call_counts["capture"] == 120
    # Rows with the same descent sample once. Per seed, inversion guidance
    # and step, "a cat" makes 9 calls: direct, kv and v-reuse 1 + 2 each,
    # and neg-prompt (guidance cancels) shares direct at 1. "" makes 3:
    # shared branches cancel guidance, so one descent each for direct
    # (with neg-prompt), kv and v-reuse. Sampling every row made 760.
    assert net.call_counts["reconstruction"] == 480

    cells = itertools.product(
        cfg.methods, cfg.inv_guidances, cfg.samp_guidances, cfg.prompts, cfg.seeds
    )
    keys = ("method", "inv_guidance", "samp_guidance", "prompt", "seed")
    assert [tuple(row[k] for k in keys) for row in report.rows] == list(cells)
    _, sched, plan = cfg.components()
    for row in report.rows:
        assert not row["error"]
        z0 = generate_synthetic_latent(row["seed"], cfg.data_kind)
        out, _ = reconstruct_once(
            net, sched, plan, z0, row["method"], row["prompt"], row["inv_guidance"],
            row["samp_guidance"], cfg.embed_seed, cfg.layers,
        )
        single = measure_reconstruction(z0, out)
        assert [row[k].hex() for k in single] == [v.hex() for v in single.values()]


def test_a_failed_shared_descent_fails_every_row_that_shares_it(monkeypatch):
    # The first direct descent, at guidance 1, is the one neg-prompt takes
    # at both guidances; it raises once, and its three rows carry the error.
    calls = []
    real = sampling.sample_direct

    def failing_once(*args, **kwargs):
        calls.append(args[2].scale)
        if len(calls) == 1:
            raise RuntimeError("descent broke")
        return real(*args, **kwargs)

    monkeypatch.setattr(sampling, "sample_direct", failing_once)
    report = run_sweep(_small_cfg(methods=("direct", "neg-prompt"), samp_guidances=(1.0, 7.5),
                                  steps=3))
    assert calls == [1.0, 7.5]
    errors = [(row["method"], row["samp_guidance"], row["error"]) for row in report.rows]
    assert errors == [
        ("direct", 1.0, "RuntimeError: descent broke"),
        ("direct", 7.5, ""),
        ("neg-prompt", 1.0, "RuntimeError: descent broke"),
        ("neg-prompt", 7.5, "RuntimeError: descent broke"),
    ]
    assert "latent_loss" in report.rows[1]
    assert not any("latent_loss" in row for row in report.rows if row["error"])


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


def test_sweep_records_a_failed_inversion_in_every_row(monkeypatch):
    # The configuration rejects an unknown kind up front, so the generator
    # alone is handed one.
    real = harness.generate_synthetic_latent
    monkeypatch.setattr(harness, "generate_synthetic_latent",
                        lambda seed, kind: real(seed, "checkerboard"))
    report = run_sweep(_small_cfg(methods=RECON_METHODS, steps=2))
    assert [row["method"] for row in report.rows] == list(RECON_METHODS)
    for row in report.rows:
        assert row["error"].startswith("ValueError: unknown synthetic latent kind")


def test_ablation_includes_v_only(tmp_path):
    # The V-only ablation is a sweep over a repeated --method.
    out = tmp_path / "ablation.csv"
    rc = main(["sweep", "--method", "fec-kv-reuse", "--method", "fec-v-reuse",
               "--method", "direct", "--steps", "5", "--prompt", "a cat", "--out", str(out)])
    assert rc == 0
    rows = json.loads((tmp_path / "ablation.csv.json").read_text())["rows"]
    assert [row["method"] for row in rows] == ["fec-kv-reuse", "fec-v-reuse", "direct"]
    assert not any(row["error"] for row in rows)


def test_check_batch_invariance_bit_identical():
    result = check_batch_invariance(_small_cfg())
    assert result["passed"] and result["batch"] == 2
    assert result["forward_max_abs_diff"] == 0.0
    assert result["full_run_max_abs_diff"] == 0.0


def test_check_batch_invariance_when_the_unconditional_branch_is_skipped():
    # The stacked run skips the same unconditional evaluations as the
    # single run; test_guided_noise_skips_an_unconditional_evaluation_whose_result_is_known
    # checks the skip itself against evaluating both branches.
    for prompt, scale in (("", 1.0), ("", 7.5), ("a cat", 1.0)):
        result = check_batch_invariance(_small_cfg(prompts=(prompt,), samp_guidances=(scale,)))
        assert result["passed"], (prompt, scale)
        assert result["full_run_max_abs_diff"] == 0.0


def test_check_batch_invariance_fails_when_a_stacked_row_differs(monkeypatch):
    predict = ToyDenoiser.predict

    def perturbed(self, z, *args, **kwargs):
        eps = predict(self, z, *args, **kwargs)
        if eps.ndim == 4:
            eps[1:] += 1e-12
        return eps

    monkeypatch.setattr(ToyDenoiser, "predict", perturbed)
    result = check_batch_invariance(_small_cfg())
    assert not result["passed"]
    assert result["forward_max_abs_diff"] > 0.0
    assert result["full_run_max_abs_diff"] > 0.0


def test_report_timing_call_accounting():
    cfg = _small_cfg(edit_prompts=("a dog",))
    timing = report_timing(cfg)
    assert list(timing) == ["fec-noise", "fec-ref", "fec-kv-reuse", "direct-paired"]
    assert all(entry.keys() == {"time_s", "calls"} for entry in timing.values())
    kv = timing["fec-kv-reuse"]["calls"]
    paired = timing["direct-paired"]["calls"]
    # The fec-noise edit blends under the mask of "dog", the word the
    # source prompt lacks: at guidance 7.5 each step evaluates the traced
    # conditional branch and the unconditional one, whatever the mask.
    noise = timing["fec-noise"]["calls"]
    assert noise["edit"] == 2 * cfg.steps
    assert kv.get("reconstruction", 0) == 0
    assert kv["edit"] == 2 * cfg.steps
    assert paired["reconstruction"] == 2 * cfg.steps
    assert paired["edit"] == 2 * cfg.steps
    # An unset edit prompt is the source, so fec-noise reconstructs under
    # the zero mask, which evaluates no edit step.
    assert "edit" not in report_timing(_small_cfg())["fec-noise"]["calls"]


def test_sweep_hands_the_layer_range_to_the_kv_rows_only():
    rows = run_sweep(_small_cfg(methods=("direct", "fec-kv-reuse"), steps=2, layer_start=1,
                                layer_end=2)).rows
    whole = run_sweep(_small_cfg(methods=("direct", "fec-kv-reuse"), steps=2)).rows
    assert [row["error"] for row in rows] == ["", ""]
    assert rows[0]["latent_loss"] == whole[0]["latent_loss"]
    assert rows[1]["latent_loss"] != whole[1]["latent_loss"]


def test_report_timing_injects_over_the_configured_layer_range(monkeypatch):
    requests = []
    monkeypatch.setattr(harness, "run_edit", lambda net, sched, plan, z0, req, seed:
                        requests.append((req.method, req.layer_range)))
    for bounds, layers in ((dict(layer_start=1, layer_end=2), LayerRange(1, 2)), ({}, None)):
        requests.clear()
        report_timing(_small_cfg(steps=2, edit_prompts=("a dog",), **bounds))
        assert requests == [("fec-noise", None), ("fec-ref", None), ("fec-kv-reuse", layers)]


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
        "prompts = a cat; a dog\n"
    )
    cfg = ExperimentConfig.from_fields(load_config_file(path))
    assert cfg.schedule_kind == "constant-beta"
    assert cfg.total_train_steps == 100
    assert cfg.denoiser.layer_count == 2
    assert cfg.denoiser.init_seed == 5
    assert cfg.steps == 4
    assert cfg.methods == ("direct", "fec-ref")
    assert cfg.inv_guidances == (1.0, 5.0)
    assert cfg.seeds == (0, 1)
    assert cfg.prompts == ("a cat", "a dog")
    path.write_text("[run]\nprompts = a 100% cat\n")
    assert load_config_file(path) == {"prompts": ("a 100% cat",)}
    # A path the OS refuses raises the OS's own error.
    with pytest.raises(FileNotFoundError, match="No such file or directory"):
        load_config_file(tmp_path / "missing.cfg")
    with pytest.raises(IsADirectoryError, match="Is a directory"):
        load_config_file(tmp_path)
    # Every other refusal is a ConfigError; an undecodable file keeps the codec's text.
    path.write_bytes(b"\xff[run]\n")
    with pytest.raises(ConfigError, match="can't decode byte 0xff"):
        load_config_file(path)


# One file text per configuration-file key, with the value it parses to;
# each differs from the field's default.
_KEY_SAMPLES = {
    ("schedule", "kind"): ("constant-beta", "constant-beta"),
    ("schedule", "total_steps"): ("100", 100),
    ("denoiser", "layers"): ("2", 2),
    ("denoiser", "heads"): ("2", 2),
    ("denoiser", "dim"): ("32", 32),
    ("denoiser", "seed"): ("5", 5),
    ("run", "steps"): ("4", 4),
    ("run", "methods"): ("direct; fec-ref", ("direct", "fec-ref")),
    ("run", "inv_guidances"): ("1, 5", (1.0, 5.0)),
    ("run", "samp_guidances"): ("2 3.5", (2.0, 3.5)),
    ("run", "seeds"): ("0, 1", (0, 1)),
    ("run", "embed_seed"): ("7", 7),
    ("run", "data_kind"): ("blocks", "blocks"),
    ("run", "prompts"): ("a cat; a dog", ("a cat", "a dog")),
    ("run", "edit_prompts"): ("a bird", ("a bird",)),
    ("run", "blend_word"): ("bird", "bird"),
    ("run", "layer_start"): ("1", 1),
    ("run", "layer_end"): ("2", 2),
    ("run", "out"): ("r.csv", "r.csv"),
}


def test_every_config_key_lands_on_its_field(tmp_path):
    assert [(section, key) for section, key, _, _ in CONFIG_KEYS] == list(_KEY_SAMPLES)
    run: dict = {}
    denoiser: dict = {}
    sections: dict[str, str] = {}
    for section, key, _, name in CONFIG_KEYS:
        text, value = _KEY_SAMPLES[section, key]
        line = f"{key} = {text}\n"
        path = tmp_path / f"{key}.cfg"
        path.write_text(f"[{section}]\n{line}")
        if section == "denoiser":
            expected = ExperimentConfig(denoiser=DenoiserConfig(**{name: value}))
            denoiser[name] = value
        else:
            expected = ExperimentConfig(**{name: value})
            run[name] = value
        assert ExperimentConfig.from_fields(load_config_file(path)) == expected, key
        sections[section] = sections.get(section, "") + line
    path = tmp_path / "all.cfg"
    path.write_text("".join(f"[{section}]\n{lines}" for section, lines in sections.items()))
    assert ExperimentConfig.from_fields(load_config_file(path)) == ExperimentConfig(
        **run, denoiser=DenoiserConfig(**denoiser)
    )


def _listed_keys(listing: str) -> list[tuple[str, str]]:
    """The (section, key) pairs of a ``[section] key, key, ...`` listing."""
    return [
        (section, key)
        for section, keys in re.findall(r"\[(\w+)\]([^\[]*)", listing)
        for key in re.findall(r"\w+", keys)
    ]


def test_docs_list_exactly_the_config_keys():
    table = [(section, key) for section, key, _, _ in CONFIG_KEYS]
    docstring = load_config_file.__doc__.split("Sections and keys:")[1]
    assert _listed_keys(docstring) == table
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    fenced = readme.split("Configuration-file keys, by section:")[1].split("```")[1]
    assert _listed_keys(fenced) == table


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


def test_cli_reconstruct_report_file(tmp_path, capsys):
    # fec-ref copies the saved path: +inf PSNR, and zero loss at every step.
    out = tmp_path / "r.txt"
    assert main(["reconstruct", "--method", "fec-ref", "--steps", "5", "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed == ["latent_loss = 0.0", "psnr = inf", "ssim = 1.0", f"wrote report to {out}"]
    steps = [f"step_loss[{t}] = 0.0" for t in (*timestep_plan(5, 1000).timesteps, 0)]
    assert out.read_text().splitlines() == printed[:3] + steps


def test_cli_reconstruct_records_latents_only_for_the_report_file(tmp_path, capsys,
                                                                   monkeypatch):
    # Only the --out file's step losses read the descent's latents.
    records = []

    def recording(*args):
        records.append(args[-1])
        return reconstruct_once(*args)

    monkeypatch.setattr(cli, "reconstruct_once", recording)
    argv = ["reconstruct", "--method", "direct", "--steps", "5", "--prompt", "a cat"]
    assert main(argv) == 0
    bare = capsys.readouterr().out.splitlines()
    assert main([*argv, "--out", str(tmp_path / "r.txt")]) == 0
    reported = capsys.readouterr().out.splitlines()
    assert [line.split(" = ")[0] for line in bare] == ["latent_loss", "psnr", "ssim"]
    assert bare == reported[:3]
    assert records[0] is None
    assert sorted(records[1]) == [0, *sorted(timestep_plan(5, 1000).timesteps)]


def test_cli_invert_roundtrip(tmp_path):
    from fecdiff.io_formats import KV_MAGIC, read_kv_cache, read_trajectory

    assert main(["invert", "--steps", "4", "--out", str(tmp_path / "t"),
                 "--kv-out", str(tmp_path / "k")]) == 0
    cfg = ExperimentConfig(steps=4)
    net, sched, plan = cfg.components()
    z0 = generate_synthetic_latent(0, cfg.data_kind)
    (ctx,) = sampling.guidance_contexts(cfg.prompts, cfg.inv_guidances[0])
    res = sampling.invert(net, z0, ctx, plan, sched, sampling.CaptureOptions(kv=True), seed=0)
    # The path at width 64: every latent byte-equal, so fec-ref from it is exact.
    traj = read_trajectory(tmp_path / "t")
    assert (traj.timesteps, traj.guidance, traj.seed) == (plan.timesteps, 7.5, 0)
    for t in (*plan.timesteps, 0):
        assert traj[t].tobytes() == res.trajectory[t].tobytes(), t
    assert sampling.sample_fec_ref(traj, plan).tobytes() == z0.tobytes()
    # The float32 K/V at width 32: byte-equal, at 4 bytes a value.
    for name, cache in (("k", res.kv_cache), ("k.uncond", res.kv_cache_uncond)):
        back = read_kv_cache(tmp_path / name)
        assert back.entries.keys() == cache.entries.keys()
        for key, (k, v) in cache.entries.items():
            assert [a.tobytes() for a in back.fetch(*key)] == [k.tobytes(), v.tobytes()]
        k, v = cache.fetch(plan.timesteps[0], 0)
        header = len(KV_MAGIC) + 4 * (4 + 1 + k.ndim + 1 + v.ndim + plan.steps)
        values = sum(k.size + v.size for k, v in cache.entries.values())
        assert (tmp_path / name).stat().st_size == header + 4 * values


def test_cli_check_batch_exit_code():
    assert main(["check-batch", "--steps", "3"]) == 0


def test_cli_edit_with_mask(tmp_path, capsys):
    from fecdiff.io_formats import write_mask

    mask_path = tmp_path / "box.fecmask"
    box = np.zeros((16, 16))
    box[4:12, 4:12] = 1.0
    write_mask(mask_path, box)
    # fec-noise is the edit method when none is set.
    rc = main(["edit", "--steps", "5",
               "--prompt", "a cat on a mat", "--edit-prompt", "a dog on a mat",
               "--mask", str(mask_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "method = fec-noise" in out and "locality.outside_mask_mse" in out


@pytest.mark.parametrize(
    "method, size, fault",
    [("fec-kv-reuse", 16, "--mask: a mask or a blend word applies to fec-noise only,"
      " not fec-kv-reuse"), ("fec-noise", 8, "latent grid (16, 16)"),
     ("fec-noise", "missing", "No such file"), ("fec-noise", "zeros", "bad magic"),
     ("fec-noise", "empty", "mask is empty: shape (0, 0)")],
    ids=["kv-reuse", "fec-noise-8x8", "missing-file", "malformed-file", "empty-file"],
)
def test_cli_edit_rejects_a_mask_it_cannot_use(method, size, fault, tmp_path, capsys):
    from fecdiff.io_formats import write_mask

    mask_path = tmp_path / "m.fecmask"
    if size == "zeros":
        mask_path.write_bytes(bytes(20))
    elif size == "empty":  # a 0x0 FECMASK1 file, which write_mask refuses to write
        mask_path.write_bytes(b"FECMASK1" + np.array([1, 64, 0, 0], dtype="<u4").tobytes())
    elif size != "missing":
        write_mask(mask_path, np.ones((size, size)), 64)
    rc = main(["edit", "--method", method, "--steps", "2", "--prompt", "a cat on a mat",
               "--edit-prompt", "a dog on a mat", "--mask", str(mask_path)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("fecdiff edit: error: ")
    assert fault in err[0]


@pytest.mark.parametrize("command", ["sweep"])
def test_cli_report_exits_1_when_a_row_failed(command, tmp_path, capsys, monkeypatch):
    # Every command's default methods include fec-kv-reuse beside others.
    monkeypatch.setattr(sampling, "sample_fec_kv_reuse", _broken_sampler)
    out = tmp_path / "report.csv"
    rc = main([command, "--steps", "2", "--out", str(out)])
    assert rc == 1
    assert out.exists() and (tmp_path / "report.csv.json").exists()
    rows = json.loads((tmp_path / "report.csv.json").read_text())["rows"]
    assert {row["error"] for row in rows} == {"", "RuntimeError: sampler broke"}
    assert "cell(s) failed" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["direct", "neg-prompt", "warp"])
def test_cli_edit_rejects_non_edit_method(method, capsys):
    rc = main(["edit", "--method", method, "--steps", "2"])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("fecdiff edit: error: ")
    assert repr(method) in err[0]


# Configuration files the CLI must reject, by name.
_BAD_CONFIGS = {
    "headless": "steps = 3\n",
    "run-step": "[run]\nstep = 3\n",
    "shedule": "[shedule]\nkind = cosine\n",
    "attn-scale": "[denoiser]\nattn_scale = bogus\n",
    "prompts-empty": "[run]\nprompts = ;\n",
    "samp-guidances-empty": "[run]\nsamp_guidances =\n",
    "methods-empty": "[run]\nmethods = ;\n",
    "schedule-kind": "[schedule]\nkind = bogus\n",
    "heads-3": "[denoiser]\nheads = 3\n",
    "heads-0": "[denoiser]\nheads = 0\n",
    "precision-16": "[run]\nprecision = 16\n",
    "data-kind": "[run]\ndata_kind = checkerboard\n",
    "latent-shape": "[denoiser]\nlatent_shape = 4 12 12\n",
    "prompts-blank-entry": "[run]\nprompts = a cat; ; a dog\n",
    "methods-trailing-semicolon": "[run]\nmethods = direct;\n",
    "dim-0": "[denoiser]\ndim = 0\n",
    "dim-5-heads-5": "[denoiser]\ndim = 5\nheads = 5\n",
    "dim-negative": "[denoiser]\ndim = -4\n",
    "layers-negative": "[denoiser]\nlayers = -1\n",
    "layers-0": "[denoiser]\nlayers = 0\n",
    "denoiser-seed-negative": "[denoiser]\nseed = -1\n",
    "total-steps-0": "[schedule]\ntotal_steps = 0\n",
    "embed-seed-negative": "[run]\nembed_seed = -1\n",
    "seeds-negative": "[run]\nseeds = 0 -1\n",
    "methods-two": "[run]\nmethods = direct; fec-ref\n",
    "seeds-repeated": "[run]\nseeds = 0 0\n",
    "edit-prompts-two": "[run]\nedit_prompts = a; b\n",
    "edit-prompts-dog": "[run]\nedit_prompts = a dog\n",
    "methods-warp": "[run]\nmethods = warp\n",
    "methods-direct": "[run]\nmethods = direct\n",
    "inv-guidances-nan": "[run]\ninv_guidances = nan\n",
    "layers-3-1": "[run]\nlayer_start = 3\nlayer_end = 1\n",
    "layer-end-direct": "[run]\nmethods = direct\nlayer_end = 2\n",
    "layer-start-0": "[run]\nlayer_start = 0\n",
    "layer-end-2": "[run]\nlayer_end = 2\n",
    "blend-word-dog": "[run]\nblend_word = dog\n",
    "inv-guidances-1": "[run]\ninv_guidances = 1\n",
}


@pytest.mark.parametrize(
    "argv, fault",
    [
        (["reconstruct", "--layers", "3"], "--layers takes start:end"),
        (["reconstruct", "--layers", "a:b"], "--layers takes start:end"),
        (["reconstruct", "--layers", "2:1"], "invalid layer range"),
        (["reconstruct", "--method", "fec-kv-reuse", "--layers", "0:99", "--steps", "2"],
         "layer_end 99 exceeds layer_count 4"),
        (["reconstruct", "--method", "warp"], "unknown method 'warp'"),
        (["sweep", "--steps", "0"], "steps must be in"),
        (["sweep", "--guidance", "nan"], "guidance scales must be finite"),
        (["sweep", "--config", "{tmp}/missing.cfg"], "[Errno 2] No such file or directory: "),
        (["sweep", "--config", "{tmp}"], "[Errno 21] Is a directory: "),
        (["sweep", "--config", "{tmp}/headless.cfg"], "File contains no section headers"),
        (["sweep", "--config", "{tmp}/run-step.cfg"],
         "unknown key 'step' in [run]; did you mean 'steps'?"),
        (["sweep", "--config", "{tmp}/shedule.cfg"],
         "unknown section 'shedule'; did you mean 'schedule'?"),
        (["reconstruct", "--config", "{tmp}/attn-scale.cfg"],
         "unknown key 'attn_scale' in [denoiser]"),
        (["sweep", "--config", "{tmp}/prompts-empty.cfg"], "prompts must be a non-empty tuple"),
        (["sweep", "--config", "{tmp}/samp-guidances-empty.cfg"],
         "samp_guidances must be a non-empty tuple"),
        (["sweep", "--config", "{tmp}/methods-empty.cfg"], "methods must be a non-empty tuple"),
        (["sweep", "--config", "{tmp}/schedule-kind.cfg"], "unknown schedule kind 'bogus'"),
        (["reconstruct", "--config", "{tmp}/heads-3.cfg"],
         "[denoiser] heads: model_dim 64 must be divisible by head_count 3"),
        (["reconstruct", "--config", "{tmp}/heads-0.cfg"],
         "[denoiser] heads: model_dim 64 must be divisible by head_count 0"),
        (["invert", "--config", "{tmp}/precision-16.cfg", "--out", "{tmp}/t.fectraj"],
         "unknown key 'precision' in [run]"),
        (["sweep", "--config", "{tmp}/data-kind.cfg"], "unknown data_kind 'checkerboard'"),
        (["sweep", "--config", "{tmp}/latent-shape.cfg"],
         "unknown key 'latent_shape' in [denoiser]"),
        (["sweep", "--config", "{tmp}/prompts-blank-entry.cfg"],
         "[run] prompts: blank entry in 'a cat; ; a dog'"),
        (["sweep", "--config", "{tmp}/methods-trailing-semicolon.cfg"],
         "[run] methods: blank entry in 'direct;'"),
        (["reconstruct", "--config", "{tmp}/dim-0.cfg"],
         "[denoiser] dim: model_dim must be positive and even, got 0"),
        (["reconstruct", "--config", "{tmp}/dim-5-heads-5.cfg"],
         "[denoiser] dim: model_dim must be positive and even, got 5"),
        (["reconstruct", "--config", "{tmp}/dim-negative.cfg"],
         "[denoiser] dim: model_dim must be positive and even, got -4"),
        (["reconstruct", "--config", "{tmp}/layers-negative.cfg"],
         "[denoiser] layers: layer_count must be >= 1, got -1"),
        (["reconstruct", "--config", "{tmp}/denoiser-seed-negative.cfg"],
         "[denoiser] seed: init_seed must be >= 0, got -1"),
        (["sweep", "--config", "{tmp}/total-steps-0.cfg"],
         "[schedule] total_steps: total_train_steps must be >= 1, got 0"),
        (["sweep", "--config", "{tmp}/embed-seed-negative.cfg"],
         "embed_seed must be >= 0, got -1"),
        (["sweep", "--config", "{tmp}/seeds-negative.cfg"], "seeds must be >= 0, got -1"),
        (["reconstruct", "--seed", "-1"], "seeds must be >= 0, got -1"),
        (["reconstruct", "--method", "direct", "--method", "fec-ref"],
         "--method: reconstruct runs one entry of methods, not 2: 'direct', 'fec-ref'"),
        (["edit", "--config", "{tmp}/methods-two.cfg"],
         "[run] methods: edit runs one entry of methods, not 2: 'direct', 'fec-ref'"),
        (["edit", "--method", "fec-v-reuse"],
         "--method: edit runs one method of fec-noise, fec-ref, fec-kv-reuse;"
         " got 'fec-v-reuse'"),
        (["edit", "--prompt", "a cat", "--edit-prompt", "a dog"],
         "a fec-noise edit needs a mask or a blend word"),
        (["edit", "--method", "fec-noise", "--config", "{tmp}/edit-prompts-dog.cfg"],
         "a fec-noise edit needs a mask or a blend word"),
        (["timing", "--blend-word", "dog"],
         "a mask or a blend word needs an edit prompt that differs from the source"),
        (["edit", "--prompt", "a cat on a mat", "--blend-word", "cat"],
         "a mask or a blend word needs an edit prompt that differs from the source"),
        (["timing", "--prompt", "a cat on a mat", "--edit-prompt", "a mat on a cat"],
         "a fec-noise edit needs a mask or a blend word"),
        (["edit", "--method", "fec-kv-reuse", "--prompt", "a cat", "--edit-prompt", "a dog",
          "--blend-word", "dog"],
         "a mask or a blend word applies to fec-noise only, not fec-kv-reuse"),
        (["edit", "--prompt", "a cat", "--edit-prompt", "a dog", "--blend-word", "dog",
          "--layers", "1:2"],
         "a layer range applies to fec-kv-reuse and fec-v-reuse only, not fec-noise"),
        (["edit", "--method", "fec-ref", "--layers", "0:4"],
         "a layer range applies to fec-kv-reuse and fec-v-reuse only, not fec-ref"),
        (["edit", "--method", "fec-noise", "--prompt", "a cat", "--edit-prompt", "a dog",
          "--blend-word", "dog", "--config", "{tmp}/layer-start-0.cfg"],
         "a layer range applies to fec-kv-reuse and fec-v-reuse only, not fec-noise"),
        (["reconstruct", "--method", "direct", "--layers", "1:3"],
         "a layer range applies to fec-kv-reuse and fec-v-reuse only, not direct"),
        (["reconstruct", "--layers", "1:3"],
         "a layer range applies to fec-kv-reuse and fec-v-reuse only, not direct"),
        (["sweep", "--method", "direct", "--method", "fec-noise", "--layers", "1:3"],
         "a layer range applies to fec-kv-reuse and fec-v-reuse only, not direct, fec-noise"),
        (["edit", "--prompt", "a cat", "--edit-prompt", "a b c d e f g h dog",
          "--blend-word", "dog"], "word 'dog' falls beyond the 8 token slots"),
        (["timing", "--prompt", "a cat", "--edit-prompt", "a b c d e f g h dog",
          "--blend-word", "dog"], "word 'dog' falls beyond the 8 token slots"),
        (["invert", "--out", "{tmp}/a.bin", "--kv-out", "{tmp}/a.bin"],
         "the trajectory and a K/V cache would both be written to"),
        (["invert", "--out", "{tmp}/a.uncond.bin", "--kv-out", "{tmp}/a.bin"],
         "the trajectory and a K/V cache would both be written to"),
        (["invert", "--steps", "2", "--out", "{tmp}/t.fectraj", "--kv-out", ""],
         "--kv-out: an empty path names no file"),
        (["edit", "--steps", "2", "--prompt", "a cat", "--edit-prompt", "a dog",
          "--blend-word", "dog", "--mask", ""], "[Errno 2] No such file or directory: ''"),
        (["edit", "--config", "{tmp}/layers-0.cfg", "--method", "fec-kv-reuse", "--prompt",
          "a cat", "--edit-prompt", "a dog"], "[denoiser] layers: layer_count must be >= 1, got 0"),
        (["edit", "--config", "{tmp}/layers-0.cfg", "--prompt", "a cat", "--edit-prompt",
          "a dog", "--blend-word", "dog"], "[denoiser] layers: layer_count must be >= 1, got 0"),
        (["invert", "--config", "{tmp}/layers-0.cfg", "--out", "{tmp}/t.fectraj", "--kv-out",
          "{tmp}/k.feckv"], "[denoiser] layers: layer_count must be >= 1, got 0"),
    ],
    ids=["layers-3", "layers-a:b", "layers-2:1", "layers-0:99", "method-warp", "steps-0",
         "guidance-nan", "config-missing", "config-directory", "config-headless",
         "config-run-step", "config-shedule", "config-attn-scale", "config-prompts-empty",
         "config-samp-guidances-empty",
         "config-methods-empty", "config-schedule-kind", "config-heads-3",
         "config-heads-0", "config-precision-16", "config-data-kind", "config-latent-shape",
         "config-prompts-blank-entry", "config-methods-trailing-semicolon", "config-dim-0",
         "config-dim-5-heads-5", "config-dim-negative", "config-layers-negative",
         "config-denoiser-seed-negative", "config-total-steps-0", "config-embed-seed-negative",
         "config-seeds-negative", "seed-negative", "reconstruct-two-methods",
         "edit-config-two-methods", "edit-method-v-reuse", "edit-no-mask",
         "edit-config-no-mask", "timing-blend-word-missing", "edit-blend-word-same-prompt",
         "timing-no-new-word",
         "edit-kv-reuse-blend-word",
         "edit-fec-noise-layers", "edit-fec-ref-layers", "edit-config-layer-start-0",
         "reconstruct-direct-layers",
         "reconstruct-default-method-layers", "sweep-no-kv-method-layers",
         "edit-blend-word-past-token-slots", "timing-blend-word-past-token-slots",
         "invert-kv-out-is-out",
         "invert-uncond-kv-out-is-out", "invert-kv-out-empty", "edit-mask-empty",
         "edit-kv-reuse-config-layers-0", "edit-blend-word-config-layers-0",
         "invert-kv-out-config-layers-0"],
)
def test_cli_config_errors_print_one_line_and_exit_2(argv, fault, capsys, tmp_path, monkeypatch):
    for name, text in _BAD_CONFIGS.items():
        (tmp_path / f"{name}.cfg").write_text(text)
    calls = []
    monkeypatch.setattr(ToyDenoiser, "predict", lambda *a, **k: calls.append(a))
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"fecdiff {argv[0]}: error: ")
    assert fault in err[0]
    assert calls == []


_CAST = "t=1000: overflow encountered in cast"


@pytest.mark.parametrize(
    "argv, fault",
    [
        # A finite float64 input past float32's range.
        (["reconstruct", "--steps", "2", "--guidance", "1e300"], _CAST),
        (["edit", "--steps", "2", "--guidance", "1e300"], _CAST),
        (["invert", "--steps", "2", "--guidance", "1e300", "--out", "{tmp}/t.fectraj"], _CAST),
        (["check-batch", "--steps", "2", "--guidance", "1e300"], _CAST),
        (["timing", "--steps", "2", "--guidance", "1e300"], _CAST),
        # A finite float32 input whose layer-norm square overflows.
        (["invert", "--steps", "2", "--guidance", "1e20", "--out", "{tmp}/t.fectraj"],
         "t=1000: overflow encountered in multiply"),
        # alpha_bar floors at 1.2e-322, so the descent's latents outgrow float32.
        (["edit", "--method", "fec-kv-reuse", "--config", "{tmp}/constant-beta.cfg"],
         "t=32000: overflow encountered in multiply"),
    ],
    ids=["reconstruct", "edit", "invert", "check-batch", "timing", "invert-1e20",
         "edit-constant-beta"],
)
def test_cli_a_diverging_run_exits_2_with_one_line(argv, fault, tmp_path, capsys):
    (tmp_path / "constant-beta.cfg").write_text(
        "[schedule]\nkind = constant-beta\ntotal_steps = 40000\n")
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"fecdiff {argv[0]}: error: non-finite float32 forward at {fault}"]
    assert not (tmp_path / "t.fectraj").exists()


@pytest.mark.parametrize("guidance, fault", [("1e300", _CAST),
                                             ("1e20", "t=1000: overflow encountered in multiply")],
                         ids=["1e300", "1e20"])
def test_cli_a_diverging_run_prints_one_line_in_a_real_process(guidance, fault, tmp_path):
    # A fresh interpreter keeps numpy's and Python's default warning
    # handling, which in-process tests capture or silence.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    out = tmp_path / "X"
    proc = subprocess.run(
        [sys.executable, "-m", "fecdiff.cli", "invert", "--steps", "2", "--guidance", guidance,
         "--out", str(out)], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        f"fecdiff invert: error: non-finite float32 forward at {fault}"]
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["invert", "--method", "direct"],
        ["reconstruct", "--mask", "nonexist.fecmask"],
        ["edit", "--inv-guidance", "1"],
        ["sweep", "--edit-prompt", "a dog"],
        ["check-batch", "--out", "x.txt"],
        ["timing", "--method", "direct"],
    ],
    ids=lambda argv: argv[0],
)
def test_cli_refuses_a_flag_its_command_ignores(argv, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(ToyDenoiser, "predict", lambda *a, **k: calls.append(a))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    # The command's own usage and error prefix, not the top-level parser's.
    assert err[0].startswith(f"usage: fecdiff {argv[0]} [-h] [--config CONFIG]")
    assert err[-1] == f"fecdiff {argv[0]}: error: unrecognized arguments: {' '.join(argv[1:])}"
    assert calls == []


# The flags each command takes, in the order its usage lists them.
_RECONSTRUCT_FLAGS = "--method --guidance --inv-guidance --steps --seed --prompt --layers --out"
_COMMAND_FLAGS = {
    "invert": "--guidance --inv-guidance --steps --seed --prompt --out --kv-out",
    "reconstruct": _RECONSTRUCT_FLAGS,
    "edit": "--method --guidance --steps --seed --prompt --edit-prompt --blend-word --mask"
            " --layers --out",
    "sweep": _RECONSTRUCT_FLAGS,
    "check-batch": "--guidance --steps --seed --prompt",
    "timing": "--guidance --steps --seed --prompt --edit-prompt --blend-word --layers --out",
}


def _parser_flags() -> dict[str, list[str]]:
    """Each command's flags as ``build_parser`` registers them, without
    ``--help`` and ``--config``."""
    (sub,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    return {name: [flag for action in p._actions for flag in action.option_strings
                   if flag not in ("-h", "--help", "--config")]
            for name, p in sub.choices.items()}


def test_cli_commands_take_exactly_their_flags():
    assert _parser_flags() == {name: flags.split() for name, flags in _COMMAND_FLAGS.items()}


def test_readme_lists_each_commands_flags():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    listing = readme.split("Each command takes only the flags")[1].split("\n\n")[1]
    listed = {}
    for bullet in " ".join(listing.split()).split("- ")[1:]:
        names, flags = bullet.split(": ", 1)
        for name in re.findall(r"`([\w-]+)`", names):
            listed[name] = re.findall(r"--[\w-]+", flags.split("`")[1])
    assert listed == _parser_flags()


# A value for each [run] key that a command reading that key alone accepts.
_RUN_VALUES = {
    "steps": "2", "methods": "fec-ref", "inv_guidances": "1", "samp_guidances": "3",
    "seeds": "1", "embed_seed": "7", "data_kind": "blocks", "prompts": "a dog",
    "edit_prompts": "a bird", "blend_word": "bird", "layer_start": "0", "layer_end": "2",
    "out": "r.out",
}
# The [run] keys each command reads; every command also reads the keys that
# only a file sets (embed_seed, data_kind) and steps, seeds and prompts.
_RECONSTRUCT_READS = "methods inv_guidances samp_guidances layer_start layer_end out"
_COMMAND_READS = {
    "invert": "inv_guidances out",
    "reconstruct": _RECONSTRUCT_READS,
    "edit": "methods samp_guidances edit_prompts blend_word layer_start layer_end out",
    "sweep": _RECONSTRUCT_READS,
    "check-batch": "samp_guidances",
    "timing": "samp_guidances edit_prompts blend_word layer_start layer_end out",
}


class _Ran(BaseException):
    """Raised by the first network call, past every refusal."""


@pytest.mark.parametrize(
    "command, key", [(c, k) for c in _COMMAND_READS for k in _RUN_VALUES],
    ids=[f"{c}-{k}" for c in _COMMAND_READS for k in _RUN_VALUES],
)
def test_cli_refuses_a_file_key_its_command_does_not_read(command, key, tmp_path, capsys,
                                                          monkeypatch):
    assert [k for section, k, _, _ in CONFIG_KEYS if section == "run"] == list(_RUN_VALUES)
    (tmp_path / "f.cfg").write_text(f"[run]\n{key} = {_RUN_VALUES[key]}\n")
    monkeypatch.chdir(tmp_path)

    def ran(*args, **kwargs):
        raise _Ran

    monkeypatch.setattr(ToyDenoiser, "predict", ran)
    try:
        rc = main([command, "--config", "f.cfg"])
    except _Ran:
        rc = None
    err = capsys.readouterr().err
    reads = f"embed_seed data_kind steps seeds prompts {_COMMAND_READS[command]}".split()
    if key in reads:  # it runs, or another rule refuses the value
        assert "reads no" not in err
    else:
        assert rc == 2
        assert err == f"fecdiff {command}: error: [run] {key}: {command} reads no {key}\n"


def test_cli_edit_writes_exactly_the_out_path(tmp_path, capsys):
    out = tmp_path / "edited"
    rc = main(["edit", "--method", "fec-ref", "--steps", "2", "--prompt", "a cat",
               "--edit-prompt", "a dog", "--out", str(out)])
    assert rc == 0
    assert [p.name for p in tmp_path.iterdir()] == ["edited"]
    assert np.load(out).shape == (4, 16, 16)
    assert capsys.readouterr().out.endswith(f"wrote edited latent to {out}\n")


@pytest.mark.parametrize(
    "argv, start",
    [
        (["sweep", "--config", "{tmp}/methods-warp.cfg"], "[run] methods: unknown method 'warp'"),
        (["sweep", "--config", "{tmp}/schedule-kind.cfg"],
         "[schedule] kind: unknown schedule kind 'bogus'"),
        (["sweep", "--config", "{tmp}/inv-guidances-nan.cfg"],
         "[run] inv_guidances: guidance scales must be finite, got nan"),
        (["sweep", "--config", "{tmp}/layers-3-1.cfg"],
         "[run] layer_start, [run] layer_end: invalid layer range [3, 1)"),
        (["sweep", "--steps", "0"], "--steps: steps must be in [1, total_train_steps=1000]"),
        (["reconstruct", "--layers", "0:99"], "--layers: layer_end 99 exceeds layer_count 4"),
        (["timing", "--layers", "0:99"], "--layers: layer_end 99 exceeds layer_count 4"),
        (["sweep", "--config", "{tmp}/inv-guidances-nan.cfg", "--inv-guidance", "inf"],
         "--inv-guidance: guidance scales must be finite, got inf"),
        (["sweep", "--method", "direct", "--method", "direct", "--steps", "2",
          "--prompt", "a cat"], "--method: methods lists 'direct' more than once"),
        (["sweep", "--seed", "3", "--seed", "3", "--steps", "2"],
         "--seed: seeds lists 3 more than once"),
        (["sweep", "--config", "{tmp}/seeds-repeated.cfg"],
         "[run] seeds: seeds lists 0 more than once"),
        (["reconstruct", "--method", "direct", "--steps", "2", "--seed", "1", "--seed", "2",
          "--prompt", "a cat"], "--seed: reconstruct runs one entry of seeds, not 2: 1, 2"),
        (["edit", "--config", "{tmp}/edit-prompts-two.cfg"],
         "[run] edit_prompts: edit runs one entry of edit_prompts, not 2: 'a', 'b'"),
        (["edit", "--config", "{tmp}/methods-direct.cfg", "--steps", "2"],
         "[run] methods: edit runs one method of fec-noise, fec-ref, fec-kv-reuse;"
         " got 'direct'"),
        (["sweep", "--config", "{tmp}/layer-end-direct.cfg"],
         "[run] layer_end: a layer range applies to fec-kv-reuse and fec-v-reuse only, not direct"),
        (["reconstruct", "--method", "fec-ref", "--layers", "0:2"],
         "--layers: a layer range applies to fec-kv-reuse and fec-v-reuse only, not fec-ref"),
        # The edit refusals, each set once from a file and once by a flag.
        (["edit", "--prompt", "a cat", "--edit-prompt", "a dog", "--blend-word", "dog",
          "--config", "{tmp}/layer-start-0.cfg"],
         "[run] layer_start: a layer range applies to fec-kv-reuse and fec-v-reuse only,"
         " not fec-noise"),
        (["edit", "--method", "fec-ref", "--config", "{tmp}/layer-end-2.cfg"],
         "[run] layer_end: a layer range applies to fec-kv-reuse and fec-v-reuse only,"
         " not fec-ref"),
        (["edit", "--prompt", "a cat", "--edit-prompt", "a dog", "--blend-word", "dog",
          "--layers", "1:2"],
         "--layers: a layer range applies to fec-kv-reuse and fec-v-reuse only, not fec-noise"),
        (["edit", "--method", "fec-ref", "--prompt", "a cat", "--edit-prompt", "a dog",
          "--config", "{tmp}/blend-word-dog.cfg"],
         "[run] blend_word: a mask or a blend word applies to fec-noise only, not fec-ref"),
        (["edit", "--method", "fec-kv-reuse", "--prompt", "a cat", "--edit-prompt", "a dog",
          "--blend-word", "dog"],
         "--blend-word: a mask or a blend word applies to fec-noise only, not fec-kv-reuse"),
        (["edit", "--prompt", "a dog", "--config", "{tmp}/blend-word-dog.cfg"],
         "[run] blend_word: a mask or a blend word needs an edit prompt that differs from the"
         " source"),
        (["edit", "--prompt", "a cat on a mat", "--blend-word", "cat"],
         "--blend-word: a mask or a blend word needs an edit prompt that differs from the"
         " source"),
        (["edit", "--prompt", "a cat", "--edit-prompt", "a bird",
          "--config", "{tmp}/blend-word-dog.cfg"],
         "[run] blend_word: word 'dog' not in prompt 'a bird'"),
        (["edit", "--prompt", "a cat", "--edit-prompt", "a bird", "--blend-word", "dog"],
         "--blend-word: word 'dog' not in prompt 'a bird'"),
        (["timing", "--blend-word", "dog"],
         "--blend-word: a mask or a blend word needs an edit prompt that differs from the"
         " source"),
        (["edit", "--prompt", "a cat", "--edit-prompt", "a b c d e f g h dog",
          "--blend-word", "dog"], "--blend-word: word 'dog' falls beyond the 8 token slots"),
        (["timing", "--prompt", "a cat", "--edit-prompt", "a b c d e f g h dog",
          "--blend-word", "dog"], "--blend-word: word 'dog' falls beyond the 8 token slots"),
        (["edit", "--config", "{tmp}/edit-prompts-dog.cfg"],
         "[run] edit_prompts: a fec-noise edit needs a mask or a blend word"),
        (["edit", "--prompt", "a cat", "--edit-prompt", "a dog"],
         "--edit-prompt: a fec-noise edit needs a mask or a blend word"),
        # run_edit's user-mask refusals, named by the flag that read the mask.
        (["edit", "--method", "fec-ref", "--prompt", "a cat", "--edit-prompt", "a dog",
          "--mask", "{tmp}/box.fecmask"],
         "--mask: a mask or a blend word applies to fec-noise only, not fec-ref"),
        (["edit", "--prompt", "a cat", "--edit-prompt", "a cat", "--mask", "{tmp}/box.fecmask"],
         "--mask: a mask or a blend word needs an edit prompt that differs from the source"),
        (["edit", "--steps", "2", "--prompt", "a cat", "--edit-prompt", "a dog",
          "--blend-word", "dog", "--mask", "{tmp}/box.fecmask"],
         "--blend-word, --mask: a user mask and a blend word are two mask sources; give one"),
        (["edit", "--prompt", "a cat", "--edit-prompt", "a dog",
          "--mask", "{tmp}/small.fecmask"],
         "--mask: user mask (8, 8) does not match the latent grid (16, 16)"),
        # A command without --inv-guidance inverts at its sampling guidance.
        (["edit", "--method", "fec-ref", "--steps", "2", "--prompt", "a cat",
          "--edit-prompt", "a dog", "--config", "{tmp}/inv-guidances-1.cfg"],
         "[run] inv_guidances: edit reads no inv_guidances"),
        (["check-batch", "--steps", "2", "--config", "{tmp}/inv-guidances-1.cfg"],
         "[run] inv_guidances: check-batch reads no inv_guidances"),
        (["timing", "--steps", "2", "--config", "{tmp}/inv-guidances-1.cfg"],
         "[run] inv_guidances: timing reads no inv_guidances"),
    ],
    ids=["config-methods-warp", "config-schedule-kind", "config-inv-guidances-nan",
         "config-layers-3-1", "flag-steps-0", "flag-layers-0:99", "timing-flag-layers-0:99",
         "flag-over-file", "flag-method-repeated", "flag-seed-repeated", "config-seeds-repeated",
         "reconstruct-two-seeds", "edit-config-two-edit-prompts", "edit-config-method-direct",
         "config-layer-end-direct", "flag-layers-fec-ref", "edit-config-layer-start-fec-noise",
         "edit-config-layer-end-fec-ref", "edit-flag-layers-fec-noise",
         "edit-config-blend-word-fec-ref", "edit-flag-blend-word-kv-reuse",
         "edit-config-blend-word-same-prompt", "edit-flag-blend-word-same-prompt",
         "edit-config-blend-word-absent", "edit-flag-blend-word-absent",
         "timing-flag-blend-word-absent", "edit-flag-blend-word-past-token-slots",
         "timing-flag-blend-word-past-token-slots", "edit-config-no-mask-source",
         "edit-flag-no-mask-source", "edit-flag-mask-fec-ref", "edit-flag-mask-same-prompt",
         "edit-flag-mask-and-blend-word", "edit-flag-mask-off-grid", "edit-config-inv-guidances",
         "check-batch-config-inv-guidances", "timing-config-inv-guidances"],
)
def test_cli_rejection_names_the_key_or_flag_that_set_it(argv, start, capsys, tmp_path):
    from fecdiff.io_formats import write_mask

    for name, text in _BAD_CONFIGS.items():
        (tmp_path / f"{name}.cfg").write_text(text)
    write_mask(tmp_path / "box.fecmask", np.ones((16, 16)))
    write_mask(tmp_path / "small.fecmask", np.ones((8, 8)))
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert main(argv) == 2
    (err,) = capsys.readouterr().err.splitlines()
    assert err.startswith(f"fecdiff {argv[0]}: error: {start}")


def test_cli_guidance_overrides_a_file_inv_guidances(tmp_path, capsys):
    # --guidance sets the inversion guidance too, so the file's is not in effect.
    path = tmp_path / "f.cfg"
    path.write_text(_BAD_CONFIGS["inv-guidances-1"])
    argv = ["edit", "--method", "fec-ref", "--steps", "2", "--prompt", "a cat",
            "--edit-prompt", "a dog", "--guidance", "3"]
    assert main([*argv, "--config", str(path)]) == 0
    with_file = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == with_file


# Every command that writes an --out file.
_WRITERS = (["reconstruct", "--method", "direct"], ["invert"],
            ["edit", "--method", "fec-ref", "--prompt", "a cat", "--edit-prompt", "a dog"],
            ["sweep", "--method", "direct", "--prompt", "a cat"], ["timing"])


_MISSING = "{tmp}/missing/out: its directory does not exist"
_EMPTY = "an empty path names no file"


@pytest.mark.parametrize(
    "argv, fault",
    [*(([*argv, "--out", "{tmp}/missing/out"], f"--out: {_MISSING}") for argv in _WRITERS),
     *(([*argv, "--out", ""], f"--out: {_EMPTY}") for argv in _WRITERS),
     *(([*argv, "--out", "{tmp}"], "--out: {tmp} is a directory") for argv in _WRITERS),
     (["invert", "--config", "{tmp}/out-empty.cfg"], f"[run] out: {_EMPTY}"),
     (["invert", "--config", "{tmp}/out-missing.cfg"],
      "[run] out: missing/out: its directory does not exist"),
     (["invert", "--out", "{tmp}/t", "--kv-out", "{tmp}/missing/out"], f"--kv-out: {_MISSING}"),
     (["invert", "--out", "{tmp}/t", "--kv-out", "{tmp}"], "--kv-out: {tmp} is a directory"),
     # The paths a command derives are checked before the run too.
     (["sweep", "--method", "direct", "--out", "x.csv"], "--out: x.csv.json is a directory"),
     (["invert", "--out", "t.fectraj", "--kv-out", "k.feckv"],
      "--kv-out: k.uncond.feckv is a directory"),
     (["invert"], "trajectory.fectraj is a directory")],
    ids=[*(argv[0] for argv in _WRITERS), *(f"{argv[0]}-out-empty" for argv in _WRITERS),
         *(f"{argv[0]}-out-directory" for argv in _WRITERS), "invert-config-out-empty",
         "invert-config-out-missing", "invert-kv-out-missing", "invert-kv-out-directory",
         "sweep-json-sibling-directory", "invert-uncond-sibling-directory",
         "invert-default-out-directory"],
)
def test_cli_reports_an_out_path_the_os_refuses(argv, fault, tmp_path, capsys, monkeypatch):
    # Refused before the run: no network call and no file, not even the
    # trajectory ahead of a refused K/V cache. An empty path names no file,
    # so no default file is written in its place.
    (tmp_path / "out-empty.cfg").write_text("[run]\nout =\n")
    (tmp_path / "out-missing.cfg").write_text("[run]\nout = missing/out\n")
    # Directories where a sweep's JSON report, an inversion's unconditional
    # cache and invert's default trajectory would go.
    siblings = ["k.uncond.feckv", "trajectory.fectraj", "x.csv.json"]
    for name in siblings:
        (tmp_path / name).mkdir()
    monkeypatch.chdir(tmp_path)
    calls = []
    monkeypatch.setattr(ToyDenoiser, "predict", lambda *a, **k: calls.append(a))
    assert main([*(a.replace("{tmp}", str(tmp_path)) for a in argv), "--steps", "2"]) == 2
    (err,) = capsys.readouterr().err.splitlines()
    assert err == f"fecdiff {argv[0]}: error: {fault.replace('{tmp}', str(tmp_path))}"
    assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["out-empty.cfg", "out-missing.cfg", *siblings])


@pytest.mark.parametrize(
    "text, argv",
    [("[schedule]\ntotal_steps = 10\n", ["--steps", "5"]),
     ("[run]\nsteps = 0\n", ["--steps", "2"])],
    ids=["total-steps-10-steps-5", "steps-0-steps-2"],
)
def test_cli_validates_the_file_and_flags_together(text, argv, tmp_path, capsys):
    # A file value that only the flags make valid is no error.
    path = tmp_path / "f.cfg"
    path.write_text(text)
    assert main(["reconstruct", "--config", str(path), *argv]) == 0
    assert "latent_loss" in capsys.readouterr().out
