"""Command-line interface for the toolkit.

Subcommands: invert, reconstruct, edit, sweep, ablate, check-batch,
timing. Shared flags override configuration-file keys.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .editing import EDIT_METHODS, EditRequest, run_edit
from .harness import (
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
from .io_formats import read_mask, write_kv_cache, write_mask, write_trajectory
from .sampling import CaptureOptions, guidance_contexts, invert


class UsageError(ValueError):
    """A command-line request no command can carry out; reported as one
    ``fecdiff <command>: error: ...`` line and exit code 2."""


def _add_shared(p: argparse.ArgumentParser):
    p.add_argument("--config", help="configuration file (sectioned key=value)")
    p.add_argument("--method", help="sampling method")
    p.add_argument("--guidance", type=float, help="sampling guidance scale")
    p.add_argument("--inv-guidance", type=float, help="inversion guidance scale")
    p.add_argument("--steps", type=int, help="inference steps (default 50)")
    p.add_argument("--seed", type=int, action="append", help="data seed (repeatable)")
    p.add_argument("--prompt", help="source prompt")
    p.add_argument("--edit-prompt", help="edit prompt")
    p.add_argument("--blend-word", help="token whose attention map forms the edit mask")
    p.add_argument("--mask", help="path to a FECMASK1 file")
    p.add_argument("--layers", help="self-attention layer range start:end")
    p.add_argument("--precision", type=int, choices=(32, 64), help="serialization float width")
    p.add_argument("--out", help="output path")


def _config_from_args(args) -> ExperimentConfig:
    """The flags laid over the configuration file by one ``replace``; a missing or
    malformed file, or a rejected value, is a ``UsageError``."""
    flags = {
        "methods": _one(args.method or None),
        "samp_guidances": _one(args.guidance),
        "inv_guidances": _one(args.guidance if args.inv_guidance is None else args.inv_guidance),
        "steps": args.steps,
        "seeds": tuple(args.seed) if args.seed else None,
        "prompts": _one(args.prompt),
        "edit_prompts": _one(args.edit_prompt),
        "blend_word": args.blend_word,
        "precision": args.precision,
        "out": args.out,
    }
    try:
        if args.layers:
            flags["layer_start"], flags["layer_end"] = _layer_bounds(args.layers)
        cfg = load_config_file(args.config) if args.config else ExperimentConfig()
        return replace(cfg, **{k: v for k, v in flags.items() if v is not None})
    except FileNotFoundError as exc:
        raise UsageError(f"configuration file not found: {exc}") from exc
    except (ValueError, configparser.Error) as exc:
        raise UsageError(str(exc)) from exc


def _one(value) -> tuple | None:
    return None if value is None else (value,)


def _layer_bounds(text: str) -> tuple[int, int]:
    start, _, end = text.partition(":")
    try:
        return int(start), int(end)
    except ValueError:
        raise ValueError(f"--layers takes start:end, two integers; got {text!r}") from None


def _cmd_invert(args) -> int:
    cfg = _config_from_args(args)
    net, sched, plan = cfg.components()
    z0 = generate_synthetic_latent(cfg.seeds[0], cfg.data_kind, net.config.latent_shape)
    (ctx,) = guidance_contexts(net, (cfg.prompts[0],), cfg.inv_guidances[0], cfg.embed_seed)
    res = invert(net, z0, ctx, plan, sched, CaptureOptions(kv=bool(args.kv_out)),
                 seed=cfg.seeds[0])
    out = cfg.out or "trajectory.fectraj"
    write_trajectory(out, res.trajectory, cfg.precision)
    print(f"wrote trajectory ({plan.steps} steps, guidance {ctx.scale}) to {out}")
    if args.kv_out:
        write_kv_cache(args.kv_out, res.kv_cache, cfg.precision)
        print(f"wrote KV cache ({len(res.kv_cache)} entries) to {args.kv_out}")
        root, ext = os.path.splitext(args.kv_out)
        uncond_path = f"{root}.uncond{ext}"
        write_kv_cache(uncond_path, res.kv_cache_uncond, cfg.precision)
        print(f"wrote unconditional KV cache to {uncond_path}")
    return 0


def _cmd_reconstruct(args) -> int:
    cfg = _config_from_args(args)
    net, sched, plan = cfg.components()
    method = cfg.methods[0]
    z0 = generate_synthetic_latent(cfg.seeds[0], cfg.data_kind, net.config.latent_shape)
    record: dict = {}
    out, traj = reconstruct_once(
        net, sched, plan, z0, method, cfg.prompts[0],
        cfg.inv_guidances[0], cfg.samp_guidances[0], cfg.embed_seed, cfg.layer_range(), record,
    )
    report = measure_reconstruction(z0, out, record, traj)
    for key, value in report.as_flat_dict().items():
        if not key.startswith("step_loss"):
            print(f"{key} = {value}")
    if cfg.out:
        with open(cfg.out, "w") as f:
            for key, value in report.as_flat_dict().items():
                f.write(f"{key} = {value}\n")
        print(f"wrote report to {cfg.out}")
    return 0


def _edit_method(method: str) -> str:
    """The edit sampler for a requested method; ``direct``, the default
    method of every command, selects fec-noise."""
    if method == "direct":
        return "fec-noise"
    if method not in EDIT_METHODS:
        raise UsageError(
            f"unknown edit method {method!r}; expected one of {', '.join(EDIT_METHODS)}"
        )
    return method


def _cmd_edit(args) -> int:
    if args.method:
        # Before the configuration rejects a method no sampler knows.
        _edit_method(args.method)
    cfg = _config_from_args(args)
    method = _edit_method(cfg.methods[0])
    net, sched, plan = cfg.components()
    z0 = generate_synthetic_latent(cfg.seeds[0], cfg.data_kind, net.config.latent_shape)
    # An error here means an input the edit cannot use (mask file, blend word, layers).
    try:
        user_mask = read_mask(args.mask) if args.mask else None
        req = EditRequest(
            source_prompt=cfg.prompts[0],
            edit_prompt=cfg.edit_prompts[0] if cfg.edit_prompts else cfg.prompts[0],
            method=method,
            blend_word=cfg.blend_word,
            layer_range=cfg.layer_range(),
            guidance=cfg.samp_guidances[0],
        )
        out, report = run_edit(net, sched, plan, z0, req, cfg.embed_seed, user_mask)
    except (OSError, ValueError) as exc:
        raise UsageError(str(exc)) from exc
    print(f"method = {req.method}")
    print(f"reconstructed = {report.reconstructed}")
    final_t, final_loss = report.per_step_losses[-1]
    print(f"final_step_loss[t={final_t}] = {final_loss!r}")
    if report.locality:
        for key, value in report.locality.items():
            print(f"locality.{key} = {value!r}")
    if cfg.out:
        np.save(cfg.out, out)
        print(f"wrote edited latent to {cfg.out}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _config_from_args(args)
    report = run_sweep(cfg)
    return _emit_report(report, cfg)


def _cmd_ablate(args) -> int:
    cfg = _config_from_args(args)
    report = run_ablation_v_only(cfg)
    return _emit_report(report, cfg)


def _emit_report(report, cfg) -> int:
    for agg in report.aggregate_means():
        print(
            f"method={agg['method']} inv={agg['inv_guidance']} samp={agg['samp_guidance']} "
            f"mean_loss={agg['mean_latent_loss']:.6g} mean_psnr={agg['mean_psnr']:.4g} "
            f"mean_ssim={agg['mean_ssim']:.4g} n={agg['n']}"
        )
    errors = [r for r in report.rows if r.get("error")]
    if errors:
        print(f"{len(errors)} cell(s) failed; see report for details", file=sys.stderr)
    if cfg.out:
        write_report_csv(report, cfg.out)
        write_report_json(report, cfg.out + ".json")
        print(f"wrote {cfg.out} and {cfg.out}.json")
    return 1 if errors else 0


def _cmd_check_batch(args) -> int:
    cfg = _config_from_args(args)
    result = check_batch_invariance(cfg)
    for key, value in result.items():
        print(f"{key} = {value}")
    return 0 if result["passed"] else 1


def _cmd_timing(args) -> int:
    cfg = _config_from_args(args)
    result = report_timing(cfg)
    print(json.dumps(result, indent=2))
    if cfg.out:
        with open(cfg.out, "w") as f:
            json.dump(result, f, indent=2)
    return 0


def _cmd_make_mask(args) -> int:
    # Convenience: write a centered box mask for locality experiments.
    cfg = _config_from_args(args)
    h, w = cfg.denoiser.latent_shape[1:]
    mask = np.zeros((h, w))
    mask[h // 4 : 3 * h // 4, w // 4 : 3 * w // 4] = 1.0
    out = cfg.out or "box.fecmask"
    write_mask(out, mask, cfg.precision)
    print(f"wrote box mask to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fecdiff",
                                     description="diffusion inversion and sampling toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "invert": _cmd_invert,
        "reconstruct": _cmd_reconstruct,
        "edit": _cmd_edit,
        "sweep": _cmd_sweep,
        "ablate": _cmd_ablate,
        "check-batch": _cmd_check_batch,
        "timing": _cmd_timing,
        "make-mask": _cmd_make_mask,
    }
    for name, fn in commands.items():
        p = sub.add_parser(name)
        _add_shared(p)
        if name == "invert":
            p.add_argument("--kv-out", help="also capture and write a FECKV1 cache")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        message = " ".join(str(exc).split())  # one line, whatever raised it
        print(f"fecdiff {args.command}: error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
