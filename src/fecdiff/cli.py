"""Command-line interface for the toolkit.

Subcommands: invert, reconstruct, edit, sweep, check-batch, timing.
``COMMANDS`` says which configuration fields each reads: a command takes
``--config`` and exactly the flags that set a field it reads, and refuses
a file key of any other. The file's values and the flags, which override
them field by field, build one ``ExperimentConfig`` once. The code that
owns a rule raises its refusal, and ``main`` alone turns one into a single
``fecdiff <command>: error: ...`` line and exit code 2: a ``ConfigError``
(named by the ``[section] key`` or ``--flag`` that set it), a ``FormatError``,
a ``NonFiniteError`` (a run that diverged) or an ``OSError``. Any other
exception is a bug.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .denoiser import ConfigError, NonFiniteError
from .editing import EDIT_METHODS, EditRequest, run_edit
from .harness import (
    CONFIG_KEYS,
    LIST_FIELDS,
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
from .io_formats import FormatError, read_mask, write_kv_cache, write_trajectory
from .metrics import trajectory_loss_curve
from .sampling import CaptureOptions, guidance_contexts, invert


def _one(value) -> tuple:
    return (value,)


def _layer_bounds(text: str) -> tuple[int, int]:
    start, _, end = text.partition(":")
    try:
        return int(start), int(end)
    except ValueError:
        raise ConfigError(f"--layers takes start:end, two integers; got {text!r}") from None


# Every flag but --config, as flag -> (its add_argument keywords, the
# configuration fields it sets as (field, parser) pairs). The flags are laid
# over the file's values in this order, so --inv-guidance wins over
# --guidance. A flag the command does not take leaves its fields unset.
FLAGS = {
    "--method": (dict(action="append", help="sampling method (repeatable)"),
                 (("methods", tuple),)),
    "--guidance": (dict(type=float, help="sampling guidance scale"),
                   (("samp_guidances", _one), ("inv_guidances", _one))),
    "--inv-guidance": (dict(type=float, help="inversion guidance scale"),
                       (("inv_guidances", _one),)),
    "--steps": (dict(type=int, help="inference steps (default 50)"), (("steps", int),)),
    "--seed": (dict(type=int, action="append", help="data seed (repeatable)"),
               (("seeds", tuple),)),
    "--prompt": (dict(help="source prompt"), (("prompts", _one),)),
    "--edit-prompt": (dict(help="edit prompt"), (("edit_prompts", _one),)),
    "--blend-word": (dict(help="token whose attention map forms the edit mask"),
                     (("blend_word", str),)),
    "--mask": (dict(help="path to a FECMASK1 file"), ()),
    "--layers": (dict(help="self-attention layer range start:end"),
                 (("layer_start", lambda text: _layer_bounds(text)[0]),
                  ("layer_end", lambda text: _layer_bounds(text)[1]))),
    "--out": (dict(help="output path"), (("out", str),)),
    "--kv-out": (dict(help="also capture and write a FECKV1 cache"), ()),
}


def _refuse_unwritable(path: str, name: str):
    """Refuse an output path that no write could open: an empty one, a
    directory, or one in a directory that does not exist. Checked before
    the run, so a refused request computes and writes nothing."""
    if not path:
        raise ConfigError("an empty path names no file", name)
    if os.path.isdir(path):
        raise ConfigError(f"{path} is a directory", name)
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise ConfigError(f"{path}: its directory does not exist", name)


def _config_from_args(args) -> ExperimentConfig:
    """The file's values with the flags laid over them, built once. A file
    key whose field the command does not read (``COMMANDS``) is refused,
    unless a flag overrides it. Every command but ``sweep`` runs one entry
    of each list, so a list the user set must hold one. An output path,
    ``out`` or ``--kv-out``, must be writable (``_refuse_unwritable``); a
    handler checks the paths it names itself (a sweep's ``.json`` report,
    an inversion's ``.uncond`` cache and default trajectory) the same way,
    before the run. Every refusal,
    here or in ``load_config_file`` and the config classes, is a
    ``ConfigError``, which ``main`` names by the ``args.sources`` entry
    (``[section] key`` or ``--flag``) of each field."""
    values = load_config_file(args.config) if args.config else {}
    args.sources = sources = {name: f"[{section}] {key}"
                              for section, key, _, name in CONFIG_KEYS if name in values}
    for flag, (_, fields) in FLAGS.items():
        given = getattr(args, flag[2:].replace("-", "_"), None)
        if given is not None:
            for name, parse in fields:
                values[name], sources[name] = parse(given), flag
    for flag in ("--mask", "--kv-out"):  # flags that set no field, named in their refusals
        name = flag[2:].replace("-", "_")
        if getattr(args, name, None) is not None:
            sources[name] = flag
    reads = COMMANDS[args.command][1]
    for name, source in sources.items():
        if source.startswith("[") and name not in reads:
            raise ConfigError(f"{args.command} reads no {name}", name)
    cfg = ExperimentConfig.from_fields(values)
    for name in LIST_FIELDS * (args.command != "sweep"):
        got = values.get(name, ())
        if len(got) > 1:
            raise ConfigError(f"{args.command} runs one entry of {name}, not {len(got)}:"
                              f" {', '.join(map(repr, got))}", name)
    for name, path in (("out", cfg.out), ("kv_out", getattr(args, "kv_out", None))):
        if path is not None:
            _refuse_unwritable(path, name)
    return cfg


def _cmd_invert(args, cfg: ExperimentConfig) -> int:
    net, sched, plan = cfg.components()
    z0 = generate_synthetic_latent(cfg.seeds[0], cfg.data_kind)
    (ctx,) = guidance_contexts((cfg.prompts[0],), cfg.inv_guidances[0], cfg.embed_seed)
    out = "trajectory.fectraj" if cfg.out is None else cfg.out
    _refuse_unwritable(out, "out")
    capture = args.kv_out is not None
    if capture:
        root, ext = os.path.splitext(args.kv_out)
        uncond_path = f"{root}.uncond{ext}"
        _refuse_unwritable(uncond_path, "kv_out")
        for kv_path in (args.kv_out, uncond_path):
            if os.path.realpath(kv_path) == os.path.realpath(out):
                raise ConfigError(f"the trajectory and a K/V cache would both be written to {out}")
    res = invert(net, z0, ctx, plan, sched, CaptureOptions(kv=capture), seed=cfg.seeds[0])
    # The path is float64 and fec-ref from it must stay exact; the network
    # computes K/V in float32, which width 32 holds exactly.
    write_trajectory(out, res.trajectory, 64)
    print(f"wrote trajectory ({plan.steps} steps, guidance {ctx.scale}) to {out}")
    if capture:
        write_kv_cache(args.kv_out, res.kv_cache, 32)
        print(f"wrote KV cache ({len(res.kv_cache)} entries) to {args.kv_out}")
        write_kv_cache(uncond_path, res.kv_cache_uncond, 32)
        print(f"wrote unconditional KV cache to {uncond_path}")
    return 0


def _cmd_reconstruct(args, cfg: ExperimentConfig) -> int:
    net, sched, plan = cfg.components()
    method = cfg.methods[0]
    z0 = generate_synthetic_latent(cfg.seeds[0], cfg.data_kind)
    # Only the --out file's step losses read the descent's latents.
    record = None if cfg.out is None else {}
    out, traj = reconstruct_once(
        net, sched, plan, z0, method, cfg.prompts[0],
        cfg.inv_guidances[0], cfg.samp_guidances[0], cfg.embed_seed, cfg.layers, record,
    )
    metrics = measure_reconstruction(z0, out)
    for key, value in metrics.items():
        print(f"{key} = {value}")
    if cfg.out is not None:
        curve = trajectory_loss_curve(record, traj)
        lines = [*metrics.items(), *((f"step_loss[{t}]", loss) for t, loss in curve)]
        with open(cfg.out, "w") as f:
            f.writelines(f"{key} = {value}\n" for key, value in lines)
        print(f"wrote report to {cfg.out}")
    return 0


def _cmd_edit(args, cfg: ExperimentConfig) -> int:
    source = cfg.prompts[0]
    edit = cfg.edit_prompts[0] if cfg.edit_prompts else source
    req = EditRequest(
        source_prompt=source,
        edit_prompt=edit,
        method=cfg.methods[0] if "methods" in args.sources else EDIT_METHODS[0],
        blend_word=cfg.blend_word,
        layer_range=cfg.layers,
        guidance=cfg.samp_guidances[0],
    )
    net, sched, plan = cfg.components()
    z0 = generate_synthetic_latent(cfg.seeds[0], cfg.data_kind)
    user_mask = None if args.mask is None else read_mask(args.mask)
    out, report = run_edit(net, sched, plan, z0, req, cfg.embed_seed, user_mask)
    print(f"method = {req.method}")
    print(f"reconstructed = {report.reconstructed}")
    final_t, final_loss = report.per_step_losses[-1]
    print(f"final_step_loss[t={final_t}] = {final_loss!r}")
    if report.locality:
        for key, value in report.locality.items():
            print(f"locality.{key} = {value!r}")
    if cfg.out is not None:
        with open(cfg.out, "wb") as f:  # np.save given a name would append ".npy"
            np.save(f, out)
        print(f"wrote edited latent to {cfg.out}")
    return 0


def _cmd_sweep(args, cfg: ExperimentConfig) -> int:
    if cfg.out is not None:
        _refuse_unwritable(cfg.out + ".json", "out")
    report = run_sweep(cfg)
    for agg in report.aggregate_means():
        print(
            f"method={agg['method']} inv={agg['inv_guidance']} samp={agg['samp_guidance']} "
            f"mean_loss={agg['mean_latent_loss']:.6g} mean_psnr={agg['mean_psnr']:.4g} "
            f"mean_ssim={agg['mean_ssim']:.4g} n={agg['n']}"
        )
    errors = [r for r in report.rows if r.get("error")]
    if errors:
        print(f"{len(errors)} cell(s) failed; see report for details", file=sys.stderr)
    if cfg.out is not None:
        write_report_csv(report, cfg.out)
        write_report_json(report, cfg.out + ".json")
        print(f"wrote {cfg.out} and {cfg.out}.json")
    return 1 if errors else 0


def _cmd_check_batch(args, cfg: ExperimentConfig) -> int:
    result = check_batch_invariance(cfg)
    for key, value in result.items():
        print(f"{key} = {value}")
    return 0 if result["passed"] else 1


def _cmd_timing(args, cfg: ExperimentConfig) -> int:
    result = report_timing(cfg)
    print(json.dumps(result, indent=2))
    if cfg.out is not None:
        with open(cfg.out, "w") as f:
            json.dump(result, f, indent=2)
    return 0


# Every command as (handler, the configuration fields it reads): those only
# a file sets ([schedule], [denoiser], embed_seed, data_kind), steps, seeds,
# prompts, and its own list, where mask and kv_out stand for the flags that
# set no field.
_READ_BY_ALL = {name for section, _, _, name in CONFIG_KEYS if section != "run"} | {
    "embed_seed", "data_kind", "steps", "seeds", "prompts"}
COMMANDS = {name: (fn, _READ_BY_ALL | set(reads.split())) for name, fn, reads in (
    ("invert", _cmd_invert, "inv_guidances out kv_out"),
    ("reconstruct", _cmd_reconstruct,
     "methods inv_guidances samp_guidances layer_start layer_end out"),
    ("edit", _cmd_edit,
     "methods samp_guidances edit_prompts blend_word layer_start layer_end out mask"),
    ("sweep", _cmd_sweep, "methods inv_guidances samp_guidances layer_start layer_end out"),
    ("check-batch", _cmd_check_batch, "samp_guidances"),
    ("timing", _cmd_timing, "samp_guidances edit_prompts blend_word layer_start layer_end out"),
)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fecdiff",
                                     description="diffusion inversion and sampling toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, reads) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="configuration file (sectioned key=value)")
        # A command takes the flags that set a field it reads, or are named in it.
        for flag, (keywords, fields) in FLAGS.items():
            if {field for field, _ in fields} & reads or flag[2:].replace("-", "_") in reads:
                p.add_argument(flag, **keywords)
        p.set_defaults(fn=fn, subparser=p)
    return parser


def main(argv=None) -> int:
    args, extras = build_parser().parse_known_args(argv)
    if extras:
        # Reported with the usage that lists the flags this command takes.
        args.subparser.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        return args.fn(args, _config_from_args(args))
    except (ConfigError, FormatError, NonFiniteError, OSError) as exc:
        message = " ".join(str(exc).split())  # one line, whatever raised it
        # A rejected value is reported under the key or flag that set it.
        sources = getattr(args, "sources", {})
        named = dict.fromkeys(sources[f] for f in getattr(exc, "fields", ()) if f in sources)
        if named:
            message = f"{', '.join(named)}: {message}"
        print(f"fecdiff {args.command}: error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
