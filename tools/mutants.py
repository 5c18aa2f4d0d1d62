"""Mutation audit: does each check in the test suite fail when the code it
guards is broken?

Each mutant replaces one piece of source text in a temporary copy of the
repository, then runs the test suite there with ``pytest -x``. A failing
suite kills the mutant; a passing one lets it survive, which means no test
checks that behaviour. Standard library only (plus pytest to run the
suite). A surviving mutant costs a full run of the suite, so the audit is
kept out of the regular test run.

    python tools/mutants.py                 # every mutant
    python tools/mutants.py NAME [NAME...]  # the named mutants
    python tools/mutants.py --list          # names and what each breaks
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# Seconds allowed for one mutant's run of the suite, about ten full runs.
TIMEOUT_S = 900

# (name, file, original text, mutated text, what the mutant breaks). The
# original text must occur exactly once in its file.
MUTANTS = [
    ("batch-check-always-passes", "src/fecdiff/harness.py",
     '"passed": forward_identical and run_identical,', '"passed": True,',
     "check_batch_invariance reports a pass whatever it measured"),
    ("batch-rows-perturbed", "src/fecdiff/denoiser.py",
     "return np.ascontiguousarray(out.reshape(*lead, c, h, w), dtype=np.float64)",
     "out = np.ascontiguousarray(out.reshape(*lead, c, h, w), dtype=np.float64)\n"
     "        if lead:\n            out[1:] += 1e-12\n        return out",
     "a stacked predict call perturbs every row after the first"),
    ("timing-paired-reconstruction-dropped", "src/fecdiff/harness.py",
     '        sample_method(net, res, "direct", ctx, plan, sched)\n', "",
     "report_timing's direct-paired entry runs no reconstruction"),
    ("mask-threshold-strict", "src/fecdiff/editing.py",
     "(m >= MASK_THRESHOLD)", "(m > MASK_THRESHOLD)",
     "derive_mask drops map values exactly at the threshold"),
    ("mask-spread-one-axis", "src/fecdiff/editing.py",
     ".repeat(PATCH_SIZE, axis=-2)", "",
     "derive_mask spreads each patch cell along the width only, so the mask is off the latent"
     " grid"),
    ("locality-fraction-kept", "src/fecdiff/editing.py",
     "keep = mask == 0.0", "keep = mask < 1.0",
     "_locality counts fractional mask values as the kept region"),
    ("neg-prompt-plain-context", "src/fecdiff/sampling.py",
     'return "direct", replace(ctx, uncond=ctx.cond)', 'return "direct", ctx',
     "neg-prompt samples under the plain context, so it is direct"),
    ("sweep-descent-key-drops-scale", "src/fecdiff/harness.py",
     "key = (method, None if _uncond_known(ctx) else ctx.scale)", "key = method",
     "a sweep shares one descent among a method's rows at every sampling guidance"),
    ("kv-reuse-no-timestep-check", "src/fecdiff/sampling.py",
     'raise KeyError(f"KV cache has no entries at planned timestep t={t}")', "pass",
     "sample_fec_kv_reuse drops its up-front cache coverage check"),
    ("loss-curve-reversed", "src/fecdiff/metrics.py",
     "for t in sorted(sampled, reverse=True)", "for t in sorted(sampled)",
     "trajectory_loss_curve lists steps in ascending t"),
    ("ssim-constants-swapped", "src/fecdiff/metrics.py",
     "c1 = (SSIM_K1 * peak) ** 2\n    c2 = (SSIM_K2 * peak) ** 2",
     "c1 = (SSIM_K2 * peak) ** 2\n    c2 = (SSIM_K1 * peak) ** 2",
     "ssim swaps its two stabilising constants"),
    ("psnr-peak-not-squared", "src/fecdiff/metrics.py",
     "peak**2 / mse", "peak / mse",
     "psnr divides the peak, not its square, by the MSE"),
    ("v-only-ignored", "src/fecdiff/denoiser.py",
     "return (k if self.v_only else k_cached.astype(k.dtype)), v_cached.astype(v.dtype)",
     "return k_cached.astype(k.dtype), v_cached.astype(v.dtype)",
     "KVInject swaps K in even for the V-only ablation"),
    ("degenerate-mask-unflagged", "src/fecdiff/editing.py",
     "& live).astype", "| ~live).astype",
     "derive_mask gives a constant map a full mask, so no step counts as degenerate"),
    ("degenerate-steps-unrecorded", "src/fecdiff/editing.py",
     "report.mask_degenerate_steps.append(t)", "pass",
     "run_edit never reports a blend-word step whose mask came out degenerate"),
    ("locality-mask-zeroed", "src/fecdiff/editing.py",
     "_locality(out, recon, user_mask)", "_locality(out, recon, np.zeros_like(user_mask))",
     "run_edit measures locality against an all-zero mask"),
    ("config-unknown-key-skipped", "src/fecdiff/harness.py",
     'raise ConfigError(f"unknown key {key!r} in [{section}]{_closest(key, known)}")',
     "continue",
     "load_config_file skips a key it does not know"),
    ("config-data-kind-unchecked", "src/fecdiff/harness.py",
     '            ("data_kind", "data_kind", self.data_kind, SYNTH_KINDS),\n', "",
     "ExperimentConfig accepts any data_kind"),
    ("kv-layer-count-short", "src/fecdiff/io_formats.py",
     "layer_count = 1 + max(layer for _, layer in cache.entries)",
     "layer_count = max(layer for _, layer in cache.entries)",
     "write_kv_cache takes the highest cached layer as the layer count and drops that layer"),
    ("config-repeats-accepted", "src/fecdiff/harness.py",
     "repeated = [x for i, x in enumerate(value) if x in value[:i]]", "repeated = []",
     "ExperimentConfig accepts a list that repeats an entry"),
    ("cli-several-entries-accepted", "src/fecdiff/cli.py",
     "if len(got) > 1:", "if len(got) > 1 and name == 'methods':",
     "a single-run command silently takes the first entry of every list but methods"),
    ("config-source-unnamed", "src/fecdiff/cli.py",
     '            message = f"{\', \'.join(named)}: {message}"\n', "            pass\n",
     "a rejected value's error does not name the file key or flag that set it"),
    ("json-inf-negative", "src/fecdiff/harness.py",
     'return "inf" if v > 0 else "-inf"', 'return "-inf"',
     "_json_value writes +inf as -inf"),
    ("writer-shape-unchecked", "src/fecdiff/io_formats.py",
     'raise ValueError(f"{what} has shape {arr.shape}, not the header\'s {shape}")', "pass",
     "the FECTRAJ1 and FECKV1 writers write an array whose shape differs from the header's"),
    ("edit-accepts-direct", "src/fecdiff/editing.py",
     'EDIT_METHODS = ("fec-noise", "fec-ref", "fec-kv-reuse")',
     'EDIT_METHODS = ("fec-noise", "fec-ref", "fec-kv-reuse", "direct")',
     "fecdiff edit and run_edit accept direct as an edit method"),
    ("uncond-known-shared-hook-ignored", "src/fecdiff/sampling.py",
     "    if ctx.shared and kv_uncond is kv:\n        return True\n", "",
     "shared branches under one hook evaluate twice, so an empty-prompt capture stores twice"
     " into one cache"),
    ("trace-maps-flat", "src/fecdiff/denoiser.py",
     "trace_to(t, layer, weights.mean(axis=-3).reshape(*lead, gh, gw, -1))",
     "trace_to(t, layer, weights.mean(axis=-3))",
     "predict hands the trace its maps flat, not laid out on the patch grid"),
    ("ddim-renoise-source-coefficient", "src/fecdiff/sampling.py",
     "np.sqrt(1.0 - ab_to) * eps", "np.sqrt(1.0 - ab_from) * eps",
     "the shared DDIM move re-noises with the source timestep's noise coefficient"),
    ("edit-without-mask-source-accepted", "src/fecdiff/editing.py",
     'if req.method == "fec-noise" and not reconstruct and unmasked:', "if False:",
     "run_edit runs a fec-noise edit of a changed prompt that has no mask source"),
    ("trajectory-order-unread", "src/fecdiff/io_formats.py",
     '(seed,) = struct.unpack("<q", r.take(8))\n'
     "        timesteps = r.check(TimestepPlan, r.u32s(steps)).timesteps",
     '(seed,) = struct.unpack("<q", r.take(8))\n        timesteps = r.u32s(steps)',
     "read_trajectory accepts a timestep list that is not strictly decreasing above 0"),
    ("cli-leftovers-top-level", "src/fecdiff/cli.py",
     "args.subparser.error(", "build_parser().error(",
     "an unknown flag is reported under the top-level usage, not the command's"),
    ("fec-noise-mask-channel-axis-dropped", "src/fecdiff/sampling.py",
     "m = mask(t, trace)[..., None, :, :] if trace is not None else mask",
     "m = mask(t, trace) if trace is not None else mask",
     "sample_fec_noise does not put a mask function's result on the channel axis"),
    ("locality-first-axis", "src/fecdiff/editing.py",
     "diff[..., keep]", "diff[:, keep]",
     "_locality indexes the mask on the axes after the first, so a stacked box edit fails"),
    ("capture-at-next-latent", "src/fecdiff/sampling.py",
     "        return guided_noise(net, z, t, ctx, route=route, kv=cache, kv_uncond=cache_u)\n",
     "        eps = guided_noise(net, z, t, ctx, route=route)\n"
     "        if cache is not None:\n"
     "            z_t = ddim_invert_step(z, eps, t_prev, t, sched)\n"
     "            guided_noise(net, z_t, t, ctx, route=route, kv=cache, kv_uncond=cache_u)\n"
     "        return eps\n",
     "capture records each step's K/V at the latent the step makes, (z_t, t), in a second"
     " evaluation, not at the (z_{t_prev}, t) the step evaluates"),
    ("capture-uncond-hook-dropped", "src/fecdiff/sampling.py",
     "kv=cache, kv_uncond=cache_u)", "kv=cache)",
     "inversion hooks only the conditional evaluation, so the unconditional cache stays empty"),
    ("edit-same-prompt-mask-source-accepted", "src/fecdiff/editing.py",
     "if reconstruct and not unmasked:", "if False:",
     "run_edit takes a user mask or a blend word that an identical-prompt edit ignores"),
    ("edit-mask-and-blend-word-accepted", "src/fecdiff/editing.py",
     "if user_mask is not None and req.blend_word is not None:", "if False:",
     "run_edit takes a user mask and a blend word together and edits under the blend word"),
    ("fec-noise-guidance-dropped", "src/fecdiff/sampling.py",
     "guided_noise(net, z, t, ctx, route=route, trace_to=trace)",
     "net.predict(z, t, ctx.cond, trace_to=trace, route=route)",
     "fec-noise blends the conditional prediction alone, unguided, with the desired noise"),
    ("unread-input-accepted", "src/fecdiff/sampling.py",
     "if value is not None and not any(reads(m, key) for m in methods):", "if False:",
     "refuse_unread refuses nothing, so every entry point drops an input its method ignores"),
    ("sweep-unread-layer-range-accepted", "src/fecdiff/harness.py",
     "    refuse_unread(cfg.methods, layers=cfg.layers)\n", "",
     "run_sweep runs a layer range that none of its methods reads, which it then drops"),
    ("reconstruct-refuses-after-inverting", "src/fecdiff/harness.py",
     "    refuse_unread((method,), layers=layers)\n    if layers",
     "    if layers",
     "reconstruct_once inverts before sample_method refuses a range its method does not read"),
    ("reconstruct-fits-after-inverting", "src/fecdiff/harness.py",
     "    if layers is not None:\n        layers.fits(net.config.layer_count)\n"
     "    (inv_ctx,) = guidance_contexts((prompt,), inv_scale, embed_seed)\n"
     "    res = invert(net, z0, inv_ctx, plan, sched, CaptureOptions(kv=method in KV_METHODS))\n",
     "    (inv_ctx,) = guidance_contexts((prompt,), inv_scale, embed_seed)\n"
     "    res = invert(net, z0, inv_ctx, plan, sched, CaptureOptions(kv=method in KV_METHODS))\n"
     "    if layers is not None:\n        layers.fits(net.config.layer_count)\n",
     "reconstruct_once inverts and captures before it finds a range that ends past the network"),
    ("config-schedule-unchecked", "src/fecdiff/harness.py",
     '        object.__setattr__(self, "sched", build_schedule(self.schedule_kind, T))\n',
     "        try:\n"
     '            object.__setattr__(self, "sched", build_schedule(self.schedule_kind, T))\n'
     "        except ConfigError:\n"
     '            object.__setattr__(self, "sched", build_schedule("scaled-linear-beta"))\n',
     "ExperimentConfig accepts a schedule_kind or total_train_steps that build_schedule refuses"
     " and keeps the default schedule"),
    ("config-plan-unchecked", "src/fecdiff/harness.py",
     '        object.__setattr__(self, "plan", timestep_plan(self.steps, T))\n',
     "        try:\n"
     '            object.__setattr__(self, "plan", timestep_plan(self.steps, T))\n'
     "        except ConfigError:\n"
     '            object.__setattr__(self, "plan", timestep_plan(min(max(self.steps, 1), T), T))\n',
     "ExperimentConfig accepts a step count outside [1, total_train_steps] and clamps it"),
    ("components-rebuild-schedule", "src/fecdiff/harness.py",
     "return ToyDenoiser(self.denoiser), self.sched, self.plan",
     "return (ToyDenoiser(self.denoiser),"
     " build_schedule(self.schedule_kind, self.total_train_steps), self.plan)",
     "components() builds the schedule again on every call"),
    ("components-rebuild-plan", "src/fecdiff/harness.py",
     "return ToyDenoiser(self.denoiser), self.sched, self.plan",
     "return (ToyDenoiser(self.denoiser), self.sched,"
     " timestep_plan(self.steps, self.total_train_steps))",
     "components() builds the plan again on every call"),
    ("schedule-t-unchecked", "src/fecdiff/schedule.py",
     "        if T < 1:\n", "        if False:\n",
     "NoiseSchedule drops its T >= 1 refusal, so T = 0 with a length-1 alpha_bar is a schedule"),
    ("schedule-t-unnamed", "src/fecdiff/schedule.py",
     'raise ConfigError(f"total_train_steps must be >= 1, got {T}", "total_train_steps")',
     'raise ConfigError(f"total_train_steps must be >= 1, got {T}")',
     "the T >= 1 refusal names no field, so the CLI cannot name the key or flag that set it"),
    ("plan-fixed-stride", "src/fecdiff/schedule.py",
     "TimestepPlan(tuple(T - round(i * T / steps) for i in range(steps)))",
     "TimestepPlan(tuple(T - i * (T // steps) for i in range(steps)))",
     "timestep_plan strides by T // steps, so the residue piles up above the last timestep"),
    ("cli-non-finite-uncaught", "src/fecdiff/cli.py",
     "except (ConfigError, FormatError, NonFiniteError, OSError) as exc:",
     "except (ConfigError, FormatError, OSError) as exc:",
     "a run that diverges ends in a NonFiniteError traceback, not one error line"),
    ("layer-fit-bare-value-error", "src/fecdiff/denoiser.py",
     'raise ConfigError(f"layer_end {self.end} exceeds layer_count {layer_count}",',
     'raise ValueError(f"layer_end {self.end} exceeds layer_count {layer_count}",',
     "LayerRange.fits raises a bare ValueError, which escapes cli.main as a traceback"),
    ("plan-steps-unchecked", "src/fecdiff/schedule.py",
     "if not 1 <= steps <= T:", "if False:",
     "timestep_plan takes a step count outside [1, T]"),
    ("kv-empty-header-accepted", "src/fecdiff/io_formats.py",
     "if layer_count == 0:", "if False:",
     "read_kv_cache reads a header of 0 layers as an empty cache"),
    ("mask-empty-accepted", "src/fecdiff/sampling.py",
     'raise ValueError(f"mask is empty: shape {mask.shape}")', "pass",
     "as_mask takes an empty mask, which then fails in numpy's reduction"),
    ("mask-read-range-unchecked", "src/fecdiff/io_formats.py",
     "return r.check(as_mask, r.array((h, w), dtype))", "return r.array((h, w), dtype)",
     "read_mask returns values outside [0, 1], NaN or infinity"),
    ("timing-layer-range-dropped", "src/fecdiff/harness.py",
     'cfg.layers if reads(method, "layers") else None, guidance', "None, guidance",
     "report_timing's kv-reuse edit injects over every layer whatever the configured range"),
    ("layer-start-zero-unset", "src/fecdiff/harness.py",
     "if self.layer_start is not None or self.layer_end is not None:",
     "if self.layer_start or self.layer_end is not None:",
     "a range set only by layer_start = 0 counts as unset, so fecdiff edit ignores it"),
    ("edit-blend-word-slot-unchecked", "src/fecdiff/editing.py",
     "    if req.blend_word is not None:\n"
     "        edit_ctx.cond.word_index(req.blend_word)  # raises when absent or past the slots\n",
     "",
     "run_edit inverts before it finds a blend word absent from or past the edit prompt's"
     " token slots"),
    ("config-file-inv-guidances-accepted", "src/fecdiff/cli.py",
     'if source.startswith("[") and name not in reads:', "if False:",
     "a command silently ignores a file key it does not read, such as edit's inv_guidances"),
    ("cli-unread-rule-covers-flags", "src/fecdiff/cli.py",
     'if source.startswith("[") and name not in reads:', "if name not in reads:",
     "the reading rule also refuses a flag's field, so edit --guidance refuses the"
     " inv_guidances it sets"),
    ("cli-flag-from-first-field", "src/fecdiff/cli.py",
     "{field for field, _ in fields} & reads", "{field for field, _ in fields[:1]} & reads",
     "a command takes a flag only when it reads the flag's first field, so invert loses"
     " --guidance"),
    ("cli-out-path-unchecked", "src/fecdiff/cli.py",
     "            _refuse_unwritable(path, name)\n", "            pass\n",
     "the CLI runs a request whose output path no write could open, and fails only at the write"
     " after the whole computation, or leaves the trajectory behind a refused K/V cache"),
    ("sweep-json-sibling-unchecked", "src/fecdiff/cli.py",
     '        _refuse_unwritable(cfg.out + ".json", "out")\n', "        pass\n",
     "fecdiff sweep runs every cell and writes the CSV before it finds that the .json report"
     " path is a directory"),
    ("invert-uncond-sibling-unchecked", "src/fecdiff/cli.py",
     '        _refuse_unwritable(uncond_path, "kv_out")\n', "        pass\n",
     "fecdiff invert runs and writes the trajectory and K/V cache before it finds that the"
     " .uncond cache path is a directory"),
    ("invert-default-out-unchecked", "src/fecdiff/cli.py",
     '    _refuse_unwritable(out, "out")\n', "    pass\n",
     "fecdiff invert without an out path runs before it finds that trajectory.fectraj is a"
     " directory"),
    ("edit-default-method-ignored", "src/fecdiff/cli.py",
     '"methods" in args.sources', "True",
     "a bare fecdiff edit runs the configuration's default method, direct, and is refused"),
    ("cli-os-error-uncaught", "src/fecdiff/cli.py",
     "except (ConfigError, FormatError, NonFiniteError, OSError) as exc:",
     "except (ConfigError, FormatError, NonFiniteError) as exc:",
     "a path the OS refuses escapes main as a traceback, not one error line and exit 2"),
    ("edit-method-field-dropped", "src/fecdiff/editing.py",
     'f" got {self.method!r}", "methods")', 'f" got {self.method!r}")',
     "EditRequest's method refusal names no field, so the CLI cannot name its flag or key"),
    ("edit-no-mask-source-field-dropped", "src/fecdiff/editing.py",
     'or it returns the source",\n                          "edit_prompts")',
     'or it returns the source")',
     "run_edit's no-mask-source refusal names no field, so the CLI cannot name the edit prompt's"
     " flag or key"),
    ("predict-runs-float64", "src/fecdiff/denoiser.py",
     "return (rng.standard_normal((n_in, n_out)) / np.sqrt(n_in)).astype(np.float32)",
     "return rng.standard_normal((n_in, n_out)) / np.sqrt(n_in)",
     "the weights stay float64, so the network computes in float64, not float32"),
    ("kv-cache-float32", "src/fecdiff/denoiser.py",
     "*np.array((k, v), dtype=np.float64)", "*np.array((k, v))",
     "KVCache stores the layer's float32 K and V, not float64 copies"),
    ("invert-trajectory-width-32", "src/fecdiff/cli.py",
     "write_trajectory(out, res.trajectory, 64)", "write_trajectory(out, res.trajectory, 32)",
     "fecdiff invert rounds the float64 path to width 32, so fec-ref from the file is not exact"),
    ("invert-cache-width-64", "src/fecdiff/cli.py",
     "write_kv_cache(args.kv_out, res.kv_cache, 32)",
     "write_kv_cache(args.kv_out, res.kv_cache, 64)",
     "fecdiff invert writes the float32 K/V at width 64, twice the bytes they need"),
    ("writer-width-after-open", "src/fecdiff/io_formats.py",
     '    dtype = _dtype(width)\n    with open(path, "wb") as f:\n',
     '    with open(path, "wb") as f:\n        dtype = _dtype(width)\n',
     "the writers open the path before they refuse a width, so a refused write empties the file"),
    ("kernel-test-same-kernel", "tests/test_blas_kernel.py",
     "OPENBLAS_CORETYPE=other)", "OPENBLAS_CORETYPE=running)",
     "the second-kernel test runs its child under the kernel it already runs"),
    ("plan-end-unbounded", "src/fecdiff/schedule.py",
     "for a, b in zip(ts, (*ts[1:], 0)):", "for a, b in zip(ts, ts[1:]):",
     "TimestepPlan drops its > 0 bound, so a plan may end at or below t = 0"),
    ("plan-empty-accepted", "src/fecdiff/schedule.py",
     "        if not ts:\n", "        if False:\n",
     "TimestepPlan accepts an empty plan, which a sampler then indexes"),
    ("reader-rule-bare-value-error", "src/fecdiff/io_formats.py",
     "except ValueError as exc:", "except FormatError as exc:",
     "a reader lets a library rule's bare ValueError escape, not a FormatError naming the path"),
    ("kv-writer-plan-unchecked", "src/fecdiff/io_formats.py",
     "    TimestepPlan(timesteps)\n", "",
     "write_kv_cache writes a cache with an entry at t <= 0, a file its reader refuses"),
    ("predict-errstate-dropped", "src/fecdiff/denoiser.py",
     'with np.errstate(over="raise", invalid="raise"):', "with np.errstate():",
     "predict warns on a float32 overflow and runs on with inf or NaN, or saturates to a"
     " finite wrong answer"),
    ("inversion-noise-at-t-prev", "src/fecdiff/sampling.py",
     "guided_noise(net, z, t, ctx, route=route, kv=cache,",
     "guided_noise(net, z, t_prev, ctx, route=route, kv=cache,",
     "each inversion step evaluates the noise at t_prev instead of t"),
]

def _test_args(root: Path) -> list[str]:
    """The suite's test files, with the slow acceptance criteria last so a
    mutant that a unit test kills is reported quickly. The check that each
    mutant's original text is in its file fails on every mutated copy, so
    it is left out."""
    files = sorted(
        str(p.relative_to(root)) for p in (root / "tests").glob("test_*.py")
        if p.name != "test_mutants.py"
    )
    files.sort(key=lambda f: f.endswith("test_acceptance.py"))
    return [*files, "perfbench"]


def run_mutant(path: str, old: str, new: str) -> tuple[str, str]:
    """Apply one mutant in a fresh copy and run the suite; returns
    (verdict, detail)."""
    with tempfile.TemporaryDirectory(prefix="fecdiff-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".perfbench_work", ".hypothesis"))
        target = copy / path
        text = target.read_text()
        if text.count(old) != 1:
            return "stale", f"{path} holds the original text {text.count(old)} times, not once"
        target.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               *_test_args(copy)]
        try:
            proc = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timeout", f"no result within {TIMEOUT_S} s"
    if proc.returncode == 0:
        return "survived", "no test failed"
    failed = [line for line in proc.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return "killed", failed[0] if failed else f"pytest exit code {proc.returncode}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = parser.parse_args(argv)
    known = {m[0]: m for m in MUTANTS}
    if args.list:
        for name, path, _, _, what in MUTANTS:
            print(f"{name:36} {path:26} {what}")
        return 0
    unknown = [n for n in args.names if n not in known]
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(unknown)}")
    unresolved = 0
    for name in args.names or list(known):
        _, path, old, new, _ = known[name]
        t0 = time.perf_counter()
        verdict, detail = run_mutant(path, old, new)
        unresolved += verdict != "killed"
        print(f"{name}: {verdict} ({time.perf_counter() - t0:.0f} s) {detail}", flush=True)
    return 1 if unresolved else 0


if __name__ == "__main__":
    sys.exit(main())
