"""Output fingerprint: one ``area sha256`` line per area of the toolkit's
results, to check that a change leaves every output byte-identical.

    python tools/fingerprint.py                        # the tree on PYTHONPATH
    PYTHONPATH=other/src python tools/fingerprint.py   # another tree

Two trees give the same line for an area exactly when that area's outputs
are the same bytes. The areas:

- ``sweep``: the rows of a sweep over every method, guidances {1, 7.5} for
  inversion and sampling, prompts "a cat" and "", and two seeds at 10
  steps, each row without its ``time_s``;
- ``edit``: the output latent and the report of 20 ``run_edit`` calls
  (box-mask and blend-word fec-noise, kv-reuse, fec-ref, and kv-reuse
  with identical prompts, at guidance 1 and 7.5, over two seeds);
- ``cli``: what ``fecdiff reconstruct`` (every method) and ``fecdiff
  invert`` print and the files they write;
- ``files``: the FECTRAJ1, FECKV1 and FECMASK1 bytes written at widths 64
  and 32 from inversions under a non-empty and the empty prompt;
- ``calls``: the network's call counts by route, per ``run_edit`` call,
  per captured inversion and per ``report_timing`` entry.

Standard library and numpy only. It calls only names that older trees of
the toolkit also have, so it fingerprints them too.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

from fecdiff import io_formats
from fecdiff.cli import main as cli_main
from fecdiff.editing import EditRequest, run_edit
from fecdiff.harness import (
    ExperimentConfig,
    generate_synthetic_latent,
    report_timing,
    run_sweep,
)
from fecdiff.sampling import RECON_METHODS, CaptureOptions, guidance_contexts, invert

STEPS = 10
SEEDS = (0, 1)
GUIDANCES = (1.0, 7.5)
PROMPTS = ("a cat", "")
SOURCE, EDIT = "a cat on a mat", "a dog on a mat"


def _json(value) -> bytes:
    return json.dumps(value, sort_keys=True).encode()


def sweep(digest):
    cfg = ExperimentConfig(methods=RECON_METHODS, inv_guidances=GUIDANCES,
                           samp_guidances=GUIDANCES, steps=STEPS, seeds=SEEDS, prompts=PROMPTS)
    for row in run_sweep(cfg).rows:
        digest.update(_json({k: v for k, v in row.items() if k != "time_s"}))


def _box(shape):
    h, w = shape
    mask = np.zeros(shape)
    mask[h // 4 : 3 * h // 4, w // 4 : 3 * w // 4] = 1.0
    return mask


def edit(digest, calls):
    net, sched, plan = ExperimentConfig(steps=STEPS).components()
    box = _box(net.config.latent_shape[1:])
    for seed in SEEDS:
        z0 = generate_synthetic_latent(seed, "gaussian", net.config.latent_shape)
        for g in GUIDANCES:
            cases = (
                ("fec-noise-box", EditRequest(SOURCE, EDIT, "fec-noise", guidance=g), box),
                ("fec-noise-blend",
                 EditRequest(SOURCE, EDIT, "fec-noise", blend_word="dog", guidance=g), None),
                ("fec-kv-reuse", EditRequest(SOURCE, EDIT, "fec-kv-reuse", guidance=g), None),
                ("fec-ref", EditRequest(SOURCE, EDIT, "fec-ref", guidance=g), None),
                ("fec-kv-reuse-same",
                 EditRequest(SOURCE, SOURCE, "fec-kv-reuse", guidance=g), None),
            )
            for name, req, mask in cases:
                net.call_counts.clear()
                out, report = run_edit(net, sched, plan, z0, req, 0, mask)
                digest.update(out.tobytes())
                digest.update(_json(dataclasses.asdict(report)))
                calls.update(_json([name, seed, g, dict(net.call_counts)]))


def cli(digest, tmp):
    def run(argv, paths):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli_main(argv)
        digest.update(_json([argv[0], rc, buf.getvalue().replace(tmp, "<dir>")]))
        for path in paths:
            with open(path, "rb") as f:
                digest.update(f.read())

    common = ["--steps", str(STEPS), "--seed", "1", "--prompt", "a cat"]
    for method in RECON_METHODS:
        out = os.path.join(tmp, f"{method}.txt")
        run(["reconstruct", "--method", method, "--guidance", "7.5", *common, "--out", out],
            [out])
    out = os.path.join(tmp, "kv-layers.txt")
    run(["reconstruct", "--method", "fec-kv-reuse", "--layers", "1:3", *common, "--out", out],
        [out])
    traj, kv = os.path.join(tmp, "cli.fectraj"), os.path.join(tmp, "cli.feckv")
    run(["invert", "--inv-guidance", "7.5", *common, "--precision", "32",
         "--out", traj, "--kv-out", kv], [traj, kv, os.path.join(tmp, "cli.uncond.feckv")])


def files(digest, calls, tmp):
    net, sched, plan = ExperimentConfig(steps=STEPS).components()
    z0 = generate_synthetic_latent(2, "blocks", net.config.latent_shape)
    box = _box(net.config.latent_shape[1:])
    for prompt in PROMPTS:
        (ctx,) = guidance_contexts(net, (prompt,), 7.5)
        net.call_counts.clear()
        res = invert(net, z0, ctx, plan, sched, CaptureOptions(kv=True), seed=2)
        calls.update(_json(["invert", prompt, dict(net.call_counts)]))
        for width in (64, 32):
            writes = (
                (io_formats.write_trajectory, res.trajectory),
                (io_formats.write_kv_cache, res.kv_cache),
                (io_formats.write_kv_cache, res.kv_cache_uncond),
                (io_formats.write_mask, box),
            )
            for i, (write, value) in enumerate(writes):
                path = os.path.join(tmp, f"file{i}")
                write(path, value, width)
                with open(path, "rb") as f:
                    digest.update(f.read())


def timing_calls(calls):
    cfg = ExperimentConfig(steps=STEPS, prompts=(SOURCE,), edit_prompts=(EDIT,))
    for name, entry in report_timing(cfg).items():
        calls.update(_json([name, entry["calls"]]))


def main() -> int:
    digests = {area: hashlib.sha256() for area in ("sweep", "edit", "cli", "files", "calls")}
    with tempfile.TemporaryDirectory(prefix="fecdiff-fingerprint-") as tmp:
        sweep(digests["sweep"])
        edit(digests["edit"], digests["calls"])
        cli(digests["cli"], tmp)
        files(digests["files"], digests["calls"], tmp)
    timing_calls(digests["calls"])
    for area, digest in digests.items():
        print(f"{area} {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
