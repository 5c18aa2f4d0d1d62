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
  per captured inversion and per ``report_timing`` entry;
- ``reads``: what the three readers return for every file ``files``
  writes: the array bytes, and a trajectory's timesteps, guidance and seed;
- ``commands``: what ``fecdiff edit`` (box mask, blend word, kv-reuse with
  ``--layers``, fec-ref), ``sweep`` (with ``--out``, and with ``--config``),
  ``check-batch`` and ``timing`` print and write, without the ``time_s``
  entries; of ``timing`` only the call counts.

Standard library and numpy only. It calls only names that older trees of
the toolkit also have, so it fingerprints them too.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

from fecdiff import io_formats
from fecdiff.cli import main as cli_main
from fecdiff.denoiser import KVCache
from fecdiff.editing import EditRequest, run_edit
from fecdiff.harness import (
    ExperimentConfig,
    generate_synthetic_latent,
    report_timing,
    run_sweep,
)
from fecdiff.sampling import (
    RECON_METHODS,
    CaptureOptions,
    Trajectory,
    guidance_contexts,
    invert,
)

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


def _cli(argv, tmp) -> tuple[int, str]:
    """``fecdiff argv``'s exit code and stdout, with ``tmp`` as ``<dir>``."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli_main(argv)
    return rc, buf.getvalue().replace(tmp, "<dir>")


def _run(digest, tmp, argv, paths=()):
    digest.update(_json([argv[0], *_cli(argv, tmp)]))
    for path in paths:
        with open(path, "rb") as f:
            digest.update(f.read())


def cli(digest, tmp):
    run = functools.partial(_run, digest, tmp)
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


def _hash_read(digest, value):
    """The arrays a reader returned, and a trajectory's header fields."""
    if isinstance(value, Trajectory):
        digest.update(_json([list(value.timesteps), value.guidance, value.seed]))
        arrays = [value[t] for t in (*value.timesteps, 0)]
    elif isinstance(value, KVCache):
        arrays = [a for key in sorted(value.entries) for a in value.entries[key]]
    else:
        arrays = [value]
    for a in arrays:
        digest.update(a.tobytes())


def files(digest, reads, calls, tmp):
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
                (io_formats.write_trajectory, res.trajectory, io_formats.read_trajectory),
                (io_formats.write_kv_cache, res.kv_cache, io_formats.read_kv_cache),
                (io_formats.write_kv_cache, res.kv_cache_uncond, io_formats.read_kv_cache),
                (io_formats.write_mask, box, io_formats.read_mask),
            )
            for i, (write, value, read) in enumerate(writes):
                path = os.path.join(tmp, f"file{i}")
                write(path, value, width)
                with open(path, "rb") as f:
                    digest.update(f.read())
                _hash_read(reads, read(path))


def _without_time(digest, csv_path):
    """A sweep report's CSV and JSON without their ``time_s`` entries."""
    with open(csv_path, newline="") as f:
        rows = list(csv.reader(f))
    drop = rows[0].index("time_s")
    digest.update(_json([row[:drop] + row[drop + 1 :] for row in rows]))
    with open(csv_path + ".json") as f:
        payload = json.load(f)
    for row in payload["rows"]:
        del row["time_s"]
    digest.update(_json(payload))


def commands(digest, tmp):
    run = functools.partial(_run, digest, tmp)
    common = ["--steps", str(STEPS), "--seed", "1"]
    edit = [*common, "--prompt", SOURCE, "--edit-prompt", EDIT]
    box = os.path.join(tmp, "box.fecmask")
    io_formats.write_mask(box, _box((16, 16)))
    for i, flags in enumerate((["--mask", box], ["--blend-word", "dog"],
                               ["--method", "fec-kv-reuse", "--layers", "1:3"],
                               ["--method", "fec-ref"])):
        out = os.path.join(tmp, f"edit{i}.npy")
        run(["edit", *edit, *flags, "--out", out], [out])
    out = os.path.join(tmp, "sweep.csv")
    run(["sweep", *common, "--seed", "2", "--prompt", "a cat", "--out", out])
    _without_time(digest, out)
    config = os.path.join(tmp, "sweep.cfg")
    with open(config, "w") as f:
        f.write("[schedule]\nkind = linear-beta\n[denoiser]\nlayers = 2\n"
                "[run]\nsteps = 4\nmethods = neg-prompt; fec-noise; fec-v-reuse\n"
                "samp_guidances = 1, 7.5\nseeds = 3\ndata_kind = blocks\nprompts = a dog\n")
    run(["sweep", "--config", config])
    run(["check-batch", *common, "--prompt", "a cat"])
    rc, stdout = _cli(["timing", *edit], tmp)
    digest.update(_json([rc, {name: entry["calls"] for name, entry in json.loads(stdout).items()}]))


def timing_calls(calls):
    cfg = ExperimentConfig(steps=STEPS, prompts=(SOURCE,), edit_prompts=(EDIT,))
    for name, entry in report_timing(cfg).items():
        calls.update(_json([name, entry["calls"]]))


def main() -> int:
    areas = ("sweep", "edit", "cli", "files", "calls", "reads", "commands")
    digests = {area: hashlib.sha256() for area in areas}
    with tempfile.TemporaryDirectory(prefix="fecdiff-fingerprint-") as tmp:
        sweep(digests["sweep"])
        edit(digests["edit"], digests["calls"])
        cli(digests["cli"], tmp)
        files(digests["files"], digests["reads"], digests["calls"], tmp)
        commands(digests["commands"], tmp)
    timing_calls(digests["calls"])
    for area, digest in digests.items():
        print(f"{area} {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
