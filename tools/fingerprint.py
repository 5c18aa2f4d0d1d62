"""Output fingerprint: one ``area sha256`` line per area of the toolkit's
results, to check that a change leaves every output byte-identical.

    python tools/fingerprint.py                        # the tree on PYTHONPATH
    PYTHONPATH=other/src python tools/fingerprint.py   # another tree

Two trees give the same line for an area exactly when that area's outputs
are the same bytes. The digests depend on the BLAS kernel that runs the
network's products, so a first line, ``blas <version> core <name>``, names
it (``unknown`` where numpy's bundled OpenBLAS does not say); compare
digests only under the same kernel. The areas:

- ``sweep``: the rows of a sweep over every method, guidances {1, 7.5} for
  inversion and sampling, prompts "a cat" and "", and two seeds at 10
  steps, each row without its ``time_s``;
- ``edit``: the output latent and the report of 20 ``run_edit`` calls
  (box-mask and blend-word fec-noise, kv-reuse, fec-ref, and kv-reuse
  with identical prompts, at guidance 1 and 7.5, over two seeds);
- ``cli``: what ``fecdiff reconstruct`` (every method) and ``fecdiff
  invert --kv-out`` print and the files they write;
- ``files``: the FECTRAJ1, FECKV1 and FECMASK1 bytes written at widths 64
  and 32 from inversions under a non-empty and the empty prompt;
- ``calls``: the network's call counts by route, per ``run_edit`` call,
  per captured inversion and per ``report_timing`` entry;
- ``reads``: what the three readers return for every file ``files``
  writes: the array bytes, and a trajectory's timesteps, guidance and seed;
- ``commands``: what ``fecdiff edit`` (box mask, blend word, kv-reuse with
  ``--layers``, fec-ref), ``sweep`` (with ``--out``, and with ``--config``),
  ``check-batch`` and ``timing`` print and write, without the ``time_s``
  entries; of ``timing`` only the call counts;
- ``refusals``: for each request of a fixed list that the toolkit must
  refuse (one or more per kind of exit-2 refusal, a file key that each
  command does not read, an ``--out`` under a missing directory and one
  naming a directory for every command that writes one, the same two for
  ``--kv-out`` and ``[run] out``, an empty path for each path flag and
  for ``[run] out``, and a sweep's ``.json`` report and an inversion's
  ``.uncond`` cache whose path is a directory), the argv, the exit code and the last stderr
  line, or the type name of an exception that escaped ``main``. They run
  in the scratch directory, so a tree that accepts a request writes there.

Standard library and numpy only. It calls only names that older trees of
the toolkit also have, so it fingerprints them too.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import dataclasses
import functools
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path

import numpy as np

from fecdiff import io_formats
from fecdiff.cli import main as cli_main
from fecdiff.denoiser import KVCache, embed_prompt
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
    GuidanceContext,
    Trajectory,
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
        z0 = generate_synthetic_latent(seed, "gaussian")
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
    run(["invert", "--inv-guidance", "7.5", *common, "--out", traj, "--kv-out", kv],
        [traj, kv, os.path.join(tmp, "cli.uncond.feckv")])


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
    z0 = generate_synthetic_latent(2, "blocks")
    box = _box(net.config.latent_shape[1:])
    for prompt in PROMPTS:
        ctx = GuidanceContext(7.5, embed_prompt(prompt, 0), embed_prompt("", 0))
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


# Requests fecdiff must refuse, with ``{tmp}`` for the scratch directory.
# The files they name are the _REFUSAL_FILES written there.
_REFUSED = (
    "reconstruct --mask {tmp}/box.fecmask",
    "invert --precision 16",
    "sweep --config {tmp}/missing.cfg",
    "sweep --config {tmp}",
    "sweep --config {tmp}/headless.cfg",
    "sweep --config {tmp}/undecodable.cfg",
    "sweep --config {tmp}/shedule.cfg",
    "sweep --config {tmp}/run-step.cfg",
    "reconstruct --config {tmp}/attn-scale.cfg",
    "reconstruct --method warp",
    "sweep --config {tmp}/data-kind.cfg",
    "sweep --config {tmp}/schedule-kind.cfg",
    "sweep --config {tmp}/methods-empty.cfg",
    "sweep --config {tmp}/prompts-blank-entry.cfg",
    "sweep --method direct --method direct",
    "sweep --config {tmp}/seeds-repeated.cfg",
    "sweep --guidance nan",
    "invert --config {tmp}/precision-16.cfg",
    "reconstruct --config {tmp}/dim-5.cfg",
    "reconstruct --config {tmp}/heads-3.cfg",
    "reconstruct --config {tmp}/layers-negative.cfg",
    "reconstruct --config {tmp}/denoiser-seed-negative.cfg",
    "reconstruct --seed -1",
    "reconstruct --layers a:b",
    "reconstruct --layers 2:1",
    "sweep --config {tmp}/total-steps-0.cfg",
    "sweep --steps 0",
    "sweep --steps 1001",
    "sweep --config {tmp}/total-steps-negative.cfg",
    "reconstruct --method fec-kv-reuse --layers 0:99",
    "reconstruct --method direct --layers 1:3",
    "sweep --method direct --method fec-noise --layers 1:3",
    "reconstruct --seed 1 --seed 2",
    "edit --config {tmp}/edit-prompts-two.cfg",
    "edit --method direct",
    "edit --config {tmp}/methods-direct.cfg",
    "edit --prompt cat --edit-prompt dog",
    "timing --prompt 'a cat' --edit-prompt 'cat a'",
    "edit --prompt cat --edit-prompt dog --mask {tmp}/missing.fecmask",
    "edit --prompt cat --edit-prompt dog --mask {tmp}/bad-magic.fecmask",
    "edit --prompt cat --edit-prompt dog --mask {tmp}/empty.fecmask",
    "edit --prompt cat --edit-prompt dog --mask {tmp}/out-of-range.fecmask",
    "edit --prompt cat --edit-prompt dog --mask {tmp}/small.fecmask",
    "edit --method fec-ref --prompt cat --edit-prompt dog --mask {tmp}/box.fecmask",
    "edit --prompt cat --edit-prompt cat --mask {tmp}/box.fecmask",
    "edit --steps 2 --prompt cat --edit-prompt dog --blend-word dog --mask {tmp}/box.fecmask",
    "edit --method fec-kv-reuse --prompt cat --edit-prompt dog --blend-word dog",
    "edit --method fec-ref --prompt cat --edit-prompt dog --config {tmp}/blend-word-dog.cfg",
    "edit --prompt cat --edit-prompt cat --blend-word cat",
    "edit --prompt cat --edit-prompt bird --blend-word dog",
    "timing --blend-word dog",
    "edit --method fec-ref --layers 0:4",
    "edit --prompt cat --edit-prompt dog --blend-word dog --config {tmp}/layer-start-0.cfg",
    "edit --prompt cat --edit-prompt 'a b c d e f g h dog' --blend-word dog",
    "timing --prompt cat --edit-prompt 'a b c d e f g h dog' --blend-word dog",
    "invert --out {tmp}/a.bin --kv-out {tmp}/a.bin",
    "invert --out {tmp}/a.uncond.bin --kv-out {tmp}/a.bin",
    "edit --steps 2 --method fec-ref --prompt cat --edit-prompt dog"
    " --config {tmp}/inv-guidances-1.cfg",
    "check-batch --steps 2 --config {tmp}/inv-guidances-1.cfg",
    "timing --steps 2 --config {tmp}/inv-guidances-1.cfg",
    "invert --steps 2 --config {tmp}/methods-two.cfg",
    "reconstruct --steps 2 --method direct --config {tmp}/precision-32.cfg",
    "edit --steps 2 --method fec-ref --prompt cat --edit-prompt dog"
    " --config {tmp}/precision-32.cfg",
    "sweep --steps 2 --method direct --config {tmp}/blend-word-dog.cfg",
    "check-batch --steps 2 --config {tmp}/methods-two.cfg",
    "timing --steps 2 --config {tmp}/methods-direct.cfg",
    "reconstruct --steps 2 --method direct --out {tmp}/missing/r.txt",
    "invert --steps 2 --out {tmp}/missing/t.fectraj",
    "edit --steps 2 --method fec-ref --prompt cat --edit-prompt dog --out {tmp}/missing/e.npy",
    "sweep --steps 2 --method direct --out {tmp}/missing/s.csv",
    "timing --steps 2 --out {tmp}/missing/t.json",
    "invert --steps 2 --out '' --kv-out ''",
    "invert --steps 2 --out {tmp}/t.fectraj --kv-out ''",
    "edit --steps 2 --prompt cat --edit-prompt dog --blend-word dog --mask ''",
    "reconstruct --steps 2 --method direct --out ''",
    "invert --steps 2 --out ''",
    "invert --steps 2 --config {tmp}/out-empty.cfg",
    "edit --steps 2 --method fec-ref --prompt cat --edit-prompt dog --out ''",
    "sweep --steps 2 --method direct --out ''",
    "timing --steps 2 --out ''",
    "edit --steps 2 --config {tmp}/layers-0.cfg --method fec-kv-reuse --prompt cat"
    " --edit-prompt dog",
    "edit --steps 2 --config {tmp}/layers-0.cfg --prompt cat --edit-prompt dog --blend-word dog",
    "invert --steps 2 --config {tmp}/layers-0.cfg --out {tmp}/t.fectraj --kv-out {tmp}/k.feckv",
    "reconstruct --steps 2 --guidance 1e300",
    "edit --steps 2 --guidance 1e300",
    "invert --steps 2 --guidance 1e300",
    "invert --steps 2 --guidance 1e20",
    "check-batch --steps 2 --guidance 1e300",
    "timing --steps 2 --guidance 1e300",
    "edit --method fec-kv-reuse --config {tmp}/constant-beta-40000.cfg",
    "reconstruct --steps 2 --method direct --out {tmp}",
    "invert --steps 2 --out {tmp}",
    "edit --steps 2 --method fec-ref --prompt cat --edit-prompt dog --out {tmp}",
    "sweep --steps 2 --method direct --out {tmp}",
    "timing --steps 2 --out {tmp}",
    "invert --steps 2 --config {tmp}/out-missing.cfg",
    "invert --steps 2 --config {tmp}/out-directory.cfg",
    "invert --steps 2 --out {tmp}/t.fectraj --kv-out {tmp}/missing/k.feckv",
    "invert --steps 2 --out {tmp}/t.fectraj --kv-out {tmp}",
    "sweep --steps 2 --method direct --out {tmp}/siblings/x.csv",
    "invert --steps 2 --out {tmp}/siblings/t.fectraj --kv-out {tmp}/siblings/k.feckv",
)
# Directories where the two requests above would write a derived path. They
# sit in a subdirectory: every request runs in the scratch directory, so a
# trajectory.fectraj there would change what invert without --out does.
_REFUSAL_DIRS = ("siblings/x.csv.json", "siblings/k.uncond.feckv")

_REFUSAL_FILES = {
    "headless.cfg": b"steps = 3\n",
    "undecodable.cfg": b"\xff[run]\n",
    "shedule.cfg": b"[shedule]\nkind = cosine\n",
    "run-step.cfg": b"[run]\nstep = 3\n",
    "attn-scale.cfg": b"[denoiser]\nattn_scale = 1\n",
    "data-kind.cfg": b"[run]\ndata_kind = checkerboard\n",
    "schedule-kind.cfg": b"[schedule]\nkind = bogus\n",
    "methods-empty.cfg": b"[run]\nmethods = ;\n",
    "prompts-blank-entry.cfg": b"[run]\nprompts = a cat; ; a dog\n",
    "seeds-repeated.cfg": b"[run]\nseeds = 0 0\n",
    "precision-16.cfg": b"[run]\nprecision = 16\n",
    "dim-5.cfg": b"[denoiser]\ndim = 5\n",
    "heads-3.cfg": b"[denoiser]\nheads = 3\n",
    "layers-negative.cfg": b"[denoiser]\nlayers = -1\n",
    "layers-0.cfg": b"[denoiser]\nlayers = 0\n",
    "denoiser-seed-negative.cfg": b"[denoiser]\nseed = -1\n",
    "total-steps-0.cfg": b"[schedule]\ntotal_steps = 0\n",
    "total-steps-negative.cfg": b"[schedule]\ntotal_steps = -1\n",
    "edit-prompts-two.cfg": b"[run]\nedit_prompts = a; b\n",
    "methods-direct.cfg": b"[run]\nmethods = direct\n",
    "methods-two.cfg": b"[run]\nmethods = direct; fec-ref\n",
    "precision-32.cfg": b"[run]\nprecision = 32\n",
    "blend-word-dog.cfg": b"[run]\nblend_word = dog\n",
    "layer-start-0.cfg": b"[run]\nlayer_start = 0\n",
    "inv-guidances-1.cfg": b"[run]\ninv_guidances = 1\n",
    "out-empty.cfg": b"[run]\nout =\n",
    "out-missing.cfg": b"[run]\nout = missing/t.fectraj\n",
    "out-directory.cfg": b"[run]\nout = .\n",
    "constant-beta-40000.cfg": b"[schedule]\nkind = constant-beta\ntotal_steps = 40000\n",
    "bad-magic.fecmask": bytes(20),
}


def _mask_bytes(values: np.ndarray) -> bytes:
    """A FECMASK1 file of ``values``, unchecked, so it may hold what the
    reader refuses."""
    header = np.array([1, 64, *values.shape], dtype="<u4").tobytes()
    return b"FECMASK1" + header + values.astype("<f8").tobytes()


def refusals(digest, tmp):
    files = dict(_REFUSAL_FILES)
    files["box.fecmask"] = _mask_bytes(_box((16, 16)))
    files["empty.fecmask"] = _mask_bytes(np.zeros((0, 0)))
    files["out-of-range.fecmask"] = _mask_bytes(np.full((16, 16), 2.0))
    files["small.fecmask"] = _mask_bytes(np.ones((8, 8)))
    for name, data in files.items():
        with open(os.path.join(tmp, name), "wb") as f:
            f.write(data)
    for name in _REFUSAL_DIRS:
        os.makedirs(os.path.join(tmp, name))
    cwd = os.getcwd()
    os.chdir(tmp)
    try:
        for request in _REFUSED:
            argv = shlex.split(request.replace("{tmp}", tmp))
            err = io.StringIO()
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    outcome = cli_main(argv)
            except SystemExit as exc:  # argparse's own refusals
                outcome = exc.code
            except Exception as exc:  # noqa: BLE001 - what escaped is the result
                outcome = type(exc).__name__
            lines = err.getvalue().replace(tmp, "<dir>").splitlines()
            digest.update(_json([request, outcome, lines[-1] if lines else ""]))
    finally:
        os.chdir(cwd)


def timing_calls(calls):
    cfg = ExperimentConfig(steps=STEPS, prompts=(SOURCE,), edit_prompts=(EDIT,))
    for name, entry in report_timing(cfg).items():
        calls.update(_json([name, entry["calls"]]))


def blas_line() -> str:
    """``blas <version> core <name>``: the BLAS numpy was built against and
    the kernel its bundled OpenBLAS picked for this CPU."""
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    core = "unknown"
    for path in sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas*")):
        corename = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = (), ctypes.c_char_p
            core = corename().decode()
    return f"blas {blas.get('version', 'unknown')} core {core}"


def main() -> int:
    print(blas_line(), flush=True)
    areas = ("sweep", "edit", "cli", "files", "calls", "reads", "commands", "refusals")
    digests = {area: hashlib.sha256() for area in areas}
    with tempfile.TemporaryDirectory(prefix="fecdiff-fingerprint-") as tmp:
        sweep(digests["sweep"])
        edit(digests["edit"], digests["calls"])
        cli(digests["cli"], tmp)
        files(digests["files"], digests["reads"], digests["calls"], tmp)
        commands(digests["commands"], tmp)
        refusals(digests["refusals"], tmp)
    timing_calls(digests["calls"])
    for area, digest in digests.items():
        print(f"{area} {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
