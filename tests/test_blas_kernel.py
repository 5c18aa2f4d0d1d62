"""The exactness contracts under a second BLAS kernel.

Output digests hold only under the kernel that ``tools/fingerprint.py``
names on its first line, but the contracts must hold under any: this runs a
small exactness set in a child process whose OpenBLAS runs another kernel.
"""

import hashlib
import importlib.util
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from fecdiff.harness import (
    ExperimentConfig,
    check_batch_invariance,
    generate_synthetic_latent,
    reconstruct_once,
)
from fecdiff.metrics import latent_loss

ROOT = Path(__file__).resolve().parents[1]


def _fingerprint():
    spec = importlib.util.spec_from_file_location("fingerprint", ROOT / "tools" / "fingerprint.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def exactness_set() -> dict:
    """The running kernel's line and what the contracts measure under it:
    fec-ref bit-exactness, the zero-mask fec-noise loss, stacked-row batch
    invariance, two direct runs byte-equal, and the fingerprint's ``calls``
    and ``refusals`` digests, computed in the order the fingerprint uses."""
    fp = _fingerprint()
    cfg = ExperimentConfig(steps=10, prompts=("a cat",))
    net, sched, plan = cfg.components()
    z0 = generate_synthetic_latent(1, "gaussian")

    def run(method):
        return reconstruct_once(net, sched, plan, z0, method, "a cat", 7.5, 7.5)[0]

    digests = {area: hashlib.sha256() for area in ("edit", "calls", "files", "reads", "refusals")}
    with tempfile.TemporaryDirectory(prefix="fecdiff-kernel-") as tmp:
        fp.edit(digests["edit"], digests["calls"])
        fp.files(digests["files"], digests["reads"], digests["calls"], tmp)
        fp.refusals(digests["refusals"], tmp)
    fp.timing_calls(digests["calls"])
    return {
        "blas": fp.blas_line(),
        "fec_ref_exact": run("fec-ref").tobytes() == z0.tobytes(),
        "fec_noise_loss": latent_loss(z0, run("fec-noise")),
        "batch_invariant": check_batch_invariance(cfg)["passed"],
        "runs_byte_equal": run("direct").tobytes() == run("direct").tobytes(),
        "calls": digests["calls"].hexdigest(),
        "refusals": digests["refusals"].hexdigest(),
    }


def test_contracts_hold_under_a_second_blas_kernel():
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {}).get("name", "")
    if "openblas" not in blas.lower():
        pytest.skip(f"numpy's BLAS is {blas or 'unnamed'}, not OpenBLAS, so"
                    " OPENBLAS_CORETYPE cannot pick its kernel")
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip(f"the kernels named here are x86-64 ones; this is {platform.machine()}")
    here = exactness_set()
    running = here["blas"].split()[-1]
    if running == "unknown":
        pytest.skip("numpy's OpenBLAS does not name its running kernel")
    other = "Nehalem" if running != "Nehalem" else "Prescott"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_CORETYPE=other)
    code = (f"import json, sys; sys.path.insert(0, {str(ROOT / 'tests')!r});"
            " import test_blas_kernel; print(json.dumps(test_blas_kernel.exactness_set()))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True, timeout=300)
    child = json.loads(proc.stdout.splitlines()[-1])
    # The same kernel twice would pass vacuously.
    assert child["blas"].split()[-1] not in (running, "unknown"), (child["blas"], here["blas"])
    assert child["fec_ref_exact"]
    assert child["fec_noise_loss"] < 1e-12
    assert child["batch_invariant"]
    assert child["runs_byte_equal"]
    assert (child["calls"], child["refusals"]) == (here["calls"], here["refusals"])
