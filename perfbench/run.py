"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload {sweep,edit,io} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; fecdiff is imported from its ``src``
directory. ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs
the same jobs with every layer traced and prints the per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("sweep", "edit", "io")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def limit_blas_threads() -> list[str]:
    """Default every BLAS thread variable to 1 before numpy loads: the
    matrices here are 64 wide, and one closed-loop caller measured faster
    and steadier single-threaded. Returns a warning per variable that asks
    for more threads than there are processors."""
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    warnings = []
    for var in BLAS_THREAD_VARS:
        value = os.environ[var]
        if value.isdigit() and int(value) > nproc():
            warnings.append(f"{var}={value} exceeds nproc={nproc()}")
    return warnings


def import_program():
    """Import fecdiff from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "fecdiff" / "__init__.py").is_file():
        raise ImportError(f"no fecdiff package under {SRC}")
    sys.path.insert(0, str(SRC))
    import fecdiff

    if SRC not in Path(fecdiff.__file__).resolve().parents:
        raise ImportError(f"fecdiff was imported from {fecdiff.__file__}, not {SRC}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload_seed": seed,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for warning in limit_blas_threads():
        print(f"warning: {warning}", file=sys.stderr)
    try:
        import_program()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH_DIR))
    import tracing
    import workloads

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    wl = workloads.make_workload(args.workload, str(workdir))
    try:
        result = workloads.run_workload(wl, args.seed, args.seconds, trace=bool(args.trace))
    finally:
        wl.close()
        with contextlib.suppress(OSError):  # other runs may still use it
            workdir.parent.rmdir()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        values = tracing.layer_metrics(result.tracer, result.latencies, wl.net.config)
        units = {m["name"]: m["unit"] for m in _declared()["per_layer"]}
    else:
        values = workloads.end_to_end(result, peak_rss_mb)
        units = {m["name"]: m["unit"] for m in _declared()["end_to_end"]}
    _, pct = workloads.tail(result.latencies)
    print(f"# env {json.dumps(environment(args.seed), sort_keys=True)}")
    print(f"# workload {args.workload}: {len(result.latencies)} jobs, "
          f"latency_tail_s is p{pct:.1f} of {len(result.latencies)} samples")
    for failure in result.failures[:20]:
        print(f"# FAILED {failure}")
    for name, v in values.items():
        print(f"{name} = {v:.6g} {units[name]}")
    print(json.dumps({
        "correct": not result.failures,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }, allow_nan=False))
    return 0


def _declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


if __name__ == "__main__":
    sys.exit(main())
