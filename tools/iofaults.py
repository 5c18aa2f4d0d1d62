"""Minor page faults per perfbench ``io`` job.

The ``io`` workload's throughput depends on the heap its set-up leaves
behind: a heap that reading the caches back has to regrow shows up as
thousands of minor page faults per job. For each seed a fresh child
interpreter, one seed at a time, runs the workload's set-up the way
perfbench does (repeated until both of its minimums are met), then its
jobs back to back, each checked as perfbench checks it, and counts its
minor faults (``ru_minflt``) across every ``Io.run`` call, so no seed
inherits the heap an earlier one left. It prints, per seed, the median,
min and max count per job and the median job time.

    python tools/iofaults.py 1 2 3 4                       # the tree on PYTHONPATH
    PYTHONPATH=other/src python tools/iofaults.py 1 2 3 4  # another tree
    python tools/iofaults.py --steps 2 --jobs 2 1          # a quick smoke run

Only ``perfbench/workloads.py`` is imported from the benchmark, and nothing
in it is changed.
"""

from __future__ import annotations

import argparse
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
JOBS = 60


def count_faults(workloads, seed: int, jobs: int, steps: int | None):
    """(minor faults, seconds) of each of ``jobs`` io jobs after set-up."""
    with tempfile.TemporaryDirectory(prefix="fecdiff-iofaults-") as tmp:
        wl = workloads.Io(os.path.join(tmp, "io"), steps)
        spent = []
        while (len(spent) < workloads.SETUP_MIN_REPEATS
               or sum(spent) < workloads.SETUP_MIN_SECONDS):
            t0 = time.perf_counter()
            wl.setup(seed)
            spent.append(time.perf_counter() - t0)
        faults, seconds = [], []
        try:
            for i in range(jobs):
                jobdir = wl.make_input(i)
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                t0 = time.perf_counter()
                loaded = wl.run(jobdir)
                seconds.append(time.perf_counter() - t0)
                faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
                problems = wl.check(jobdir, loaded)
                if problems:
                    raise RuntimeError(f"seed {seed} job {i}: {problems[0]}")
        finally:
            wl.close()
    return faults, seconds


def report_seed(seed: int, jobs: int, steps: int | None):
    """Print one seed's line; run in a child interpreter of its own."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    faults, seconds = count_faults(workloads, seed, jobs, steps)
    print(f"seed {seed}: {len(faults)} jobs, minor faults per job median"
          f" {statistics.median(faults):g} min {min(faults)} max {max(faults)},"
          f" job p50 {statistics.median(seconds):.4f} s", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seeds", nargs="+", type=int, help="workload seeds")
    parser.add_argument("--jobs", type=int, default=JOBS, help=f"jobs per seed (default {JOBS})")
    parser.add_argument("--steps", type=int, default=None,
                        help="inversion steps of the set-up (default: the workload's)")
    args = parser.parse_args(argv)
    # As perfbench does: one BLAS thread unless asked otherwise, set before numpy loads.
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    for seed in args.seeds:
        code = (f"import sys; sys.path.insert(0, {str(ROOT / 'tools')!r}); import iofaults;"
                f" iofaults.report_seed({seed}, {args.jobs}, {args.steps})")
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
