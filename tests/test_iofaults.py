import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_iofaults_prints_one_line_per_seed():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "iofaults.py"), "--steps", "2", "--jobs", "2",
         "1", "2"],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    lines = proc.stdout.splitlines()
    assert len(lines) == 2
    for seed, out in zip((1, 2), lines):
        assert re.fullmatch(rf"seed {seed}: 2 jobs, minor faults per job median [0-9.]+"
                            r" min \d+ max \d+, job p50 [0-9.]+ s", out), out
