import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_fingerprint_prints_one_digest_per_area():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "fingerprint.py")], env=env,
                          capture_output=True, text=True, check=True, timeout=300)
    blas, *lines = [line.split() for line in proc.stdout.splitlines()]
    assert len(blas) == 4 and blas[0] == "blas" and blas[2] == "core"
    assert [area for area, _ in lines] == ["sweep", "edit", "cli", "files", "calls", "reads",
                                          "commands", "refusals"]
    assert all(len(digest) == 64 and int(digest, 16) >= 0 for _, digest in lines)
