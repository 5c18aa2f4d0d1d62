"""Tests of the benchmark itself, at a tiny size.

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter

import pytest

import run

run.import_program()

import tracing  # noqa: E402
import workloads  # noqa: E402
from fecdiff.denoiser import DenoiserConfig  # noqa: E402
from fecdiff.harness import SweepReport  # noqa: E402

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY_STEPS = 2


def tiny_run(name, tmp_path, trace, min_jobs):
    wl = workloads.make_workload(name, str(tmp_path / "work"), steps=TINY_STEPS)
    try:
        return wl, workloads.run_workload(wl, 7, 0.0, trace=trace, min_jobs=min_jobs)
    finally:
        wl.close()


def test_edit_traced_route_counts_equal_program_call_counts(tmp_path):
    wl = workloads.make_workload("edit", str(tmp_path), steps=TINY_STEPS)
    wl.setup(7)
    before = Counter(wl.net.call_counts)
    tracer = tracing.Tracer()
    walls = []
    with tracing.installed(tracer):
        for i in range(len(workloads.EDIT_KINDS)):
            inp = wl.make_input(i)
            tracer.job = i
            wl.run(inp)
            tracer.job = None
            walls.append(1.0)
    delta = Counter(wl.net.call_counts) - before
    got = tracing.layer_metrics(tracer, walls, wl.net.config)
    n = len(walls)
    for route in tracing.ROUTES:
        assert got[f"denoiser.predict.calls.{route}"] * n == delta[route], route
    assert got["denoiser.predict.calls"] * n == sum(delta.values())
    assert delta["edit"] > 0 and delta["inversion"] > 0 and delta["capture"] > 0


@pytest.mark.parametrize("name", ["sweep", "edit"])
def test_self_times_sum_to_job_wall_within_overhead(name, tmp_path):
    _, result = tiny_run(name, tmp_path, trace=True, min_jobs=4)
    cost = tracing.span_cost_s()
    for job, wall in enumerate(result.latencies):
        spans = [s for s in result.tracer.spans if s.job == job]
        roots = [s for s in spans if s.parent is None]
        assert len(roots) == 1
        total_self = sum(s.self_s for s in spans)
        assert total_self == pytest.approx(roots[0].duration, rel=1e-9, abs=1e-9)
        assert 0.0 <= wall - total_self <= len(spans) * cost + 1e-4


def test_flops_per_call_matches_hand_count():
    # Default config: 64 patches of 16 values, width 64, 8 prompt tokens of
    # width 64, 4 blocks; a multiply-add counts 2.
    patch_in = 2 * 64 * 16 * 64  # 131,072
    time_embed = 2 * 64 * 64  # 8,192
    per_block = (
        4 * (2 * 64 * 64 * 64)  # q, k, v, o: 2,097,152
        + 2 * (2 * 64 * 64 * 64)  # self-attention logits, weights @ v: 1,048,576
        + 2 * (2 * 64 * 64 * 64)  # cross-attention q, o: 1,048,576
        + 2 * (2 * 8 * 64 * 64)  # prompt keys and values: 131,072
        + 2 * (2 * 64 * 8 * 64)  # cross-attention logits, weights @ v: 131,072
        + 2 * (2 * 64 * 64 * 128)  # MLP: 2,097,152
    )
    patch_out = 2 * 64 * 64 * 16  # 131,072
    assert patch_in + time_embed + 4 * per_block + patch_out == 26_484_736
    assert tracing.denoiser_flops(DenoiserConfig()) == 26_484_736


@pytest.mark.parametrize("name", ["sweep", "edit", "io"])
def test_emitted_metric_names_equal_declared_names(name, tmp_path):
    wl, result = tiny_run(name, tmp_path, trace=False, min_jobs=12)
    assert not result.failures
    assert set(workloads.end_to_end(result, 1.0)) == {m["name"] for m in DECLARED["end_to_end"]}
    wl, result = tiny_run(name, tmp_path, trace=True, min_jobs=1)
    assert not result.failures
    per_layer = tracing.layer_metrics(result.tracer, result.latencies, wl.net.config)
    assert set(per_layer) == {m["name"] for m in DECLARED["per_layer"]}


def test_sweep_check_flags_broken_cells():
    wl = workloads.make_workload("sweep", "")
    rows = [
        {"method": m, "error": "", "latent_loss": 0.5, "psnr": 1.0, "ssim": 0.5}
        for m in workloads.RECON_METHODS
    ]
    assert len(wl.check(None, SweepReport(rows))) == 2  # fec-ref and fec-noise not exact
    rows[2]["latent_loss"] = 0.0
    rows[3]["latent_loss"] = 1e-30
    assert wl.check(None, SweepReport(rows)) == []
    rows[0]["error"] = "NonFiniteError: boom"
    assert wl.check(None, SweepReport(rows)) == ["direct: NonFiniteError: boom"]


def test_io_check_flags_a_changed_byte(tmp_path):
    wl = workloads.make_workload("io", str(tmp_path), steps=TINY_STEPS)
    wl.setup(7)
    loaded = wl.run(wl.make_input(0))
    assert wl.check(None, loaded) == []
    mask = loaded[32][3]
    mask[0, 0] = 0.5
    assert len(wl.check(None, loaded)) == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "io", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
