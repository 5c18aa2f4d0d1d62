"""In-memory span tracing of fecdiff, installed from outside the package.

Every public function of the measured modules, and ``ToyDenoiser.predict``
on the class, is wrapped while a ``Tracer`` is installed. Modules import
functions by name (``from .sampling import invert``), so a wrapper is bound
under every module attribute that holds the original function: that is
where each caller looks the name up at call time. Spans are recorded only
while a job is open, kept in memory, and reduced to per-layer metrics by
``layer_metrics``. ``fecdiff.cli`` is a thin argparse front over the harness
and is deliberately not a measured layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

LAYERS = ("schedule", "denoiser", "sampling", "metrics", "editing", "io_formats", "harness")
PREDICT = "denoiser.predict"
ROUTES = ("inversion", "capture", "reconstruction", "edit")
SAMPLERS = {
    "direct": "sampling.sample_direct",
    "fec_ref": "sampling.sample_fec_ref",
    "fec_noise": "sampling.sample_fec_noise",
    "fec_kv_reuse": "sampling.sample_fec_kv_reuse",
}
IO_CALLS = {
    ("traj", "write"): "io_formats.write_trajectory",
    ("traj", "read"): "io_formats.read_trajectory",
    ("kv", "write"): "io_formats.write_kv_cache",
    ("kv", "read"): "io_formats.read_kv_cache",
    ("mask", "write"): "io_formats.write_mask",
    ("mask", "read"): "io_formats.read_mask",
}


@dataclass(slots=True)
class Span:
    """One traced call. ``child_s`` is the summed duration of its direct
    children, so ``self_s`` is the time spent in the function's own code."""

    name: str
    parent: str | None
    job: int
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0
    net_calls: int = 0
    info: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Span recorder. Spans are kept only while ``job`` is not None."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job: int | None = None
        self._stack: list[Span] = []
        self._net_calls = 0

    def wrap(self, name: str, fn, observe=None):
        """Return ``fn`` wrapped in a span named ``name``; ``observe(span,
        args, kwargs, result)`` may add facts about the call to ``span.info``."""
        is_predict = name == PREDICT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            span = Span(name, self._stack[-1].name if self._stack else None, self.job)
            calls_before = self._net_calls
            if is_predict:
                self._net_calls += 1
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1].child_s += span.end - span.start
                span.net_calls = self._net_calls - calls_before
                self.spans.append(span)
            if observe is not None:
                observe(span, args, kwargs, result)
            return result

        return traced


def _observe_predict(span, args, kwargs, result):
    span.info["route"] = kwargs.get("route", "other")
    if kwargs.get("trace_to") is not None:
        # One head-averaged cross-attention map per block.
        span.info["maps"] = args[0].config.layer_count


def _kv_totals(caches) -> dict:
    caches = [c for c in caches if c is not None]
    return {
        "kv_entries": sum(len(c) for c in caches),
        "kv_bytes": sum(k.nbytes + v.nbytes for c in caches for k, v in c.entries.values()),
    }


def _observe_invert(span, args, kwargs, result):
    span.info.update(_kv_totals([result.kv_cache, result.kv_cache_uncond]))


def _observe_file(span, args, kwargs, result):
    span.info["bytes"] = os.path.getsize(args[0])


def _observe_read_kv(span, args, kwargs, result):
    _observe_file(span, args, kwargs, result)
    span.info.update(_kv_totals([result]))


def _observe_sampler(fn):
    signature = inspect.signature(fn)

    def observe(span, args, kwargs, result):
        span.info["steps"] = signature.bind(*args, **kwargs).arguments["plan"].steps

    return observe


def _observe_sweep(span, args, kwargs, result):
    span.info["cells"] = len(result.rows)


def _observe_edit(span, args, kwargs, result):
    span.info["degenerate_steps"] = len(result[1].mask_degenerate_steps)


def _observer(name: str, fn):
    if name in SAMPLERS.values():
        return _observe_sampler(fn)
    if name == "io_formats.read_kv_cache":
        return _observe_read_kv
    if name in IO_CALLS.values():
        return _observe_file
    return {
        PREDICT: _observe_predict,
        "sampling.invert": _observe_invert,
        "harness.run_sweep": _observe_sweep,
        "editing.run_edit": _observe_edit,
    }.get(name)


@contextmanager
def installed(tracer: Tracer):
    """Wrap the measured functions for the duration of the block."""
    from fecdiff.denoiser import ToyDenoiser

    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"fecdiff.{layer}")
        for attr, fn in vars(module).items():
            if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not attr.startswith("_"):
                name = f"{layer}.{attr}"
                wrappers[fn] = tracer.wrap(name, fn, _observer(name, fn))
    patched = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "fecdiff" and not mod_name.startswith("fecdiff."):
            continue
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                patched.append((module, attr, value))
                setattr(module, attr, wrappers[value])
    predict = ToyDenoiser.predict
    ToyDenoiser.predict = tracer.wrap(PREDICT, predict, _observe_predict)
    try:
        yield tracer
    finally:
        ToyDenoiser.predict = predict
        for module, attr, value in patched:
            setattr(module, attr, value)


def span_cost_s(calls: int = 2000, repeats: int = 7) -> float:
    """Measured cost one span adds to a call: a traced no-op against a
    plain one, median over ``repeats`` batches."""
    tracer = Tracer()
    tracer.job = 0

    def noop():
        return None

    traced = tracer.wrap("calibrate.noop", noop)
    costs = []
    for _ in range(repeats):
        tracer.spans.clear()
        t0 = time.perf_counter()
        for _ in range(calls):
            traced()
        t1 = time.perf_counter()
        for _ in range(calls):
            noop()
        t2 = time.perf_counter()
        costs.append(((t1 - t0) - (t2 - t1)) / calls)
    return statistics.median(costs)


def denoiser_flops(cfg) -> int:
    """Matrix-multiply FLOPs of one ``ToyDenoiser.predict`` (a multiply-add
    counts 2); norms, softmax and activations are not counted."""
    c, h, w = cfg.latent_shape
    p, d, n_tok, e = cfg.patch_size, cfg.model_dim, cfg.n_tokens, cfg.token_dim
    n = (h // p) * (w // p)
    patch = c * p * p
    block = (
        2 * n * d * d * 4  # self-attention q, k, v and output projections
        + 2 * 2 * n * n * d  # self-attention logits and weighted values
        + 2 * n * d * d * 2  # cross-attention query and output projections
        + 2 * 2 * n_tok * e * d  # cross-attention keys and values of the prompt
        + 2 * 2 * n * n_tok * d  # cross-attention logits and weighted values
        + 2 * 2 * n * d * 2 * d  # MLP up and down projections
    )
    return 2 * n * patch * d + 2 * d * d + cfg.layer_count * block + 2 * n * d * patch


def layer_metrics(tracer: Tracer, job_walls: list[float], denoiser_config) -> dict[str, float]:
    """Per-job layer metrics over every span of ``len(job_walls)`` jobs.

    A layer's busy time counts only its outermost spans, so nested calls
    inside the same layer are not counted twice.
    """
    n = len(job_walls)
    wall = sum(job_walls)
    spans = tracer.spans
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def calls(name):
        return len(by_name[name]) / n

    def busy(name):
        return sum(s.duration for s in by_name[name]) / n

    def self_s(name):
        return sum(s.self_s for s in by_name[name]) / n

    def info(names, key):
        return sum(s.info.get(key, 0) for name in names for s in by_name[name])

    def layer_busy(layer):
        return sum(
            s.duration for s in spans
            if s.layer == layer and (s.parent is None or s.parent.split(".", 1)[0] != layer)
        ) / n

    def ratio(num, den):
        return num / den if den else 0.0

    predicts = by_name[PREDICT]
    flops = denoiser_flops(denoiser_config)
    out = {
        "schedule.build_s": busy("schedule.build_schedule") + busy("schedule.timestep_plan"),
        "denoiser.predict.calls": calls(PREDICT),
    }
    for route in ROUTES:
        out[f"denoiser.predict.calls.{route}"] = (
            sum(s.info["route"] == route for s in predicts) / n
        )
    out.update({
        "denoiser.predict.busy_s": busy(PREDICT),
        "denoiser.predict.us_per_call": (
            statistics.median(s.duration for s in predicts) * 1e6 if predicts else 0.0
        ),
        "denoiser.predict.share": ratio(busy(PREDICT) * n, wall),
        "denoiser.flops_per_call": float(flops),
        "denoiser.gflops_per_s": ratio(flops * len(predicts), busy(PREDICT) * n * 1e9),
        "denoiser.embed_prompt.calls": calls("denoiser.embed_prompt"),
        "denoiser.embed_prompt.busy_s": busy("denoiser.embed_prompt"),
        "denoiser.kv.entries": info(("sampling.invert", "io_formats.read_kv_cache"), "kv_entries") / n,
        "denoiser.kv.bytes": info(("sampling.invert", "io_formats.read_kv_cache"), "kv_bytes") / n,
        "denoiser.trace.maps": info((PREDICT,), "maps") / n,
        "sampling.invert.calls": calls("sampling.invert"),
        "sampling.invert.busy_s": busy("sampling.invert"),
        "sampling.invert.self_s": self_s("sampling.invert"),
    })
    for key, name in SAMPLERS.items():
        out[f"sampling.sample.{key}.busy_s"] = busy(name)
        out[f"sampling.sample.{key}.self_s"] = self_s(name)
        out[f"sampling.sample.{key}.net_calls_per_step"] = ratio(
            sum(s.net_calls for s in by_name[name]), info((name,), "steps")
        )
    out.update({
        "sampling.steps": calls("sampling.ddim_step"),
        "harness.inversions_per_cell": ratio(
            len(by_name["sampling.invert"]), info(("harness.run_sweep",), "cells")
        ),
        "harness.run_sweep.self_s": self_s("harness.run_sweep"),
        "harness.reconstruct_once.calls": calls("harness.reconstruct_once"),
        "metrics.busy_s": layer_busy("metrics"),
        "metrics.ssim.calls": calls("metrics.ssim"),
        "metrics.ssim.busy_s": busy("metrics.ssim"),
        "metrics.loss_curve.busy_s": busy("metrics.trajectory_loss_curve"),
        "editing.run_edit.self_s": self_s("editing.run_edit"),
        "editing.derive_mask.calls": calls("editing.derive_mask"),
        "editing.derive_mask.busy_s": busy("editing.derive_mask"),
        "editing.mask_degenerate_steps": info(("editing.run_edit",), "degenerate_steps") / n,
    })
    for (kind, op), name in IO_CALLS.items():
        size = info((name,), "bytes")
        out[f"io_formats.{kind}.{op}.bytes"] = size / n
        out[f"io_formats.{kind}.{op}.busy_s"] = busy(name)
        out[f"io_formats.{kind}.{op}.mb_per_s"] = ratio(size, busy(name) * n * 1e6)
    out["trace.overhead_ratio"] = ratio(len(spans) * span_cost_s(), wall)
    return out
