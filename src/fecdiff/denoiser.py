"""Noise-prediction networks and the deterministic pseudo text embedder.

Two denoisers share the sampler interface: a toy attention denoiser with
an optional hook on its self-attention K/V and one on its cross-attention
maps, and an analytic Gaussian denoiser used as an oracle. Both are pure
functions of their inputs; repeated calls are bit-identical. Each takes
one latent or a stack of them along a leading batch axis, and every row of
a stacked call is bit-identical to the single-latent call. The toy network
computes in float32; its inputs, outputs and recorded K/V are float64.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .schedule import ConfigError, NoiseSchedule

# The toy network's one shape: the latent (channels, height, width), the side
# of its square patches, and a prompt's token count and token width.
LATENT_SHAPE = (4, 16, 16)
PATCH_SIZE = 2
N_TOKENS = 8
TOKEN_DIM = 64

_PAD_WORD = "\x00pad"


class NonFiniteError(RuntimeError):
    """A latent or prediction stopped being finite."""


def _word_rng(seed: int, word: str) -> np.random.Generator:
    digest = hashlib.sha256(word.encode("utf-8")).digest()
    key = int.from_bytes(digest[:8], "little")
    return np.random.default_rng([seed, key])


@dataclass(frozen=True)
class PromptEmbedding:
    """Deterministic pseudo text embedding: one seeded vector per word."""

    tokens: np.ndarray  # (N_TOKENS, TOKEN_DIM)
    source_text: str

    def word_index(self, word: str) -> int:
        """Token slot of ``word``, a blend word: one absent or truncated away
        raises a ``ConfigError`` naming ``blend_word``."""
        words = self.source_text.split()
        if word not in words:
            raise ConfigError(f"word {word!r} not in prompt {self.source_text!r}", "blend_word")
        idx = words.index(word)
        if idx >= self.tokens.shape[0]:
            raise ConfigError(f"word {word!r} falls beyond the {self.tokens.shape[0]} token slots",
                              "blend_word")
        return idx


def embed_prompt(text: str, seed: int) -> PromptEmbedding:
    """Hash whitespace-split words to seeded pseudo-random token vectors.

    Unused slots (and the whole embedding of the empty string) carry a
    fixed pad vector, so the empty prompt is a reserved null embedding.
    """
    words = text.split()[:N_TOKENS]
    pad = _word_rng(seed, _PAD_WORD).standard_normal(TOKEN_DIM)
    tokens = np.tile(pad, (N_TOKENS, 1))
    for i, w in enumerate(words):
        tokens[i] = _word_rng(seed, w).standard_normal(TOKEN_DIM)
    tokens.setflags(write=False)
    return PromptEmbedding(tokens=tokens, source_text=text)


@dataclass(frozen=True)
class LayerRange:
    """Half-open self-attention layer range [start, end)."""

    start: int
    end: int

    def __post_init__(self):
        if not 0 <= self.start <= self.end:
            raise ConfigError(f"invalid layer range [{self.start}, {self.end})",
                              "layer_start", "layer_end")

    def __contains__(self, layer: int) -> bool:
        return self.start <= layer < self.end

    def fits(self, layer_count: int) -> LayerRange:
        """This range, after checking that it ends within ``layer_count`` layers."""
        if self.end > layer_count:
            raise ConfigError(f"layer_end {self.end} exceeds layer_count {layer_count}",
                              "layer_end", "layer_count")
        return self


@dataclass
class KVCache:
    """Self-attention Keys/Values recorded per (timestep, layer). The cache
    is the capture hook: ``cache(t, layer, k, v)`` stores float64 copies of
    K and V and returns them unchanged, so capturing never alters the
    output."""

    entries: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    def __call__(self, t: int, layer: int, k: np.ndarray, v: np.ndarray):
        # One block per entry, K and V its two rows: two separate widened
        # copies left a heap that reading the caches back regrew on every
        # other read (about 8,800 page faults per io benchmark job).
        self.store(t, layer, *np.array((k, v), dtype=np.float64))
        return k, v

    def store(self, t: int, layer: int, k: np.ndarray, v: np.ndarray):
        if (t, layer) in self.entries:
            raise ValueError(f"duplicate KV capture at (t={t}, layer={layer})")
        self.entries[(t, layer)] = (k, v)

    def fetch(self, t: int, layer: int) -> tuple[np.ndarray, np.ndarray]:
        try:
            return self.entries[(t, layer)]
        except KeyError:
            raise KeyError(f"no KV cached at (t={t}, layer={layer})") from None

    def timesteps(self) -> list[int]:
        return sorted({key[0] for key in self.entries}, reverse=True)

    def __len__(self) -> int:
        return len(self.entries)


class KVInject:
    """K/V hook that swaps in the cached K and V (or only V, keeping K
    live) of each layer inside ``layers`` at the evaluated timestep, cast
    to the layer's dtype."""

    def __init__(self, cache: KVCache, layers: LayerRange, v_only: bool = False):
        self.cache = cache
        self.layers = layers
        self.v_only = v_only

    def __call__(self, t: int, layer: int, k: np.ndarray, v: np.ndarray):
        if layer not in self.layers:
            return k, v
        k_cached, v_cached = self.cache.fetch(t, layer)
        return (k if self.v_only else k_cached.astype(k.dtype)), v_cached.astype(v.dtype)


@dataclass
class AttentionTrace:
    """Head-averaged cross-attention maps per (timestep, layer). The trace
    is the ``trace_to`` hook: ``trace(t, layer, maps)`` stores one layer's
    maps on the patch grid, shape ``(*batch, grid_h, grid_w, N_TOKENS)``,
    softmax weights that sum to 1 along the last axis."""

    maps: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)

    def __call__(self, t: int, layer: int, maps: np.ndarray):
        self.maps[(t, layer)] = maps

    def token_map(self, t: int, token_index: int) -> np.ndarray:
        """Map for one token at step t, averaged over the step's layers in
        layer order; shape ``(*batch, grid_h, grid_w)``."""
        cols = [self.maps[key][..., token_index] for key in sorted(self.maps) if key[0] == t]
        if not cols:
            raise KeyError(f"no attention maps recorded at t={t}")
        return np.mean(cols, axis=0)


@dataclass(frozen=True)
class DenoiserConfig:
    layer_count: int = 4
    head_count: int = 4
    model_dim: int = 64
    init_seed: int = 0
    # The fixed shape, readable from a configuration as from the module.
    latent_shape: ClassVar[tuple[int, int, int]] = LATENT_SHAPE
    patch_size: ClassVar[int] = PATCH_SIZE
    n_tokens: ClassVar[int] = N_TOKENS
    token_dim: ClassVar[int] = TOKEN_DIM

    def __post_init__(self):
        d, nh = self.model_dim, self.head_count
        # The sinusoidal embeddings split the width into sin and cos halves.
        if d <= 0 or d % 2:
            raise ConfigError(f"model_dim must be positive and even, got {d}", "model_dim")
        if nh <= 0 or d % nh:
            raise ConfigError(f"model_dim {d} must be divisible by head_count {nh}",
                              "model_dim", "head_count")
        # A network with no attention layer has nothing to capture, inject or trace.
        for name, low in (("layer_count", 1), ("init_seed", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}", name)


def _sinusoidal(x: float | np.ndarray, dim: int) -> np.ndarray:
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / half)
    arg = np.multiply.outer(np.asarray(x, dtype=np.float64), freqs)
    return np.concatenate([np.sin(arg), np.cos(arg)], axis=-1)


def _layer_norm(x: np.ndarray) -> np.ndarray:
    # ``np.add.reduce(...) / n`` is the reduction ``np.mean`` runs, without
    # its Python wrapper; the variance is byte-equal to ``x.var(axis=-1)``.
    n = x.shape[-1]
    d = x - np.add.reduce(x, axis=-1, keepdims=True) / n
    var = np.add.reduce(d * d, axis=-1, keepdims=True) / n
    # A fresh output, not ``d /= ...``: dividing in place measured no
    # faster, and after a K/V-capturing inversion it left a heap that
    # reading the caches back regrew on every other read (about 4,800
    # page faults per io benchmark job, against none).
    return d / np.sqrt(var + 1e-5)


def _gelu(x: np.ndarray) -> np.ndarray:
    # The tanh form, one operation at a time in place on ``y``. ``x * x * x``,
    # not ``x**3``: numpy sends a cube through generic pow, about 50 times
    # slower on the MLP activations.
    y = x * x
    y *= x
    y *= 0.044715
    y += x
    # A Python float: a float64 scalar would put a float32 ``y`` in a float64 loop.
    y *= float(np.sqrt(2.0 / np.pi))
    np.tanh(y, out=y)
    y += 1.0
    y *= 0.5 * x
    return y


def _softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, computed in place: ``x`` is overwritten
    with the weights and returned. Callers pass an array they own."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


class ToyDenoiser:
    """Small transformer denoiser with fixed random weights.

    Input projection -> L pre-norm blocks (self-attention, cross-attention
    over prompt tokens, 2-layer MLP, residuals) -> output projection, with
    a sinusoidal time embedding added at the input. Weights are drawn from
    ``config.init_seed`` in float64, stored as float32 and never trained.
    """

    def __init__(self, config: DenoiserConfig = DenoiserConfig()):
        self.config = config
        c, h, w = LATENT_SHAPE
        p = PATCH_SIZE
        d = config.model_dim
        rng = np.random.default_rng(config.init_seed)

        def lin(n_in, n_out):
            return (rng.standard_normal((n_in, n_out)) / np.sqrt(n_in)).astype(np.float32)

        self.grid_shape = (h // p, w // p)
        self.w_in = lin(c * p * p, d)
        self.w_time = lin(d, d)
        self.pos = _sinusoidal(np.arange((h // p) * (w // p)), d).astype(np.float32)
        self.blocks = []
        for _ in range(config.layer_count):
            self.blocks.append(
                {
                    # Double-scale value projection: self-attention values
                    # dominate each block's output, so the latent
                    # sensitivity of the network flows mainly through the
                    # K/V path rather than the residual MLP.
                    "wq": lin(d, d), "wk": lin(d, d), "wv": 2.0 * lin(d, d), "wo": lin(d, d),
                    "cq": lin(d, d), "ck": lin(TOKEN_DIM, d), "cv": lin(TOKEN_DIM, d),
                    "co": lin(d, d),
                    "w1": lin(d, 2 * d), "w2": lin(2 * d, d),
                }
            )
        # Half-scale output head: keeps noise predictions moderate so the
        # guided sampling dynamics stay out of the saturating regime at
        # large guidance scales.
        self.w_out = 0.5 * lin(d, c * p * p)
        self.call_counts: Counter[str] = Counter()
        self._logit_scale = float(np.sqrt(d // config.head_count))

    def _heads(self, x: np.ndarray) -> np.ndarray:
        *lead, n, d = x.shape
        nh = self.config.head_count
        return x.reshape(*lead, n, nh, d // nh).swapaxes(-2, -3)

    def _merge(self, x: np.ndarray) -> np.ndarray:
        *lead, nh, n, dh = x.shape
        return x.swapaxes(-2, -3).reshape(*lead, n, nh * dh)

    def _attend(self, q, k, v):
        logits = q @ k.swapaxes(-1, -2)
        logits /= self._logit_scale
        weights = _softmax(logits)
        return weights @ v, weights

    def predict(
        self,
        z: np.ndarray,
        t: int,
        cond: PromptEmbedding,
        *,
        kv: KVCache | KVInject | None = None,
        trace_to: AttentionTrace | None = None,
        route: str = "other",
    ) -> np.ndarray:
        """Predicted noise eps(z, t, cond), same shape as z, as float64; the
        network between computes in float32.

        ``z`` is one latent of shape ``LATENT_SHAPE`` or a stack of shape
        ``(B, *LATENT_SHAPE)``; a stack is one call, and its rows share
        ``t`` and ``cond``. Each hook is a callable that ``predict`` hands
        its arrays to and sets nothing on: ``kv(t, layer, k, v)`` sees every
        self-attention layer's float32 K and V and returns the pair the
        layer attends with, and ``trace_to(t, layer, maps)`` gets every
        layer's head-averaged cross-attention maps on the patch grid, of shape
        ``(*batch, grid_h, grid_w, N_TOKENS)``. Neither changes the output
        unless ``kv`` swaps K or V. A non-finite input or float32 value raises
        ``NonFiniteError``.
        """
        z = np.asarray(z, dtype=np.float64)
        if z.ndim > 4 or z.shape[-3:] != LATENT_SHAPE:
            raise ValueError(f"latent shape {z.shape} is not {LATENT_SHAPE} or a stack of it")
        if not np.all(np.isfinite(z)):
            raise NonFiniteError(f"non-finite latent passed to denoiser at t={t}")
        if cond.tokens.shape != (N_TOKENS, TOKEN_DIM):
            raise ValueError(f"prompt embedding shape {cond.tokens.shape} is not"
                             f" {(N_TOKENS, TOKEN_DIM)}")
        if isinstance(kv, KVInject):
            kv.layers.fits(self.config.layer_count)
        self.call_counts[route] += 1
        # An overflow raises where numpy would warn and run on with inf or
        # NaN; a NaN input sets no flag, hence the float64 check above.
        try:
            with np.errstate(over="raise", invalid="raise"):
                return self._forward(z, t, cond, kv, trace_to)
        except FloatingPointError as exc:
            raise NonFiniteError(f"non-finite float32 forward at t={t}: {exc}") from None

    def _forward(self, z, t, cond, kv, trace_to) -> np.ndarray:
        c, h, w = LATENT_SHAPE
        p = PATCH_SIZE
        gh, gw = self.grid_shape
        lead = z.shape[:-3]
        x = np.moveaxis(z.reshape(*lead, c, gh, p, gw, p), (-4, -2), (-5, -4))
        x = x.reshape(*lead, gh * gw, c * p * p).astype(np.float32)
        tokens = cond.tokens.astype(np.float32)
        # ``hdd`` is a fresh array from here on, so the residual adds below
        # run in place, each keeping its expression's association.
        hdd = x @ self.w_in
        hdd += _sinusoidal(float(t), self.config.model_dim).astype(np.float32) @ self.w_time
        hdd += self.pos

        for layer, blk in enumerate(self.blocks):
            a = _layer_norm(hdd)
            q = a @ blk["wq"]
            k = a @ blk["wk"]
            v = a @ blk["wv"]
            if kv is not None:
                k, v = kv(t, layer, k, v)
            out, _ = self._attend(self._heads(q), self._heads(k), self._heads(v))
            hdd += self._merge(out) @ blk["wo"]

            a = _layer_norm(hdd)
            q = a @ blk["cq"]
            ck = tokens @ blk["ck"]
            cv = tokens @ blk["cv"]
            out, weights = self._attend(
                self._heads(q),
                self._heads(ck),
                self._heads(cv),
            )
            if trace_to is not None:
                trace_to(t, layer, weights.mean(axis=-3).reshape(*lead, gh, gw, -1))
            hdd += self._merge(out) @ blk["co"]

            a = _layer_norm(hdd)
            hdd += _gelu(a @ blk["w1"]) @ blk["w2"]

        out = _layer_norm(hdd) @ self.w_out
        out = np.moveaxis(out.reshape(*lead, gh, gw, c, p, p), (-5, -4), (-4, -2))
        return np.ascontiguousarray(out.reshape(*lead, c, h, w), dtype=np.float64)


class GaussianDenoiser:
    """Closed-form posterior-mean noise for Gaussian data N(mean, std^2 I).

    eps(z, t) = (z - sqrt(ab_t) * mean) * sqrt(1 - ab_t) / (ab_t * std^2 + 1 - ab_t)

    With ``std = 0`` (point-mass data) the DDIM chain integrates the
    probability-flow dynamics exactly at any step count, which makes this
    the oracle for chain-level checks. Prompt conditioning is ignored.
    """

    def __init__(self, sched: NoiseSchedule, mean: np.ndarray | float = 0.0, std: float = 1.0):
        self.sched = sched
        self.mean = np.asarray(mean, dtype=np.float64)
        self.std = float(std)
        self.call_counts: Counter[str] = Counter()

    def predict(self, z, t, cond=None, *, kv=None, trace_to=None, route: str = "other"):
        if kv is not None or trace_to is not None:
            raise ValueError("GaussianDenoiser has no attention to hook or trace")
        z = np.asarray(z, dtype=np.float64)
        if not np.all(np.isfinite(z)):
            raise NonFiniteError(f"non-finite latent passed to denoiser at t={t}")
        self.call_counts[route] += 1
        ab = self.sched.ab(t)
        denom = ab * self.std**2 + 1.0 - ab
        return (z - np.sqrt(ab) * self.mean) * np.sqrt(1.0 - ab) / denom
