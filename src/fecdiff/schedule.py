"""Noise schedules and timestep plans."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ConfigError(ValueError):
    """A configuration value the toolkit rejects; ``fields`` names the
    fields whose values the message is about."""

    def __init__(self, message: str, *fields: str):
        super().__init__(message)
        self.fields = fields


SCHEDULE_KINDS = ("linear-beta", "scaled-linear-beta", "constant-beta")

DEFAULT_TRAIN_STEPS = 1000
# Betas follow the common pretrained latent-diffusion convention.
SCALED_BETA_START = 0.00085
SCALED_BETA_END = 0.012
LINEAR_BETA_START = 1e-4
LINEAR_BETA_END = 0.02
CONSTANT_BETA = 0.02


@dataclass(frozen=True)
class NoiseSchedule:
    """Cumulative signal-retention coefficients of a discrete diffusion.

    ``alpha_bar[t]`` is the cumulative product of ``1 - beta_s`` for
    ``s <= t``, with ``alpha_bar[0] == 1`` (zero noise). Coefficients are
    stored as float64 and are immutable, so a schedule can be shared
    freely across concurrent sampling sessions.
    """

    total_train_steps: int
    alpha_bar: np.ndarray

    def __post_init__(self):
        ab = np.ascontiguousarray(np.asarray(self.alpha_bar, dtype=np.float64))
        object.__setattr__(self, "alpha_bar", ab)
        T = self.total_train_steps
        if T < 1:
            raise ConfigError(f"total_train_steps must be >= 1, got {T}", "total_train_steps")
        if ab.shape != (T + 1,):
            raise ValueError(f"alpha_bar must have length T+1={T + 1}, got {ab.shape}")
        if ab[0] != 1.0:
            raise ValueError("alpha_bar[0] must equal 1")
        if np.any(ab <= 0.0) or np.any(ab > 1.0):
            raise ValueError("alpha_bar entries must lie in (0, 1]")
        if np.any(np.diff(ab) > 0.0):
            raise ValueError("alpha_bar must be non-increasing in t")
        ab.setflags(write=False)

    def ab(self, t: int) -> float:
        """alpha_bar at timestep ``t`` (0 <= t <= T)."""
        if not 0 <= t <= self.total_train_steps:
            raise ValueError(f"timestep {t} out of range [0, {self.total_train_steps}]")
        return float(self.alpha_bar[t])


@dataclass(frozen=True)
class TimestepPlan:
    """Strictly decreasing timestep subsequence used for skip sampling.

    ``timesteps`` is used in the given (descending) order for sampling;
    its reverse is used for inversion. A plan holds at least one timestep,
    and every one lies above 0, where the descent ends (``ValueError``).
    """

    timesteps: tuple[int, ...]

    def __post_init__(self):
        ts = self.timesteps
        if not ts:
            raise ValueError("a timestep plan needs at least one timestep")
        for a, b in zip(ts, (*ts[1:], 0)):
            if a <= b:  # the first bad pair only, so a long list gives a short message
                raise ValueError(f"timesteps do not decrease strictly above 0:"
                                 f" t={a} is not above {b}")

    @property
    def steps(self) -> int:
        return len(self.timesteps)

    def sampling_pairs(self) -> list[tuple[int, int]]:
        """(t, t_prev) pairs for the descent, ending at t_prev = 0."""
        ts = list(self.timesteps)
        return list(zip(ts, ts[1:] + [0]))

    def inversion_pairs(self) -> list[tuple[int, int]]:
        """(t_prev, t) pairs for the ascent, starting from t_prev = 0."""
        ts = list(self.timesteps)[::-1]
        return list(zip([0] + ts[:-1], ts))


def build_schedule(kind: str, T: int = DEFAULT_TRAIN_STEPS) -> NoiseSchedule:
    """Construct a noise schedule of the given kind with T train steps; ``ConfigError``
    for T < 1 (``NoiseSchedule``'s rule) or a kind outside ``SCHEDULE_KINDS``."""
    n = max(T, 0)  # numpy never sees a negative T, so NoiseSchedule refuses every T < 1
    if kind == "linear-beta":
        betas = np.linspace(LINEAR_BETA_START, LINEAR_BETA_END, n, dtype=np.float64)
    elif kind == "scaled-linear-beta":
        start, end = np.sqrt(SCALED_BETA_START), np.sqrt(SCALED_BETA_END)
        betas = np.linspace(start, end, n, dtype=np.float64) ** 2
    elif kind == "constant-beta":
        betas = np.full(n, CONSTANT_BETA, dtype=np.float64)
    else:
        raise ConfigError(f"unknown schedule kind {kind!r}; expected one of {SCHEDULE_KINDS}",
                          "schedule_kind")
    alpha_bar = np.concatenate([[1.0], np.cumprod(1.0 - betas)])
    return NoiseSchedule(total_train_steps=T, alpha_bar=alpha_bar)


def timestep_plan(steps: int, T: int = DEFAULT_TRAIN_STEPS) -> TimestepPlan:
    """``steps`` timesteps from t = T down, the i-th at ``T - round(i * T / steps)``.

    Strides differ by at most one, so the last timestep is within one
    stride of t = 0 even when steps does not divide T (t = 12 at 80 steps
    of 1000; a fixed ``T // steps`` stride would end at 52). Raises
    ``ConfigError`` (``steps`` and ``total_train_steps``) unless ``1 <= steps <= T``."""
    if not 1 <= steps <= T:
        raise ConfigError(f"steps must be in [1, total_train_steps={T}], got {steps}",
                          "steps", "total_train_steps")
    return TimestepPlan(tuple(T - round(i * T / steps) for i in range(steps)))
