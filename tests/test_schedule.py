import itertools
import re

import numpy as np
import pytest

from fecdiff.schedule import (
    SCHEDULE_KINDS,
    ConfigError,
    NoiseSchedule,
    TimestepPlan,
    build_schedule,
    timestep_plan,
)


def test_alpha_bar_validation():
    with pytest.raises(ValueError):
        NoiseSchedule(total_train_steps=3, alpha_bar=np.array([1.0, 0.9]))
    with pytest.raises(ValueError):
        NoiseSchedule(total_train_steps=2, alpha_bar=np.array([0.9, 0.8, 0.7]))
    with pytest.raises(ValueError):  # increasing
        NoiseSchedule(total_train_steps=2, alpha_bar=np.array([1.0, 0.5, 0.6]))
    with pytest.raises(ValueError):  # non-positive entry
        NoiseSchedule(total_train_steps=2, alpha_bar=np.array([1.0, 0.5, 0.0]))


def test_schedule_is_immutable():
    sched = build_schedule("linear-beta", 100)
    with pytest.raises(ValueError):
        sched.alpha_bar[3] = 0.5


def test_constant_beta_closed_form():
    # With constant beta, alpha_bar[t] = (1 - beta)^t exactly.
    beta = 0.02
    sched = build_schedule("constant-beta", 50)
    for t in (0, 1, 7, 50):
        assert sched.ab(t) == pytest.approx((1.0 - beta) ** t, rel=1e-14)


def test_schedule_kinds_and_ranges():
    for kind in ("linear-beta", "scaled-linear-beta", "constant-beta"):
        sched = build_schedule(kind, 1000)
        assert sched.ab(0) == 1.0
        assert 0.0 < sched.ab(1000) < sched.ab(500) < 1.0
    with pytest.raises(ConfigError, match="^unknown schedule kind 'cosine'") as exc:
        build_schedule("cosine", 1000)
    assert exc.value.fields == ("schedule_kind",)
    for T, kind in itertools.product((0, -1), SCHEDULE_KINDS):
        # NoiseSchedule's refusal, not numpy's error for a negative count.
        with pytest.raises(ConfigError, match=f"^total_train_steps must be >= 1, got {T}$") as exc:
            build_schedule(kind, T)
        assert exc.value.fields == ("total_train_steps",)


def test_a_direct_schedule_refuses_t_below_one_like_build_schedule():
    # The one T >= 1 rule: a length-1 alpha_bar passes the length check at T = 0.
    for T, alpha_bar in ((0, [1.0]), (-1, [])):
        with pytest.raises(ConfigError, match=f"^total_train_steps must be >= 1, got {T}$") as exc:
            NoiseSchedule(total_train_steps=T, alpha_bar=np.array(alpha_bar))
        assert exc.value.fields == ("total_train_steps",)


def test_ab_bounds():
    sched = build_schedule("linear-beta", 10)
    with pytest.raises(ValueError):
        sched.ab(-1)
    with pytest.raises(ValueError):
        sched.ab(11)


def test_timestep_plan_even_stride():
    plan = timestep_plan(50, 1000)
    assert plan.timesteps[0] == 1000
    assert plan.timesteps[-1] == 20
    assert plan.timesteps == tuple(1000 - 20 * i for i in range(50))


def test_timestep_plan_spreads_the_residue():
    # 80 does not divide 1000: the strides are 12 and 13, and the last
    # timestep sits within one stride of 0, not at 1000 - 79 * 12 = 52.
    plan = timestep_plan(80, 1000)
    assert plan.timesteps[:3] == (1000, 988, 975)
    assert plan.timesteps[-1] == 12
    assert {a - b for a, b in zip(plan.timesteps, plan.timesteps[1:])} == {12, 13}
    assert timestep_plan(3, 1000).timesteps == (1000, 667, 333)
    for T in range(1, 120):
        for steps in range(1, T + 1):
            ts = timestep_plan(steps, T).timesteps
            assert len(ts) == steps and ts[0] == T and 0 < ts[-1] <= -(-T // steps), (T, steps)


def test_timestep_plan_extremes():
    assert timestep_plan(1, 1000).timesteps == (1000,)
    full = timestep_plan(10, 10)
    assert full.timesteps == tuple(range(10, 0, -1))
    for steps in (0, 1001):
        with pytest.raises(ConfigError, match=re.escape(
                f"steps must be in [1, total_train_steps=1000], got {steps}")) as exc:
            timestep_plan(steps, 1000)
        assert exc.value.fields == ("steps", "total_train_steps")


def test_plan_pairs_consistency():
    plan = timestep_plan(4, 100)
    down = plan.sampling_pairs()
    up = plan.inversion_pairs()
    assert down[-1][1] == 0
    assert up[0][0] == 0
    assert down == [(t, tp) for tp, t in reversed(up)]
    for t, t_prev in down:
        assert t > t_prev


@pytest.mark.parametrize(
    "timesteps, message",
    [((), "a timestep plan needs at least one timestep"),
     ((5, 0), "t=0 is not above 0"),
     ((5, -1), "t=-1 is not above 0"),
     ((30, 30, 10), "t=30 is not above 30"),
     ((10, 20), "t=10 is not above 20"),
     ((*range(10**5, 0, -1), 7), "t=1 is not above 7")],
    ids=["empty", "ends-at-0", "ends-below-0", "repeats", "ascending", "long"],
)
def test_a_plan_decreases_strictly_above_0(timesteps, message):
    # Each of these reached a sampler before, which died with an IndexError
    # (empty) or a step-level message (t_prev = 0 or -1 at the last step).
    with pytest.raises(ValueError, match=re.escape(message)) as exc:
        TimestepPlan(timesteps)
    assert len(str(exc.value)) < 80  # the first bad pair, not the whole list
