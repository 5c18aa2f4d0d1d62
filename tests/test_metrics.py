import numpy as np
import pytest

from fecdiff.metrics import (
    SSIM_K1,
    SSIM_K2,
    SSIM_SIGMA,
    SSIM_WINDOW,
    latent_loss,
    psnr,
    ssim,
    trajectory_loss_curve,
)
from fecdiff.sampling import Trajectory


def test_latent_loss_basics():
    a = np.zeros((2, 3))
    b = np.full((2, 3), 2.0)
    assert latent_loss(a, a) == 0.0
    assert latent_loss(a, b) == 4.0
    with pytest.raises(ValueError):
        latent_loss(a, np.zeros(3))


def test_psnr_reference_values():
    a = np.zeros((4, 4))
    assert psnr(a, a) == float("inf")
    # MSE 0.01 at peak 1 is exactly 20 dB.
    b = np.full((4, 4), 0.1)
    assert psnr(a, b, peak=1.0) == pytest.approx(20.0, abs=1e-12)
    # Doubling the peak adds 20*log10(2) dB.
    assert psnr(a, b, peak=2.0) == pytest.approx(20.0 + 20.0 * np.log10(2.0), abs=1e-12)
    with pytest.raises(ValueError):
        psnr(a, b, peak=0.0)


def test_ssim_self_similarity():
    img = np.random.default_rng(0).standard_normal((16, 16))
    assert ssim(img, img) == pytest.approx(1.0, abs=1e-12)
    multi = np.random.default_rng(1).standard_normal((4, 16, 16))
    assert ssim(multi, multi) == pytest.approx(1.0, abs=1e-12)


def _brute_force_ssim_tile(x, y, peak):
    # Independent single-window reference: explicit loops, no vectorization.
    size, sigma = SSIM_WINDOW, SSIM_SIGMA
    kernel = np.empty((size, size))
    for i in range(size):
        for j in range(size):
            di = i - (size - 1) / 2.0
            dj = j - (size - 1) / 2.0
            kernel[i, j] = np.exp(-(di * di + dj * dj) / (2.0 * sigma * sigma))
    kernel /= kernel.sum()
    mx = my = mxx = myy = mxy = 0.0
    for i in range(size):
        for j in range(size):
            w = kernel[i, j]
            mx += w * x[i, j]
            my += w * y[i, j]
            mxx += w * x[i, j] * x[i, j]
            myy += w * y[i, j] * y[i, j]
            mxy += w * x[i, j] * y[i, j]
    var_x = mxx - mx * mx
    var_y = myy - my * my
    cov = mxy - mx * my
    c1 = (SSIM_K1 * peak) ** 2
    c2 = (SSIM_K2 * peak) ** 2
    return ((2 * mx * my + c1) * (2 * cov + c2)) / (
        (mx * mx + my * my + c1) * (var_x + var_y + c2)
    )


def test_ssim_matches_brute_force_window():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((SSIM_WINDOW, SSIM_WINDOW))
    y = x + 0.3 * rng.standard_normal((SSIM_WINDOW, SSIM_WINDOW))
    peak = float(x.max() - x.min())
    # On an exactly window-sized tile the mean over valid windows is the
    # single window score.
    assert ssim(x, y, peak) == pytest.approx(_brute_force_ssim_tile(x, y, peak), abs=1e-9)


def test_ssim_validation():
    small = np.zeros((4, 4))
    with pytest.raises(ValueError):
        ssim(small, small)
    a = np.zeros((16, 16))
    with pytest.raises(ValueError):
        ssim(a, np.zeros((16, 15)))
    with pytest.raises(ValueError):
        ssim(np.zeros((1, 1, 16, 16)), np.zeros((1, 1, 16, 16)))


def test_ssim_degrades_with_noise():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((16, 16))
    near = ssim(x, x + 0.01 * rng.standard_normal((16, 16)), peak=4.0)
    far = ssim(x, x + 1.0 * rng.standard_normal((16, 16)), peak=4.0)
    assert far < near < 1.0


def test_trajectory_loss_curve_order_and_validation():
    ref = Trajectory(
        latents={0: np.zeros(2), 10: np.ones(2), 20: np.full(2, 2.0)},
        timesteps=(20, 10),
        guidance=1.0,
    )
    sampled = {10: np.zeros(2), 20: np.full(2, 2.0), 0: np.ones(2)}
    curve = trajectory_loss_curve(sampled, ref)
    assert curve == [(20, 0.0), (10, 1.0), (0, 1.0)]
    with pytest.raises(ValueError):
        trajectory_loss_curve({5: np.zeros(2)}, ref)
