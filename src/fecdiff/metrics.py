"""Reconstruction-quality measures: latent MSE, PSNR, SSIM, loss curves.

Latents are treated directly as images (there is no decoder in this
toolkit), so PSNR/SSIM operate on the raw working tensors with a caller
supplied peak value.
"""

from __future__ import annotations

import numpy as np

from .sampling import Trajectory

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def latent_loss(a: np.ndarray, b: np.ndarray) -> float:
    """Mean squared error over all entries."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.mean((a - b) ** 2))


def psnr(a: np.ndarray, b: np.ndarray, peak: float = 1.0) -> float:
    """10 * log10(peak^2 / MSE); +inf when the inputs are equal."""
    if peak <= 0:
        raise ValueError(f"peak must be positive, got {peak}")
    mse = latent_loss(a, b)
    if mse == 0.0:
        return float("inf")
    return float(10.0 * np.log10(peak**2 / mse))


def _gaussian_kernel(size: int = SSIM_WINDOW, sigma: float = SSIM_SIGMA) -> np.ndarray:
    ax = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-(ax**2) / (2.0 * sigma**2))
    k = np.outer(g, g)
    return k / k.sum()


def _windowed_mean(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    # Valid-mode weighted local mean via sliding windows.
    win = np.lib.stride_tricks.sliding_window_view(img, kernel.shape)
    return np.einsum("ijkl,kl->ij", win, kernel)


def ssim(a: np.ndarray, b: np.ndarray, peak: float = 1.0) -> float:
    """Mean local SSIM, 11x11 Gaussian window (sigma 1.5), K1/K2 = 0.01/0.03.

    Accepts (H, W) or (C, H, W); channels are averaged.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.ndim == 2:
        a = a[None]
        b = b[None]
    if a.ndim != 3:
        raise ValueError(f"expected (H, W) or (C, H, W), got shape {a.shape}")
    if a.shape[-2] < SSIM_WINDOW or a.shape[-1] < SSIM_WINDOW:
        raise ValueError(f"image smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} SSIM window")
    kernel = _gaussian_kernel()
    c1 = (SSIM_K1 * peak) ** 2
    c2 = (SSIM_K2 * peak) ** 2
    scores = []
    for x, y in zip(a, b):
        mu_x = _windowed_mean(x, kernel)
        mu_y = _windowed_mean(y, kernel)
        var_x = _windowed_mean(x * x, kernel) - mu_x**2
        var_y = _windowed_mean(y * y, kernel) - mu_y**2
        cov = _windowed_mean(x * y, kernel) - mu_x * mu_y
        num = (2 * mu_x * mu_y + c1) * (2 * cov + c2)
        den = (mu_x**2 + mu_y**2 + c1) * (var_x + var_y + c2)
        scores.append(np.mean(num / den))
    return float(np.mean(scores))


def trajectory_loss_curve(
    sampled: dict[int, np.ndarray], reference: Trajectory
) -> list[tuple[int, float]]:
    """Per-step MSE between sampled latents and the reference trajectory,
    ordered by descending timestep."""
    missing = [t for t in sampled if t not in reference.latents]
    if missing:
        raise ValueError(f"reference trajectory missing timesteps {sorted(missing)}")
    return [
        (t, latent_loss(sampled[t], reference[t])) for t in sorted(sampled, reverse=True)
    ]
