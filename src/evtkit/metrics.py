"""Image and event-stream quality metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EventStream, VoxelGrid, pixel_index

__all__ = ["psnr", "ssim", "event_l1_response", "deblur_l1", "stream_stats", "StreamStats"]

SSIM_WINDOW = 8
SSIM_C1 = 0.01 ** 2
SSIM_C2 = 0.03 ** 2


def _check_geometry(a: np.ndarray, b: np.ndarray):
    if a.shape != b.shape:
        raise ValueError(f"geometry mismatch: {a.shape} vs {b.shape}")


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB at peak 1.0; +inf for identical images."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    _check_geometry(a, b)
    mse = np.mean((a - b) ** 2)
    if mse == 0:
        return float("inf")
    return float(10.0 * np.log10(1.0 / mse))


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean local SSIM with 8x8 uniform windows, stride 1, peak 1.0."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    _check_geometry(a, b)
    w = SSIM_WINDOW
    if a.shape[0] < w or a.shape[1] < w:
        raise ValueError(f"images must be at least {w}x{w}")

    def win(img):
        v = np.lib.stride_tricks.sliding_window_view(img, (w, w))
        return v.reshape(v.shape[0], v.shape[1], -1)

    wa, wb = win(a), win(b)
    mu_a = wa.mean(axis=-1)
    mu_b = wb.mean(axis=-1)
    var_a = wa.var(axis=-1)
    var_b = wb.var(axis=-1)
    cov = (wa * wb).mean(axis=-1) - mu_a * mu_b
    num = (2 * mu_a * mu_b + SSIM_C1) * (2 * cov + SSIM_C2)
    den = (mu_a ** 2 + mu_b ** 2 + SSIM_C1) * (var_a + var_b + SSIM_C2)
    return float(np.mean(num / den))


def event_l1_response(restored: VoxelGrid, reference: VoxelGrid,
                      degraded: VoxelGrid, alpha: float = 0.5) -> float:
    """Event restoration error: alpha * mean |restored - reference| over the
    response mask (voxels non-zero in the reference or degraded grid).

    The loss's feature-space term needs a learned event encoder and is not
    evaluated here. Returns 0 when the mask is empty.
    """
    if not (np.isfinite(alpha) and alpha >= 0):
        raise ValueError("alpha must be finite and >= 0")
    if not restored.data.shape == reference.data.shape == degraded.data.shape:
        raise ValueError("voxel grid shapes differ")
    mask = (reference.data != 0) | (degraded.data != 0)
    if not mask.any():
        return 0.0
    return float(alpha * np.abs(restored.data[mask] - reference.data[mask]).mean())


def deblur_l1(deblurred: np.ndarray, sharp: np.ndarray) -> float:
    """Mean absolute pixel difference between two images."""
    deblurred = np.asarray(deblurred, dtype=np.float64)
    sharp = np.asarray(sharp, dtype=np.float64)
    _check_geometry(deblurred, sharp)
    return float(np.abs(deblurred - sharp).mean())


@dataclass(frozen=True)
class StreamStats:
    count: int
    on_count: int
    off_count: int
    per_pixel_rate: np.ndarray  # H x W, events/s (zeros for zero-duration windows)
    duration: float


def stream_stats(stream: EventStream) -> StreamStats:
    """Exact event counts, per-pixel rates, and window duration."""
    counts = np.bincount(pixel_index(stream), minlength=stream.height * stream.width)
    counts = counts.reshape(stream.height, stream.width)
    duration = stream.t_end - stream.t_start
    rate = counts / duration if duration > 0 else np.zeros(counts.shape)
    return StreamStats(
        count=len(stream),
        on_count=int(np.count_nonzero(stream.p == 1)),
        off_count=int(np.count_nonzero(stream.p == -1)),
        per_pixel_rate=rate,
        duration=float(duration),
    )
