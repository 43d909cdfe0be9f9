"""Image and event-stream quality metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EventStream, VoxelGrid, pixel_index, row_strips

__all__ = ["check_alpha", "psnr", "ssim", "event_l1_response", "deblur_l1", "stream_stats", "StreamStats"]

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


def _window_mean(x: np.ndarray, w: int) -> np.ndarray:
    """Mean of every w x w window over the last two axes, stride 1.

    Box sums by w - 1 shifted-slice adds along x, then along y, in O(size)
    memory. Unlike a summed-area table, no value is recovered as the
    difference of two large cumulative sums.
    """
    cols = x.shape[-1] - w + 1
    rows = x.shape[-2] - w + 1
    acc = x[..., :cols].copy()
    for k in range(1, w):
        acc += x[..., k:k + cols]
    box = acc[..., :rows, :].copy()
    for k in range(1, w):
        box += acc[..., k:k + rows, :]
    box /= w * w
    return box


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean local SSIM of two 2-D images with 8x8 uniform windows, stride 1,
    peak 1.0."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    _check_geometry(a, b)
    if a.ndim != 2:
        raise ValueError(f"images must be 2-D, got shape {a.shape}")
    w = SSIM_WINDOW
    if a.shape[0] < w or a.shape[1] < w:
        raise ValueError(f"images must be at least {w}x{w}")
    # second moments of images centred on their global means lose less to
    # cancellation in E[xy] - E[x]E[y]; the window statistics are unchanged
    mean_a, mean_b = a.mean(), b.mean()
    ssim_map = np.empty((a.shape[0] - w + 1, a.shape[1] - w + 1))
    # a strip of output rows reads w - 1 more input rows and stacks 5 planes
    for rows in row_strips(len(ssim_map), 5 * a.itemsize * a.shape[1], halo=w - 1):
        inputs = slice(rows.start, rows.stop + w - 1)
        a0, b0 = a[inputs] - mean_a, b[inputs] - mean_b
        m_a, m_b, m_aa, m_bb, m_ab = _window_mean(
            np.stack([a0, b0, a0 * a0, b0 * b0, a0 * b0]), w)
        var_a = m_aa - m_a ** 2
        var_b = m_bb - m_b ** 2
        cov = m_ab - m_a * m_b
        mu_a = m_a + mean_a
        mu_b = m_b + mean_b
        num = (2 * mu_a * mu_b + SSIM_C1) * (2 * cov + SSIM_C2)
        den = (mu_a ** 2 + mu_b ** 2 + SSIM_C1) * (var_a + var_b + SSIM_C2)
        np.divide(num, den, out=ssim_map[rows])
    return float(np.mean(ssim_map))


def check_alpha(alpha: float) -> None:
    """Raise ValueError unless :func:`event_l1_response` accepts ``alpha``, so
    a caller can reject it before it starts any work."""
    if not (np.isfinite(alpha) and alpha >= 0):
        raise ValueError("alpha must be finite and >= 0")


def event_l1_response(restored: VoxelGrid, reference: VoxelGrid,
                      degraded: VoxelGrid, alpha: float = 0.5) -> float:
    """Event restoration error: alpha * mean |restored - reference| over the
    response mask (voxels non-zero in the reference or degraded grid).

    The loss's feature-space term needs a learned event encoder and is not
    evaluated here. Returns 0 when the mask is empty.
    """
    check_alpha(alpha)
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
