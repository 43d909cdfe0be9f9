"""Image and event-stream quality metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EventStream, VoxelGrid, _aligned_planes, pixel_index, row_strips

__all__ = ["check_alpha", "psnr", "ssim", "event_l1_response", "deblur_l1", "stream_stats", "StreamStats"]

SSIM_WINDOW = 8
SSIM_C1 = 0.01 ** 2
SSIM_C2 = 0.03 ** 2
# |pixel| bound of psnr, ssim and deblur_l1: SSIM's widest terms are fourth
# powers of a pixel value (at most 32 * 1e256 here), so every term stays
# finite in float64
_MAX_PIXEL = 1e64


def _check_geometry(a: np.ndarray, b: np.ndarray):
    if a.shape != b.shape:
        raise ValueError(f"geometry mismatch: {a.shape} vs {b.shape}")


def _check_values(*images: np.ndarray):
    # min/max propagate NaN, so NaN fails the comparison too; nothing is allocated
    for image in images:
        if image.size and not (np.min(image) >= -_MAX_PIXEL and np.max(image) <= _MAX_PIXEL):
            raise ValueError(f"image values must be finite and within +/-{_MAX_PIXEL:.3g}")


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB at peak 1.0; +inf for identical images.
    Raises ValueError for a value that is not finite or beyond +/-1e64."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    _check_geometry(a, b)
    _check_values(a, b)
    mse = np.mean((a - b) ** 2)
    if mse == 0:
        return float("inf")
    if mse <= 1.0 / np.finfo(np.float64).max:  # 1 / mse would overflow
        return float(-10.0 * np.log10(mse))
    return float(10.0 * np.log10(1.0 / mse))


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean local SSIM of two 2-D images with 8x8 uniform windows, stride 1,
    peak 1.0.

    Window means are separable box sums, each w - 1 adds from left to right:
    first along the flat run of whole rows (a sum that runs past its row's end
    lands in a column that is never read), then at whole-row offsets. Input
    rows come in :func:`row_strips`, and the last w - 1 rows of row sums carry
    over to the next strip, so every numpy call is contiguous and no row is
    summed twice. The adds and their order are those of the plain 2-D form.
    Raises ValueError for a value that is not finite or beyond +/-1e64.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    _check_geometry(a, b)
    if a.ndim != 2:
        raise ValueError(f"images must be 2-D, got shape {a.shape}")
    w = SSIM_WINDOW
    if a.shape[0] < w or a.shape[1] < w:
        raise ValueError(f"images must be at least {w}x{w}")
    _check_values(a, b)
    height, width = a.shape
    cols = width - w + 1
    # second moments of images centred on their global means lose less to
    # cancellation in E[xy] - E[x]E[y]; the window statistics are unchanged
    mean_a, mean_b = a.mean(), b.mean()
    ssim_map = np.empty((height - w + 1, cols))
    # per input row the loop holds 5 planes of moments, 5 of row sums, 5 of
    # window means and one scratch plane; zeros keep unread columns finite
    strips = list(row_strips(height, 16 * a.itemsize * width))
    size = strips[0].stop * width
    planes, means = _aligned_planes(5, size), _aligned_planes(5, size)
    sums = _aligned_planes(5, size + (w - 1) * width)
    scratch = _aligned_planes(1, size)[0]
    held = done = 0  # rows of row sums at the front of sums; output rows written
    for rows in strips:
        new = rows.stop - rows.start
        a0, b0, aa, bb, ab = planes[:, :new * width]
        np.subtract(a[rows], mean_a, out=a0.reshape(new, width))
        np.subtract(b[rows], mean_b, out=b0.reshape(new, width))
        np.multiply(a0, a0, out=aa)
        np.multiply(b0, b0, out=bb)
        np.multiply(a0, b0, out=ab)
        run = new * width - w + 1
        row_sum = sums[:, held * width:held * width + run]
        np.add(planes[:, :run], planes[:, 1:1 + run], out=row_sum)
        for k in range(2, w):
            row_sum += planes[:, k:k + run]
        held += new
        out = held - w + 1
        if out <= 0:
            continue
        n = out * width
        box = means[:, :n]
        np.add(sums[:, :n], sums[:, width:width + n], out=box)
        for k in range(2, w):
            box += sums[:, k * width:k * width + n]
        box *= 1 / (w * w)  # w * w = 64 is a power of two: the bits of a division, faster
        m_a, m_b, m_aa, m_bb, m_ab = box
        num = scratch[:n]
        # in place, in the order of var = m_aa - m_a**2, cov = m_ab - m_a*m_b,
        # mu = m + mean, (2*mu_a*mu_b + C1) * (2*cov + C2) over
        # (mu_a**2 + mu_b**2 + C1) * (var_a + var_b + C2)
        np.multiply(m_a, m_a, out=num)
        m_aa -= num
        np.multiply(m_b, m_b, out=num)
        m_bb -= num
        np.multiply(m_a, m_b, out=num)
        m_ab -= num
        m_a += mean_a
        m_b += mean_b
        np.multiply(m_a, 2, out=num)
        num *= m_b
        num += SSIM_C1
        m_ab *= 2
        m_ab += SSIM_C2
        num *= m_ab
        m_aa += m_bb
        m_aa += SSIM_C2
        m_a *= m_a
        m_b *= m_b
        m_a += m_b
        m_a += SSIM_C1
        m_a *= m_aa
        np.divide(num.reshape(out, width)[:, :cols], m_a.reshape(out, width)[:, :cols],
                  out=ssim_map[done:done + out])
        done += out
        sums[:, :(w - 1) * width] = sums[:, n:held * width]
        held = w - 1
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
    """Mean absolute pixel difference between two images.
    Raises ValueError for a value that is not finite or beyond +/-1e64."""
    deblurred = np.asarray(deblurred, dtype=np.float64)
    sharp = np.asarray(sharp, dtype=np.float64)
    _check_geometry(deblurred, sharp)
    _check_values(deblurred, sharp)
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
