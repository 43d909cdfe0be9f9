"""Event double integral: analytic latent-image reconstruction from a blurry
image plus the voxelized events of its exposure window.

The blurry image is the exposure-time mean of the latent frames; events give
the log-intensity trajectory, so the per-pixel exposure-averaged exponential
of the integrated event train relates blur and latent image by
B = E_hat[r] * I[r] at any reference boundary r. The discrete weight is
averaged over the N+1 channel boundaries so that an event-free pixel has
E_hat = 1 and reconstruction is the identity there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import VoxelGrid, row_strips

__all__ = ["EdiConfig", "edi_weight", "edi_reconstruct", "edi_sequence"]


@dataclass(frozen=True)
class EdiConfig:
    """Reconstruction threshold and reference channel boundary.

    ``c`` is the threshold assumed by the reconstruction; it is deliberately
    independent of whatever threshold generated the events, so mismatch
    experiments are possible. ``ref`` indexes a channel boundary, 0..N; it is
    checked where N is known.
    """

    c: float = 0.2
    ref: int = 0

    def __post_init__(self):
        _check_threshold(self.c)


def _check_threshold(c: float) -> None:
    if not (c > 0 and np.isfinite(c)):  # False for NaN
        raise ValueError("threshold c must be > 0 and finite")


def _check_ref(ref: int, n_channels: int) -> None:
    if not 0 <= ref <= n_channels:
        raise ValueError("ref outside boundary range")


def _plane_sum(e: np.ndarray) -> None:
    """Sum of the planes ``e`` (overwritten) into ``e[0]``, bit for bit the
    sum that ``np.sum`` or ``np.mean`` takes over the last axis of a
    pixel-major copy, except where a pixel's values are all -0.0 (numpy
    gives +0.0 there; exp never returns -0.0). numpy sums each pixel's
    n values pairwise: one by one when n < 8; in eight running sums, folded
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the rest one by one, when
    n <= 128; beyond that, as the sums of two parts split at n // 2 rounded
    down to a multiple of 8. Here each step adds whole planes, so every pixel
    sees the same adds in the same order."""
    n = len(e)
    if n < 8:
        for k in range(1, n):
            e[0] += e[k]
    elif n <= 128:
        for i in range(8, n - n % 8, 8):
            e[:8] += e[i:i + 8]
        e[0:8:2] += e[1:8:2]
        e[0:8:4] += e[2:8:4]
        e[0] += e[4]
        for k in range(n - n % 8, n):
            e[0] += e[k]
    else:
        half = n // 2 - n // 2 % 8
        _plane_sum(e[:half])
        _plane_sum(e[half:])
        e[0] += e[half]


def _boundary_weights(data: np.ndarray, c: float, refs=slice(None)) -> np.ndarray:
    """exp(c * signed count between boundary r and each boundary), averaged.

    data: ... x N channel counts; refs: a list or slice of boundaries 0..N.
    Returns a view W with one last-axis entry per boundary in ``refs``:
    W[..., i] is the mean over boundaries n of exp(c * S(refs[i], n)), where
    S(r, n) is the signed sum of channels between boundaries r and n; each
    W[..., i] is contiguous.

    Every array is boundary-major, one contiguous plane per boundary, so no
    step loops over the short boundary axis pixel by pixel. The mean over
    boundaries adds whole planes in the order numpy sums a contiguous axis
    (:func:`_plane_sum`), so its bits are those of ``np.mean`` over a
    pixel-major copy. The second exponent's argument c * (top - cum[r]) is
    exactly -x[r] for x = c * (cum - top): IEEE subtraction and
    multiplication round symmetrically in sign, and exp(-0.0) == exp(0.0).
    """
    n = data.shape[-1]
    # cum[k] sums the channels before boundary k in channel order, as
    # np.cumsum does
    cum = np.empty((n + 1,) + data.shape[:-1])
    cum[0] = 0.0
    cum[1] = data[..., 0]
    for k in range(1, n):
        np.add(cum[k, ...], data[..., k], out=cum[k + 1, ...])
    # S(r, n) = cum[n] - cum[r]; factor the r-dependence out of the mean,
    # shifted by the per-pixel maximum (log-sum-exp) so the mean lies in
    # [1/(N+1), 1] and cannot overflow
    top = cum.max(axis=0)
    x = np.subtract(cum, top, out=cum)
    x *= c
    e = np.exp(x)
    _plane_sum(e)
    e[0] /= n + 1  # the mean over the N+1 boundaries
    w = x[refs]  # a view of cum for a slice, a copy for a list
    np.negative(w, out=w)
    with np.errstate(over="ignore"):  # a weight beyond float64 is inf: latent 0
        np.exp(w, out=w)
    w *= e[0]
    return np.moveaxis(w, 0, -1)


def edi_weight(counts: np.ndarray, c: float, ref: int) -> float:
    """Exposure-average weight E_hat[ref] for one pixel's channel counts."""
    _check_threshold(c)
    counts = np.asarray(counts, dtype=np.float64)
    _check_ref(ref, counts.shape[-1])
    return float(_boundary_weights(counts, c, [ref])[..., 0])


def _reconstruct(blurry: np.ndarray, grid: VoxelGrid, c: float, refs,
                 clamp: bool) -> np.ndarray:
    """Latents I[r] = B / E_hat[r] at the boundaries ``refs`` (a list or a
    slice) for a ``c`` its caller has checked, stacked on the first axis; the
    weights are built one row strip at a time, so a strip's weights fit in cache."""
    blurry = np.asarray(blurry, dtype=np.float64)
    if blurry.shape != (grid.height, grid.width):
        raise ValueError(
            f"blurry image {blurry.shape} does not match grid {(grid.height, grid.width)}")
    n_refs = len(np.arange(grid.n_channels + 1)[refs])
    latents = np.empty((n_refs,) + blurry.shape)
    row_bytes = (grid.n_channels + 1) * grid.data.itemsize * grid.width
    for rows in row_strips(grid.height, row_bytes):
        weights = _boundary_weights(grid.data[rows], c, refs)
        for i, latent in enumerate(latents):
            np.divide(blurry[rows], weights[..., i], out=latent[rows])
        if clamp:
            np.clip(latents[:, rows], 0.0, 1.0, out=latents[:, rows])
    return latents


def edi_reconstruct(blurry: np.ndarray, grid: VoxelGrid, cfg: EdiConfig,
                    clamp: bool = True) -> np.ndarray:
    """Latent image at reference boundary ``cfg.ref``: I[r] = B / E_hat[r].

    Internal math is unclamped so E_hat[r] * I[r] == B holds exactly; the
    [0, 1] clamp is applied only at the output boundary (disable for
    analysis with ``clamp=False``). A pixel whose weight overflows float64
    gets latent 0. Only the weight plane at ``cfg.ref`` is formed, though
    the mean inside it still spans every boundary.
    """
    _check_ref(cfg.ref, grid.n_channels)
    return _reconstruct(blurry, grid, cfg.c, [cfg.ref], clamp)[0]


def edi_sequence(blurry: np.ndarray, grid: VoxelGrid, c: float,
                 clamp: bool = True) -> list[np.ndarray]:
    """Reconstruct at every channel boundary: N+1 latent images, equal to
    ``edi_reconstruct`` at each ``ref`` but with the weights computed once."""
    _check_threshold(c)
    return list(_reconstruct(blurry, grid, c, slice(None), clamp))
