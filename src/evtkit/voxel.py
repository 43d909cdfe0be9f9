"""Event stream -> H x W x N signed-count voxel tensor."""

from __future__ import annotations

import numpy as np

from .core import EventStream, VoxelGrid, pixel_index

__all__ = ["voxelize"]


def voxelize(stream: EventStream, t0: float, duration: float, n_channels: int = 10) -> VoxelGrid:
    """Bin event polarities into ``n_channels`` equal time slices of
    [t0, t0 + duration].

    Channel n holds the signed polarity sum of events with
    t in [t0 + n*duration/N, t0 + (n+1)*duration/N); the event at exactly
    t0 + duration is assigned to the last channel so the full window loses
    no events. Events outside the window are ignored. Raises ValueError
    unless ``t0`` is finite and 0 < ``duration`` < inf.
    """
    if not (np.isfinite(t0) and 0 < duration < np.inf):  # NaN fails too
        raise ValueError(f"window needs a finite t0 and 0 < duration < inf, got t0={t0}, duration={duration}")
    if n_channels < 1:
        raise ValueError("n_channels must be >= 1")
    t, p = stream.t, stream.p
    inside = (t >= t0) & (t <= t0 + duration)
    voxel = pixel_index(stream)
    if not inside.all():
        t, p, voxel = t[inside], p[inside], voxel[inside]
    voxel *= n_channels
    # (t - t0) * N / duration, floored, in one float buffer
    chan = np.subtract(t, t0)
    chan *= n_channels
    chan /= duration
    chan = np.floor(chan, out=chan).astype(np.int64)
    voxel += np.minimum(chan, n_channels - 1, out=chan)  # right-edge closure
    data = np.bincount(voxel, weights=p, minlength=stream.height * stream.width * n_channels)
    return VoxelGrid(data.reshape(stream.height, stream.width, n_channels), t0, duration)
