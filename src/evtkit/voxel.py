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
    no events. Events outside the window are ignored.
    """
    if duration <= 0:
        raise ValueError("duration must be > 0")
    if n_channels < 1:
        raise ValueError("n_channels must be >= 1")
    inside = (stream.t >= t0) & (stream.t <= t0 + duration)
    voxel = pixel_index(stream)[inside]
    voxel *= n_channels
    chan = np.floor((stream.t[inside] - t0) * n_channels / duration).astype(np.int64)
    voxel += np.minimum(chan, n_channels - 1, out=chan)  # right-edge closure
    data = np.bincount(voxel, weights=stream.p[inside],
                       minlength=stream.height * stream.width * n_channels)
    return VoxelGrid(data.reshape(stream.height, stream.width, n_channels), t0, duration)
