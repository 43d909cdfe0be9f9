"""Core event-camera data types: events, streams, sensor model, voxel grids, frames.

All types are immutable value objects; the ndarray fields are treated as
read-only after construction. Timestamps are seconds (float64) in memory;
file formats use integer microseconds (see evtkit.fileio).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "Event",
    "EventStream",
    "SensorModel",
    "VoxelGrid",
    "FrameSequence",
    "MetricConfig",
    "canonical_sort",
    "validate",
]


@dataclass(frozen=True)
class Event:
    """A single brightness-change event: time (s), column, row, polarity (+1/-1)."""

    t: float
    x: int
    y: int
    p: int


@dataclass(frozen=True)
class EventStream:
    """A time-sorted batch of events over a fixed sensor geometry and window.

    Events are stored as parallel arrays (structure-of-arrays) so that all
    stream operations vectorize. Canonical order is (t, y, x, p) ascending;
    use :func:`canonical_sort` to establish it.
    """

    t: np.ndarray  # float64, seconds
    x: np.ndarray  # int32, column
    y: np.ndarray  # int32, row
    p: np.ndarray  # int8, +1 or -1
    width: int
    height: int
    t_start: float
    t_end: float

    def __post_init__(self):
        object.__setattr__(self, "t", np.asarray(self.t, dtype=np.float64))
        object.__setattr__(self, "x", np.asarray(self.x, dtype=np.int32))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=np.int32))
        object.__setattr__(self, "p", np.asarray(self.p, dtype=np.int8))
        n = len(self.t)
        if not (len(self.x) == len(self.y) == len(self.p) == n):
            raise ValueError("event field arrays must have equal length")

    def __len__(self) -> int:
        return len(self.t)

    @classmethod
    def empty(cls, width: int, height: int, t_start: float = 0.0, t_end: float = 0.0) -> "EventStream":
        z = np.zeros(0)
        return cls(z, z, z, z, width, height, t_start, t_end)

    @classmethod
    def from_events(cls, events, width: int, height: int,
                    t_start: float | None = None, t_end: float | None = None) -> "EventStream":
        events = list(events)
        t = np.array([e.t for e in events], dtype=np.float64)
        x = np.array([e.x for e in events], dtype=np.int32)
        y = np.array([e.y for e in events], dtype=np.int32)
        p = np.array([e.p for e in events], dtype=np.int8)
        if t_start is None:
            t_start = float(t.min()) if len(t) else 0.0
        if t_end is None:
            t_end = float(t.max()) if len(t) else 0.0
        return cls(t, x, y, p, width, height, t_start, t_end)

    def with_arrays(self, t, x, y, p) -> "EventStream":
        return replace(self, t=t, x=x, y=y, p=p)


@dataclass(frozen=True)
class SensorModel:
    """DVS sensor: a nominal contrast threshold and its per-pixel map.

    ``threshold_map`` is an H x W array of positive log-intensity thresholds;
    with zero bias every entry equals ``c_nominal``. Bandwidth and noise
    settings live in :class:`evtkit.degrade.DegradationConfig`.
    """

    c_nominal: float
    threshold_map: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "threshold_map",
                           np.asarray(self.threshold_map, dtype=np.float64))
        if self.c_nominal <= 0:
            raise ValueError("c_nominal must be > 0")
        if np.any(self.threshold_map <= 0):
            raise ValueError("threshold_map entries must be > 0")

    @property
    def height(self) -> int:
        return self.threshold_map.shape[0]

    @property
    def width(self) -> int:
        return self.threshold_map.shape[1]

    @classmethod
    def uniform(cls, c: float, width: int, height: int) -> "SensorModel":
        """Sensor with a spatially uniform threshold ``c``."""
        return cls(c, np.full((height, width), float(c)))


@dataclass(frozen=True)
class VoxelGrid:
    """H x W x N signed event-count tensor over a time window.

    Channel ``n`` covers ``[t0 + n*duration/n_channels,
    t0 + (n+1)*duration/n_channels)``; the right edge of the final channel is
    closed so the full window loses no events.
    """

    data: np.ndarray  # H x W x N, signed counts (float, integer-valued when voxelized)
    t0: float
    duration: float
    n_channels: int = field(default=0)

    def __post_init__(self):
        object.__setattr__(self, "data", np.asarray(self.data, dtype=np.float64))
        if self.data.ndim != 3:
            raise ValueError("voxel data must be H x W x N")
        if self.n_channels == 0:
            object.__setattr__(self, "n_channels", self.data.shape[2])
        if self.n_channels != self.data.shape[2]:
            raise ValueError("n_channels does not match data shape")
        if self.n_channels < 1:
            raise ValueError("n_channels must be >= 1")

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class FrameSequence:
    """Timestamped linear-intensity frames, one geometry, values in [0, 1]."""

    frames: np.ndarray  # N x H x W, float64 in [0, 1]
    timestamps: np.ndarray  # N, seconds, strictly increasing

    def __post_init__(self):
        object.__setattr__(self, "frames", np.asarray(self.frames, dtype=np.float64))
        object.__setattr__(self, "timestamps", np.asarray(self.timestamps, dtype=np.float64))
        if self.frames.ndim != 3:
            raise ValueError("frames must be N x H x W")
        if len(self.timestamps) != len(self.frames):
            raise ValueError("timestamp count does not match frame count")
        if len(self.timestamps) > 1 and np.any(np.diff(self.timestamps) <= 0):
            raise ValueError("timestamps must be strictly increasing")
        # min/max propagate NaN, so this form rejects NaN frames too
        if self.frames.size and not (self.frames.min() >= 0 and self.frames.max() <= 1):
            raise ValueError("frame intensities must lie in [0, 1]")

    def __len__(self) -> int:
        return len(self.frames)

    @property
    def height(self) -> int:
        return self.frames.shape[1]

    @property
    def width(self) -> int:
        return self.frames.shape[2]


@dataclass(frozen=True)
class MetricConfig:
    """Weight ``alpha`` of the event restoration loss (see
    :func:`evtkit.metrics.event_l1_response`)."""

    alpha: float = 0.5

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError("alpha must be finite and >= 0")


def canonical_sort(stream: EventStream) -> EventStream:
    """Sort events by (t, y, x, p) ascending. Idempotent.

    The tie-break makes any per-pixel parallel generation followed by a merge
    bit-deterministic regardless of schedule.
    """
    order = np.lexsort((stream.p, stream.x, stream.y, stream.t))
    return stream.with_arrays(stream.t[order], stream.x[order],
                              stream.y[order], stream.p[order])


def validate(stream: EventStream) -> str | None:
    """Check stream invariants; return None if ok, else the first violation."""
    if len(stream) == 0:
        return None
    bad = ~np.isin(stream.p, (-1, 1))
    if bad.any():
        i = int(np.argmax(bad))
        return f"polarity violation: event {i} has p={stream.p[i]}"
    oob = ((stream.x < 0) | (stream.x >= stream.width)
           | (stream.y < 0) | (stream.y >= stream.height))
    if oob.any():
        i = int(np.argmax(oob))
        return (f"bounds violation: event {i} at ({stream.x[i]}, {stream.y[i]}) "
                f"outside {stream.width}x{stream.height}")
    out = (stream.t < stream.t_start) | (stream.t > stream.t_end)
    if out.any():
        i = int(np.argmax(out))
        return f"window violation: event {i} at t={stream.t[i]} outside stream window"
    dt = np.diff(stream.t)
    dy = np.diff(stream.y)
    dx = np.diff(stream.x)
    dp = np.diff(stream.p.astype(np.int16))
    disorder = (
        (dt < 0)
        | ((dt == 0) & (dy < 0))
        | ((dt == 0) & (dy == 0) & (dx < 0))
        | ((dt == 0) & (dy == 0) & (dx == 0) & (dp < 0))
    )
    if disorder.any():
        i = int(np.argmax(disorder))
        return f"ordering violation: events {i} and {i + 1} out of canonical order"
    return None
