"""Core event-camera data types: events, streams, sensor model, voxel grids, frames.

All types are immutable value objects; the ndarray fields are treated as
read-only after construction. Timestamps are seconds (float64) in memory;
file formats use integer microseconds (see evtkit.fileio).

Canonical order is (t, y, x, p) ascending; :func:`validate` states it.
``simulate_events``, ``limit_bandwidth``, ``inject_noise`` and ``scf_filter``
return it, ``hot_pixel_filter`` keeps its input's order, and a stage that
needs order calls :func:`canonical_sort` on entry: O(n) on ordered input,
otherwise one stable sort by time (timsort) plus a repair of equal-time
runs; it stays the one authority on canonical order. The simulator hands it
streams already in order, each frame interval put in stable time order on
its own by :func:`_stable_time_order`. Both repair the events that are out
of order with :func:`_lexsort_at`, the one home of that lexsort.
:class:`EventStream` is the one home of the pixel and polarity rules: its
constructor refuses a value that its integer fields cannot hold exactly, an
event outside the sensor and a polarity other than -1 and +1, so no stage
checks them again. Per-pixel stages take pixel ids from :func:`pixel_index`.
Image-sized passes (``metrics.ssim``, the EDI weights) walk the image in
:func:`row_strips`, so each strip's working set stays in cache; SSIM carries
the row sums that its column sums still need from one strip to the next, and
the simulator's frame loop takes its blocks of consecutive pixels from it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "EventStream",
    "SensorModel",
    "VoxelGrid",
    "FrameSequence",
    "canonical_sort",
    "pixel_index",
    "validate",
]


@dataclass(frozen=True)
class EventStream:
    """A batch of events over a fixed sensor geometry and window.

    Events are stored as parallel arrays (structure-of-arrays) so that all
    stream operations vectorize; the module docstring gives their order.
    The constructor raises ValueError, naming the first bad event, for an x,
    y or p that the int32/int8 field cannot hold exactly (it would wrap or
    round in numpy's cast; NaN included), for an event outside ``width x
    height`` and for a polarity other than -1 and +1. Every stage relies on
    these rules, so the fields must not be written after construction.
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
        for name, dtype in (("x", np.int32), ("y", np.int32), ("p", np.int8)):
            given = np.asarray(getattr(self, name))
            with np.errstate(invalid="ignore"):  # NaN or a value out of range casts to garbage, refused below
                field = given.astype(dtype, copy=False)
            if field is not given and (wrong := field != given).any():
                i = int(np.argmax(wrong))
                raise ValueError(f"event {i} has {name}={given[i]}, which {field.dtype} cannot hold")
            object.__setattr__(self, name, field)
        for name in ("width", "height"):
            size = operator.index(getattr(self, name))  # TypeError for 4.0 or 4.5
            if size < 0:
                raise ValueError(f"{name} must be >= 0, got {size}")
            object.__setattr__(self, name, size)
        n = len(self.t)
        if not (len(self.x) == len(self.y) == len(self.p) == n):
            raise ValueError("event field arrays must have equal length")
        x, y, p, w, h = self.x, self.y, self.p, self.width, self.height
        # reductions decide, and a mask is built only to name the first bad event
        if n and not (min(x.min(), y.min()) >= 0 and x.max() < w and y.max() < h):
            i = int(np.argmax((x < 0) | (x >= w) | (y < 0) | (y >= h)))
            raise ValueError(f"event {i} at ({x[i]}, {y[i]}) outside geometry {w}x{h}")
        if n and not (p.min() >= -1 and p.max() <= 1 and np.count_nonzero(p) == n):
            i = int(np.argmax((p != 1) & (p != -1)))
            raise ValueError(f"event {i} has polarity {p[i]}, not -1 or +1")

    def __len__(self) -> int:
        return len(self.t)

    @classmethod
    def empty(cls, width: int, height: int, t_start: float = 0.0, t_end: float = 0.0) -> "EventStream":
        z = np.zeros(0)
        return cls(z, z, z, z, width, height, t_start, t_end)

    def with_arrays(self, t, x, y, p) -> "EventStream":
        return replace(self, t=t, x=x, y=y, p=p)


@dataclass(frozen=True)
class SensorModel:
    """DVS sensor: a nominal contrast threshold and its per-pixel map.

    ``threshold_map`` is an H x W array of positive, finite log-intensity thresholds;
    with zero bias every entry equals ``c_nominal``. Bandwidth and noise
    settings live in :class:`evtkit.degrade.DegradationConfig`.
    """

    c_nominal: float
    threshold_map: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "threshold_map",
                           np.asarray(self.threshold_map, dtype=np.float64))
        if not (self.c_nominal > 0 and np.isfinite(self.c_nominal)):  # False for NaN
            raise ValueError("c_nominal must be > 0 and finite")
        if not (np.all(self.threshold_map > 0) and np.isfinite(self.threshold_map).all()):
            raise ValueError("threshold_map entries must be > 0 and finite")

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

    def __post_init__(self):
        object.__setattr__(self, "data", np.asarray(self.data, dtype=np.float64))
        if self.data.ndim != 3:
            raise ValueError("voxel data must be H x W x N")
        if self.n_channels < 1:
            raise ValueError("n_channels must be >= 1")

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def n_channels(self) -> int:
        return self.data.shape[2]


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
        if not np.isfinite(self.timestamps).all():
            raise ValueError("timestamps must be finite")
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


def canonical_sort(stream: EventStream) -> EventStream:
    """Sort events by (t, y, x, p) ascending. Idempotent.

    A stream that passes :func:`validate` is returned as is (the same
    object). Any other stream takes one stable argsort of ``t``, NaN last;
    then each run of equal times (NaN next to NaN counts as equal) whose
    (y, x, p) order is broken is lexsorted in place. Both sorts are stable,
    so the result is bit-identical to a 4-key lexsort, ±0.0 and NaN included.
    The tie-break makes any per-pixel parallel generation followed by a merge
    bit-deterministic regardless of schedule.
    """
    if validate(stream) is None:
        return stream
    order = np.argsort(stream.t, kind="stable")
    t, x, y, p = (a[order] for a in (stream.t, stream.x, stream.y, stream.p))
    del order
    # pairs that share a time (the NaN tail counts as one time) and break (y, x, p)
    tied = t[1:] == t[:-1]
    tied[len(t) - np.count_nonzero(np.isnan(t)):] = True
    broken = _descending_pairs((y, x, p), tied)
    if broken.any():
        # each broken pair's run is the span of its time in the sorted t
        # (-0.0 == 0.0, NaN last); a run with several broken pairs is kept once
        tb = t[:-1][broken]
        lo = np.searchsorted(t, tb, side="left")
        length = np.searchsorted(t, tb, side="right") - lo
        once = np.diff(lo, prepend=-1) > 0
        lo, length = lo[once], length[once]
        idx = np.arange(length.sum()) + np.repeat(lo - (np.cumsum(length) - length), length)
        # t as the primary key keeps each run apart from the others
        _lexsort_at((t, x, y, p), idx)
    return stream.with_arrays(t, x, y, p)


def _lexsort_at(fields, idx: np.ndarray) -> None:
    """Stably sort, in place, the events at the ascending positions ``idx``
    of the fields ``(t, x, y, p)`` by (t, y, x, p); the one home of the
    lexsort that repairs events out of canonical order."""
    t, x, y, p = fields
    src = idx[np.lexsort((p[idx], x[idx], y[idx], t[idx]))]
    for a in fields:
        a[idx] = a[src]


STRIP_BYTES = 1 << 20  # one row strip's working set; L2 is 1-2 MiB per core on current x86


def row_strips(height: int, row_bytes: int):
    """Consecutive row slices covering ``0..height``, each holding as many rows
    as fit in ``STRIP_BYTES`` at ``row_bytes`` per row; at least one row each."""
    step = max(1, STRIP_BYTES // max(row_bytes, 1))
    for start in range(0, height, step):
        yield slice(start, min(start + step, height))


def _aligned_planes(count: int, length: int) -> np.ndarray:
    """``count`` zeroed float64 planes of ``length`` values, shape
    (count, length), each starting on a 64-byte boundary, where stores run
    faster (numpy's large buffers start 16 bytes past one): the buffer is
    offset to a boundary and each plane's length padded to a multiple of 8."""
    stride = -(-length // 8) * 8
    raw = np.zeros(count * stride + 7)
    skip = -raw.ctypes.data % 64 // 8
    return raw[skip:skip + count * stride].reshape(count, stride)[:, :length]


def pixel_index(stream: EventStream) -> np.ndarray:
    """Flat pixel id ``y * width + x`` (int64) of every event; unique per
    pixel, since :class:`EventStream` keeps every event on the sensor."""
    pixel = np.multiply(stream.y, stream.width, dtype=np.int64)
    return np.add(pixel, stream.x, out=pixel)


_MAGNITUDE = (1 << 63) - 1  # all float64 bits but the sign
_INF_BITS = int(np.array(np.inf).view(np.int64))


def _stable_time_order(t: np.ndarray) -> np.ndarray:
    """Exactly ``np.argsort(t, kind="stable")``, from one sort of unique
    integer keys.

    Where no time is NaN and the times span few enough float64 values, the
    keys come from the times' bits: with -0.0 made 0.0 and the magnitude bits
    of negative times flipped, a time's bits read as an int64 order like the
    time, and ``(bits - least) << s | index``, with s the bits of an index,
    fits a uint64 and sorts into time order with ties in input order.

    Otherwise numpy's quicksort argsort leaves times that compare equal next
    to each other (-0.0 beside 0.0, NaN last whatever its payload) but in no
    set order. Each run of equal times gets a run id r, and sorting the keys
    ``r * n + index`` restores input order within each run, so ties follow
    the stable rule by construction. Raises ValueError where ``n * n``
    overflows int64.
    """
    n = len(t)
    if n * n > np.iinfo(np.int64).max:  # Python ints: the test cannot overflow
        raise ValueError(f"{n} times overflow the int64 keys of the stable order")
    if n < 2:
        return np.argsort(t)
    bits = t.view(np.int64)
    sign = bits >> 63  # -1 for a negative time, else 0
    key = bits & _MAGNITUDE
    key ^= sign
    key -= sign  # the magnitude, negated for a negative time: -0.0 and 0.0 meet at 0
    del sign
    least, most, shift = int(key.min()), int(key.max()), (n - 1).bit_length()
    # a NaN's magnitude bits exceed those of inf
    if -_INF_BITS <= least and most <= _INF_BITS and (most - least) >> (64 - shift) == 0:
        key -= least
        key = key.view(np.uint64)
        key <<= shift
        key |= np.arange(n, dtype=np.uint64)
        key.sort()
        key &= (1 << shift) - 1
        return key.view(np.intp)
    del key
    order = np.argsort(t)
    ts = t[order]
    starts = ts[1:] != ts[:-1]
    if np.isnan(ts[-1]):  # NaN != NaN, but the NaN tail is one run
        starts[np.searchsorted(ts, np.nan):] = False
    # ts is not read again: its buffer takes the keys, which stay below n * n,
    # as int32 where that fits (they sort faster) and otherwise as int64
    key = ts.view(np.int32 if n * n <= np.iinfo(np.int32).max else np.int64)[:n]
    key[0] = 0
    np.cumsum(starts, out=key[1:])
    del ts, starts
    key *= n
    key += order
    key.sort()
    return np.remainder(key, n, out=order)


def validate(stream: EventStream) -> str | None:
    """Check the window and order rules; return None if ok, else the first
    violation. The pixel and polarity rules are the constructor's."""
    if len(stream) == 0:
        return None
    out = ~((stream.t >= stream.t_start) & (stream.t <= stream.t_end))  # NaN is out
    if out.any():
        i = int(np.argmax(out))
        return f"window violation: event {i} at t={stream.t[i]} outside stream window"
    disorder = _descending_pairs((stream.t, stream.y, stream.x, stream.p),
                                 np.ones(len(stream) - 1, dtype=bool))
    if disorder.any():
        i = int(np.argmax(disorder))
        return f"ordering violation: events {i} and {i + 1} out of canonical order"
    return None


def _descending_pairs(keys, tied: np.ndarray) -> np.ndarray:
    """Mask of adjacent pairs, among those marked in ``tied`` (overwritten),
    whose first differing key in ``keys`` descends; keys tied so far defer to
    the next. Comparisons, not differences, so no key can overflow."""
    broken = np.zeros(len(tied), dtype=bool)
    for key in keys:
        broken |= tied & (key[1:] < key[:-1])
        tied &= key[1:] == key[:-1]
    return broken
