"""Classical event-stream denoising: spatiotemporal-support and hot-pixel filters.

Both filters are subset operations: every kept event is an unmodified member
of the input. ``scf_filter`` returns canonical order, ``hot_pixel_filter`` its input's.
"""

from __future__ import annotations

import numpy as np

from .core import EventStream, canonical_sort, pixel_index

__all__ = ["scf_filter", "hot_pixel_filter"]


def scf_filter(stream: EventStream, radius: int = 1, window: float = 0.010,
               min_support: int = 2) -> EventStream:
    """Keep events with at least ``min_support`` other events within Chebyshev
    ``radius`` pixels and +/- ``window`` seconds.

    Support counting ignores polarity. An exact duplicate of an event counts
    as a supporting neighbor. min_support = 0 keeps everything.

    Algorithm: on the canonical (time-sorted) axis, event ``i``'s time window
    is the index range ``[lo_i, hi_i)`` found by ``searchsorted`` of
    ``t -/+ window``. Events are then keyed ``pixel * n + index`` and sorted
    pixel-major, so the events at pixel ``q`` inside that window are the keys
    in ``[q*n + lo_i, q*n + hi_i)``, counted with two ``searchsorted`` calls.
    One such count per offset in the (2r+1)^2 neighborhood, summed, gives
    the support. The sensor is padded by the radius (at most its own size)
    on every side, so an offset past a border lands on an empty pixel rather
    than wrapping to the next row. Cost is O(r^2 * n * log n) time and O(n)
    memory; the per-event loop this replaces is kept in the tests as the
    reference.

    Raises ValueError for events outside ``width x height`` (which would
    alias to another pixel) and for streams whose key space overflows int64.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    if not window > 0:  # NaN fails too
        raise ValueError("window must be > 0")
    if min_support < 0:
        raise ValueError("min_support must be >= 0")
    s = canonical_sort(stream)
    n = len(s)
    keys = pixel_index(s)
    # offsets beyond the sensor can never find a neighbor
    rx, ry = min(radius, s.width - 1), min(radius, s.height - 1)
    padded_w = s.width + 2 * rx
    if padded_w * (s.height + 2 * ry) * n > np.iinfo(np.int64).max:
        raise ValueError("stream too large for int64 pixel*n keys")
    if min_support == 0 or n == 0:
        return s

    lo = np.searchsorted(s.t, s.t - window, side="left")
    hi = np.searchsorted(s.t, s.t + window, side="right")
    index = np.arange(n, dtype=np.int64)
    # (y + ry) * padded_w + x + rx, from the unpadded id y * width + x
    keys += np.multiply(s.y, 2 * rx, dtype=np.int64)
    keys += ry * padded_w + rx
    keys *= n
    keys += index
    keys.sort()  # pixel-major; keys are unique, so this is stable
    np.remainder(keys, n, out=index)  # canonical index of each key
    # needles pixel*n + lo and pixel*n + hi, in pixel-major (sorted) order
    lo_needle = lo[index]
    del lo
    lo_needle -= index
    lo_needle += keys
    hi_needle = hi[index]
    del hi
    hi_needle -= index
    hi_needle += keys
    del index  # recovered from keys at the end; keeps the loop's memory down

    # the event itself falls in its own window; start at -1 to subtract it
    support = np.full(n, -1, dtype=np.int64)
    shift = 0  # the needles are shifted in place from offset to offset
    for dy in range(-ry, ry + 1):
        for dx in range(-rx, rx + 1):
            step = (dy * padded_w + dx) * n - shift
            shift += step
            hi_needle += step
            support += keys.searchsorted(hi_needle)
            lo_needle += step
            support -= keys.searchsorted(lo_needle)
    keep = np.empty(n, dtype=bool)
    keep[np.remainder(keys, n, out=keys)] = support >= min_support
    return s.with_arrays(s.t[keep], s.x[keep], s.y[keep], s.p[keep])


def hot_pixel_filter(stream: EventStream, rate_threshold: float) -> EventStream:
    """Drop all events from pixels whose event rate over the stream window
    exceeds ``rate_threshold`` events/s. Zero-duration streams pass unchanged."""
    if not rate_threshold > 0:  # NaN fails too
        raise ValueError("rate_threshold must be > 0")
    duration = stream.t_end - stream.t_start
    if len(stream) == 0 or duration <= 0:
        return stream
    pixel = pixel_index(stream)
    counts = np.bincount(pixel, minlength=stream.width * stream.height)
    hot = counts / duration > rate_threshold
    keep = ~hot[pixel]
    return stream.with_arrays(stream.t[keep], stream.x[keep], stream.y[keep], stream.p[keep])
