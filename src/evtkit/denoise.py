"""Classical event-stream denoising: spatiotemporal-support and hot-pixel filters.

Both filters are subset operations: every kept event is an unmodified member
of the input. ``scf_filter`` returns canonical order, ``hot_pixel_filter`` its input's.
"""

from __future__ import annotations

import numpy as np

from .core import EventStream, canonical_sort, pixel_index, row_strips

__all__ = ["check_scf_settings", "scf_filter", "hot_pixel_filter"]


def check_scf_settings(radius: int, window: float, min_support: int) -> None:
    """Raise ValueError unless :func:`scf_filter` accepts these settings, so
    a caller can reject them before it starts any work."""
    if radius < 1:
        raise ValueError("radius must be >= 1")
    if not window > 0:  # NaN fails too
        raise ValueError("window must be > 0")
    if min_support < 0:
        raise ValueError("min_support must be >= 0")


def scf_filter(stream: EventStream, radius: int = 1, window: float = 0.010,
               min_support: int = 2) -> EventStream:
    """Keep events with at least ``min_support`` other events within Chebyshev
    ``radius`` pixels and +/- ``window`` seconds.

    Support counting ignores polarity. An exact duplicate of an event counts
    as a supporting neighbor. min_support = 0 keeps everything.

    Algorithm: on the canonical (time-sorted) axis, event ``i``'s time window
    is the index range ``[lo_i, hi_i)``, the rank of ``t -/+ window`` among
    the times. Events are then keyed ``pixel * n + index`` and sorted
    pixel-major, so the events at pixel ``q`` inside that window are the keys
    in ``[q*n + lo_i, q*n + hi_i)``, counted as the ranks of those two bounds.
    One such count per offset in the (2r+1)^2 neighborhood, summed, gives
    the support. The sensor is padded by the radius (at most its own size)
    on every side, so an offset past a border lands on an empty pixel rather
    than wrapping to the next row.

    Offsets are visited centre first, then by Chebyshev distance, Manhattan
    distance and (dy, dx), and after each one the events whose support has
    reached ``min_support`` are kept and dropped from the needle arrays; the
    events still undecided after the last offset are removed. That is
    exact: every count is >= 0, so support only grows, and a decided event
    stays kept whatever the later offsets add. The order is for speed: dense
    streams are mostly decided at the nearest offsets, the centre (which
    also counts the event itself, cancelling the starting -1) most of all. A
    subset of a sorted needle array is still sorted, so :func:`_rank` takes
    every rank: by cache-sized stable merges while the needles are dense
    (O(r^2 * n) merge work, O(n) memory), by binary search once so few are
    left that it costs less.

    Raises ValueError for streams whose key space overflows int64. Every
    event is on the sensor (an :class:`EventStream` rule), so no key aliases
    another pixel's.
    """
    check_scf_settings(radius, window, min_support)
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

    lo = _rank(s.t, s.t - window, "left")
    hi = _rank(s.t, s.t + window, "right")
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
    undecided = None  # key-order positions of the events still counted; None for all
    shift = 0  # the needles are shifted in place from offset to offset
    offsets = [(dy, dx) for dy in range(-ry, ry + 1) for dx in range(-rx, rx + 1)]
    offsets.sort(key=lambda o: (max(abs(o[0]), abs(o[1])), abs(o[0]) + abs(o[1]), o))
    for dy, dx in offsets:
        step = (dy * padded_w + dx) * n - shift
        shift += step
        hi_needle += step
        support += _rank(keys, hi_needle, "left")
        lo_needle += step
        support -= _rank(keys, lo_needle, "left")
        left = np.flatnonzero(support < min_support)
        if len(left) < len(support):  # keep the decided events, count the rest
            undecided = left if undecided is None else undecided[left]
            support = support[left]  # one array at a time keeps the peak down
            hi_needle = hi_needle[left]
            lo_needle = lo_needle[left]
        del left
    dropped = keys if undecided is None else keys[undecided]  # still undecided
    keep = np.ones(n, dtype=bool)
    keep[np.remainder(dropped, n, out=dropped)] = False
    return s.with_arrays(s.t[keep], s.x[keep], s.y[keep], s.p[keep])


def _rank(keys: np.ndarray, needles: np.ndarray, side: str) -> np.ndarray:
    """``np.searchsorted(keys, needles, side)`` for sorted ``needles``.

    The ``m`` needles fall in the keys span ``[k0, k1)`` between the first
    and last needle's ranks. Merging them with it costs about ``span + m``
    elements, and binary searches about ``m * log2(len(keys))`` steps (numpy
    narrows each search only from below, by the previous needle's rank); the
    cheaper one runs, and both give the same ranks. Merges go by blocks of
    needles from :func:`row_strips`: one stable argsort merges a block with
    its own span, needles before equal keys for ``"left"`` and after them for
    ``"right"``, so a needle's rank is the span's start plus its merged
    position less its index in the block."""
    m = len(needles)
    k0, k1 = np.searchsorted(keys, needles[[0, -1]], side) if m else (0, 0)
    # a merged element costs about three search steps: on SCF inputs of
    # 150k-350k events (best of 7), merges won where the left side below was
    # 4.2x span + m, searches where it was 2.2x
    if m * np.log2(max(len(keys), 1)) <= 3 * (k1 - k0 + m):  # empty needles too
        return np.searchsorted(keys, needles, side)
    ranks = np.empty(m, dtype=np.intp)
    for block in row_strips(m, 64):  # ~64 B per needle: its key, argsort and rank
        b = needles[block]
        k0, k1 = np.searchsorted(keys, b[[0, -1]], side)
        span = keys[k0:k1]
        if side == "left":
            pos = np.flatnonzero(np.argsort(np.concatenate((b, span)), kind="stable") < len(b))
        else:
            pos = np.flatnonzero(np.argsort(np.concatenate((span, b)), kind="stable") >= len(span))
        ranks[block] = pos + (k0 - np.arange(len(b)))
    return ranks


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
