"""Ideal DVS event generation by log-intensity threshold crossing.

The ideal simulator is noise-free and bandwidth-free; all sensor degradations
live in evtkit.degrade so that paired data can share one ideal stream. The
streams of several threshold maps over the same frames are simulated in the
same pass, which takes the log of each frame once.
"""

from __future__ import annotations

import numpy as np

from .core import EventStream, FrameSequence, SensorModel, _stable_time_order, canonical_sort, row_strips

__all__ = ["LOG_EPS", "log_map", "simulate_events", "synthesize_blur"]

# Log floor: keeps the dynamic range ~9.2 log units, far above any threshold
# in use, while making log(0) finite.
LOG_EPS = 1e-4


def log_map(intensity, out=None):
    """Guarded log of linear intensity: ln(max(I, 1e-4)). Monotone nondecreasing.

    With ``out``, both steps write into it, so a frame loop can reuse one buffer.
    """
    return np.log(np.maximum(intensity, LOG_EPS, out=out), out=out)


def simulate_events(frames: FrameSequence, sensor: SensorModel) -> EventStream:
    """Generate the ideal event stream for a frame sequence.

    Per pixel, log intensity is linearly interpolated between consecutive
    frames; every crossing of the reference level +/- that pixel's threshold
    emits one event at the interpolated crossing time and moves the reference
    by exactly one threshold step. The reference starts at the first frame's
    log intensity, so no events fire at t_start. Output is canonical-sorted
    and fully deterministic.
    """
    return _simulate(frames, [sensor.threshold_map])[0]


def _simulate(frames: FrameSequence, threshold_maps) -> list[EventStream]:
    """One ideal stream per H x W threshold map, all from one pass over the
    frames: each frame's log is taken once and every map's crossing step runs
    on it against that map's own reference level.

    The pass is block-major. :func:`core.row_strips` cuts the pixels into
    blocks of consecutive pixels, and every frame interval is walked over one
    block while that block's logs and every map's a, ref and thr stay in
    cache. Each interval's log is taken once into the block's shared l0 and
    l1, and each map then steps on its own over them, in its own a, ref, thr
    and hit; an interval whose emitters all cross once skips the repeats.
    Each (map, interval) files its events in pixel order, and
    :func:`_join_intervals` puts them in the order of one stable (t, y, x, p)
    sort of the raw events, so :func:`canonical_sort` finds each stream in
    order.
    """
    if len(frames) < 2:
        raise ValueError("need at least 2 frames to simulate events")
    h, w = frames.height, frames.width
    for thr in threshold_maps:
        if thr.shape != (h, w):
            raise ValueError(f"threshold_map {thr.shape} does not match frames {(h, w)}")

    flat = frames.frames.reshape(len(frames), h * w)
    m = len(threshold_maps)
    # per pixel: l0 and l1, and per map a, ref and thr (8 bytes each) and hit (1)
    blocks = list(row_strips(h * w, 16 + 25 * m))
    most = blocks[0].stop if blocks else 0  # the pixels of the first, largest block
    l0_buf, l1_buf = np.empty(most), np.empty(most)
    map_bufs = [(np.empty(most), np.empty(most), np.empty(most), np.empty(most, dtype=bool)) for _ in range(m)]
    tk, dt = frames.timestamps[:-1], np.diff(frames.timestamps)
    # per map and interval, the (times, pixel ids, polarities) of each block;
    # the pass holds the events of every map at once: keep their pixel ids in
    # the smallest type that holds every id and the width
    parts = [[([], [], []) for _ in range(len(frames) - 1)] for _ in range(m)]
    pix_type = np.min_scalar_type(h * w)
    for block in blocks:
        size = block.stop - block.start
        l0, l1 = l0_buf[:size], l1_buf[:size]
        log_map(flat[0, block], out=l1)
        views = [[buf[:size] for buf in bufs] for bufs in map_bufs]  # each map's a, ref, thr and hit
        for (_, ref, thr, _), thr_map in zip(views, threshold_maps):
            ref[:] = l1
            thr[:] = thr_map.ravel()[block]
        for k in range(len(frames) - 1):
            l0, l1 = l1, l0
            log_map(flat[k + 1, block], out=l1)
            for (a, ref, thr, hit), intervals in zip(views, parts):
                np.subtract(l1, ref, out=a)
                np.abs(a, out=a)
                # a >= thr exactly when fl(a / thr) >= 1: for 0 <= a < thr the
                # quotient is below 1 - 2**-53, so it cannot round up to 1
                np.greater_equal(a, thr, out=hit)
                emit = np.flatnonzero(hit)  # the pixels with n = floor(a / thr) > 0
                if not emit.size:
                    continue

                thr_e = thr[emit]
                n_e = np.floor(a[emit] / thr_e)
                ref_e = ref[emit]
                l1_e = l1[emit]
                pol = np.sign(l1_e - ref_e)  # the subtraction that made a, per emitter
                l0_e = l0[emit]
                slope = l1_e - l0_e
                # rounding in the update of ref can leave |l1 - ref| at thr or
                # just above; a pixel that then stays flat is past its level
                # from the start of the interval, so it fires at tk:
                # (levels - l0) / inf = 0
                slope[slope == 0] = np.inf

                if n_e.max() == 1:
                    # each emitter crosses once (the usual case): no repeats,
                    # and pol * 1 * thr is pol * thr to the bit, so the level
                    # crossed is the new reference
                    idx = slice(None)
                    levels = ref_e + pol * thr_e
                    ref[emit] = levels
                else:
                    ref[emit] = ref_e + pol * n_e * thr_e
                    n_e = n_e.astype(np.int64)
                    idx = np.repeat(np.arange(len(n_e)), n_e)
                    # crossing ordinal 1..n within the interval, per emitting pixel
                    step = np.arange(len(idx)) - np.repeat(np.cumsum(n_e) - n_e, n_e) + 1
                    levels = ref_e[idx] + pol[idx] * step * thr_e[idx]
                times = tk[k] + (levels - l0_e[idx]) / slope[idx] * dt[k]
                pix = (emit[idx] + block.start).astype(pix_type)
                for part, field in zip(intervals[k], (times, pix, pol[idx].astype(np.int8))):
                    part.append(field)

    t_start = float(frames.timestamps[0])
    t_end = float(frames.timestamps[-1])
    return [canonical_sort(EventStream(*_join_intervals(intervals, w), w, h, t_start, t_end))
            for intervals in parts]


def _join_intervals(intervals, width: int):
    """(t, x, y, p) of one map's events, filed per frame interval as (times,
    pixel ids, polarities) in pixel order, in the order of one stable
    (t, y, x, p) sort of them all; each interval's lists are emptied once used.

    Each interval is put in stable time order on its own by
    :func:`core._stable_time_order`, in arrays small enough for cache; ties
    in an interval are already in (y, x, p) order. The intervals are then
    joined, and where two neighbours meet out of order (equal times at a frame
    time, or a crossing rounded past it) :func:`_lexsort_run` sorts just the
    events whose times overlap.
    """
    count = sum(len(part) for ts_out, _, _ in intervals for part in ts_out)
    t, x, y, p = np.empty(count), np.empty(count, np.int32), np.empty(count, np.int32), np.empty(count, np.int8)
    bounds = [0]
    for ts_out, pix_out, ps_out in intervals:
        if not ts_out:
            continue
        ti = np.concatenate(ts_out)
        order = _stable_time_order(ti)
        run = slice(bounds[-1], bounds[-1] + len(order))
        np.take(ti, order, out=t[run])
        pix = np.concatenate(pix_out)[order]
        np.floor_divide(pix, width, out=y[run])
        np.subtract(pix, y[run] * width, out=x[run])
        np.take(np.concatenate(ps_out), order, out=p[run])
        for part in (ts_out, pix_out, ps_out):
            part.clear()
        bounds.append(run.stop)
    # events before b are in order by then, and so is the interval [b, e)
    for b, e in zip(bounds[1:-1], bounds[2:]):
        if (t[b - 1], y[b - 1], x[b - 1], p[b - 1]) > (t[b], y[b], x[b], p[b]):
            _lexsort_run((t, y, x, p), slice(int(np.searchsorted(t[:b], t[b], side="left")),
                                            b + int(np.searchsorted(t[b:e], t[b - 1], side="right"))))
    return t, x, y, p


def _lexsort_run(keys, run: slice) -> None:
    """Stably sort the events ``run`` of the fields ``keys`` by those keys,
    first key first, in place."""
    order = np.lexsort([key[run] for key in reversed(keys)])
    for key in keys:
        key[run] = key[run][order]


def synthesize_blur(frames: FrameSequence, first: int, count: int) -> np.ndarray:
    """Blurry image as the pixelwise mean of ``count`` frames starting at ``first``.

    Discrete form of exposure integration; the standard protocol averages a
    window of 7 to 13 sharp frames.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if first < 0 or first + count > len(frames):
        raise ValueError("frame range out of bounds")
    return frames.frames[first:first + count].mean(axis=0)
