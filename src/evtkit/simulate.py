"""Ideal DVS event generation by log-intensity threshold crossing.

The ideal simulator is noise-free and bandwidth-free; all sensor degradations
live in evtkit.degrade so that paired data can share one ideal stream. The
streams of several threshold maps over the same frames are simulated in the
same pass, which takes the log of each frame once.
"""

from __future__ import annotations

import numpy as np

from .core import EventStream, FrameSequence, SensorModel, _stable_time_order, canonical_sort

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

    The loop runs in log, absolute-difference and mask buffers allocated once
    per call, and an interval whose emitters all cross once skips the repeats.
    Each map's raw events are then put in stable time order by
    :func:`core._stable_time_order` and gathered one field at a time, and
    :func:`canonical_sort` repairs the equal-time runs that span two frame
    intervals. Both sorts are stable, so the result is that of one stable
    (t, y, x, p) sort of the raw events.
    """
    if len(frames) < 2:
        raise ValueError("need at least 2 frames to simulate events")
    h, w = frames.height, frames.width
    for thr in threshold_maps:
        if thr.shape != (h, w):
            raise ValueError(f"threshold_map {thr.shape} does not match frames {(h, w)}")

    flat = frames.frames.reshape(len(frames), h * w)
    l0, l1, a = (np.empty(h * w) for _ in range(3))
    hit = np.empty(h * w, dtype=bool)
    log_map(flat[0], out=l1)
    runs = [(thr.ravel(), l1.copy(), ([], [], [])) for thr in threshold_maps]
    # the pass holds the events of every map at once: keep their pixel ids in
    # the smallest type that holds every id and the width
    pix_type = np.min_scalar_type(h * w)
    for k in range(len(frames) - 1):
        l0, l1 = l1, l0
        log_map(flat[k + 1], out=l1)
        tk = frames.timestamps[k]
        dt = frames.timestamps[k + 1] - tk
        for thr, ref, (ts_out, pix_out, ps_out) in runs:
            np.subtract(l1, ref, out=a)
            np.abs(a, out=a)
            # a >= thr exactly when fl(a / thr) >= 1: for 0 <= a < thr the
            # quotient is below 1 - 2**-53, so it cannot round up to 1
            np.greater_equal(a, thr, out=hit)
            emit = np.flatnonzero(hit)  # the pixels with n = floor(a / thr) > 0
            if not emit.size:
                continue

            thr_e = thr[emit]
            n_e = np.floor(a[emit] / thr_e).astype(np.int64)
            ref_e = ref[emit]
            l1_e = l1[emit]
            pol = np.sign(l1_e - ref_e).astype(np.int8)  # the subtraction that made a, per emitter
            l0_e = l0[emit]
            slope = l1_e - l0_e
            # rounding in the update of ref can leave |l1 - ref| at thr or just
            # above; a pixel that then stays flat is past its level from the
            # start of the interval, so it fires at tk: (levels - l0) / inf = 0
            slope[slope == 0] = np.inf

            if n_e.max() == 1:
                # each emitter crosses once (the usual case): no repeats, and
                # the ordinal is 1, so pol * step * thr is pol * thr to the bit
                idx, step = slice(None), 1
            else:
                idx = np.repeat(np.arange(len(n_e)), n_e)
                # crossing ordinal 1..n within the interval, per emitting pixel
                step = np.arange(len(idx)) - np.repeat(np.cumsum(n_e) - n_e, n_e) + 1
            levels = ref_e[idx] + pol[idx] * step * thr_e[idx]
            times = tk + (levels - l0_e[idx]) / slope[idx] * dt

            ts_out.append(times)
            pix_out.append(emit.astype(pix_type)[idx])
            ps_out.append(pol[idx])
            ref[emit] = ref_e + pol * n_e * thr_e
    del l0, l1, a, hit

    t_start = float(frames.timestamps[0])
    t_end = float(frames.timestamps[-1])
    streams = []
    for _, _, out in runs:
        if not out[0]:
            streams.append(EventStream.empty(w, h, t_start, t_end))
            continue
        # one field at a time, each part list dropped once it is joined, so
        # beside the order no more than one raw field and its sorted copy are held
        t = np.concatenate(out[0])
        out[0].clear()
        order = _stable_time_order(t)
        t = t[order]
        pix = np.concatenate(out[1])[order]
        out[1].clear()
        p = np.concatenate(out[2])[order]
        out[2].clear()
        del order
        streams.append(canonical_sort(EventStream(t, pix % w, pix // w, p, w, h, t_start, t_end)))
        del t, pix, p
    return streams


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
