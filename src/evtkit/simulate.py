"""Ideal DVS event generation by log-intensity threshold crossing.

The ideal simulator is noise-free and bandwidth-free; all sensor degradations
live in evtkit.degrade so that paired data can share one ideal stream. The
streams of several threshold maps over the same frames are simulated in the
same pass, which takes the log of each frame once.
"""

from __future__ import annotations

import numpy as np

from .core import EventStream, FrameSequence, SensorModel, canonical_sort

__all__ = ["LOG_EPS", "log_map", "simulate_events", "synthesize_blur"]

# Log floor: keeps the dynamic range ~9.2 log units, far above any threshold
# in use, while making log(0) finite.
LOG_EPS = 1e-4


def log_map(intensity):
    """Guarded log of linear intensity: ln(max(I, 1e-4)). Monotone nondecreasing."""
    return np.log(np.maximum(intensity, LOG_EPS))


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
    on it against that map's own reference level."""
    if len(frames) < 2:
        raise ValueError("need at least 2 frames to simulate events")
    h, w = frames.height, frames.width
    for thr in threshold_maps:
        if thr.shape != (h, w):
            raise ValueError(f"threshold_map {thr.shape} does not match frames {(h, w)}")

    flat = frames.frames.reshape(len(frames), h * w)
    l1 = log_map(flat[0])
    runs = [(thr.ravel(), l1.copy(), ([], [], [])) for thr in threshold_maps]
    # the pass holds the events of every map at once: keep their pixel ids in
    # the smallest type that holds every id and the width
    pix_type = np.min_scalar_type(h * w)
    for k in range(len(frames) - 1):
        l0, l1 = l1, log_map(flat[k + 1])
        tk = frames.timestamps[k]
        dt = frames.timestamps[k + 1] - tk
        for thr, ref, (ts_out, pix_out, ps_out) in runs:
            d = l1 - ref
            a = np.abs(d)
            # a >= thr exactly when fl(a / thr) >= 1: for 0 <= a < thr the
            # quotient is below 1 - 2**-53, so it cannot round up to 1
            emit = np.flatnonzero(a >= thr)  # the pixels with n = floor(a / thr) > 0
            if not emit.size:
                continue

            thr_e = thr[emit]
            n_e = np.floor(a[emit] / thr_e).astype(np.int64)
            pol = np.sign(d[emit]).astype(np.int8)
            ref_e = ref[emit]
            l0_e = l0[emit]
            slope = l1[emit] - l0_e  # nonzero whenever n > 0

            idx = np.repeat(np.arange(len(n_e)), n_e)
            # crossing ordinal 1..n within the interval, per emitting pixel
            step = np.arange(len(idx)) - np.repeat(np.cumsum(n_e) - n_e, n_e) + 1
            levels = ref_e[idx] + pol[idx] * step * thr_e[idx]
            times = tk + (levels - l0_e[idx]) / slope[idx] * dt

            ts_out.append(times)
            pix_out.append(emit.astype(pix_type)[idx])
            ps_out.append(pol[idx])
            ref[emit] = ref_e + pol * n_e * thr_e

    t_start = float(frames.timestamps[0])
    t_end = float(frames.timestamps[-1])
    streams = []
    for _, _, out in runs:
        if not out[0]:
            streams.append(EventStream.empty(w, h, t_start, t_end))
            continue
        t, pix, p = (np.concatenate(parts) for parts in out)
        for parts in out:
            parts.clear()
        streams.append(canonical_sort(EventStream(t, pix % w, pix // w, p, w, h, t_start, t_end)))
        # the unsorted arrays go before the next map's lists are joined
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
