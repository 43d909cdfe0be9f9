"""Ideal DVS event generation by log-intensity threshold crossing.

The ideal simulator is noise-free and bandwidth-free; all sensor degradations
live in evtkit.degrade so that paired data can share one ideal stream.
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
    if len(frames) < 2:
        raise ValueError("need at least 2 frames to simulate events")
    h, w = frames.height, frames.width
    if sensor.threshold_map.shape != (h, w):
        raise ValueError(
            f"threshold_map {sensor.threshold_map.shape} does not match frames {(h, w)}")

    thr = sensor.threshold_map.ravel()
    npix = h * w
    flat = frames.frames.reshape(len(frames), npix)
    l1 = log_map(flat[0])
    ref = l1.copy()

    ts_out, xs_out, ys_out, ps_out = [], [], [], []
    for k in range(len(frames) - 1):
        l0, l1 = l1, log_map(flat[k + 1])
        tk = frames.timestamps[k]
        dt = frames.timestamps[k + 1] - tk

        d = l1 - ref
        q = np.abs(d) / thr
        emit = np.flatnonzero(q >= 1)  # the pixels with n = floor(q) > 0
        if not emit.size:
            continue

        n_e = np.floor(q[emit]).astype(np.int64)
        pol = np.sign(d[emit]).astype(np.int8)
        ref_e = ref[emit]
        thr_e = thr[emit]
        l0_e = l0[emit]
        slope = l1[emit] - l0_e  # nonzero whenever n > 0

        idx = np.repeat(np.arange(len(n_e)), n_e)
        # crossing ordinal 1..n within the interval, per emitting pixel
        step = np.arange(len(idx)) - np.repeat(np.cumsum(n_e) - n_e, n_e) + 1
        levels = ref_e[idx] + pol[idx] * step * thr_e[idx]
        times = tk + (levels - l0_e[idx]) / slope[idx] * dt

        ts_out.append(times)
        xs_out.append((emit % w).astype(np.int32)[idx])
        ys_out.append((emit // w).astype(np.int32)[idx])
        ps_out.append(pol[idx])
        ref[emit] = ref_e + pol * n_e * thr_e

    t_start = float(frames.timestamps[0])
    t_end = float(frames.timestamps[-1])
    if not ts_out:
        return EventStream.empty(w, h, t_start, t_end)
    stream = EventStream(
        np.concatenate(ts_out), np.concatenate(xs_out),
        np.concatenate(ys_out), np.concatenate(ps_out),
        w, h, t_start, t_end)
    return canonical_sort(stream)


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
