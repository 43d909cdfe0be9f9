"""Sensor degradations: threshold bias, bandwidth limiting, circuit noise.

Composition order is fixed: bias (re-simulation with a biased threshold map)
-> bandwidth -> noise. Every stage with zero parameters is the identity, so
paired undegraded/degraded streams share one ideal simulation path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import EventStream, FrameSequence, SensorModel, canonical_sort, pixel_index
from .simulate import simulate_events

__all__ = [
    "NoiseParams",
    "DegradationConfig",
    "bias_thresholds",
    "limit_bandwidth",
    "inject_noise",
    "make_pair",
]

# Floor for biased thresholds, as a fraction of nominal; prevents near-zero
# thresholds from generating unbounded event counts.
THRESHOLD_FLOOR_FRACTION = 0.1


@dataclass(frozen=True)
class NoiseParams:
    """Circuit-noise rates. All processes are Poisson; leak events are ON-only."""

    shot_rate: float = 0.0  # events/s/pixel at darkest intensity
    leak_rate: float = 0.0  # ON events/s/pixel
    hot_pixel_fraction: float = 0.0
    hot_pixel_rate: float = 0.0  # events/s per hot pixel
    seed: int = 0

    def __post_init__(self):
        if min(self.shot_rate, self.leak_rate, self.hot_pixel_rate) < 0:
            raise ValueError("noise rates must be >= 0")
        if not 0 <= self.hot_pixel_fraction <= 1:
            raise ValueError("hot_pixel_fraction must be in [0, 1]")


@dataclass(frozen=True)
class DegradationConfig:
    """Full degradation recipe: threshold bias sigma, sampling period, noise."""

    sigma: float = 0.0
    sampling_period: float = 0.0
    noise: NoiseParams = NoiseParams()

    def __post_init__(self):
        if not (self.sigma >= 0 and self.sampling_period >= 0):  # NaN fails too
            raise ValueError("sigma and sampling_period must be >= 0")


def bias_thresholds(sensor: SensorModel, sigma: float, seed: int) -> SensorModel:
    """Resample the threshold map from Normal(c_nominal, sigma), clamped below
    at 0.1 * c_nominal. Deterministic in seed; sigma = 0 gives a uniform map."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if sigma == 0:
        thr = np.full((sensor.height, sensor.width), sensor.c_nominal)
    else:
        rng = np.random.default_rng(seed)
        thr = rng.normal(sensor.c_nominal, sigma, (sensor.height, sensor.width))
        thr = np.maximum(thr, THRESHOLD_FLOOR_FRACTION * sensor.c_nominal)
    return replace(sensor, threshold_map=thr)


def limit_bandwidth(stream: EventStream, sampling_period: float) -> EventStream:
    """Keep at most the first event per pixel per sampling period.

    Periods are [t_start + k*T_s, t_start + (k+1)*T_s), anchored at the
    stream window start and globally aligned across pixels. T_s = 0 means
    unlimited bandwidth and returns the stream unchanged.
    """
    if sampling_period < 0:
        raise ValueError("sampling_period must be >= 0")
    if sampling_period == 0 or len(stream) == 0:
        return stream
    s = canonical_sort(stream)
    pixel = pixel_index(s)
    period = np.floor((s.t - s.t_start) / sampling_period).astype(np.int64)
    # stable group by (pixel, period): canonical order within each group
    order = np.lexsort((period, pixel))
    new_group = (np.diff(pixel[order]) != 0) | (np.diff(period[order]) != 0)
    keep = np.empty(len(s), dtype=bool)
    keep[order] = np.concatenate(([True], new_group))  # first event of each group
    return s.with_arrays(s.t[keep], s.x[keep], s.y[keep], s.p[keep])


def _poisson_times(rng: np.random.Generator, rates: np.ndarray,
                   t_start: float, t_end: float):
    """Sample per-pixel homogeneous Poisson arrivals over [t_start, t_end].

    Returns (times, pixel_indices) as flat arrays; pixel_indices index into
    the flat ``rates`` array.
    """
    duration = t_end - t_start
    counts = rng.poisson(rates * duration)
    total = int(counts.sum())
    times = rng.uniform(t_start, t_end, total)
    pixels = np.repeat(np.arange(len(rates)), counts)
    return times, pixels


def inject_noise(stream: EventStream, params: NoiseParams,
                 intensity_hint: np.ndarray | None = None) -> EventStream:
    """Add shot, leak, and hot-pixel Poisson noise over the stream window.

    Shot noise fires per pixel at shot_rate * (1 - I_hat) with equiprobable
    polarity, where I_hat is the mean scene intensity (0.5 everywhere when no
    hint is given). Leak noise fires at leak_rate with polarity always +1.
    A seeded subset of ceil(f * H * W) pixels fires at hot_pixel_rate with
    equiprobable polarity. Original events pass through unmodified; the
    result is canonical-sorted and deterministic in the seed.
    """
    h, w = stream.height, stream.width
    npix = h * w
    if intensity_hint is not None and intensity_hint.shape != (h, w):
        raise ValueError(
            f"intensity_hint {intensity_hint.shape} does not match geometry {(h, w)}")
    if stream.t_end <= stream.t_start:
        return canonical_sort(stream)

    ss = np.random.SeedSequence(params.seed)
    rng_shot, rng_leak, rng_hot = (np.random.default_rng(c) for c in ss.spawn(3))

    ts, xs, ys, ps = [stream.t], [stream.x], [stream.y], [stream.p]

    def emit(rng, rates, signed):  # polarity equiprobable when signed, else +1
        times, pixels = _poisson_times(rng, rates, stream.t_start, stream.t_end)
        ts.append(times)
        xs.append((pixels % w).astype(np.int32))
        ys.append((pixels // w).astype(np.int32))
        ps.append(rng.choice(np.array([-1, 1], dtype=np.int8), len(times)) if signed
                  else np.ones(len(times), dtype=np.int8))

    if params.shot_rate > 0:
        hint = intensity_hint if intensity_hint is not None else np.full((h, w), 0.5)
        emit(rng_shot, params.shot_rate * (1.0 - hint.ravel()), signed=True)
    if params.leak_rate > 0:
        emit(rng_leak, np.full(npix, params.leak_rate), signed=False)
    if params.hot_pixel_fraction > 0 and params.hot_pixel_rate > 0:
        n_hot = int(np.ceil(params.hot_pixel_fraction * npix))
        rates = np.zeros(npix)
        rates[rng_hot.choice(npix, n_hot, replace=False)] = params.hot_pixel_rate
        emit(rng_hot, rates, signed=True)

    merged = stream.with_arrays(
        np.concatenate(ts), np.concatenate(xs), np.concatenate(ys), np.concatenate(ps))
    return canonical_sort(merged)


def make_pair(frames: FrameSequence, ideal: SensorModel,
              cfg: DegradationConfig) -> tuple[EventStream, EventStream]:
    """Build a paired (undegraded, degraded) event stream from one sequence.

    The undegraded stream is the ideal simulation; the degraded stream is
    re-simulated with a biased threshold map, bandwidth-limited, then noised
    with the mean frame as the shot-noise intensity hint.
    """
    e_u = simulate_events(frames, ideal)
    biased = bias_thresholds(ideal, cfg.sigma, cfg.noise.seed)
    e_d = simulate_events(frames, biased)
    e_d = limit_bandwidth(e_d, cfg.sampling_period)
    e_d = inject_noise(e_d, cfg.noise, frames.frames.mean(axis=0))
    return e_u, e_d
