"""Sensor degradations: threshold bias, bandwidth limiting, circuit noise.

The recipe bias -> bandwidth -> noise has one home, :func:`degrade_stream`,
which the ``degrade`` command and :func:`make_pair` both end in; make_pair
simulates the biased map in the same pass as the ideal one and hands that
stream on with the bias applied. Every stage with zero parameters is the
identity, so at sigma = 0 the degraded stream is the ideal stream itself.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import EventStream, FrameSequence, SensorModel, canonical_sort, pixel_index
from .simulate import _simulate, simulate_events

__all__ = [
    "NoiseParams",
    "DegradationConfig",
    "bias_thresholds",
    "limit_bandwidth",
    "inject_noise",
    "degrade_stream",
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
        if not all(0 <= r < np.inf for r in (self.shot_rate, self.leak_rate, self.hot_pixel_rate)):
            raise ValueError("noise rates must be finite and >= 0")  # NaN fails too
        if not 0 <= self.hot_pixel_fraction <= 1:
            raise ValueError("hot_pixel_fraction must be in [0, 1]")
        if self.seed < 0:
            raise ValueError(f"noise seed must be >= 0, got seed={self.seed}")


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
    if not sigma >= 0:  # NaN fails too
        raise ValueError("sigma must be >= 0")
    rng = np.random.default_rng(seed)
    thr = rng.normal(sensor.c_nominal, sigma, sensor.threshold_map.shape)
    thr = np.maximum(thr, THRESHOLD_FLOOR_FRACTION * sensor.c_nominal)
    return replace(sensor, threshold_map=thr)


def limit_bandwidth(stream: EventStream, sampling_period: float) -> EventStream:
    """Keep at most the first event per pixel per sampling period.

    Periods are [t_start + k*T_s, t_start + (k+1)*T_s), anchored at the
    stream window start and globally aligned across pixels. T_s = 0 means
    unlimited bandwidth and returns the stream unchanged.

    In canonical order the periods never decrease, so numbering the distinct
    ones is a cumsum of changes, and each event gets the key
    ``period_id * W*H + pixel``, below ``W*H*n``. One sort of those keys
    finds the repeated (pixel, period) pairs: with none, the canonical stream
    is returned as it is; otherwise only the events of repeated keys are
    grouped, and all but the canonically first of each group are dropped.
    Raises ValueError for a T_s that is not >= 0, for one so small that the
    span of the window and the event times holds more periods than int64
    counts (a NaN or infinite time fails this too), and for streams whose key
    space overflows int64.
    """
    if not sampling_period >= 0:  # NaN fails too
        raise ValueError("sampling_period must be >= 0")
    if sampling_period == 0 or len(stream) == 0:
        return stream
    n = len(stream)
    npix = stream.width * stream.height
    if npix * n > np.iinfo(np.int64).max:
        raise ValueError("stream too large for int64 period*W*H keys")
    s = canonical_sort(stream)
    # the first and last canonical times bound every event's time; NaN sorts
    # last and np.maximum propagates it, so a NaN time fails the bound too
    lo, hi = float(np.minimum(s.t[0], s.t_start)), float(np.maximum(s.t[-1], s.t_end))
    if not (hi - lo) / sampling_period < 2.0 ** 63:
        raise ValueError(f"sampling_period {sampling_period!r} s gives more periods in "
                         f"[{lo!r}, {hi!r}] than int64 counts")
    period = np.floor((s.t - s.t_start) / sampling_period)
    new_period = period[1:] != period[:-1]
    del period
    # the distinct periods numbered 0, 1, ... in canonical order, times W*H,
    # plus the pixel: int32 keys where they fit (they sort faster), else int64
    ids = np.count_nonzero(new_period) + 1
    key = np.empty(n, dtype=np.int32 if ids * npix <= np.iinfo(np.int32).max else np.int64)
    key[0] = 0
    np.cumsum(new_period, out=key[1:])
    del new_period
    key *= npix
    key += pixel_index(s)
    ranked = np.sort(key)
    repeated = ranked[1:][ranked[1:] == ranked[:-1]]
    del ranked
    if not repeated.size:
        return s
    # the events of the repeated keys, in canonical order: all but the first
    # of each key go
    grouped = np.flatnonzero(np.isin(key, repeated))
    _, first = np.unique(key[grouped], return_index=True)
    keep = np.ones(n, dtype=bool)
    keep[np.delete(grouped, first)] = False
    return s.with_arrays(s.t[keep], s.x[keep], s.y[keep], s.p[keep])


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

    def emit(rng, pixels, rates, signed):  # polarity equiprobable when signed, else +1
        # homogeneous Poisson arrivals per pixel over the window, at the
        # ascending flat pixel ids ``pixels`` of the rates
        counts = rng.poisson(rates * (stream.t_end - stream.t_start))
        times = rng.uniform(stream.t_start, stream.t_end, int(counts.sum()))
        pixels = np.repeat(pixels, counts)
        del counts
        ts.append(times)
        xs.append((pixels % w).astype(np.int32))
        ys.append((pixels // w).astype(np.int32))
        ps.append(rng.choice(np.array([-1, 1], dtype=np.int8), len(times)) if signed
                  else np.ones(len(times), dtype=np.int8))

    if params.shot_rate > 0:
        hint = intensity_hint if intensity_hint is not None else np.full((h, w), 0.5)
        emit(rng_shot, np.arange(npix), params.shot_rate * (1.0 - hint.ravel()), signed=True)
    if params.leak_rate > 0:
        emit(rng_leak, np.arange(npix), np.full(npix, params.leak_rate), signed=False)
    if params.hot_pixel_fraction > 0 and params.hot_pixel_rate > 0:
        # numpy draws nothing for a Poisson rate of 0, so the hot pixels
        # alone, in ascending order, draw what a sensor-sized rate array would
        hot = np.sort(rng_hot.choice(npix, int(np.ceil(params.hot_pixel_fraction * npix)), replace=False))
        emit(rng_hot, hot, np.full(len(hot), params.hot_pixel_rate), signed=True)

    merged = stream.with_arrays(
        np.concatenate(ts), np.concatenate(xs), np.concatenate(ys), np.concatenate(ps))
    return canonical_sort(merged)


def degrade_stream(stream: EventStream, cfg: DegradationConfig, frames: FrameSequence | None = None,
                   sensor: SensorModel | None = None) -> EventStream:
    """Apply ``cfg`` to ``stream``. At sigma > 0 the bias re-simulates ``frames``
    with ``sensor``'s biased map, so it needs both; the mean frame, when given,
    is the shot-noise intensity hint. Frames must match the stream's geometry."""
    if frames is not None and (frames.width, frames.height) != (stream.width, stream.height):
        raise ValueError(f"frames {frames.width}x{frames.height} do not match events "
                         f"{stream.width}x{stream.height}")
    if cfg.sigma > 0:
        if frames is None or sensor is None:
            raise ValueError("sigma > 0 re-simulates, so it needs frames and a sensor")
        stream = simulate_events(frames, bias_thresholds(sensor, cfg.sigma, cfg.noise.seed))
    stream = limit_bandwidth(stream, cfg.sampling_period)
    return inject_noise(stream, cfg.noise, None if frames is None else frames.frames.mean(axis=0))


def make_pair(frames: FrameSequence, ideal: SensorModel,
              cfg: DegradationConfig) -> tuple[EventStream, EventStream]:
    """Build a paired (undegraded, degraded) event stream from one sequence:
    the ideal simulation, and one simulated in the same pass with the biased
    map, then finished by :func:`degrade_stream` with the bias applied."""
    maps = [ideal.threshold_map]
    if cfg.sigma > 0:
        maps.append(bias_thresholds(ideal, cfg.sigma, cfg.noise.seed).threshold_map)
    streams = _simulate(frames, maps)
    # neither the biased map nor the biased stream is kept past its last use
    del maps
    return streams[0], degrade_stream(streams.pop(), replace(cfg, sigma=0.0), frames)
