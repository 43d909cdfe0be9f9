import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from evtkit import (
    FrameSequence,
    SensorModel,
    bias_thresholds,
    simulate_events,
    synthesize_blur,
    validate,
)
from evtkit.simulate import LOG_EPS, log_map

from conftest import moving_edge_sequence


def single_pixel_frames(log_values, times):
    intensities = np.exp(np.asarray(log_values, dtype=float))
    assert intensities.max() <= 1.0
    return FrameSequence(intensities.reshape(-1, 1, 1), np.asarray(times, dtype=float))


def test_log_map_endpoints():
    assert log_map(1.0) == 0.0
    assert log_map(0.0) == pytest.approx(math.log(1e-4), abs=1e-12)


@given(a=st.floats(0, 1), b=st.floats(0, 1))
def test_log_map_monotone(a, b):
    lo, hi = sorted((a, b))
    assert log_map(lo) <= log_map(hi)


def test_constant_frames_emit_nothing():
    frames = FrameSequence(np.full((5, 3, 3), 0.4), np.linspace(0, 1, 5))
    s = simulate_events(frames, SensorModel.uniform(0.1, 3, 3))
    assert len(s) == 0
    assert s.t_start == 0.0 and s.t_end == 1.0


def test_ramp_closed_form_crossings():
    # log intensity ramps -0.35 -> 0 over [0, 1]; threshold 0.1 crosses at
    # levels 0.1k, i.e. t = 0.1k / 0.35
    frames = single_pixel_frames([-0.35, 0.0], [0.0, 1.0])
    s = simulate_events(frames, SensorModel.uniform(0.1, 1, 1))
    assert list(s.p) == [1, 1, 1]
    np.testing.assert_allclose(s.t, [2 / 7, 4 / 7, 6 / 7], atol=1e-12)


def test_smaller_threshold_never_fewer_events(rng):
    # holds per monotone signal; direction reversals introduce hysteresis
    for _ in range(20):
        n = rng.integers(3, 8)
        logs = np.sort(rng.uniform(-2.0, 0.0, n))
        if rng.random() < 0.5:
            logs = logs[::-1]
        frames = single_pixel_frames(logs, np.arange(n, dtype=float))
        c1, c2 = sorted(rng.uniform(0.05, 0.4, 2))
        s1 = simulate_events(frames, SensorModel.uniform(c1, 1, 1))
        s2 = simulate_events(frames, SensorModel.uniform(c2, 1, 1))
        for pol in (-1, 1):
            assert np.count_nonzero(s1.p == pol) >= np.count_nonzero(s2.p == pol)


def test_event_level_consistency(rng):
    # ref moves by exactly one threshold per event, so the total log change
    # matches c * signed count to within one threshold
    frames = FrameSequence(rng.uniform(0.05, 1.0, (6, 4, 4)), np.arange(6, dtype=float))
    c = 0.15
    s = simulate_events(frames, SensorModel.uniform(c, 4, 4))
    total = log_map(frames.frames[-1]) - log_map(frames.frames[0])
    signed = np.zeros((4, 4))
    np.add.at(signed, (s.y, s.x), s.p.astype(float))
    assert np.all(np.abs(total - c * signed) < c)


def test_timestamps_inside_window_and_sorted(rng):
    frames = FrameSequence(rng.uniform(0.05, 1.0, (5, 6, 6)),
                           np.array([0.0, 0.3, 0.5, 0.8, 1.2]))
    s = simulate_events(frames, SensorModel.uniform(0.2, 6, 6))
    assert len(s) > 0
    assert s.t.min() >= 0.0 and s.t.max() <= 1.2
    assert validate(s) is None


def test_simulation_is_deterministic(rng):
    frames = FrameSequence(rng.uniform(0.05, 1.0, (5, 6, 6)), np.arange(5, dtype=float))
    sensor = SensorModel.uniform(0.2, 6, 6)
    a = simulate_events(frames, sensor)
    b = simulate_events(frames, sensor)
    assert np.array_equal(a.t, b.t) and np.array_equal(a.p, b.p)


def test_rejects_short_sequence_and_geometry_mismatch():
    frames = FrameSequence(np.full((1, 3, 3), 0.5), np.array([0.0]))
    with pytest.raises(ValueError):
        simulate_events(frames, SensorModel.uniform(0.1, 3, 3))
    frames = FrameSequence(np.full((2, 3, 3), 0.5), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        simulate_events(frames, SensorModel.uniform(0.1, 5, 5))


@settings(max_examples=30, deadline=None)
@given(amp=st.floats(0.2, 3.0), c=st.floats(0.05, 0.5))
def test_monotone_ramp_count_is_floor(amp, c):
    # exact multiples are float-roundtrip sensitive through exp/log
    assume(abs(amp / c - round(amp / c)) > 1e-6)
    frames = single_pixel_frames([-amp, 0.0], [0.0, 1.0])
    s = simulate_events(frames, SensorModel.uniform(c, 1, 1))
    assert len(s) == math.floor(amp / c)


def test_blur_single_frame_identity(rng):
    frames = FrameSequence(rng.uniform(0, 1, (4, 3, 3)), np.arange(4, dtype=float))
    np.testing.assert_array_equal(synthesize_blur(frames, 2, 1), frames.frames[2])


def test_blur_two_uniform_frames():
    frames = FrameSequence(np.stack([np.full((2, 2), 0.2), np.full((2, 2), 0.4)]),
                           np.array([0.0, 1.0]))
    np.testing.assert_allclose(synthesize_blur(frames, 0, 2), 0.3)


@pytest.mark.parametrize("count", range(7, 14))
def test_blur_typical_window_sizes(count, rng):
    frames = FrameSequence(rng.uniform(0, 1, (13, 4, 4)), np.arange(13, dtype=float))
    out = synthesize_blur(frames, 0, count)
    np.testing.assert_allclose(out, frames.frames[:count].mean(axis=0))


def test_blur_range_checks(rng):
    frames = FrameSequence(rng.uniform(0, 1, (4, 2, 2)), np.arange(4, dtype=float))
    with pytest.raises(ValueError):
        synthesize_blur(frames, 0, 5)
    with pytest.raises(ValueError):
        synthesize_blur(frames, 3, 2)
    with pytest.raises(ValueError):
        synthesize_blur(frames, 0, 0)


def test_log_floor_guards_zero_intensity():
    frames = FrameSequence(np.stack([np.zeros((1, 1)), np.ones((1, 1))]),
                           np.array([0.0, 1.0]))
    s = simulate_events(frames, SensorModel.uniform(1.0, 1, 1))
    # dynamic range is exactly -ln(1e-4) ~ 9.21 log units
    assert len(s) == math.floor(-math.log(LOG_EPS))


def simulate_reference(frames, sensor):
    """The full-sensor simulator: log of the whole stack, boolean masks per
    interval, then a 4-key lexsort. Returns (t, x, y, p)."""
    h, w = frames.height, frames.width
    thr = sensor.threshold_map.ravel()
    npix = h * w
    pix = np.arange(npix)
    xs_all = (pix % w).astype(np.int32)
    ys_all = (pix // w).astype(np.int32)

    log_frames = log_map(frames.frames.reshape(len(frames), npix))
    ref = log_frames[0].copy()

    ts_out, xs_out, ys_out, ps_out = [], [], [], []
    for k in range(len(frames) - 1):
        l0 = log_frames[k]
        l1 = log_frames[k + 1]
        tk = frames.timestamps[k]
        dt = frames.timestamps[k + 1] - tk

        d = l1 - ref
        n = np.floor(np.abs(d) / thr).astype(np.int64)
        emit = n > 0
        if not emit.any():
            continue

        n_e = n[emit]
        pol = np.sign(d[emit]).astype(np.int8)
        ref_e = ref[emit]
        thr_e = thr[emit]
        l0_e = l0[emit]
        slope = l1[emit] - l0_e

        idx = np.repeat(np.arange(len(n_e)), n_e)
        step = np.arange(len(idx)) - np.repeat(np.cumsum(n_e) - n_e, n_e) + 1
        levels = ref_e[idx] + pol[idx] * step * thr_e[idx]
        times = tk + (levels - l0_e[idx]) / slope[idx] * dt

        ts_out.append(times)
        xs_out.append(xs_all[emit][idx])
        ys_out.append(ys_all[emit][idx])
        ps_out.append(pol[idx])
        ref[emit] += pol * n_e * thr_e

    if not ts_out:
        return (np.zeros(0), np.zeros(0, np.int32), np.zeros(0, np.int32), np.zeros(0, np.int8))
    t, x, y, p = (np.concatenate(a) for a in (ts_out, xs_out, ys_out, ps_out))
    order = np.lexsort((p, x, y, t))
    return t[order], x[order], y[order], p[order]


def assert_matches_reference(frames, sensor):
    s = simulate_events(frames, sensor)
    for got, want in zip((s.t, s.x, s.y, s.p), simulate_reference(frames, sensor)):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    assert (s.width, s.height) == (frames.width, frames.height)
    assert (s.t_start, s.t_end) == (frames.timestamps[0], frames.timestamps[-1])
    return s


@st.composite
def quantized_scenes(draw):
    """8-bit frames (so many crossings share a time) with a uniform or biased threshold."""
    n, h, w = draw(st.integers(2, 6)), draw(st.integers(1, 7)), draw(st.integers(1, 7))
    levels = draw(st.lists(st.integers(0, 255), min_size=n * h * w, max_size=n * h * w))
    frames = np.array(levels, dtype=float).reshape(n, h, w) / 255.0
    steps = draw(st.lists(st.sampled_from([0.25, 0.5, 1.0]), min_size=n - 1, max_size=n - 1))
    timestamps = np.concatenate(([0.0], np.cumsum(steps)))
    sensor = SensorModel.uniform(draw(st.sampled_from([0.05, 0.1, 0.2, 0.5])), w, h)
    sigma = draw(st.sampled_from([0.0, 0.03, 0.1]))
    return FrameSequence(frames, timestamps), bias_thresholds(sensor, sigma, draw(st.integers(0, 9)))


@settings(max_examples=200, deadline=None)
@given(quantized_scenes())
def test_simulate_events_is_bit_identical_to_reference(scene):
    assert_matches_reference(*scene)


@pytest.mark.parametrize("sigma", [0.0, 0.03])
def test_simulate_events_matches_reference_on_quantized_edge(sigma):
    seq = moving_edge_sequence(width=48, height=32, n_frames=9, sharpness=2.0)
    frames = FrameSequence(np.round(seq.frames * 255) / 255, seq.timestamps)
    sensor = bias_thresholds(SensorModel.uniform(0.1, 48, 32), sigma, seed=3)
    s = assert_matches_reference(frames, sensor)
    assert len(s) > 1000
    if sigma == 0:  # every row is identical, so most crossings share their time
        assert np.count_nonzero(np.diff(s.t) == 0) > len(s) // 2


def test_change_of_exactly_one_threshold_emits_one_event():
    # log_map(1) - log_map(0) is -ln(1e-4) to the last bit, so |d| / thr is exactly 1
    frames = FrameSequence(np.stack([np.zeros((1, 2)), np.ones((1, 2))]), np.array([0.0, 1.0]))
    sensor = SensorModel(1.0, np.array([[-math.log(LOG_EPS), 10.0]]))
    s = assert_matches_reference(frames, sensor)
    assert (s.t.tolist(), s.x.tolist(), s.p.tolist()) == ([1.0], [0], [1])
