import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from evtkit import (
    EventStream,
    FrameSequence,
    SensorModel,
    bias_thresholds,
    canonical_sort,
    simulate_events,
    synthesize_blur,
    validate,
)
from evtkit import core, simulate
from evtkit.simulate import LOG_EPS, _simulate, log_map

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


@pytest.mark.parametrize("h, w", [(4, 0), (0, 3)])
def test_frames_without_pixels_emit_nothing(h, w):
    frames = FrameSequence(np.zeros((3, h, w)), np.arange(3.0))
    streams = _simulate(frames, [np.full((h, w), 0.1)] * 2)
    assert [(len(s), s.width, s.height, s.t_end) for s in streams] == [(0, w, h, 2.0)] * 2


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
        slope[slope == 0] = np.inf  # a flat pixel already past its level fires at tk

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


def test_pixel_left_past_its_level_by_rounding_fires_at_the_start_of_a_flat_interval():
    # 56 -> 6 -> 56: the way back is 27.999999999999996 thresholds, so 27 events,
    # but ref + 27 * thr rounds to one ulp past l1 - thr, and the flat third
    # interval (56 -> 56) emits the 28th with zero slope; it divided 0 by 0
    thr = float.fromhex("0x1.432000eea3c5dp-4")
    frames = FrameSequence(np.array([56.0, 6.0, 56.0, 56.0]).reshape(4, 1, 1) / 255,
                           np.array([0.0, 0.25, 0.5, 0.75]))
    s = assert_matches_reference(frames, SensorModel(0.1, np.array([[thr]])))
    assert np.isfinite(s.t).all()
    assert (s.p.tolist().count(-1), s.p.tolist().count(1)) == (28, 28)
    assert s.t[-1] == 0.5 and s.p[-1] == 1
    validate(s)


def test_change_of_exactly_one_threshold_emits_one_event():
    # log_map(1) - log_map(0) is -ln(1e-4) to the last bit, so |d| / thr is exactly 1
    frames = FrameSequence(np.stack([np.zeros((1, 2)), np.ones((1, 2))]), np.array([0.0, 1.0]))
    sensor = SensorModel(1.0, np.array([[-math.log(LOG_EPS), 10.0]]))
    s = assert_matches_reference(frames, sensor)
    assert (s.t.tolist(), s.x.tolist(), s.p.tolist()) == ([1.0], [0], [1])


@settings(max_examples=100, deadline=None)
@given(scene=quantized_scenes(), sigma=st.sampled_from([0.0, 0.03, 0.1]), seed=st.integers(0, 9))
def test_one_pass_equals_one_simulation_per_map(scene, sigma, seed):
    frames, sensor = scene
    other = bias_thresholds(sensor, sigma, seed)
    streams = _simulate(frames, [sensor.threshold_map, other.threshold_map])
    assert len(streams) == 2
    for got, model in zip(streams, (sensor, other)):
        want = simulate_events(frames, model)
        for field in ("t", "x", "y", "p"):  # bytes, so -0.0 and 0.0 differ
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
        assert (got.width, got.height, got.t_start, got.t_end) == \
            (want.width, want.height, want.t_start, want.t_end)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), nudge=st.sampled_from([-1, 0, 1]))
def test_threshold_at_or_one_ulp_from_the_change_matches_divide_form(seed, nudge):
    # thresholds equal to |d| of the one interval to the last bit, or one ulp
    # below (one event) or above it (none); d == 0 pixels get a threshold of 1
    f = np.random.default_rng(seed).integers(0, 256, (2, 4, 5)) / 255.0
    d = np.abs(log_map(f[1]) - log_map(f[0]))
    thr = np.where(d > 0, d, 1.0)
    if nudge:
        thr = np.nextafter(thr, np.inf if nudge > 0 else 0.0)
    s = assert_matches_reference(FrameSequence(f, np.array([0.0, 1.0])), SensorModel(0.2, thr))
    assert len(s) == (0 if nudge > 0 else np.count_nonzero(d > 0))


@pytest.mark.parametrize("h, w", [(1, 255), (1, 256), (256, 1), (16, 16), (2, 40000), (1, 65536)])
def test_pixel_ids_at_integer_type_edges_match_reference(h, w, rng):
    # the pass keeps pixel ids in the smallest unsigned type for h * w
    frames = FrameSequence(rng.uniform(0.05, 1.0, (3, h, w)), np.arange(3.0))
    s = assert_matches_reference(frames, SensorModel.uniform(0.2, w, h))
    assert len(s) > 0 and s.x.max() == w - 1 and s.y.max() == h - 1


def one_pass_reference(frames: FrameSequence, threshold_maps) -> list[EventStream]:
    """The one-pass simulator as it was before its frame loop reused buffers
    and its raw output took a quicksort, kept verbatim as an oracle: one new
    array per frame log and per step, and one ``canonical_sort`` of the raw
    events of each map."""
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
            slope = l1[emit] - l0_e
            slope[slope == 0] = np.inf  # a flat pixel already past its level fires at tk

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


def assert_streams_bit_equal(got, want):
    assert len(got) == len(want)
    for g, r in zip(got, want):
        for field in ("t", "x", "y", "p"):  # bytes, so -0.0 and 0.0 differ
            assert getattr(g, field).dtype == getattr(r, field).dtype
            assert getattr(g, field).tobytes() == getattr(r, field).tobytes()
        assert (g.width, g.height, g.t_start, g.t_end) == (r.width, r.height, r.t_start, r.t_end)


@settings(max_examples=150, deadline=None)
@given(scene=quantized_scenes(), sigma=st.sampled_from([0.0, 0.03, 0.1]), seed=st.integers(0, 9),
       two_maps=st.booleans())
def test_simulate_is_bit_identical_to_one_pass_reference(scene, sigma, seed, two_maps):
    frames, sensor = scene
    maps = [sensor.threshold_map]
    if two_maps:
        maps.append(bias_thresholds(sensor, sigma, seed).threshold_map)
    assert_streams_bit_equal(_simulate(frames, maps), one_pass_reference(frames, maps))


@pytest.mark.parametrize("timestamps", [[-0.0, 0.25, 0.5, 0.75], [-3.0, -2.5, -2.25, -1.0],
                                        [-0.5, -0.0, 0.5, 1.0], [1e9, 1e9 + 1 / 30, 1e9 + 2 / 30, 1e9 + 0.1]])
def test_negative_and_signed_zero_timestamps_match_both_oracles(timestamps, rng):
    f = rng.integers(0, 256, (4, 6, 7)) / 255.0
    frames = FrameSequence(f, np.array(timestamps))
    sensor = SensorModel.uniform(0.1, 7, 6)
    biased = bias_thresholds(sensor, 0.05, 1)
    maps = [sensor.threshold_map, biased.threshold_map]
    got = _simulate(frames, maps)
    assert_streams_bit_equal(got, one_pass_reference(frames, maps))
    assert len(got[0]) > 0 and np.signbit(got[0].t_start) == np.signbit(timestamps[0])
    assert_matches_reference(frames, sensor)


def thirty_fps_scene():
    """At 30 fps some crossings of one interval and of the next round to the
    same time, with the later interval's pixel first in (y, x) order."""
    rng = np.random.default_rng(7)
    frames = FrameSequence(rng.integers(0, 256, (5, 32, 32)) / 255.0, np.arange(5) / 30.0)
    return frames, SensorModel.uniform(0.1, 32, 32)


def test_equal_times_across_two_intervals_are_repaired(monkeypatch):
    # each interval is in stable time order on its own, which keeps interval
    # order across the seam; the seam lexsort repairs those runs, so the stream
    # reaches canonical_sort already valid
    frames, sensor = thirty_fps_scene()
    seen, runs = [], []
    lexsort_run = simulate._lexsort_run

    def spy(stream):
        seen.append(validate(stream))
        return canonical_sort(stream)

    monkeypatch.setattr(simulate, "canonical_sort", spy)
    monkeypatch.setattr(simulate, "_lexsort_run", lambda *a: runs.append(a[-1]) or lexsort_run(*a))
    s = assert_matches_reference(frames, sensor)
    assert seen == [None] and runs
    assert validate(s) is None
    monkeypatch.undo()
    assert_streams_bit_equal(_simulate(frames, [sensor.threshold_map]),
                             one_pass_reference(frames, [sensor.threshold_map]))


def test_canonical_sort_repairs_the_seams_without_the_lexsort(monkeypatch):
    frames, sensor = thirty_fps_scene()
    seen = []

    def spy(stream):
        seen.append(validate(stream))
        return canonical_sort(stream)

    monkeypatch.setattr(simulate, "_lexsort_run", lambda *a: None)
    monkeypatch.setattr(simulate, "canonical_sort", spy)
    assert_matches_reference(frames, sensor)
    assert len(seen) == 1 and seen[0].startswith("ordering violation")


@st.composite
def tiny_scenes(draw):
    """At most 24 x 16 pixels and 8 frames at 30 fps, so that crossings of two
    intervals share frame times; 8-bit levels, or 4 of them for more ties; a
    start at 0, -0.0 or a negative time; one, two or three threshold maps,
    each after the first biased with its own sigma and seed."""
    n, h, w = draw(st.integers(2, 8)), draw(st.integers(1, 16)), draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    levels = draw(st.sampled_from([256, 4]))
    frames = rng.integers(0, levels, (n, h, w)) * (255 // (levels - 1)) / 255.0
    start = draw(st.sampled_from([0.0, -0.0, -0.5, -7 / 30]))
    timestamps = np.concatenate(([start], start + np.arange(1, n) / 30.0))
    sensor = SensorModel.uniform(draw(st.sampled_from([0.05, 0.1, 0.2])), w, h)
    maps = [sensor.threshold_map]
    for sigmas, seeds in [((0.0, 0.03), range(10)), ((0.01, 0.1), range(10, 20))][:draw(st.integers(0, 2))]:
        maps.append(bias_thresholds(sensor, draw(st.sampled_from(sigmas)), draw(st.sampled_from(seeds))).threshold_map)
    return FrameSequence(frames, timestamps), maps


@settings(max_examples=100, deadline=None)
@given(scene=tiny_scenes(), block=st.sampled_from(["pixel", "row and a half", "image"]))
def test_block_major_pass_equals_both_oracles_at_any_block_size(scene, block):
    frames, maps = scene
    pixels = max(1, {"pixel": 1, "row and a half": 3 * frames.width // 2,
                     "image": frames.width * frames.height}[block])
    blocks = []
    with pytest.MonkeyPatch.context() as mp:
        def spy(count, px_bytes):  # STRIP_BYTES that holds ``pixels`` pixels
            mp.setattr(core, "STRIP_BYTES", pixels * px_bytes)
            blocks.extend(core.row_strips(count, px_bytes))
            return blocks

        mp.setattr(simulate, "row_strips", spy)
        got = _simulate(frames, maps)
    assert blocks[0] == slice(0, min(pixels, frames.width * frames.height))
    assert_streams_bit_equal(got, one_pass_reference(frames, maps))
    for stream, thr in zip(got, maps):
        want = simulate_reference(frames, SensorModel(0.1, thr))
        for field, expect in zip((stream.t, stream.x, stream.y, stream.p), want):
            assert field.tobytes() == expect.tobytes()


def test_log_map_writes_into_out():
    x = np.array([0.0, 1e-5, 0.5, 1.0])
    out = np.empty(4)
    assert log_map(x, out=out) is out
    assert out.tobytes() == log_map(x).tobytes() == np.log(np.maximum(x, LOG_EPS)).tobytes()
    assert x.tolist() == [0.0, 1e-5, 0.5, 1.0]
