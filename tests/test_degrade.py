import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evtkit import (
    DegradationConfig,
    EventStream,
    FrameSequence,
    NoiseParams,
    SensorModel,
    bias_thresholds,
    canonical_sort,
    degrade_stream,
    inject_noise,
    limit_bandwidth,
    make_pair,
    pixel_index,
    simulate_events,
    validate,
)
from evtkit.simulate import _simulate

from conftest import assert_streams_bit_equal, event_keys, random_stream


class TestBiasThresholds:
    def test_zero_sigma_gives_uniform_map(self):
        sensor = SensorModel.uniform(0.2, 16, 16)
        out = bias_thresholds(sensor, 0.0, seed=7)
        np.testing.assert_array_equal(out.threshold_map, 0.2)

    @pytest.mark.parametrize("sigma", [np.nan, -0.1])
    def test_nan_or_negative_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            bias_thresholds(SensorModel.uniform(0.2, 4, 4), sigma, seed=0)

    def test_sample_mean_within_standard_error(self):
        sensor = SensorModel.uniform(0.2, 128, 128)
        out = bias_thresholds(sensor, 0.02, seed=3)
        # 128*128 samples: |mean - 0.2| < 3 * 0.02 / 128
        assert abs(out.threshold_map.mean() - 0.2) < 3 * 0.02 / 128

    def test_clamped_below_tenth_of_nominal(self):
        sensor = SensorModel.uniform(0.2, 64, 64)
        out = bias_thresholds(sensor, 5.0, seed=0)
        assert out.threshold_map.min() >= 0.1 * 0.2

    def test_deterministic_in_seed(self):
        sensor = SensorModel.uniform(0.2, 8, 8)
        a = bias_thresholds(sensor, 0.05, seed=42)
        b = bias_thresholds(sensor, 0.05, seed=42)
        np.testing.assert_array_equal(a.threshold_map, b.threshold_map)

    def test_lower_threshold_pixel_emits_at_least_as_many(self):
        # two pixels, same ramp, thresholds c and c - delta
        frames = FrameSequence(
            np.tile(np.exp(np.linspace(-1.0, 0.0, 5))[:, None, None], (1, 1, 2)),
            np.linspace(0, 1, 5))
        sensor = SensorModel(0.2, np.array([[0.2, 0.15]]))
        s = simulate_events(frames, sensor)
        low = np.count_nonzero(s.x == 1)
        high = np.count_nonzero(s.x == 0)
        assert low >= high


@st.composite
def bandwidth_cases(draw):
    """(stream, T_s, kind): no (pixel, period) repeated; every event in one
    (pixel, period); repeats only of events on a period edge; or periods of
    about 2**62, next to the int64 refusal. Dyadic times and periods, so each
    event's period is exact; shuffled or canonical input."""
    kind = draw(st.sampled_from(["none", "one group", "edges", "near refusal"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    w, h = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    t_start = draw(st.sampled_from([-0.0, 0.0, -0.5, 0.25]))
    n = draw(st.integers(1, 40))
    t_s = 0.125
    if kind == "none":  # distinct (pixel, period) pairs
        keys = rng.permutation(w * h * 8)[:n]
        pixel, period = keys % (w * h), keys // (w * h)
        t = t_start + (period + rng.integers(0, 8, len(keys)) / 8) * t_s
    elif kind == "one group":
        pixel = np.full(n, rng.integers(0, w * h))
        t = t_start + (3 + rng.integers(0, 8, n) / 8) * t_s
    elif kind == "edges":  # the events off an edge have pixels of their own
        edge = rng.random(n) < 0.5
        pixel = np.where(edge, rng.integers(0, 2, n), 2 + np.arange(n))
        w, h = n + 2, 1
        t = t_start + np.where(edge, rng.integers(0, 4, n), rng.integers(0, 32, n) / 8 + 1 / 16) * t_s
    else:  # a window of 2**63 - 2**11 periods of 2**-62 s; each time has a period of its own
        t_s = 2.0 ** -62
        pixel = rng.integers(0, w * h, n)
        t = t_start + rng.integers(0, 32, n) / 16
    t_end = t_start + (2 - 2.0 ** -51 if kind == "near refusal" else 8)
    stream = EventStream(t, pixel % w, pixel // w, rng.choice([-1, 1], len(t)), w, h, t_start, t_end)
    if draw(st.booleans()):
        stream = canonical_sort(stream)
    return stream, t_s, kind


class TestLimitBandwidth:
    def test_zero_period_is_identity(self, rng):
        s = random_stream(rng, n=50)
        out = limit_bandwidth(s, 0.0)
        assert out is s

    def test_small_period_keeps_everything(self):
        s = EventStream([0.1, 0.4, 0.7], [0, 0, 0], [0, 0, 0], [1, 1, 1],
                        1, 1, 0.0, 1.0)
        out = limit_bandwidth(s, 0.01)
        assert len(out) == 3

    def test_hand_computed_periods(self):
        s = EventStream([0.1, 0.2, 0.3, 0.9], [0] * 4, [0] * 4, [1] * 4,
                        1, 1, 0.0, 1.0)
        out = limit_bandwidth(s, 0.5)
        np.testing.assert_allclose(out.t, [0.1, 0.9])

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(30):
            s = random_stream(rng, width=4, height=4, n=60)
            t_s = rng.uniform(0.02, 0.5)
            out = limit_bandwidth(s, t_s)
            # oracle: per (pixel, period), keep the canonically first event
            seen = {}
            for t, x, y, p in sorted(zip(s.t, s.x, s.y, s.p),
                                     key=lambda e: (e[0], e[2], e[1], e[3])):
                key = (x, y, int((t - s.t_start) / t_s))
                if key not in seen:
                    seen[key] = (t, x, y, p)
            expect = sorted(seen.values(), key=lambda e: (e[0], e[2], e[1], e[3]))
            assert expect == list(zip(out.t, out.x, out.y, out.p))

    def test_never_adds_and_fields_unmodified(self, rng):
        s = random_stream(rng, n=80)
        out = limit_bandwidth(s, 0.1)
        assert event_keys(out) <= event_keys(s)
        assert len(out) <= len(s)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), t_s=st.floats(0.01, 1.0))
    def test_at_most_one_event_per_pixel_period(self, seed, t_s):
        s = random_stream(np.random.default_rng(seed), width=3, height=3, n=50)
        out = limit_bandwidth(s, t_s)
        keys = list(zip(out.x, out.y, ((out.t - s.t_start) / t_s).astype(int)))
        assert len(keys) == len(set(keys))
        assert validate(out) is None

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 60),
           t_s=st.sampled_from([0.125, 0.25, 0.3, 1.0]))
    def test_shuffled_input_gives_canonical_result(self, seed, n, t_s):
        # dyadic times: equal times at one pixel and on period edges
        rng = np.random.default_rng(seed)
        s = EventStream(rng.integers(0, 9, n) / 8, rng.integers(0, 3, n),
                        rng.integers(0, 2, n), rng.choice([-1, 1], n), 3, 2, 0.0, 1.0)
        want = two_sort_reference(s, t_s)
        for out in (limit_bandwidth(s, t_s), limit_bandwidth(canonical_sort(s), t_s)):
            for got, expect in zip((out.t, out.x, out.y, out.p), want):
                np.testing.assert_array_equal(got, expect)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 120),
           t_s=st.sampled_from([1 / 64, 0.125, 0.25, 0.3, 1.0, 4.0]),
           t_start=st.sampled_from([-0.0, 0.0, 0.25]))
    def test_matches_lexsort_reference(self, seed, n, t_s, t_start):
        # few pixels and 33 dyadic times: many events per pixel-period, equal
        # times at one pixel, times on period edges; the input is shuffled
        rng = np.random.default_rng(seed)
        s = EventStream(t_start + rng.integers(0, 33, n) / 32, rng.integers(0, 2, n),
                        rng.integers(0, 2, n), rng.choice([-1, 1], n), 2, 2, t_start, t_start + 1)
        got, want = limit_bandwidth(s, t_s), lexsort_limit_bandwidth(s, t_s)
        for field in ("t", "x", "y", "p"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
        assert (got.t_start, got.t_end) == (want.t_start, want.t_end)

    @pytest.mark.parametrize("t_s", [np.nan, -np.inf, 1e-20])
    def test_nan_negative_or_too_small_period_rejected(self, t_s):
        # 1e-20 s gives 2e19 periods in the 0.2 s window, more than int64 holds
        s = EventStream([0.0, 0.05, 0.1, 0.2], [0] * 4, [0] * 4, [1] * 4, 1, 1, 0.0, 0.2)
        with pytest.raises(ValueError, match="sampling_period"):
            limit_bandwidth(s, t_s)

    @pytest.mark.parametrize("t", [[0.1, 1e30, 2e30], [0.1, 0.2, np.nan]],
                             ids=["far-times", "nan-time"])
    def test_times_beyond_int64_periods_rejected(self, t):
        # the window [0, 1] holds 1000 periods, but the event times do not:
        # 1e30 and 2e30 s would wrap to one int64 period and keep 2 of 3 events
        s = EventStream(t, [0] * 3, [0] * 3, [1] * 3, 1, 1, 0.0, 1.0)
        with pytest.raises(ValueError, match="sampling_period"):
            limit_bandwidth(s, 1e-3)

    def test_key_space_overflow_rejected(self):
        # 2**62 pixels times 3 events overflows the int64 pixel*n + index keys
        s = EventStream([0.1, 0.2, 0.3], [0, 1, 2], [0] * 3, [1] * 3, 2**31, 2**31, 0.0, 1.0)
        with pytest.raises(ValueError, match="int64"):
            limit_bandwidth(s, 0.1)


    def test_canonical_stream_without_collisions_comes_back_as_itself(self):
        s = EventStream([0.1, 0.1, 0.3, 0.6], [1, 0, 1, 1], [0, 1, 0, 0], [1, -1, 1, 1], 2, 2, 0.0, 1.0)
        assert validate(s) is None
        assert limit_bandwidth(s, 0.25) is s

    def test_keys_past_int32_keep_their_periods_apart(self):
        # 5,000 periods of one pixel on a 1024 x 1024 sensor: period ids times
        # W*H pass 2**31, where int32 keys would wrap onto each other every
        # 4,096 periods; a repeat in the last period takes the grouping path
        n, t_s = 5000, 1 / 8192
        s = EventStream(np.arange(n) * t_s, [0] * n, [0] * n, [1] * n, 1024, 1024, 0.0, 1.0)
        assert limit_bandwidth(s, t_s) is s
        twice = EventStream(np.append(s.t, s.t[-1]), [0] * (n + 1), [0] * (n + 1), [-1] + [1] * n,
                            1024, 1024, 0.0, 1.0)
        got = limit_bandwidth(twice, t_s)
        for field, expect in zip((got.t, got.x, got.y, got.p), two_sort_reference(twice, t_s)):
            assert field.tobytes() == expect.tobytes()
        assert len(got) == n

    @settings(max_examples=200, deadline=None)
    @given(case=bandwidth_cases())
    def test_matches_two_sort_reference_on_collision_patterns(self, case):
        s, t_s, kind = case
        got = limit_bandwidth(s, t_s)
        want = two_sort_reference(s, t_s)
        for field, expect in zip((got.t, got.x, got.y, got.p), want):
            assert field.dtype == expect.dtype and field.tobytes() == expect.tobytes()
        assert (got.width, got.height, got.t_start, got.t_end) == (s.width, s.height, s.t_start, s.t_end)
        if kind == "none":
            assert len(got) == len(s)
            if validate(s) is None:
                assert got is s
        elif kind == "one group":
            assert len(got) == 1


def lexsort_limit_bandwidth(stream, sampling_period):
    """limit_bandwidth before the pixel-major keys: a stable 2-key lexsort
    groups the canonical events by (pixel, period)."""
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


def two_sort_reference(s, t_s):
    """The former limit_bandwidth: group unsorted input by pixel in (t, p)
    order, keep each (pixel, period)'s first event, then sort the result."""
    pixel = s.y.astype(np.int64) * s.width + s.x
    period = np.floor((s.t - s.t_start) / t_s).astype(np.int64)
    order = np.lexsort((s.p, s.t, pixel))
    first = np.ones(len(s), dtype=bool)
    first[1:] = (np.diff(pixel[order]) != 0) | (np.diff(period[order]) != 0)
    kept = canonical_sort(s.with_arrays(*(a[order[first]] for a in (s.t, s.x, s.y, s.p))))
    return kept.t, kept.x, kept.y, kept.p


class TestDegradationConfig:
    @pytest.mark.parametrize("field,value", [("sigma", -0.1), ("sampling_period", -0.1),
                                             ("sigma", np.nan), ("sampling_period", np.nan)])
    def test_negative_or_nan_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            DegradationConfig(**{field: value})


class TestNoiseParams:
    # NaN passed `min(...) < 0` and was then read as a zero rate; inf failed
    # only inside rng.poisson
    @pytest.mark.parametrize("field", ["shot_rate", "leak_rate", "hot_pixel_rate"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
    def test_negative_or_non_finite_rate_rejected(self, field, value):
        with pytest.raises(ValueError, match="noise rates must be finite and >= 0"):
            NoiseParams(**{field: value})

    def test_negative_seed_rejected(self):
        # numpy rejected it only inside make_pair, and zero noise never drew
        with pytest.raises(ValueError, match="seed=-1"):
            NoiseParams(seed=-1)


@st.composite
def noise_cases(draw):
    """A stream of at most 24 x 16 pixels and 300 events, in a window that may
    be empty; noise with each rate off, low or high enough for numpy's
    large-mean Poisson sampler; no hot pixel, one, half or all of them; the
    intensity hint as None or as an array."""
    w, h = draw(st.integers(1, 24)), draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    t_start = draw(st.sampled_from([0.0, -0.5, 2.0]))
    t_end = t_start + draw(st.sampled_from([0.0, 0.25, 1.0]))
    s = random_stream(rng, w, h, draw(st.integers(0, 300)), t_start, t_end)
    rate = st.sampled_from([0.0, 1.5, 30.0])
    params = NoiseParams(shot_rate=draw(rate), leak_rate=draw(rate),
                         hot_pixel_fraction=draw(st.sampled_from([0.0, 1 / (w * h), 0.5, 1.0])),
                         hot_pixel_rate=draw(rate), seed=draw(st.integers(0, 2 ** 32 - 1)))
    hint = rng.uniform(0, 1, (h, w)) if draw(st.booleans()) else None
    return s, params, hint


def inject_noise_reference(stream, params, intensity_hint=None):
    """inject_noise before hot-pixel noise was drawn at the hot pixels alone: a
    Poisson draw over a sensor-sized rate array that is zero at every other
    pixel. It must draw from the same SeedSequence children, in the same order."""
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
        # homogeneous Poisson arrivals per pixel over the window; pixels index the flat rates
        counts = rng.poisson(rates * (stream.t_end - stream.t_start))
        times = rng.uniform(stream.t_start, stream.t_end, int(counts.sum()))
        pixels = np.repeat(np.arange(len(rates)), counts)
        del counts
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


class TestInjectNoise:
    def test_zero_rates_identity(self, rng):
        s = random_stream(rng, n=20)
        out = inject_noise(s, NoiseParams(seed=1))
        assert event_keys(out) == event_keys(s)

    def test_leak_rate_poisson_mean(self):
        s = EventStream.empty(10, 10, 0.0, 10.0)
        out = inject_noise(s, NoiseParams(leak_rate=10.0, seed=5))
        mean = 10.0 * 100 * 10.0  # rate * pixels * duration
        assert abs(len(out) - mean) < 3 * np.sqrt(mean)
        assert np.all(out.p == 1)

    def test_hot_pixels_concentrated_and_poissonian(self):
        s = EventStream.empty(10, 10, 0.0, 1.0)
        params = NoiseParams(hot_pixel_fraction=0.01, hot_pixel_rate=1000.0, seed=9)
        out = inject_noise(s, params)  # ceil(0.01 * 100) = 1 hot pixel
        assert len(set(zip(out.x.tolist(), out.y.tolist()))) == 1
        assert abs(len(out) - 1000) < 3 * np.sqrt(1000)

    def test_shot_rate_scales_with_darkness(self):
        s = EventStream.empty(10, 10, 0.0, 10.0)
        params = NoiseParams(shot_rate=20.0, seed=2)
        bright = inject_noise(s, params, np.ones((10, 10)))
        dark = inject_noise(s, params, np.zeros((10, 10)))
        assert len(bright) == 0
        mean = 20.0 * 100 * 10.0
        assert abs(len(dark) - mean) < 3 * np.sqrt(mean)

    def test_originals_preserved(self, rng):
        s = random_stream(rng, n=25)
        out = inject_noise(s, NoiseParams(shot_rate=5.0, leak_rate=2.0, seed=3))
        assert event_keys(s) <= event_keys(out)
        assert validate(out) is None

    def test_deterministic_in_seed(self, rng):
        s = random_stream(rng, n=10)
        params = NoiseParams(shot_rate=5.0, leak_rate=1.0,
                             hot_pixel_fraction=0.1, hot_pixel_rate=50.0, seed=11)
        a = inject_noise(s, params)
        b = inject_noise(s, params)
        assert np.array_equal(a.t, b.t) and np.array_equal(a.p, b.p)

    def test_rejects_bad_hint_geometry(self, rng):
        s = random_stream(rng, n=5)
        with pytest.raises(ValueError):
            inject_noise(s, NoiseParams(shot_rate=1.0, seed=0), np.zeros((2, 2)))

    @settings(max_examples=150, deadline=None)
    @given(case=noise_cases())
    def test_bit_identical_to_reference(self, case):
        s, params, hint = case
        assert_streams_bit_equal([inject_noise(s, params, hint)], [inject_noise_reference(s, params, hint)])


class TestMakePair:
    @pytest.fixture
    def frames(self, rng):
        return FrameSequence(rng.uniform(0.05, 1.0, (6, 8, 8)),
                             np.linspace(0, 1, 6))

    def test_no_degradation_gives_identical_pair(self, frames):
        sensor = SensorModel.uniform(0.2, 8, 8)
        e_u, e_d = make_pair(frames, sensor, DegradationConfig())
        assert event_keys(e_u) == event_keys(e_d)

    def test_zero_config_reuses_ideal_stream_of_nonuniform_sensor(self, frames, rng,
                                                                monkeypatch):
        # a uniform re-simulation at c_nominal would give another stream here
        sensor = SensorModel(0.2, rng.uniform(0.1, 0.3, (8, 8)))
        calls = []

        def counting_simulate(frames, threshold_maps):
            calls.append(len(threshold_maps))
            return _simulate(frames, threshold_maps)

        monkeypatch.setattr("evtkit.degrade._simulate", counting_simulate)
        e_u, e_d = make_pair(frames, sensor, DegradationConfig())
        assert calls == [1]  # one pass, for the ideal map only
        for field in ("t", "x", "y", "p"):
            np.testing.assert_array_equal(getattr(e_d, field), getattr(e_u, field))

    def test_biased_pair_is_one_pass_of_two_maps(self, frames, monkeypatch):
        calls, resims = [], []

        def counting_simulate(frames, threshold_maps):
            calls.append(len(threshold_maps))
            return _simulate(frames, threshold_maps)

        monkeypatch.setattr("evtkit.degrade._simulate", counting_simulate)
        monkeypatch.setattr("evtkit.degrade.simulate_events", lambda *a: resims.append(a))
        make_pair(frames, SensorModel.uniform(0.2, 8, 8), DegradationConfig(sigma=0.05))
        assert calls == [2]  # the ideal and the biased map, in one pass
        assert resims == []  # the recipe gets the biased stream, not the frames to redo

    def test_biased_stream_is_its_own_simulation(self, frames):
        # one pass for both maps gives the streams of two separate simulations
        sensor = SensorModel.uniform(0.2, 8, 8)
        e_u, e_d = make_pair(frames, sensor, DegradationConfig(sigma=0.05, noise=NoiseParams(seed=6)))
        want_d = simulate_events(frames, bias_thresholds(sensor, 0.05, 6))
        for got, want in ((e_u, simulate_events(frames, sensor)), (e_d, want_d)):
            for field in ("t", "x", "y", "p"):
                assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
        assert event_keys(e_u) != event_keys(e_d)

    def test_constant_frames_give_pure_noise(self):
        frames = FrameSequence(np.full((4, 8, 8), 0.5), np.linspace(0, 1, 4))
        sensor = SensorModel.uniform(0.2, 8, 8)
        cfg = DegradationConfig(noise=NoiseParams(leak_rate=50.0, seed=4))
        e_u, e_d = make_pair(frames, sensor, cfg)
        assert len(e_u) == 0
        assert len(e_d) > 0
        assert np.all(e_d.p == 1)  # leak noise only

    def test_bandwidth_only_removes_when_unbiased(self, frames):
        sensor = SensorModel.uniform(0.2, 8, 8)
        cfg = DegradationConfig(sampling_period=0.3,
                                noise=NoiseParams(shot_rate=3.0, seed=8))
        e_u, e_d = make_pair(frames, sensor, cfg)
        survivors = event_keys(e_d) & event_keys(e_u)
        assert len(survivors) <= len(e_u)
        # every non-noise event of E_d came from E_u
        bandwidth_only = limit_bandwidth(e_u, 0.3)
        assert event_keys(bandwidth_only) <= event_keys(e_u)


class TestDegradeStream:
    @pytest.fixture
    def frames(self, rng):
        return FrameSequence(rng.uniform(0.05, 1.0, (6, 6, 8)), np.linspace(0, 1, 6))

    @pytest.mark.parametrize("sigma", [0.0, 0.05])
    def test_make_pair_degraded_stream_is_the_recipe(self, frames, sigma):
        sensor = SensorModel.uniform(0.2, 8, 6)
        cfg = DegradationConfig(sigma=sigma, sampling_period=0.1,
                                noise=NoiseParams(shot_rate=4.0, leak_rate=1.0, hot_pixel_fraction=0.1,
                                                  hot_pixel_rate=20.0, seed=5))
        e_u, e_d = make_pair(frames, sensor, cfg)
        want = degrade_stream(e_u, cfg, frames, sensor)
        for field in ("t", "x", "y", "p"):
            assert getattr(e_d, field).tobytes() == getattr(want, field).tobytes()
        assert (e_d.t_start, e_d.t_end) == (want.t_start, want.t_end)

    @pytest.mark.parametrize("given", ["neither", "frames", "sensor"])
    def test_bias_needs_frames_and_sensor(self, frames, rng, given):
        s = random_stream(rng, width=8, height=6)
        with pytest.raises(ValueError, match="frames and a sensor"):
            degrade_stream(s, DegradationConfig(sigma=0.05),
                           frames if given == "frames" else None,
                           SensorModel.uniform(0.2, 8, 6) if given == "sensor" else None)

    @pytest.mark.parametrize("sigma", [0.0, 0.05])
    def test_frames_of_other_geometry_rejected(self, frames, rng, sigma):
        # a biased re-simulation would otherwise return the frames' geometry
        s = random_stream(rng, width=4, height=4)
        with pytest.raises(ValueError, match="do not match"):
            degrade_stream(s, DegradationConfig(sigma=sigma), frames, SensorModel.uniform(0.2, 8, 6))
