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
    inject_noise,
    limit_bandwidth,
    make_pair,
    simulate_events,
    validate,
)

from conftest import event_keys, random_stream


class TestBiasThresholds:
    def test_zero_sigma_gives_uniform_map(self):
        sensor = SensorModel.uniform(0.2, 16, 16)
        out = bias_thresholds(sensor, 0.0, seed=7)
        np.testing.assert_array_equal(out.threshold_map, 0.2)

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


class TestMakePair:
    @pytest.fixture
    def frames(self, rng):
        return FrameSequence(rng.uniform(0.05, 1.0, (6, 8, 8)),
                             np.linspace(0, 1, 6))

    def test_no_degradation_gives_identical_pair(self, frames):
        sensor = SensorModel.uniform(0.2, 8, 8)
        e_u, e_d = make_pair(frames, sensor, DegradationConfig())
        assert event_keys(e_u) == event_keys(e_d)

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
