import math

import numpy as np
import pytest
from hypothesis import given, settings

from evtkit import (
    EventStream,
    StreamStats,
    VoxelGrid,
    deblur_l1,
    event_l1_response,
    psnr,
    ssim,
    stream_stats,
)

from conftest import count_streams, random_stream


def constant_ssim(a, b):
    """Closed form for two constant images: variance terms vanish."""
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    return ((2 * a * b + c1) * c2) / ((a * a + b * b + c1) * c2)


class TestPsnr:
    def test_identical_is_infinite(self, rng):
        img = rng.uniform(0, 1, (8, 8))
        assert psnr(img, img) == float("inf")

    def test_uniform_offset_closed_form(self):
        a = np.full((16, 16), 0.5)
        b = np.full((16, 16), 0.6)
        assert psnr(a, b) == pytest.approx(20.0, abs=1e-9)

    def test_symmetry(self, rng):
        a, b = rng.uniform(0, 1, (2, 8, 8))
        assert psnr(a, b) == psnr(b, a)

    def test_geometry_mismatch(self):
        with pytest.raises(ValueError):
            psnr(np.zeros((4, 4)), np.zeros((4, 5)))


class TestSsim:
    def test_identical_is_one(self, rng):
        img = rng.uniform(0, 1, (12, 12))
        assert ssim(img, img) == pytest.approx(1.0, abs=1e-12)

    def test_constant_images_closed_form(self):
        a = np.full((16, 16), 0.5)
        b = np.full((16, 16), 0.6)
        assert ssim(a, b) == pytest.approx(constant_ssim(0.5, 0.6), abs=1e-12)
        assert ssim(a, b) == pytest.approx(0.9836, abs=5e-5)

    def test_symmetry_and_bounds(self, rng):
        for _ in range(10):
            a, b = rng.uniform(0, 1, (2, 10, 10))
            v = ssim(a, b)
            assert v == pytest.approx(ssim(b, a), abs=1e-12)
            assert -1.0 <= v <= 1.0

    def test_different_images_below_one(self, rng):
        a = rng.uniform(0, 1, (10, 10))
        b = a.copy()
        b[0, 0] += 0.1
        assert ssim(a, np.clip(b, 0, 1)) < 1.0

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            ssim(np.zeros((4, 4)), np.zeros((4, 4)))


class TestEventL1Response:
    def grid(self, data):
        data = np.asarray(data, dtype=float)
        return VoxelGrid(data, 0.0, 1.0)

    def test_identical_is_zero(self, rng):
        g = self.grid(rng.integers(-2, 3, (3, 3, 4)))
        assert event_l1_response(g, g, g) == 0.0

    def test_single_response_location(self):
        ref = np.zeros((2, 2, 2))
        ref[0, 0, 0] = 1
        restored = np.zeros((2, 2, 2))
        restored[0, 0, 0] = 2
        value = event_l1_response(self.grid(restored), self.grid(ref),
                                  self.grid(ref), alpha=0.5)
        assert value == pytest.approx(0.5)

    def test_both_zero_locations_masked_out(self):
        ref = np.zeros((2, 2, 2))
        deg = np.zeros((2, 2, 2))
        restored = np.zeros((2, 2, 2))
        restored[1, 1, 1] = 5.0  # discrepancy outside the response mask
        assert event_l1_response(self.grid(restored), self.grid(ref),
                                 self.grid(deg)) == 0.0

    def test_degraded_locations_included(self):
        ref = np.zeros((1, 1, 2))
        deg = np.zeros((1, 1, 2))
        deg[0, 0, 1] = 1
        restored = np.zeros((1, 1, 2))
        restored[0, 0, 1] = 3.0
        value = event_l1_response(self.grid(restored), self.grid(ref),
                                  self.grid(deg), alpha=0.5)
        assert value == pytest.approx(1.5)

    def test_alpha_scales_linearly(self, rng):
        a = self.grid(rng.integers(-2, 3, (3, 3, 4)))
        b = self.grid(rng.integers(-2, 3, (3, 3, 4)))
        v1 = event_l1_response(a, b, b, alpha=0.5)
        v2 = event_l1_response(a, b, b, alpha=1.0)
        assert v2 == pytest.approx(2 * v1)

    @pytest.mark.parametrize("alpha", [-1.0, math.nan, math.inf])
    @pytest.mark.parametrize("empty_mask", [False, True])
    def test_bad_alpha_rejected(self, rng, alpha, empty_mask):
        data = np.zeros((2, 2, 2)) if empty_mask else rng.integers(1, 3, (2, 2, 2))
        g = self.grid(data)
        with pytest.raises(ValueError, match="alpha"):
            event_l1_response(g, g, g, alpha=alpha)

    def test_shape_mismatch(self, rng):
        a = self.grid(np.zeros((2, 2, 2)))
        b = self.grid(np.zeros((2, 2, 3)))
        with pytest.raises(ValueError):
            event_l1_response(a, b, b)


class TestDeblurL1:
    def test_identical_zero(self, rng):
        img = rng.uniform(0, 1, (5, 5))
        assert deblur_l1(img, img) == 0.0

    def test_uniform_offset(self):
        assert deblur_l1(np.full((4, 4), 0.3), np.full((4, 4), 0.4)) == pytest.approx(0.1)

    def test_symmetry(self, rng):
        a, b = rng.uniform(0, 1, (2, 5, 5))
        assert deblur_l1(a, b) == deblur_l1(b, a)


class TestStreamStats:
    def test_empty(self):
        st = stream_stats(EventStream.empty(4, 4, 0.0, 2.0))
        assert st.count == st.on_count == st.off_count == 0
        assert st.duration == 2.0
        assert not st.per_pixel_rate.any()

    def test_counts(self):
        s = EventStream([0.1, 0.2, 0.3, 0.4, 0.5], [0] * 5, [0] * 5,
                        [1, 1, 1, -1, -1], 2, 2, 0.0, 1.0)
        st = stream_stats(s)
        assert (st.count, st.on_count, st.off_count) == (5, 3, 2)
        assert st.per_pixel_rate[0, 0] == pytest.approx(5.0)

    def test_duration_definition(self, rng):
        s = random_stream(rng, t0=1.5, t1=4.0)
        assert stream_stats(s).duration == pytest.approx(2.5)


def add_at_reference(stream):
    """stream_stats as it was before np.bincount, kept verbatim as the oracle."""
    counts = np.zeros((stream.height, stream.width))
    if len(stream):
        np.add.at(counts, (stream.y, stream.x), 1.0)
    duration = stream.t_end - stream.t_start
    rate = counts / duration if duration > 0 else np.zeros_like(counts)
    return StreamStats(
        count=len(stream),
        on_count=int(np.count_nonzero(stream.p == 1)),
        off_count=int(np.count_nonzero(stream.p == -1)),
        per_pixel_rate=rate,
        duration=float(duration),
    )


@settings(max_examples=300, deadline=None)
@given(s=count_streams())
def test_stream_stats_matches_add_at_reference(s):
    got, want = stream_stats(s), add_at_reference(s)
    assert (got.count, got.on_count, got.off_count, got.duration) == \
        (want.count, want.on_count, want.off_count, want.duration)
    rate, want_rate = got.per_pixel_rate, want.per_pixel_rate
    assert rate.dtype == want_rate.dtype and rate.shape == want_rate.shape
    assert rate.tobytes() == want_rate.tobytes()
