import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from evtkit import core

from conftest import count_streams, random_stream, traced_peak_mib


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

    # 2**-513 * (2 - 2**-51) squares to exactly 1 / finfo.max, whose reciprocal overflows
    @pytest.mark.parametrize("diff", [1e-155, 1e-160, float.fromhex("0x1.ffffffffffffep-513")])
    def test_subnormal_mse_is_finite_without_a_warning(self, diff):
        # 1.0 / mse overflowed to inf, with a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = psnr(np.zeros((8, 8)), np.full((8, 8), diff))
        mse = np.float64(diff) ** 2
        assert mse <= 1 / np.finfo(np.float64).max
        assert got == -10 * np.log10(mse) and 3000 < got < 3300

    def test_ordinary_mse_keeps_its_bits(self):
        a, b = np.random.default_rng(3).uniform(0, 1, (2, 8, 8))
        assert psnr(a, b).hex() == "0x1.ee5eeda0a584dp+2"
        assert psnr(np.full((16, 16), 0.5), np.full((16, 16), 0.6)).hex() == "0x1.4000000000000p+4"
        diff = np.float64(7.5e-155)
        assert diff ** 2 > 1 / np.finfo(np.float64).max  # so it takes the 1 / mse path
        assert psnr(np.zeros((1, 1)), np.full((1, 1), diff)) == 10 * np.log10(1 / diff ** 2)


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


def sliding_window_ssim(a, b):
    """ssim as it was before separable box sums, kept verbatim as the oracle."""
    SSIM_WINDOW = 8
    SSIM_C1 = 0.01 ** 2
    SSIM_C2 = 0.03 ** 2
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    w = SSIM_WINDOW

    def win(img):
        v = np.lib.stride_tricks.sliding_window_view(img, (w, w))
        return v.reshape(v.shape[0], v.shape[1], -1)

    wa, wb = win(a), win(b)
    mu_a = wa.mean(axis=-1)
    mu_b = wb.mean(axis=-1)
    var_a = wa.var(axis=-1)
    var_b = wb.var(axis=-1)
    cov = (wa * wb).mean(axis=-1) - mu_a * mu_b
    num = (2 * mu_a * mu_b + SSIM_C1) * (2 * cov + SSIM_C2)
    den = (mu_a ** 2 + mu_b ** 2 + SSIM_C1) * (var_a + var_b + SSIM_C2)
    return float(np.mean(num / den))


def whole_image_ssim(a, b):
    """ssim before row strips, kept verbatim (with _window_mean) as the oracle."""
    SSIM_WINDOW = 8
    SSIM_C1 = 0.01 ** 2
    SSIM_C2 = 0.03 ** 2

    def _window_mean(x, w):
        cols = x.shape[-1] - w + 1
        rows = x.shape[-2] - w + 1
        acc = x[..., :cols].copy()
        for k in range(1, w):
            acc += x[..., k:k + cols]
        box = acc[..., :rows, :].copy()
        for k in range(1, w):
            box += acc[..., k:k + rows, :]
        box /= w * w
        return box

    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    w = SSIM_WINDOW
    # second moments of images centred on their global means lose less to
    # cancellation in E[xy] - E[x]E[y]; the window statistics are unchanged
    mean_a, mean_b = a.mean(), b.mean()
    a0, b0 = a - mean_a, b - mean_b
    m_a, m_b, m_aa, m_bb, m_ab = _window_mean(np.stack([a0, b0, a0 * a0, b0 * b0, a0 * b0]), w)
    var_a = m_aa - m_a ** 2
    var_b = m_bb - m_b ** 2
    cov = m_ab - m_a * m_b
    mu_a = m_a + mean_a
    mu_b = m_b + mean_b
    num = (2 * mu_a * mu_b + SSIM_C1) * (2 * cov + SSIM_C2)
    den = (mu_a ** 2 + mu_b ** 2 + SSIM_C1) * (var_a + var_b + SSIM_C2)
    return float(np.mean(num / den))


def image_pair(kind, h, w, seed):
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(0, 1, (2, h, w))
    if kind == "quantised":
        a, b = np.round(a * 255) / 255, np.round(b * 255) / 255
    elif kind == "perturbed":  # SSIM near 1, where the covariance must be exact
        b = np.clip(a + rng.normal(0, 1e-3, (h, w)), 0, 1)
    elif kind == "constant":
        a, b = np.full((h, w), a[0, 0]), np.full((h, w), b[0, 0])
    return a, b


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["random", "quantised", "perturbed", "constant"]),
       h=st.integers(8, 40), w=st.integers(8, 40), seed=st.integers(0, 2 ** 32 - 1))
def test_ssim_matches_sliding_window_reference(kind, h, w, seed):
    a, b = image_pair(kind, h, w, seed)
    got = ssim(a, b)
    if kind == "constant":
        # The reference's E[ab] - E[a]E[b] cancels to a few ulps of ab, which
        # the 9e-4 of SSIM_C2 scales to 1.5e-12 of SSIM at worst (seen at
        # 0.99971 / 0.89150). The closed form is exact, and box sums of
        # centred images reproduce it.
        assert got == pytest.approx(constant_ssim(a[0, 0], b[0, 0]), rel=0, abs=1e-15)
    else:
        assert abs(got - sliding_window_ssim(a, b)) <= 1e-12


# a strip holds 2**20 bytes of 16 float64 planes per input row: 34 rows at
# width 240, 12 at 640, 4 at 2000 and 2 at 3500, so the taller images span
# several strips and most end in a ragged one
@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["random", "quantised", "perturbed", "constant"]),
       h=st.integers(8, 120), w=st.sampled_from([8, 31, 240, 640, 2000, 3500]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_ssim_strips_are_bit_identical_to_whole_image_oracle(kind, h, w, seed):
    a, b = image_pair(kind, h, w, seed)
    assert ssim(a, b) == whole_image_ssim(a, b)


def strip_ssim(a, b):
    """ssim before the contiguous row runs, with _window_mean and the strip
    loop kept verbatim as the oracle."""
    SSIM_WINDOW = 8
    SSIM_C1 = 0.01 ** 2
    SSIM_C2 = 0.03 ** 2

    def _window_mean(x, w):
        cols = x.shape[-1] - w + 1
        rows = x.shape[-2] - w + 1
        acc = x[..., :cols].copy()
        for k in range(1, w):
            acc += x[..., k:k + cols]
        box = acc[..., :rows, :].copy()
        for k in range(1, w):
            box += acc[..., k:k + rows, :]
        box /= w * w
        return box

    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    w = SSIM_WINDOW
    mean_a, mean_b = a.mean(), b.mean()
    ssim_map = np.empty((a.shape[0] - w + 1, a.shape[1] - w + 1))
    # a strip of output rows reads w - 1 more input rows and stacks 5 planes;
    # STRIP_BYTES is read here, as tests patch it
    step = max(1, core.STRIP_BYTES // (5 * a.itemsize * a.shape[1]) - (w - 1))
    for start in range(0, len(ssim_map), step):
        rows = slice(start, min(start + step, len(ssim_map)))
        inputs = slice(rows.start, rows.stop + w - 1)
        a0, b0 = a[inputs] - mean_a, b[inputs] - mean_b
        m_a, m_b, m_aa, m_bb, m_ab = _window_mean(
            np.stack([a0, b0, a0 * a0, b0 * b0, a0 * b0]), w)
        var_a = m_aa - m_a ** 2
        var_b = m_bb - m_b ** 2
        cov = m_ab - m_a * m_b
        mu_a = m_a + mean_a
        mu_b = m_b + mean_b
        num = (2 * mu_a * mu_b + SSIM_C1) * (2 * cov + SSIM_C2)
        den = (mu_a ** 2 + mu_b ** 2 + SSIM_C1) * (var_a + var_b + SSIM_C2)
        np.divide(num, den, out=ssim_map[rows])
    return float(np.mean(ssim_map))


LAYOUTS = {
    "c": lambda x: x,
    "fortran": np.asfortranarray,
    "columns-reversed": lambda x: x[:, ::-1],
    "every-other-row": lambda x: x[::2],
}
DTYPES = {
    "float64": lambda x: x,
    "float32": lambda x: x.astype(np.float32),
    "uint8": lambda x: np.round(x * 255).astype(np.uint8),
}


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(["random", "quantised", "perturbed", "constant"]),
       h=st.integers(8, 60), w=st.integers(8, 48), strip_rows=st.integers(1, 20),
       layout=st.sampled_from(sorted(LAYOUTS)), dtype=st.sampled_from(sorted(DTYPES)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_ssim_is_bit_identical_to_strip_oracle(kind, h, w, strip_rows, layout, dtype, seed):
    # STRIP_BYTES is set so that a strip holds strip_rows input rows of the new
    # loop's 16 planes: from 1 or 2 rows, where no strip alone fills a window
    # and the carried row sums do all the work, to several strips and a ragged end
    rows = 2 * h if layout == "every-other-row" else h
    a, b = (LAYOUTS[layout](DTYPES[dtype](x)) for x in image_pair(kind, rows, w, seed))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "STRIP_BYTES", strip_rows * 16 * 8 * w)
        got, want = ssim(a, b), strip_ssim(a, b)
    assert got == want


@settings(max_examples=12, deadline=None)
@given(h=st.integers(8, 24), w=st.sampled_from([4200, 8200]), seed=st.integers(0, 2 ** 32 - 1))
def test_ssim_is_bit_identical_to_strip_oracle_on_wide_images(h, w, seed):
    # at these widths a strip of the default STRIP_BYTES holds 2 rows and 1 row
    a, b = image_pair("random", h, w, seed)
    assert ssim(a, b) == strip_ssim(a, b)


@pytest.mark.parametrize("kind", ["random", "quantised", "perturbed"])
def test_ssim_at_640x480_is_bit_identical_to_whole_image_oracle(kind):
    # the shape the deblur-640 benchmark scores
    a, b = image_pair(kind, 480, 640, 640)
    assert ssim(a, b) == whole_image_ssim(a, b) == strip_ssim(a, b)


@pytest.mark.parametrize("strip_rows", [1, 3, 16])
@pytest.mark.parametrize("w", [17, 633])
def test_ssim_is_bit_identical_to_strip_oracle_at_unaligned_widths(w, strip_rows):
    # rows of these widths are not whole 64-byte lines, so the carried row
    # sums and every plane past the first start off a line but for padding
    a, b = image_pair("random", 40, w, w)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "STRIP_BYTES", strip_rows * 16 * 8 * w)
        assert ssim(a, b) == strip_ssim(a, b)


def test_ssim_at_640x480_allocates_less_than_4_mib():
    # the planes of one strip; a full-size temporary (2.3 MiB) fails this
    a, b = image_pair("random", 480, 640, 1)
    assert traced_peak_mib(ssim, a, b) <= 4


@pytest.mark.parametrize("va, vb", [(0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (1.0, 0.0), (0.5, 0.6)])
@pytest.mark.parametrize("shape", [(8, 8), (40, 37), (200, 640)])
def test_ssim_of_constant_images_warns_of_nothing(va, vb, shape):
    # the variance terms cancel to 0; columns past a row's last window are
    # computed and never read, and a warning from them would still be raised
    a, b = np.full(shape, va), np.full(shape, vb)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ssim(a, b)
    assert got == strip_ssim(a, b)
    assert got == pytest.approx(constant_ssim(va, vb), rel=0, abs=1e-15)


@pytest.mark.parametrize("shape", [(12,), (12, 12, 3), (2, 12, 12)])
def test_ssim_rejects_images_that_are_not_2d(shape):
    # an H x W x 3 pair gave nan (the window slid over W x 3), 1-D an IndexError
    with pytest.raises(ValueError, match="2-D"):
        ssim(np.zeros(shape), np.zeros(shape))


def test_ssim_on_constant_images_is_the_closed_form_where_the_reference_is_not():
    a, b = np.full((8, 8), 0.9997059701213566), np.full((8, 8), 0.8915027024798481)
    want = constant_ssim(a[0, 0], b[0, 0])
    assert ssim(a, b) == pytest.approx(want, rel=0, abs=1e-15)
    assert abs(sliding_window_ssim(a, b) - want) > 1e-12


@pytest.mark.parametrize("metric", [psnr, ssim, deblur_l1])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1e200, -1e200])
@pytest.mark.parametrize("which", [0, 1])
def test_values_that_cannot_be_scored_are_rejected(metric, bad, which):
    # ssim gave nan and psnr -inf, with RuntimeWarnings (errors under pytest
    # here); deblur_l1 gave inf or nan without a warning
    images = [np.full((40, 40), 0.5), np.full((40, 40), 0.25)]
    images[which][17, 23] = bad
    with pytest.raises(ValueError, match="finite"):
        metric(*images)


@pytest.mark.parametrize("metric", [psnr, ssim, deblur_l1])
@pytest.mark.parametrize("pattern", ["constant", "checker", "random"])
def test_values_at_the_bound_score_without_a_warning(metric, pattern, rng):
    # the bound sits far enough inside float64 that every term stays finite
    bound = 1e64
    if pattern == "constant":
        a, b = np.full((16, 16), bound), np.full((16, 16), -bound)
    elif pattern == "checker":
        a = np.where(np.indices((16, 16)).sum(axis=0) % 2, bound, -bound)
        b = -a
    else:
        a, b = rng.choice([-bound, bound, 0.0], (2, 16, 16))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = metric(a, b)
    assert np.isfinite(got)


@pytest.mark.parametrize("metric", [psnr, ssim, deblur_l1])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_one_ulp_beyond_the_bound_is_rejected(metric, sign):
    a = np.zeros((16, 16))
    a[3, 4] = np.nextafter(sign * 1e64, sign * np.inf)
    with pytest.raises(ValueError, match="finite"):
        metric(a, np.zeros((16, 16)))


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
