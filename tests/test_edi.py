import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evtkit import (
    EdiConfig,
    SensorModel,
    VoxelGrid,
    edi_reconstruct,
    edi_sequence,
    edi_weight,
    psnr,
    simulate_events,
    synthesize_blur,
    voxelize,
)

from evtkit.edi import _boundary_weights, _plane_sum

from conftest import moving_edge_sequence, traced_peak_mib


def weight_oracle(counts, c, r):
    """Direct evaluation: mean over boundaries n of exp(c * S(r, n)) where
    S(r, n) is the signed sum of channels strictly between boundaries r and n."""
    n_ch = len(counts)
    total = 0.0
    for n in range(n_ch + 1):
        if n > r:
            s = sum(counts[r:n])
        elif n < r:
            s = -sum(counts[n:r])
        else:
            s = 0.0
        total += math.exp(c * s)
    return total / (n_ch + 1)


def unshifted_boundary_weights(data, c):
    """_boundary_weights before the max shift, kept verbatim as the oracle."""
    n = data.shape[-1]
    cum = np.zeros(data.shape[:-1] + (n + 1,))
    np.cumsum(data, axis=-1, out=cum[..., 1:])
    # S(r, n) = cum[n] - cum[r]; factor the r-dependence out of the mean
    mean_exp = np.exp(c * cum).mean(axis=-1, keepdims=True)
    return mean_exp * np.exp(-c * cum)


def whole_grid_boundary_weights(data, c):
    """_boundary_weights before row strips, kept verbatim as the oracle."""
    n = data.shape[-1]
    cum = np.zeros(data.shape[:-1] + (n + 1,))
    np.cumsum(data, axis=-1, out=cum[..., 1:])
    # S(r, n) = cum[n] - cum[r]; factor the r-dependence out of the mean,
    # shifted by the per-pixel maximum (log-sum-exp) so the mean lies in
    # [1/(N+1), 1] and cannot overflow
    top = cum.max(axis=-1, keepdims=True)
    mean_exp = np.exp(c * (cum - top)).mean(axis=-1, keepdims=True)
    with np.errstate(over="ignore"):  # a weight beyond float64 is inf: latent 0
        return mean_exp * np.exp(c * (top - cum))


def pixel_major_boundary_weights(data, c, refs=slice(None)):
    """_boundary_weights before the plane-wise mean, kept verbatim as the oracle."""
    n = data.shape[-1]
    # boundary-major: each boundary is one contiguous plane, so no step
    # loops over the short boundary axis pixel by pixel; cum[k] sums the
    # channels before boundary k in channel order, as np.cumsum does
    cum = np.empty((n + 1,) + data.shape[:-1])
    cum[0] = 0.0
    cum[1] = data[..., 0]
    for k in range(1, n):
        np.add(cum[k, ...], data[..., k], out=cum[k + 1, ...])
    # S(r, n) = cum[n] - cum[r]; factor the r-dependence out of the mean,
    # shifted by the per-pixel maximum (log-sum-exp) so the mean lies in
    # [1/(N+1), 1] and cannot overflow
    top = cum.max(axis=0)
    # the mean runs over a pixel-major copy: numpy sums a contiguous last
    # axis pairwise, and another order would change the last bits
    mean_exp = np.moveaxis(np.exp(c * (cum - top)), 0, -1).copy().mean(axis=-1)
    with np.errstate(over="ignore"):  # a weight beyond float64 is inf: latent 0
        return np.moveaxis(mean_exp * np.exp(c * (top - cum[refs])), 0, -1)


def whole_grid_latent(blurry, weights, clamp):
    latent = blurry / weights
    return np.clip(latent, 0.0, 1.0) if clamp else latent


def whole_grid_edi_sequence(blurry, grid, c, clamp=True):
    """edi_sequence before row strips, kept verbatim as the oracle."""
    weights = whole_grid_boundary_weights(grid.data, c)
    return [whole_grid_latent(blurry, weights[..., r], clamp)
            for r in range(grid.n_channels + 1)]


def random_grid(rng, h=5, w=6, n=8):
    counts = rng.integers(-3, 4, (h, w, n)).astype(float)
    return VoxelGrid(counts, 0.0, 1.0)


def test_weight_zero_counts_is_one():
    assert edi_weight(np.zeros(10), 0.2, 0) == pytest.approx(1.0, abs=1e-15)


def test_weight_single_event_example():
    # one +1 event in channel 1 of 2, boundaries {0, 0.5, 1.0}
    expect = (1 + 1 + math.exp(0.2)) / 3
    assert edi_weight(np.array([0.0, 1.0]), 0.2, 0) == pytest.approx(expect, rel=1e-12)
    assert expect == pytest.approx(1.0738, abs=5e-5)


def test_weight_matches_oracle(rng):
    for _ in range(50):
        n = int(rng.integers(1, 10))
        counts = rng.integers(-3, 4, n).astype(float)
        c = rng.uniform(0.05, 0.5)
        r = int(rng.integers(0, n + 1))
        assert edi_weight(counts, c, r) == pytest.approx(
            weight_oracle(counts, c, r), rel=1e-12)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 12), c=st.floats(0.01, 1.0), scale=st.sampled_from([3, 30, 300]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_weights_match_unshifted_reference(n, c, scale, seed):
    counts = np.random.default_rng(seed).integers(-scale, scale + 1, (4, 5, n)).astype(float)
    got = _boundary_weights(counts, c)
    # a weight is a mean of N+1 terms, one of which is exp(0) = 1
    assert (got >= (1 - 1e-15) / (n + 1)).all()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the reference overflows
        want = unshifted_boundary_weights(counts, c)
    # compare where the reference's factors and their product stay normal:
    # each factor lies in [e^-350, e^350] when every |c * cum| < 350
    cum = np.concatenate([np.zeros((4, 5, 1)), np.cumsum(counts, axis=-1)], axis=-1)
    normal = (c * np.abs(cum) < 350).all(axis=-1)
    np.testing.assert_allclose(got[normal], want[normal], rtol=1e-12, atol=0)


def test_weight_of_large_counts_is_finite():
    # 400 net ON events in each of 10 channels: exp(0.2 * 4000) overflows,
    # which made the unshifted form inf * 0 = NaN; the true weight is 1/11
    assert edi_weight(np.full(10, 400.0), 0.2, 10) == pytest.approx(1 / 11, rel=1e-12)


def test_overflowing_weight_gives_zero_latent_without_warning():
    grid = VoxelGrid(np.full((1, 2, 10), 400.0), 0.0, 1.0)
    blurry = np.array([[0.5, 0.0]])
    for clamp in (True, False):
        # the suite turns RuntimeWarning into an error
        out = edi_reconstruct(blurry, grid, EdiConfig(c=0.2, ref=0), clamp=clamp)
        np.testing.assert_array_equal(out, [[0.0, 0.0]])
        assert edi_sequence(blurry, grid, 0.2, clamp=clamp)[0].tolist() == [[0.0, 0.0]]


def test_weight_decreases_with_reference_for_positive_counts():
    counts = np.ones(6)
    weights = [edi_weight(counts, 0.2, r) for r in range(7)]
    assert all(a > b for a, b in zip(weights, weights[1:]))
    # so the latent at a later reference is brighter
    latents = [0.8 / w for w in weights]
    assert all(a < b for a, b in zip(latents, latents[1:]))


def test_reconstruct_zero_grid_is_identity(rng):
    blurry = rng.uniform(0, 1, (5, 6))
    grid = VoxelGrid(np.zeros((5, 6, 8)), 0.0, 1.0)
    out = edi_reconstruct(blurry, grid, EdiConfig(c=0.2, ref=3), clamp=False)
    np.testing.assert_allclose(out, blurry, rtol=1e-15)


def test_reconstruct_single_pixel_hand_example():
    # latent 1.0 then e^0.2 (clamp-free scale), one +1 event in channel 1 of 2
    blurry = np.array([[(1 + math.exp(0.2)) / 2]])
    grid = VoxelGrid(np.array([[[0.0, 1.0]]]), 0.0, 1.0)
    out = edi_reconstruct(blurry, grid, EdiConfig(c=0.2, ref=0), clamp=False)
    expect = blurry[0, 0] / weight_oracle([0.0, 1.0], 0.2, 0)
    assert out[0, 0] == pytest.approx(expect, rel=1e-12)


def test_self_consistency_every_boundary(rng):
    blurry = rng.uniform(0.01, 1.0, (5, 6))
    grid = random_grid(rng)
    for r in range(grid.n_channels + 1):
        latent = edi_reconstruct(blurry, grid, EdiConfig(c=0.2, ref=r), clamp=False)
        weights = np.array([[edi_weight(grid.data[i, j], 0.2, r)
                             for j in range(6)] for i in range(5)])
        np.testing.assert_allclose(weights * latent, blurry, rtol=1e-9)


def test_positive_event_after_reference_darkens_latent(rng):
    blurry = np.full((1, 1), 0.5)
    base = np.zeros((1, 1, 4))
    more = base.copy()
    more[0, 0, 2] = 1.0
    cfg = EdiConfig(c=0.3, ref=0)
    lat_base = edi_reconstruct(blurry, VoxelGrid(base, 0, 1), cfg, clamp=False)
    lat_more = edi_reconstruct(blurry, VoxelGrid(more, 0, 1), cfg, clamp=False)
    assert lat_more[0, 0] < lat_base[0, 0]


def test_exposure_scale_invariance(rng):
    blurry = rng.uniform(0, 1, (3, 3))
    data = rng.integers(-2, 3, (3, 3, 5)).astype(float)
    a = edi_reconstruct(blurry, VoxelGrid(data, 0.0, 1.0), EdiConfig(0.2, 2))
    b = edi_reconstruct(blurry, VoxelGrid(data, 0.0, 10.0), EdiConfig(0.2, 2))
    np.testing.assert_array_equal(a, b)


def test_sequence_zero_grid_copies(rng):
    blurry = rng.uniform(0, 1, (4, 4))
    grid = VoxelGrid(np.zeros((4, 4, 6)), 0.0, 1.0)
    seq = edi_sequence(blurry, grid, 0.2)
    assert len(seq) == 7
    for img in seq:
        np.testing.assert_allclose(img, blurry, rtol=1e-12)


def test_sequence_mean_reproduces_blur(rng):
    blurry = rng.uniform(0.1, 1.0, (4, 5))
    grid = random_grid(rng, 4, 5, 6)
    seq = edi_sequence(blurry, grid, 0.25, clamp=False)
    assert len(seq) == 7
    # B = E_hat[r] * I[r] at every r and the weights average to E_hat[0]
    # exactly, so the uniform mean of the latent sequence is the blur
    np.testing.assert_allclose(np.mean(seq, axis=0), blurry, atol=1e-6)


@pytest.mark.parametrize("clamp", [True, False])
def test_sequence_is_reconstruct_at_every_ref(rng, clamp):
    blurry = rng.uniform(0, 1, (5, 6))
    grid = VoxelGrid(rng.integers(-8, 9, (5, 6, 7)).astype(float), 0.0, 1.0)
    seq = edi_sequence(blurry, grid, 0.3, clamp=clamp)
    want = [edi_reconstruct(blurry, grid, EdiConfig(c=0.3, ref=r), clamp=clamp)
            for r in range(grid.n_channels + 1)]
    assert len(seq) == len(want) == 8
    for got, ref_latent in zip(seq, want):
        assert got.dtype == ref_latent.dtype and got.shape == ref_latent.shape
        assert got.tobytes() == ref_latent.tobytes()


# a strip holds 2**20 bytes of (N+1) float64 weights per pixel: 2 to 16 rows
# at width 4000, 6 to 43 at 1500, 15 to 102 at 640 and the whole grid at
# width 1 or 7, so many grids span several strips and end in a ragged one
@settings(max_examples=60, deadline=None)
@given(h=st.integers(1, 40), w=st.sampled_from([1, 7, 640, 1500, 4000]),
       n=st.integers(1, 12), c=st.floats(0.01, 1.0), scale=st.sampled_from([3, 30, 300]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_strips_match_whole_grid_oracle(h, w, n, c, scale, seed):
    rng = np.random.default_rng(seed)
    blurry = rng.uniform(0, 1, (h, w))
    # 300 net events per channel overflow some weights: latent 0 in both
    grid = VoxelGrid(rng.integers(-scale, scale + 1, (h, w, n)).astype(float), 0.0, 1.0)
    for clamp in (True, False):
        want = whole_grid_edi_sequence(blurry, grid, c, clamp)
        got = edi_sequence(blurry, grid, c, clamp)
        assert len(got) == len(want) == n + 1
        ref = int(rng.integers(0, n + 1))
        one = edi_reconstruct(blurry, grid, EdiConfig(c=c, ref=ref), clamp=clamp)
        for a, b in zip(got + [one], want + [want[ref]]):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("shape", [(0, 5, 3), (4, 0, 3)], ids=["no-rows", "no-columns"])
def test_empty_grid_gives_empty_latents(shape):
    grid = VoxelGrid(np.zeros(shape), 0.0, 1.0)
    blurry = np.zeros(shape[:2])
    assert [x.shape for x in edi_sequence(blurry, grid, 0.2)] == [shape[:2]] * 4
    assert edi_reconstruct(blurry, grid, EdiConfig(c=0.2, ref=3)).shape == shape[:2]


def test_boundary_weights_match_whole_grid_oracle(rng):
    for shape in [(9,), (4, 1), (3, 5, 10), (2, 3, 4, 6)]:
        counts = rng.integers(-30, 31, shape).astype(float)
        counts[counts == 0] = -0.0
        want = whole_grid_boundary_weights(counts, 0.2)
        n = shape[-1]
        for refs in (None, [n], [n, 0, n // 2]):
            if refs is None:  # the default: every boundary
                got, refs = _boundary_weights(counts, 0.2), range(n + 1)
            else:
                got = _boundary_weights(counts, 0.2, refs)
            assert got.shape == want.shape[:-1] + (len(refs),)
            for i, r in enumerate(refs):
                assert got[..., i].tobytes() == want[..., r].tobytes()


# numpy's pairwise sum takes each of its three branches here: n < 8 one by
# one, 8..128 in eight running sums, and above 128 split in two, once or more
@pytest.mark.parametrize("n", [*range(1, 40), 63, 64, 65, 127, 128, 129, 130, 200, 255, 256, 257, 300, 513])
def test_plane_sum_is_the_pixel_major_mean(n):
    rng = np.random.default_rng(n)
    planes = rng.standard_normal((n, 4, 7)) * 10.0 ** rng.integers(-3, 4, (n, 4, 7))
    want = np.moveaxis(planes, 0, -1).copy().mean(axis=-1)
    got = planes.copy()
    _plane_sum(got)
    assert (got[0] / n).tobytes() == want.tobytes()


@pytest.mark.parametrize("ne", [1, 6, 7, 8, 127, 128, 200])
def test_boundary_weights_match_pixel_major_oracle(ne):
    rng = np.random.default_rng(ne)
    counts = rng.integers(-4, 5, (5, 6, ne)).astype(float)
    counts[counts == 0] = -0.0
    for c in (0.2, 3.0):  # 3.0 overflows some weights: inf in both
        for refs in (slice(None), [ne], [ne, 0, ne // 2]):
            got = _boundary_weights(counts, c, refs)
            want = pixel_major_boundary_weights(counts, c, refs)
            assert got.shape == want.shape
            assert got.tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("clamp", [True, False])
@pytest.mark.parametrize("ne", [1, 6, 7, 8, 127, 128, 200])
def test_many_channels_match_whole_grid_oracle(ne, clamp):
    rng = np.random.default_rng(ne)
    blurry = rng.uniform(0, 1, (7, 9))
    grid = VoxelGrid(rng.integers(-3, 4, (7, 9, ne)).astype(float), 0.0, 1.0)
    want = whole_grid_edi_sequence(blurry, grid, 0.2, clamp)
    got = edi_sequence(blurry, grid, 0.2, clamp)
    assert [a.tobytes() for a in got] == [b.tobytes() for b in want]
    for ref in (0, ne // 2, ne):
        one = edi_reconstruct(blurry, grid, EdiConfig(c=0.2, ref=ref), clamp=clamp)
        assert one.tobytes() == want[ref].tobytes()


def test_sequence_at_640x480_allocates_little_beyond_its_latents():
    # a full-size temporary (2.3 MiB per plane) beyond the strips fails this
    rng = np.random.default_rng(0)
    blurry = rng.uniform(0, 1, (480, 640))
    grid = VoxelGrid(rng.integers(-2, 3, (480, 640, 10)).astype(float), 0.0, 1.0)
    latents_mib = 11 * blurry.nbytes / 2 ** 20
    assert traced_peak_mib(edi_sequence, blurry, grid, 0.2) <= latents_mib + 5


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf, 0.0, -0.2])
def test_threshold_must_be_finite_and_positive(rng, c):
    grid = random_grid(rng)
    with pytest.raises(ValueError, match="threshold c must be > 0 and finite"):
        EdiConfig(c=c)
    with pytest.raises(ValueError, match="threshold c must be > 0 and finite"):
        edi_sequence(np.zeros((5, 6)), grid, c)
    with pytest.raises(ValueError, match="threshold c must be > 0 and finite"):
        edi_weight(np.zeros(4), c, 0)


def test_sequence_errors(rng):
    grid = random_grid(rng)
    for c in (0.0, -0.2):
        with pytest.raises(ValueError, match="threshold c must be > 0"):
            edi_sequence(np.zeros((5, 6)), grid, c)
    with pytest.raises(ValueError, match="does not match grid"):
        edi_sequence(np.zeros((6, 5)), grid, 0.2)
    # the threshold is checked first, as before
    with pytest.raises(ValueError, match="threshold"):
        edi_sequence(np.zeros((6, 5)), grid, 0.0)


def test_reconstruct_output_clamped(rng):
    blurry = rng.uniform(0.5, 1.0, (3, 3))
    grid = VoxelGrid(-2 * np.ones((3, 3, 4)), 0.0, 1.0)
    out = edi_reconstruct(blurry, grid, EdiConfig(c=0.5, ref=0))
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_geometry_and_config_errors(rng):
    grid = random_grid(rng)
    with pytest.raises(ValueError):
        edi_reconstruct(np.zeros((2, 2)), grid, EdiConfig(0.2, 0))
    with pytest.raises(ValueError):
        edi_reconstruct(np.zeros((5, 6)), grid, EdiConfig(0.2, grid.n_channels + 1))
    with pytest.raises(ValueError):
        EdiConfig(c=0.0)


def test_roundtrip_reconstruction_quality():
    frames = moving_edge_sequence()
    c = 0.2
    sensor = SensorModel.uniform(c, frames.width, frames.height)
    events = simulate_events(frames, sensor)
    blurry = synthesize_blur(frames, 0, len(frames))
    grid = voxelize(events, 0.0, 1.0, len(frames) - 1)
    mid = grid.n_channels // 2
    latent = edi_reconstruct(blurry, grid, EdiConfig(c=c, ref=mid))
    # oracle-fixed threshold: this deterministic fixture reconstructs at
    # 39.1 dB; assert well above the 30 dB floor
    assert psnr(latent, frames.frames[mid]) >= 30.0
