import math

import numpy as np
import pytest

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

from conftest import moving_edge_sequence


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
