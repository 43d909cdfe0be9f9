"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Everything is seeded and deterministic; the roundtrip thresholds were
frozen from oracle runs of the same fixtures.
"""

import math

import numpy as np
import pytest

from evtkit import (
    EdiConfig,
    EventStream,
    FrameSequence,
    NoiseParams,
    SensorModel,
    bias_thresholds,
    canonical_sort,
    edi_reconstruct,
    event_l1_response,
    inject_noise,
    limit_bandwidth,
    psnr,
    simulate_events,
    ssim,
    voxelize,
    VoxelGrid,
)
from evtkit.cli import run
from evtkit.fileio import read_events, write_events, write_image

from conftest import event_keys, moving_edge_sequence, random_stream


def report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def log_ramp_frames(amplitude):
    intensities = np.exp(np.array([-amplitude, 0.0]))
    return FrameSequence(intensities.reshape(2, 1, 1), np.array([0.0, 1.0]))


def test_criterion_1_threshold_crossing_closed_form():
    rng = np.random.default_rng(101)
    for _ in range(50):
        amplitude = rng.uniform(0.3, 3.0)
        c = rng.uniform(0.05, 0.5)
        if abs(amplitude / c - round(amplitude / c)) < 1e-6:
            c *= 1.001  # stay clear of the exact-multiple boundary
        stream = simulate_events(log_ramp_frames(amplitude), SensorModel.uniform(c, 1, 1))
        k = math.floor(amplitude / c)
        assert len(stream) == k
        np.testing.assert_allclose(
            stream.t, [i * c / amplitude for i in range(1, k + 1)], atol=1e-9)
        assert np.all(stream.p == 1)
    report(1, "ramp event counts and crossing times match closed form (50 pairs)")


def test_criterion_2_threshold_ordering():
    # Event counting is hysteretic across direction reversals, so the
    # per-polarity ordering is evaluated segment by segment: each monotone
    # run of the piecewise signal starts from a fresh reference, as in the
    # classic two-threshold waveform comparison.
    rng = np.random.default_rng(202)
    for _ in range(100):
        n_segments = int(rng.integers(2, 7))
        deltas = rng.uniform(0.1, 1.2, n_segments) * rng.choice([-1, 1], n_segments)
        c1, c2 = sorted(rng.uniform(0.05, 0.5, 2))
        counts = {c1: {-1: 0, 1: 0}, c2: {-1: 0, 1: 0}}
        for delta in deltas:
            logs = np.array([0.0, delta]) - max(delta, 0.0)
            frames = FrameSequence(np.exp(logs).reshape(2, 1, 1), np.array([0.0, 1.0]))
            for c in (c1, c2):
                s = simulate_events(frames, SensorModel.uniform(c, 1, 1))
                for pol in (-1, 1):
                    counts[c][pol] += int(np.count_nonzero(s.p == pol))
        for pol in (-1, 1):
            assert counts[c1][pol] >= counts[c2][pol]
    report(2, "smaller threshold never yields fewer events per polarity "
              "(100 piecewise signals, per monotone segment)")


def test_criterion_3_bandwidth_contract():
    rng = np.random.default_rng(303)
    for i in range(1000):
        s = random_stream(rng, width=4, height=3, n=int(rng.integers(0, 40)))
        if i % 3 == 0:
            out = limit_bandwidth(s, 0.0)
            assert out is s
            continue
        t_s = float(rng.uniform(0.01, 0.6))
        out = limit_bandwidth(s, t_s)
        assert event_keys(out) <= event_keys(s)
        keys = list(zip(out.x.tolist(), out.y.tolist(),
                        np.floor((out.t - s.t_start) / t_s).astype(int).tolist()))
        assert len(keys) == len(set(keys))
    report(3, "bandwidth keeps <= 1 unmodified event per pixel period (1000 streams)")


def test_criterion_4_noise_statistics():
    window = EventStream.empty(10, 10, 0.0, 10.0)
    checks = {
        "shot": (NoiseParams(shot_rate=4.0), 4.0 * 0.5 * 100 * 10.0),
        "leak": (NoiseParams(leak_rate=3.0), 3.0 * 100 * 10.0),
        "hot": (NoiseParams(hot_pixel_fraction=0.05, hot_pixel_rate=40.0),
                5 * 40.0 * 10.0),
    }
    for name, (params, mean) in checks.items():
        for seed in range(20):
            out = inject_noise(window, NoiseParams(**{**params.__dict__, "seed": seed}))
            assert abs(len(out) - mean) < 3 * math.sqrt(mean), (name, seed)
            if name == "leak":
                assert np.all(out.p == 1)
    report(4, "per-source Poisson counts within 3 sigma for 20 seeds; leak is ON-only")


def test_criterion_5_voxel_conservation():
    rng = np.random.default_rng(505)
    for _ in range(100):
        k = int(rng.integers(1, 9))
        s = random_stream(rng, width=6, height=5, n=int(rng.integers(0, 120)))
        fine = voxelize(s, 0.0, 1.0, 2 * k)
        coarse = voxelize(s, 0.0, 1.0, k)
        signed = np.zeros((5, 6))
        np.add.at(signed, (s.y, s.x), s.p.astype(float))
        np.testing.assert_array_equal(coarse.data.sum(axis=2), signed)
        np.testing.assert_array_equal(
            fine.data.reshape(5, 6, k, 2).sum(axis=3), coarse.data)
    report(5, "signed channel sums exact; paired 2k-channel grids equal k-channel grids")


def test_criterion_6_edi_self_consistency():
    rng = np.random.default_rng(606)
    for _ in range(20):
        grid = VoxelGrid(rng.integers(-3, 4, (5, 6, 8)).astype(float), 0.0, 1.0)
        blurry = rng.uniform(0.01, 1.0, (5, 6))
        cum = np.concatenate([np.zeros((5, 6, 1)), np.cumsum(grid.data, axis=2)], axis=2)
        for r in range(9):
            latent = edi_reconstruct(blurry, grid, EdiConfig(c=0.2, ref=r), clamp=False)
            weights = np.exp(0.2 * (cum - cum[..., r:r + 1])).mean(axis=2)
            np.testing.assert_allclose(weights * latent, blurry, rtol=1e-9)
    zero = VoxelGrid(np.zeros((4, 4, 6)), 0.0, 1.0)
    img = rng.uniform(0, 1, (4, 4))
    np.testing.assert_allclose(
        edi_reconstruct(img, zero, EdiConfig(c=0.2, ref=3), clamp=False), img, rtol=1e-12)
    report(6, "E_hat[r] * I[r] == B to 1e-9 at every boundary; zero events is identity")


ROUNDTRIP_C = 0.2
ROUNDTRIP_NE = 12
ROUNDTRIP_REF = 6


def roundtrip_fixture():
    frames = moving_edge_sequence()
    sensor = SensorModel.uniform(ROUNDTRIP_C, frames.width, frames.height)
    blurry = frames.frames.mean(axis=0)
    gt = frames.frames[ROUNDTRIP_REF]
    return frames, sensor, blurry, gt


def roundtrip_psnr(stream, blurry, gt):
    grid = voxelize(stream, 0.0, 1.0, ROUNDTRIP_NE)
    latent = edi_reconstruct(blurry, grid, EdiConfig(c=ROUNDTRIP_C, ref=ROUNDTRIP_REF))
    return psnr(latent, gt)


def degraded_stream(frames, sensor, seed):
    biased = bias_thresholds(sensor, 0.05 * ROUNDTRIP_C, seed)
    bandlimited = limit_bandwidth(simulate_events(frames, biased), 0.15)
    noise = NoiseParams(shot_rate=1.0, leak_rate=0.2, seed=seed)
    noisy = inject_noise(bandlimited, noise, frames.frames.mean(axis=0))
    return bandlimited, noisy


def test_criterion_7_roundtrip_psnr():
    frames, sensor, blurry, gt = roundtrip_fixture()
    ideal = simulate_events(frames, sensor)
    value = roundtrip_psnr(ideal, blurry, gt)
    # oracle run of this deterministic fixture: 39.1 dB
    assert value >= 30.0
    report(7, f"ideal roundtrip PSNR {value:.2f} dB >= 30 dB")


def test_criterion_8_degradation_hurts():
    frames, sensor, blurry, gt = roundtrip_fixture()
    ideal = simulate_events(frames, sensor)
    psnr_ideal = roundtrip_psnr(ideal, blurry, gt)
    for seed in range(10):
        biased = simulate_events(frames, bias_thresholds(sensor, 0.05 * ROUNDTRIP_C, seed))
        bandlimited, noisy = degraded_stream(frames, sensor, seed)
        assert 1 - len(bandlimited) / len(biased) >= 0.30  # bandwidth drops >= 30%
        assert roundtrip_psnr(noisy, blurry, gt) < psnr_ideal
    report(8, "degraded-event reconstruction strictly below ideal PSNR for 10 seeds")


def test_criterion_9_denoising_recovers():
    frames, sensor, blurry, gt = roundtrip_fixture()
    from evtkit import scf_filter
    for seed in range(10):
        signal, degraded = degraded_stream(frames, sensor, seed)
        noise_keys = event_keys(degraded) - event_keys(signal)
        denoised = scf_filter(degraded, radius=1, window=0.012, min_support=2)
        kept = event_keys(denoised)
        assert 1 - len(kept & noise_keys) / len(noise_keys) >= 0.90
        assert len(kept & event_keys(signal)) / len(signal) >= 0.95
        assert roundtrip_psnr(denoised, blurry, gt) > roundtrip_psnr(degraded, blurry, gt)
    report(9, "scf removes >= 90% noise, keeps >= 95% signal, improves PSNR (10 seeds)")


def test_criterion_10_metric_fixtures():
    a = np.full((16, 16), 0.5)
    b = np.full((16, 16), 0.6)
    assert psnr(a, b) == pytest.approx(20.0, abs=1e-9)
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    closed = ((2 * 0.5 * 0.6 + c1) * c2) / ((0.25 + 0.36 + c1) * c2)
    assert ssim(a, b) == pytest.approx(closed, abs=1e-6)
    # masking fixtures
    z = np.zeros((2, 2, 2))
    restored = z.copy()
    restored[0, 0, 0] = 2.0
    ref = z.copy()
    ref[0, 0, 0] = 1.0

    def grid(d):
        return VoxelGrid(d, 0.0, 1.0)

    assert event_l1_response(grid(restored), grid(ref), grid(ref),
                             alpha=0.5) == pytest.approx(0.5)
    off_mask = z.copy()
    off_mask[1, 1, 1] = 9.0  # zero in both reference and degraded: excluded
    assert event_l1_response(grid(off_mask), grid(z), grid(z)) == 0.0
    assert event_l1_response(grid(z), grid(z), grid(z)) == 0.0
    report(10, "PSNR/SSIM closed forms and response-mask fixtures exact")


def test_criterion_11_determinism_and_formats(tmp_path):
    # pipeline byte-identity across two runs (single-threaded by design, so
    # thread count cannot influence output)
    frames = moving_edge_sequence(width=16, height=16, n_frames=5)
    frames_dir = tmp_path / "frames"
    frames_dir.mkdir()
    for i, frame in enumerate(frames.frames):
        write_image(frame, frames_dir / f"{i:04d}.pgm")
    outs = []
    for tag in ("a", "b"):
        out_dir = tmp_path / tag
        cfg = tmp_path / f"{tag}.cfg"
        cfg.write_text(
            f"frames_dir = {frames_dir}\nout_dir = {out_dir}\nfps = 12\n"
            "c_nominal = 0.2\nne = 4\nref = 2\nsigma = 0.01\nt_s_us = 100000\n"
            "shot_rate = 5\nleak_rate = 1\nhot_fraction = 0.01\nhot_rate = 50\n"
            "seed = 99\nscf_min_support = 2\n")
        assert run(["pipeline", "--config", str(cfg)]) == 0
        outs.append(out_dir)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    # binary and CSV roundtrips, byte-exact on a million events
    rng = np.random.default_rng(1111)
    n = 1_000_000
    big = canonical_sort(EventStream(
        rng.uniform(0, 10, n), rng.integers(0, 640, n),
        rng.integers(0, 480, n), rng.choice([-1, 1], n), 640, 480, 0.0, 10.0))
    for suffix in (".evs", ".csv"):
        p1 = tmp_path / f"big1{suffix}"
        p2 = tmp_path / f"big2{suffix}"
        write_events(big, p1)
        write_events(read_events(p1, width=640, height=480), p2)
        assert p1.read_bytes() == p2.read_bytes()
    report(11, "pipeline outputs byte-identical across runs; 1e6-event roundtrips exact")
