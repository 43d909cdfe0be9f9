import tempfile
from hashlib import sha256
from pathlib import Path

import numpy as np
import pytest

from evtkit import EventStream, canonical_sort, hot_pixel_filter, scf_filter, simulate_events, SensorModel
from evtkit import bias_thresholds, inject_noise, limit_bandwidth
from evtkit import EdiConfig, deblur_l1, edi_reconstruct, event_l1_response, make_pair, psnr, ssim
from evtkit import synthesize_blur, voxelize
from evtkit.cli import (EXIT_OK, _DEGRADE_KEYS, _PIPELINE_KEYS, InputError, _cfg, _degradation_config,
                        _load_frames, _read_config, build_parser, run)
from evtkit.denoise import check_scf_settings
from evtkit.fileio import load_frames, read_events, read_image, write_events, write_image, write_voxel
from evtkit import VoxelGrid
from evtkit import edi_sequence, stream_stats
from evtkit.fileio import read_voxel

from conftest import moving_edge_sequence, random_stream


def write_frame_dir(path, frames):
    path.mkdir()
    for i, frame in enumerate(frames):
        write_image(frame, path / f"{i:04d}.pgm")
    return path


@pytest.fixture
def ramp_dir(tmp_path):
    # single-pixel-wide ramp replicated over 4x4: log ramps -0.35 -> 0
    vals = np.exp(np.linspace(-0.35, 0.0, 2))
    return write_frame_dir(tmp_path / "ramp", [np.full((4, 4), v) for v in vals])


@pytest.fixture
def constant_dir(tmp_path):
    return write_frame_dir(tmp_path / "const", [np.full((4, 4), 0.5)] * 3)


class TestSimulate:
    def test_constant_frames_empty_output(self, constant_dir, tmp_path, capsys):
        out = tmp_path / "e.evs"
        code = run(["simulate", "--frames", str(constant_dir), "--fps", "10",
                    "--threshold", "0.1", "--out", str(out)])
        assert code == 0
        assert "count=0" in capsys.readouterr().out
        assert len(read_events(out)) == 0

    def test_ramp_matches_closed_form(self, ramp_dir, tmp_path, capsys):
        out = tmp_path / "e.evs"
        code = run(["simulate", "--frames", str(ramp_dir), "--fps", "1",
                    "--threshold", "0.1", "--out", str(out)])
        assert code == 0
        # 3 crossings per pixel, 16 pixels
        assert "count=48" in capsys.readouterr().out

    def test_missing_dir_exits_2(self, tmp_path):
        assert run(["simulate", "--frames", str(tmp_path / "nope"),
                    "--fps", "10", "--out", str(tmp_path / "e.evs")]) == 2

    @pytest.mark.parametrize("threshold", ["nan", "inf", "0"])
    def test_bad_threshold_exits_2(self, ramp_dir, tmp_path, capsys, threshold):
        # a NaN threshold crosses nothing, so it would write 0 events and exit 0
        out = tmp_path / "e.evs"
        assert run(["simulate", "--frames", str(ramp_dir), "--fps", "1",
                    "--threshold", threshold, "--out", str(out)]) == 2
        assert "c_nominal" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_fps_exits_2(self, ramp_dir, tmp_path):
        # a NaN fps gives NaN times, which cast to INT64_MIN microseconds
        out = tmp_path / "e.evs"
        assert run(["simulate", "--frames", str(ramp_dir), "--fps", "nan",
                    "--threshold", "0.1", "--out", str(out)]) == 2
        assert not out.exists()


class TestDegrade:
    def test_zero_config_identity(self, rng, tmp_path):
        s = canonical_sort(random_stream(rng, n=100))
        src = tmp_path / "in.evs"
        write_events(read_events_roundtrip(s, tmp_path), src)
        cfg = tmp_path / "deg.cfg"
        cfg.write_text("sigma = 0\nt_s_us = 0\nshot_rate = 0\n"
                       "leak_rate = 0\nhot_fraction = 0\nhot_rate = 0\nseed = 1\n")
        out = tmp_path / "out.evs"
        assert run(["degrade", "--events", str(src), "--config", str(cfg),
                    "--out", str(out)]) == 0
        assert src.read_bytes() == out.read_bytes()

    def test_seeded_runs_identical(self, rng, tmp_path):
        s = canonical_sort(random_stream(rng, n=50))
        src = tmp_path / "in.evs"
        write_events(s, src)
        cfg = tmp_path / "deg.cfg"
        cfg.write_text("sigma = 0\nt_s_us = 1000\nshot_rate = 20\n"
                       "leak_rate = 5\nhot_fraction = 0.05\nhot_rate = 100\nseed = 7\n")
        out1, out2 = tmp_path / "o1.evs", tmp_path / "o2.evs"
        assert run(["degrade", "--events", str(src), "--config", str(cfg),
                    "--out", str(out1)]) == 0
        assert run(["degrade", "--events", str(src), "--config", str(cfg),
                    "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_sigma_without_frames_exits_2(self, rng, tmp_path):
        src = tmp_path / "in.evs"
        write_events(canonical_sort(random_stream(rng, n=5)), src)
        cfg = tmp_path / "deg.cfg"
        cfg.write_text("sigma = 0.01\nseed = 3\n")
        assert run(["degrade", "--events", str(src), "--config", str(cfg),
                    "--out", str(tmp_path / "o.evs")]) == 2

    def test_malformed_config_exits_2(self, rng, tmp_path):
        src = tmp_path / "in.evs"
        write_events(canonical_sort(random_stream(rng, n=5)), src)
        cfg = tmp_path / "deg.cfg"
        cfg.write_text("sigma\n")
        assert run(["degrade", "--events", str(src), "--config", str(cfg),
                    "--out", str(tmp_path / "o.evs")]) == 2

    def test_unknown_key_exits_2(self, rng, tmp_path, capsys):
        src = tmp_path / "in.evs"
        write_events(canonical_sort(random_stream(rng, n=5)), src)
        cfg = tmp_path / "deg.cfg"
        cfg.write_text("shot_rte = 500\nseed = 3\n")
        out = tmp_path / "o.evs"
        assert run(["degrade", "--events", str(src), "--config", str(cfg),
                    "--out", str(out)]) == 2
        assert "shot_rte" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_sigma_exits_2(self, rng, tmp_path):
        src = tmp_path / "in.evs"
        write_events(canonical_sort(random_stream(rng, n=5)), src)
        cfg = tmp_path / "deg.cfg"
        cfg.write_text("sigma = -0.5\n")
        out = tmp_path / "o.evs"
        assert run(["degrade", "--events", str(src), "--config", str(cfg),
                    "--out", str(out)]) == 2
        assert not out.exists()

    def test_tiny_sampling_period_exits_2(self, rng, tmp_path, capsys):
        # 1e-20 us periods: far more in the stream window than int64 counts
        src = tmp_path / "in.evs"
        write_events(canonical_sort(random_stream(rng, n=5)), src)
        cfg = tmp_path / "deg.cfg"
        cfg.write_text("t_s_us = 1e-20\n")
        out = tmp_path / "o.evs"
        assert run(["degrade", "--events", str(src), "--config", str(cfg),
                    "--out", str(out)]) == 2
        assert "sampling_period" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_key_exits_2(self, rng, tmp_path, capsys):
        src = tmp_path / "in.evs"
        write_events(canonical_sort(random_stream(rng, n=5)), src)
        cfg = tmp_path / "deg.cfg"
        cfg.write_text("shot_rate = 50\n# noise off?\nseed = 3\nshot_rate = 0\n")
        out = tmp_path / "o.evs"
        assert run(["degrade", "--events", str(src), "--config", str(cfg),
                    "--out", str(out)]) == 2
        assert ":4: repeated config key shot_rate (first set on line 1)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rate", ["shot_rate = nan", "leak_rate = inf"])
    def test_non_finite_noise_rate_exits_2(self, rng, tmp_path, capsys, rate):
        # a NaN shot rate was read as 0 and the input was written back unchanged
        src = tmp_path / "in.evs"
        write_events(canonical_sort(random_stream(rng, n=50)), src)
        cfg = tmp_path / "deg.cfg"
        cfg.write_text(f"{rate}\nseed = 3\n")
        out = tmp_path / "o.evs"
        assert run(["degrade", "--events", str(src), "--config", str(cfg),
                    "--out", str(out)]) == 2
        assert "noise rates" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sigma", [0, 0.03])
    def test_frames_of_other_geometry_exit_2(self, tmp_path, capsys, sigma):
        # at sigma > 0 the biased re-simulation would write a 32x24 stream for 4x4 events
        src = tmp_path / "in.evs"
        write_events(canonical_sort(random_stream(np.random.default_rng(1), width=4, height=4, n=20)), src)
        frames_dir = write_frame_dir(tmp_path / "edge", moving_edge_sequence(32, 24, 5).frames)
        cfg = tmp_path / "deg.cfg"
        cfg.write_text(f"sigma = {sigma}\nfps = 12\n")
        out = tmp_path / "o.evs"
        assert run(["degrade", "--events", str(src), "--frames", str(frames_dir),
                    "--config", str(cfg), "--out", str(out)]) == 2
        assert "do not match" in capsys.readouterr().err
        assert not out.exists()


def old_load_frames_args(args, cfg: dict | None = None):
    """``cli._load_frames_args`` as it was before frame timing had one helper."""
    fps = getattr(args, "fps", None)
    ts = getattr(args, "timestamps", None)
    if fps is None and ts is None and cfg is not None:
        fps = _cfg(cfg, "fps", 0.0) or None
    if fps is None and ts is None:
        raise InputError("give --fps or --timestamps")
    return load_frames(args.frames, timestamps_path=ts, fps=fps)


def _fmt(v: float) -> str:
    """``cli._fmt`` as it was before each report value was formatted where it
    is made."""
    if np.isinf(v):
        return "inf"
    return f"{v:.6f}"


def _print_stats(stream: EventStream) -> None:
    st = stream_stats(stream)
    print(f"count={st.count}")
    print(f"on_count={st.on_count}")
    print(f"off_count={st.off_count}")
    print(f"duration={_fmt(st.duration)}")


def old_cmd_degrade(args) -> int:
    """``cli.cmd_degrade`` with its own copy of the recipe, as it was before
    ``degrade.degrade_stream``; the oracle of the ``degrade`` command."""
    cfg = _read_config(args.config, _DEGRADE_KEYS)
    deg = _degradation_config(cfg)
    stream = read_events(args.events)
    if deg.sigma > 0 and args.frames is None:
        raise InputError("sigma > 0 requires --frames for re-simulation")
    hint = None
    if args.frames is not None:
        frames = old_load_frames_args(args, cfg)
        hint = frames.frames.mean(axis=0)
        if deg.sigma > 0:
            sensor = SensorModel.uniform(_cfg(cfg, "c_nominal", 0.2), frames.width, frames.height)
            stream = simulate_events(frames, bias_thresholds(sensor, deg.sigma, deg.noise.seed))
    degraded = inject_noise(limit_bandwidth(stream, deg.sampling_period), deg.noise, hint)
    write_events(degraded, args.out)
    _print_stats(degraded)
    return EXIT_OK


NOISE = {"shot_rate": 20, "leak_rate": 5, "hot_fraction": 0.05, "hot_rate": 100}


def degrade_argv(tmp_path, recipe, with_frames, suffix=".evs"):
    """The input events, and ``degrade`` argv up to ``--out``."""
    rng = np.random.default_rng(2024)
    src = tmp_path / f"in{suffix}"  # unsorted: events in the order they were drawn
    write_events(random_stream(rng, width=32, height=24, n=3000, t1=8 / 12), src)
    frames_dir = write_frame_dir(tmp_path / "edge", moving_edge_sequence(32, 24, 9).frames)
    cfg = tmp_path / "deg.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in
                           {"c_nominal": 0.2, "fps": 12, "seed": 7, **recipe}.items()))
    argv = ["degrade", "--events", str(src), "--config", str(cfg)]
    return src, argv + (["--frames", str(frames_dir)] if with_frames else [])


class TestDegradeMatchesOldRecipe:
    @pytest.mark.parametrize("recipe, with_frames", [
        ({"t_s_us": 0}, False),
        ({"t_s_us": 0, **NOISE}, False),
        ({"t_s_us": 20000}, False),
        ({"t_s_us": 20000, **NOISE}, False),
        ({"sigma": 0.03, "t_s_us": 20000, **NOISE}, True),
        ({"t_s_us": 20000, **NOISE}, True),
    ], ids=["plain", "noise", "bandwidth", "bandwidth-noise", "sigma-frames", "hint-frames"])
    def test_bytes_and_stdout_equal_old_recipe(self, tmp_path, capsys, recipe, with_frames):
        src, argv = degrade_argv(tmp_path, recipe, with_frames)
        new, old = tmp_path / "new.evs", tmp_path / "old.evs"
        assert run(argv + ["--out", str(new)]) == 0
        new_stdout = capsys.readouterr().out
        assert old_cmd_degrade(build_parser().parse_args(argv + ["--out", str(old)])) == 0
        assert capsys.readouterr().out == new_stdout
        assert new.read_bytes() == old.read_bytes()
        assert new.read_bytes() != src.read_bytes()

    def test_sigma_with_frames_reads_only_the_header(self, tmp_path, capsys, monkeypatch):
        src, argv = degrade_argv(tmp_path, {"sigma": 0.03, "t_s_us": 20000, **NOISE}, True)
        new, old = tmp_path / "new.evs", tmp_path / "old.evs"
        assert old_cmd_degrade(build_parser().parse_args(argv + ["--out", str(old)])) == 0
        old_stdout = capsys.readouterr().out
        monkeypatch.setattr("evtkit.cli.read_events", lambda *a, **k: pytest.fail("events read"))
        assert run(argv + ["--out", str(new)]) == 0
        assert capsys.readouterr().out == old_stdout
        assert new.read_bytes() == old.read_bytes()
        src.write_bytes(src.read_bytes()[:-1])
        assert run(argv + ["--out", str(tmp_path / "cut.evs")]) == 2
        assert "payload size does not match header count" in capsys.readouterr().err
        assert not (tmp_path / "cut.evs").exists()

    def test_sigma_with_frames_still_reads_csv(self, tmp_path, capsys, monkeypatch):
        _, argv = degrade_argv(tmp_path, {"sigma": 0.03}, True, suffix=".csv")
        read = []
        monkeypatch.setattr("evtkit.cli.read_events", lambda *a: read.append(a) or read_events(*a))
        new, old = tmp_path / "new.evs", tmp_path / "old.evs"
        assert run(argv + ["--out", str(new)]) == 0
        assert len(read) == 1
        assert old_cmd_degrade(build_parser().parse_args(argv + ["--out", str(old)])) == 0
        assert new.read_bytes() == old.read_bytes()


class TestDegradeEventGeometry:
    """With ``--frames``, events take the frames' geometry: a ``.evs`` header
    must give it, and CSV events, which store none, take it."""

    @pytest.mark.parametrize("recipe", [{"t_s_us": 1000, **NOISE}, {"sigma": 0.03, **NOISE}],
                             ids=["bandwidth-noise", "sigma-noise"])
    def test_sparse_csv_gives_the_bytes_of_evs(self, tmp_path, capsys, recipe):
        # a CSV file's geometry was guessed from its largest coordinate (4x7 here)
        frames_dir = write_frame_dir(tmp_path / "edge", moving_edge_sequence(32, 24, 9).frames)
        stream = EventStream([0.1, 0.2, 0.3], [1, 2, 3], [4, 5, 6], [1, -1, 1], 32, 24, 0.1, 0.3)
        for suffix in (".evs", ".csv"):
            write_events(stream, tmp_path / f"in{suffix}")
        cfg = tmp_path / "deg.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in {"fps": 12, "seed": 7, **recipe}.items()))
        outputs = []
        for suffix in (".evs", ".csv"):
            out = tmp_path / f"out_from{suffix}.evs"
            assert run(["degrade", "--events", str(tmp_path / f"in{suffix}"), "--config", str(cfg),
                        "--frames", str(frames_dir), "--out", str(out)]) == 0, capsys.readouterr().err
            outputs.append((out.read_bytes(), capsys.readouterr().out))
        assert outputs[0] == outputs[1]
        assert read_events(tmp_path / "out_from.csv.evs").width == 32

    @pytest.mark.parametrize("sigma", [0, 0.03])
    def test_csv_event_outside_the_frames_exits_2(self, tmp_path, capsys, sigma):
        frames_dir = write_frame_dir(tmp_path / "edge", moving_edge_sequence(32, 24, 9).frames)
        src = tmp_path / "in.csv"
        src.write_text("100000,1,4,1\n200000,32,5,-1\n")
        cfg = tmp_path / "deg.cfg"
        cfg.write_text(f"sigma = {sigma}\nfps = 12\n")
        out = tmp_path / "o.evs"
        assert run(["degrade", "--events", str(src), "--config", str(cfg),
                    "--frames", str(frames_dir), "--out", str(out)]) == 2
        assert "outside geometry" in capsys.readouterr().err
        assert not out.exists()

    def test_evs_header_of_other_geometry_exits_2_before_events_are_read(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("evtkit.cli.read_events", lambda *a, **k: pytest.fail("events read"))
        frames_dir = write_frame_dir(tmp_path / "edge", moving_edge_sequence(32, 24, 9).frames)
        write_events(EventStream.empty(4, 7), tmp_path / "in.evs")
        cfg = tmp_path / "deg.cfg"
        cfg.write_text("fps = 12\n")
        assert run(["degrade", "--events", str(tmp_path / "in.evs"), "--config", str(cfg),
                    "--frames", str(frames_dir), "--out", str(tmp_path / "o.evs")]) == 2
        assert "events 4x7 do not match frames 32x24" in capsys.readouterr().err


class TestDeblur:
    def test_zero_events_identity_at_8bit(self, rng, tmp_path):
        img = rng.uniform(0, 1, (8, 8))
        blurry = tmp_path / "b.pgm"
        write_image(img, blurry)
        events = tmp_path / "e.evs"
        write_events(EventStream.empty(8, 8), events)
        out = tmp_path / "latent.pgm"
        assert run(["deblur", "--blurry", str(blurry), "--events", str(events),
                    "--ne", "4", "--c", "0.2", "--ref", "2", "--out", str(out)]) == 0
        assert out.read_bytes() == blurry.read_bytes()

    def test_sequence_writes_all_boundaries(self, rng, tmp_path):
        img = rng.uniform(0, 1, (8, 8))
        blurry = tmp_path / "b.pgm"
        write_image(img, blurry)
        events = tmp_path / "e.evs"
        write_events(canonical_sort(random_stream(rng, width=8, height=8, n=30)), events)
        out = tmp_path / "latent.pgm"
        assert run(["deblur", "--blurry", str(blurry), "--events", str(events),
                    "--ne", "10", "--sequence", "--out", str(out)]) == 0
        assert len(list(tmp_path.glob("latent_*.pgm"))) == 11

    @pytest.mark.parametrize("c", ["nan", "inf", "-inf", "0"])
    @pytest.mark.parametrize("sequence", [False, True])
    def test_bad_threshold_exits_2_and_writes_no_image(self, rng, tmp_path, capsys, c, sequence):
        blurry = tmp_path / "b.pgm"
        write_image(rng.uniform(0, 1, (8, 8)), blurry)
        events = tmp_path / "e.evs"
        write_events(canonical_sort(random_stream(rng, width=8, height=8, n=30)), events)
        out = tmp_path / "latent.pgm"
        argv = ["deblur", "--blurry", str(blurry), "--events", str(events),
                f"--c={c}", "--out", str(out)]
        assert run(argv + (["--sequence"] if sequence else [])) == 2
        assert "threshold c must be > 0 and finite" in capsys.readouterr().err
        assert not list(tmp_path.glob("latent*"))

    def test_geometry_mismatch_exits_2(self, rng, tmp_path):
        blurry = tmp_path / "b.pgm"
        write_image(rng.uniform(0, 1, (4, 4)), blurry)
        events = tmp_path / "e.evs"
        write_events(canonical_sort(random_stream(rng, width=16, height=16, n=10)), events)
        assert run(["deblur", "--blurry", str(blurry), "--events", str(events),
                    "--out", str(tmp_path / "o.pgm")]) == 2

    @pytest.mark.parametrize("sequence", [False, True])
    def test_geometry_mismatch_writes_no_latent(self, rng, tmp_path, capsys, monkeypatch, sequence):
        # the .evs header is checked before any event is read or voxelized
        for name in ("read_events", "voxelize"):
            monkeypatch.setattr(f"evtkit.cli.{name}", lambda *a, **k: pytest.fail("events read"))
        blurry = tmp_path / "b.pgm"
        write_image(rng.uniform(0, 1, (4, 4)), blurry)
        events = tmp_path / "e.evs"
        write_events(canonical_sort(random_stream(rng, width=300, height=200, n=10)), events)
        argv = ["deblur", "--blurry", str(blurry), "--events", str(events),
                "--out", str(tmp_path / "latent.pgm")]
        assert run(argv + (["--sequence"] if sequence else [])) == 2
        assert "events 300x200 do not match blurry image 4x4" in capsys.readouterr().err
        assert not list(tmp_path.glob("latent*"))

    def test_truncated_events_exit_2_before_voxelizing(self, rng, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("evtkit.cli.voxelize", lambda *a, **k: pytest.fail("voxelize called"))
        blurry = tmp_path / "b.pgm"
        write_image(rng.uniform(0, 1, (4, 4)), blurry)
        events = tmp_path / "e.evs"
        write_events(canonical_sort(random_stream(rng, width=4, height=4, n=10)), events)
        events.write_bytes(events.read_bytes()[:-1])
        assert run(["deblur", "--blurry", str(blurry), "--events", str(events),
                    "--out", str(tmp_path / "latent.pgm")]) == 2
        assert "payload size does not match header count" in capsys.readouterr().err
        assert not list(tmp_path.glob("latent*"))

    def test_csv_events_take_the_image_geometry(self, rng, tmp_path):
        blurry = tmp_path / "b.pgm"
        write_image(rng.uniform(0, 1, (5, 7)), blurry)
        events = tmp_path / "e.csv"
        write_events(canonical_sort(random_stream(rng, width=3, height=2, n=10)), events)
        assert run(["deblur", "--blurry", str(blurry), "--events", str(events),
                    "--out", str(tmp_path / "latent.pgm")]) == 0
        assert read_image(tmp_path / "latent.pgm").shape == (5, 7)


class TestEval:
    def test_identical_images(self, rng, tmp_path, capsys):
        img = rng.uniform(0, 1, (8, 8))
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_image(img, a)
        write_image(img, b)
        assert run(["eval", "--pred", str(a), "--gt", str(b)]) == 0
        out = capsys.readouterr().out
        assert "psnr=inf" in out
        assert "ssim=1.000000" in out

    def test_uniform_images_20db(self, tmp_path, capsys):
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_image(np.full((16, 16), 0.5), a)
        write_image(np.full((16, 16), 0.6), b)
        assert run(["eval", "--pred", str(a), "--gt", str(b)]) == 0
        psnr_line = [l for l in capsys.readouterr().out.splitlines()
                     if l.startswith("psnr=")][0]
        # files are 8-bit: 0.5 -> 128/255, 0.6 -> 153/255
        expect = 10 * np.log10(1.0 / (25 / 255) ** 2)
        assert float(psnr_line.split("=")[1]) == pytest.approx(expect, abs=1e-3)

    def test_identical_voxels_zero_l1(self, rng, tmp_path, capsys):
        grid = VoxelGrid(rng.integers(-2, 3, (4, 4, 3)).astype(float), 0.0, 1.0)
        paths = [tmp_path / f"{n}.vox" for n in "abc"]
        for p in paths:
            write_voxel(grid, p)
        assert run(["eval", "--pred-events", str(paths[0]),
                    "--ref-events", str(paths[1]),
                    "--deg-events", str(paths[2])]) == 0
        assert "event_l1=0.000000" in capsys.readouterr().out

    def test_negative_alpha_exits_2(self, rng, tmp_path, capsys):
        grid = VoxelGrid(rng.integers(-2, 3, (4, 4, 3)).astype(float), 0.0, 1.0)
        path = tmp_path / "g.vox"
        write_voxel(grid, path)
        assert run(["eval", "--pred-events", str(path), "--ref-events", str(path),
                    "--deg-events", str(path), "--alpha", "-1"]) == 2
        assert "alpha" in capsys.readouterr().err

    def test_mismatch_exits_2(self, rng, tmp_path):
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_image(rng.uniform(0, 1, (8, 8)), a)
        write_image(rng.uniform(0, 1, (9, 9)), b)
        assert run(["eval", "--pred", str(a), "--gt", str(b)]) == 2

    def test_voxel_shape_mismatch_exits_2_with_no_output(self, rng, tmp_path, capsys):
        paths = [tmp_path / f"{n}.vox" for n in "abc"]
        for p, shape in zip(paths, [(4, 4, 3), (4, 4, 3), (4, 4, 2)]):
            write_voxel(VoxelGrid(rng.integers(-2, 3, shape).astype(float), 0.0, 1.0), p)
        report = tmp_path / "report.txt"
        assert run(["eval", "--pred-events", str(paths[0]), "--ref-events", str(paths[1]),
                    "--deg-events", str(paths[2]), "--report", str(report)]) == 2
        captured = capsys.readouterr()
        assert "voxel grid shapes differ" in captured.err
        assert captured.out == ""
        assert not report.exists()


class TestDenoise:
    @pytest.fixture
    def noisy(self, rng, tmp_path):
        s = canonical_sort(random_stream(rng, width=6, height=4, n=300))
        path = tmp_path / "in.evs"
        write_events(s, path)
        return path

    @pytest.mark.parametrize("min_support", [0, 2])
    @pytest.mark.parametrize("hot", [None, 15.0])
    def test_output_matches_library_filters(self, noisy, tmp_path, min_support, hot):
        out = tmp_path / "out.evs"
        argv = ["denoise", "--events", str(noisy), "--min-support", str(min_support),
                "--out", str(out)]
        if hot is not None:
            argv += ["--hot-threshold", str(hot)]
        assert run(argv) == 0
        want = scf_filter(read_events(noisy), min_support=min_support)
        if hot is not None:
            want = hot_pixel_filter(want, hot)
        expect = tmp_path / "expect.evs"
        write_events(canonical_sort(want), expect)
        assert out.read_bytes() == expect.read_bytes()
        if min_support == 0 and hot is None:
            assert out.read_bytes() == noisy.read_bytes()

    @pytest.mark.parametrize("args", [
        ["--min-support", "-1"],
        ["--min-support", "0", "--radius", "0", "--window-us", "-3"],
        ["--window-us", "nan"],
        ["--hot-threshold", "nan"],
        ["--hot-threshold", "-1"],
    ])
    def test_out_of_range_settings_exit_2(self, noisy, tmp_path, args):
        out = tmp_path / "out.evs"
        assert run(["denoise", "--events", str(noisy), "--out", str(out)] + args) == 2
        assert not out.exists()


def old_cmd_pipeline(args) -> int:
    """``cli.cmd_pipeline`` as it was before its check, compute and write
    phases, with file writes between the stages; the oracle of ``pipeline``."""
    cfg = _read_config(args.config, _PIPELINE_KEYS)
    frames_dir = _cfg(cfg, "frames_dir", kind=str)
    out_dir = Path(_cfg(cfg, "out_dir", kind=str))
    frames = _load_frames(frames_dir, cfg)

    c_nominal = _cfg(cfg, "c_nominal", 0.2)
    sensor = SensorModel.uniform(c_nominal, frames.width, frames.height)
    deg = _degradation_config(cfg)
    n_channels = _cfg(cfg, "ne", 10, int)
    edi_c = _cfg(cfg, "edi_c", c_nominal)
    blur_first = _cfg(cfg, "blur_first", 0, int)
    blur_count = _cfg(cfg, "blur_count", len(frames), int)
    ref = _cfg(cfg, "ref", n_channels // 2, int)
    if n_channels < 1 or not 0 <= ref <= n_channels:
        raise InputError(f"need ne >= 1 and ref in [0, ne], got ne={n_channels}, ref={ref}")
    cfg_edi = EdiConfig(c=edi_c, ref=ref)
    hot_threshold = _cfg(cfg, "hot_threshold", 0.0)
    if not hot_threshold >= 0:  # NaN fails too
        raise InputError("hot_threshold must be >= 0 (0 turns the filter off)")
    alpha = _cfg(cfg, "alpha", 0.5)
    if not (np.isfinite(alpha) and alpha >= 0):
        raise InputError("alpha must be finite and >= 0")
    if blur_first < 0 or blur_first + blur_count > len(frames) or blur_count < 2:
        raise InputError("blur window out of range (need at least 2 frames)")
    scf = {"radius": _cfg(cfg, "scf_radius", 1, int),
           "window": _cfg(cfg, "scf_window_us", 10000.0) / 1e6,
           "min_support": _cfg(cfg, "scf_min_support", 2, int)}
    check_scf_settings(**scf)

    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def save(name: str, writer, obj) -> Path:
        path = out_dir / name
        writer(obj, path)
        written.append(path)
        return path

    try:
        e_u, e_d = make_pair(frames, sensor, deg)
        save("events_undegraded.evs", write_events, e_u)
        save("events_degraded.evs", write_events, e_d)

        blurry = synthesize_blur(frames, blur_first, blur_count)
        save("blurry.pgm", write_image, blurry)

        denoised = scf_filter(e_d, **scf)
        if hot_threshold > 0:
            denoised = hot_pixel_filter(denoised, hot_threshold)
        save("events_denoised.evs", write_events, denoised)

        t0 = float(frames.timestamps[blur_first])
        duration = float(frames.timestamps[blur_first + blur_count - 1] - frames.timestamps[blur_first])
        grids = {name: voxelize(s, t0, duration, n_channels)
                 for name, s in (("undegraded", e_u), ("degraded", e_d), ("denoised", denoised))}
        for name, grid in grids.items():
            save(f"voxels_{name}.vox", write_voxel, grid)

        latents = {name: edi_reconstruct(blurry, grid, cfg_edi)
                   for name, grid in grids.items()}
        for name, latent in latents.items():
            save(f"latent_{name}.pgm", write_image, latent)

        # ground truth: the sharp frame nearest the reference boundary
        gt_index = blur_first + round(ref * (blur_count - 1) / n_channels)
        gt = frames.frames[gt_index]

        report = {"count_undegraded": len(e_u), "count_degraded": len(e_d),
                  "count_denoised": len(denoised)}
        for name in ("degraded", "denoised"):
            report[f"event_l1_{name}"] = _fmt(event_l1_response(
                grids[name], grids["undegraded"], grids["degraded"], alpha=alpha))
        for name, latent in latents.items():
            report[f"psnr_{name}"] = _fmt(psnr(latent, gt))
            report[f"ssim_{name}"] = _fmt(ssim(latent, gt))
            report[f"deblur_l1_{name}"] = _fmt(deblur_l1(latent, gt))
        text = "".join(f"{k}={v}\n" for k, v in report.items())
        (out_dir / "report.txt").write_text(text)
        written.append(out_dir / "report.txt")
        print(text, end="")
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    return EXIT_OK


PIPELINE_OUTPUTS = (
    "events_undegraded.evs", "events_degraded.evs", "events_denoised.evs", "blurry.pgm",
    *(f"{kind}_{name}.{ext}" for kind, ext in (("voxels", "vox"), ("latent", "pgm"))
      for name in ("undegraded", "degraded", "denoised")),
    "report.txt")


class TestPipeline:
    def write_config(self, tmp_path, frames_dir, out_dir, **overrides):
        keys = {
            "frames_dir": frames_dir, "out_dir": out_dir, "fps": 12,
            "c_nominal": 0.2, "ne": 12, "ref": 6,
            "sigma": 0, "t_s_us": 0, "shot_rate": 0, "leak_rate": 0,
            "hot_fraction": 0, "hot_rate": 0, "seed": 3,
            "scf_min_support": 0,
        }
        keys.update(overrides)
        cfg = tmp_path / "pipe.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
        return cfg

    @pytest.fixture
    def frames_dir(self, tmp_path):
        frames = moving_edge_sequence(width=16, height=16, n_frames=5)
        return write_frame_dir(tmp_path / "frames", frames.frames)

    def test_zero_degradation_zero_l1(self, frames_dir, tmp_path):
        out_dir = tmp_path / "out"
        cfg = self.write_config(tmp_path, frames_dir, out_dir, ne=4, ref=2)
        assert run(["pipeline", "--config", str(cfg)]) == 0
        report = dict(line.split("=") for line in
                      (out_dir / "report.txt").read_text().splitlines())
        assert float(report["event_l1_degraded"]) == 0.0

    def test_runs_reproducible(self, frames_dir, tmp_path):
        d1, d2 = tmp_path / "o1", tmp_path / "o2"
        cfg1 = self.write_config(tmp_path, frames_dir, d1, ne=4, ref=2,
                                 sigma=0.01, t_s_us=100000, shot_rate=5,
                                 leak_rate=1, scf_min_support=2)
        assert run(["pipeline", "--config", str(cfg1)]) == 0
        cfg2 = self.write_config(tmp_path, frames_dir, d2, ne=4, ref=2,
                                 sigma=0.01, t_s_us=100000, shot_rate=5,
                                 leak_rate=1, scf_min_support=2)
        assert run(["pipeline", "--config", str(cfg2)]) == 0
        files1 = sorted(p.name for p in d1.iterdir())
        assert files1 == sorted(p.name for p in d2.iterdir())
        for name in files1:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_missing_out_dir_exits_2(self, frames_dir, tmp_path):
        cfg = tmp_path / "pipe.cfg"
        cfg.write_text(f"frames_dir = {frames_dir}\nfps = 12\n")
        assert run(["pipeline", "--config", str(cfg)]) == 2

    def test_rerun_moves_the_earlier_outputs_into_one_hidden_dir(self, frames_dir, tmp_path, monkeypatch):
        # each of the 11 replaced files had a hidden directory of its own
        out_dir = tmp_path / "out"
        cfg = self.write_config(tmp_path, frames_dir, out_dir, ne=4, ref=2)
        assert run(["pipeline", "--config", str(cfg)]) == 0
        first = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        made, mkdtemp = [], tempfile.mkdtemp

        def counting_mkdtemp(*args, **kwargs):
            made.append(mkdtemp(*args, **kwargs))
            return made[-1]
        monkeypatch.setattr(tempfile, "mkdtemp", counting_mkdtemp)
        assert run(["pipeline", "--config", str(cfg)]) == 0
        assert len(first) == 11 and len(made) == 1
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == first

    @pytest.mark.parametrize("key, line", [("frames_dir", 1), ("out_dir", 2)])
    def test_empty_value_exits_2_and_leaves_the_working_dir(self, tmp_path, capsys, monkeypatch, key, line):
        # an empty value named the working directory: out_dir got all 12 files,
        # and frames_dir read the frames found there
        cwd = write_frame_dir(tmp_path / "cwd", moving_edge_sequence(width=16, height=16, n_frames=5).frames)
        before = sorted(p.name for p in cwd.iterdir())
        monkeypatch.chdir(cwd)
        out_dir = tmp_path / "out"
        dirs = {"frames_dir": cwd, "out_dir": out_dir, key: ""}
        cfg = self.write_config(tmp_path, dirs["frames_dir"], dirs["out_dir"], ne=4, ref=2)
        assert run(["pipeline", "--config", str(cfg)]) == 2
        assert f"pipe.cfg:{line}: config key {key} has no value" in capsys.readouterr().err
        assert sorted(p.name for p in cwd.iterdir()) == before
        assert not out_dir.exists()

    def test_unknown_key_exits_2(self, frames_dir, tmp_path, capsys):
        out_dir = tmp_path / "out"
        cfg = self.write_config(tmp_path, frames_dir, out_dir, scf_radious=2)
        assert run(["pipeline", "--config", str(cfg)]) == 2
        assert "scf_radious" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("value", ["-5", "nan"])
    def test_bad_hot_threshold_exits_2(self, frames_dir, tmp_path, capsys, value):
        out_dir = tmp_path / "out"
        cfg = self.write_config(tmp_path, frames_dir, out_dir, hot_threshold=value)
        assert run(["pipeline", "--config", str(cfg)]) == 2
        assert "hot_threshold" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_nan_alpha_exits_2_and_leaves_no_outputs(self, frames_dir, tmp_path, capsys):
        out_dir = tmp_path / "out"
        cfg = self.write_config(tmp_path, frames_dir, out_dir, ne=4, ref=2, alpha="nan")
        assert run(["pipeline", "--config", str(cfg)]) == 2
        assert "alpha" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_bad_alpha_exits_2_before_any_stage(self, frames_dir, tmp_path, capsys,
                                                 monkeypatch, value):
        calls = []
        monkeypatch.setattr("evtkit.cli.make_pair", lambda *a: calls.append(a))
        out_dir = tmp_path / "out"
        cfg = self.write_config(tmp_path, frames_dir, out_dir, alpha=value)
        assert run(["pipeline", "--config", str(cfg)]) == 2
        assert "alpha" in capsys.readouterr().err
        assert calls == []
        assert not out_dir.exists()

    @pytest.mark.parametrize("overrides, message", [
        ({"edi_c": "nan"}, "threshold c"), ({"edi_c": "0"}, "threshold c"),
        ({"edi_c": "-0.2"}, "threshold c"), ({"edi_c": "inf"}, "threshold c"),
        ({"ne": "0", "ref": "0"}, "ne >= 1"),
        ({"c_nominal": "-1", "edi_c": "0.2"}, "c_nominal"),
        ({"c_nominal": "nan", "edi_c": "0.2"}, "c_nominal"),
    ], ids=["edi_c=nan", "edi_c=0", "edi_c=-0.2", "edi_c=inf", "ne=0", "c_nominal=-1", "c_nominal=nan"])
    def test_bad_edi_setting_exits_2_before_any_stage(self, frames_dir, tmp_path, capsys,
                                                      monkeypatch, overrides, message):
        calls = []
        monkeypatch.setattr("evtkit.cli.make_pair", lambda *a: calls.append(a))
        out_dir = tmp_path / "out"
        cfg = self.write_config(tmp_path, frames_dir, out_dir, **overrides)
        assert run(["pipeline", "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err
        assert calls == []
        assert not out_dir.exists()

    @pytest.mark.parametrize("overrides, message", [
        ({"scf_radius": "0"}, "radius"), ({"scf_radius": "-1"}, "radius"),
        ({"scf_window_us": "0"}, "window"), ({"scf_window_us": "-5"}, "window"),
        ({"scf_window_us": "nan"}, "window"), ({"scf_min_support": "-1"}, "min_support"),
    ], ids=["radius=0", "radius=-1", "window=0", "window=-5", "window=nan", "min_support=-1"])
    def test_bad_scf_setting_exits_2_before_any_stage(self, frames_dir, tmp_path, capsys,
                                                      monkeypatch, overrides, message):
        calls = []
        monkeypatch.setattr("evtkit.cli.make_pair", lambda *a: calls.append(a))
        out_dir = tmp_path / "out"
        cfg = self.write_config(tmp_path, frames_dir, out_dir, **overrides)
        assert run(["pipeline", "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err
        assert calls == []
        assert not out_dir.exists()

    def test_fps_and_timestamps_exit_2_before_any_stage(self, frames_dir, tmp_path, capsys):
        # one frame-timing rule for every command: simulate exits 2 on both too
        ts = tmp_path / "ts.txt"
        ts.write_text("".join(f"{k * 80000}\n" for k in range(5)))
        out_dir = tmp_path / "out"
        cfg = self.write_config(tmp_path, frames_dir, out_dir, timestamps=ts)
        assert run(["pipeline", "--config", str(cfg)]) == 2
        assert "exactly one of fps and timestamps" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_degrade_matches_pipeline_degraded_events(self, tmp_path):
        frames = moving_edge_sequence(width=32, height=24, n_frames=9)
        frames_dir = write_frame_dir(tmp_path / "edge", frames.frames)
        recipe = {"c_nominal": 0.2, "fps": 12, "sigma": 0.03, "t_s_us": 20000,
                  "shot_rate": 20, "leak_rate": 5, "hot_fraction": 0.05,
                  "hot_rate": 100, "seed": 7}
        out_dir = tmp_path / "out"
        cfg = self.write_config(tmp_path, frames_dir, out_dir, **recipe)
        assert run(["pipeline", "--config", str(cfg)]) == 0
        deg_cfg = tmp_path / "deg.cfg"
        deg_cfg.write_text("".join(f"{k} = {v}\n" for k, v in recipe.items()))
        out = tmp_path / "degraded.evs"
        assert run(["degrade", "--events", str(out_dir / "events_undegraded.evs"),
                    "--frames", str(frames_dir), "--config", str(deg_cfg),
                    "--out", str(out)]) == 0
        assert out.read_bytes() == (out_dir / "events_degraded.evs").read_bytes()
        assert out.read_bytes() != (out_dir / "events_undegraded.evs").read_bytes()

    @pytest.mark.parametrize("overrides, message", [
        ({"blur_first": "-1"}, "frame range"),
        ({"blur_count": "1"}, "blur_count"),
        ({"blur_first": "4", "blur_count": "2"}, "frame range"),
        ({"ref": "-1"}, "ref in [0, ne]"),
        ({"ref": "13"}, "ref in [0, ne]"),
        ({"sigma": "nan"}, "sigma"),
        ({"t_s_us": "-1"}, "sampling_period"),
        ({"shot_rate": "nan"}, "noise rates"),
    ], ids=["blur_first=-1", "blur_count=1", "blur_past_last_frame", "ref=-1", "ref=ne+1",
            "sigma=nan", "t_s_us=-1", "shot_rate=nan"])
    def test_bad_setting_exits_2_before_any_stage(self, frames_dir, tmp_path, capsys,
                                                  monkeypatch, overrides, message):
        calls = []
        monkeypatch.setattr("evtkit.cli.make_pair", lambda *a: calls.append(a))
        out_dir = tmp_path / "out"
        cfg = self.write_config(tmp_path, frames_dir, out_dir, **overrides)  # ne = 12
        assert run(["pipeline", "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err
        assert calls == []
        assert not out_dir.exists()

    def test_out_dir_that_is_a_file_exits_2_before_any_stage(self, frames_dir, tmp_path, capsys,
                                                            monkeypatch):
        calls = []
        monkeypatch.setattr("evtkit.cli.make_pair", lambda *a: calls.append(a))
        out_dir = tmp_path / "out"
        out_dir.write_text("keep me\n")
        cfg = self.write_config(tmp_path, frames_dir, out_dir)
        assert run(["pipeline", "--config", str(cfg)]) == 2
        assert "out_dir is not a directory" in capsys.readouterr().err
        assert calls == []
        assert out_dir.read_text() == "keep me\n"

    def test_failing_stage_exits_2_and_makes_no_out_dir(self, frames_dir, tmp_path, monkeypatch):
        def voxelize(*args):
            raise ValueError("voxelize failed")
        monkeypatch.setattr("evtkit.cli.voxelize", voxelize)
        out_dir = tmp_path / "out"
        cfg = self.write_config(tmp_path, frames_dir, out_dir, ne=4, ref=2)
        assert run(["pipeline", "--config", str(cfg)]) == 2
        assert not out_dir.exists()

    @pytest.mark.parametrize("out_dir_exists", [False, True, "full"])
    def test_writer_failing_halfway_leaves_no_output(self, frames_dir, tmp_path, monkeypatch,
                                                     out_dir_exists):
        # "full": out_dir holds an earlier run's 11 outputs; a stat-based clean-up kept only 7
        def write_voxel_failing(grid, path):
            Path(path).write_bytes(b"partial")
            raise OSError("disk full")
        out_dir = tmp_path / "deep" / "out"
        if out_dir_exists:
            out_dir.mkdir(parents=True)
        cfg = self.write_config(tmp_path, frames_dir, out_dir, ne=4, ref=2)
        if out_dir_exists == "full":
            assert run(["pipeline", "--config", str(cfg)]) == 0
        earlier = {p.name: sha256(p.read_bytes()).hexdigest() for p in out_dir.glob("*")}
        assert len(earlier) == (len(PIPELINE_OUTPUTS) if out_dir_exists == "full" else 0)
        monkeypatch.setattr("evtkit.cli.write_voxel", write_voxel_failing)
        assert run(["pipeline", "--config", str(cfg)]) == 1
        # every path is as the run found it: no output, no hidden copy, earlier bytes kept
        assert {p.name: sha256(p.read_bytes()).hexdigest() for p in out_dir.glob("*")} == earlier
        assert not list(out_dir.glob(".*"))
        # a directory the run found stays, and one that it made goes
        assert out_dir.is_dir() == bool(out_dir_exists)
        assert (tmp_path / "deep").is_dir() == bool(out_dir_exists)
        monkeypatch.setattr("evtkit.cli.write_voxel", write_voxel)
        assert run(["pipeline", "--config", str(cfg)]) == 0
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(PIPELINE_OUTPUTS)

    @pytest.mark.parametrize("overrides", [
        {"ne": 4, "ref": 2},
        {"sigma": 0.03, "t_s_us": 20000, **NOISE, "hot_threshold": 30, "scf_min_support": 2},
    ], ids=["zero-degradation", "degraded-denoised"])
    def test_outputs_and_stdout_equal_old_pipeline(self, tmp_path, capsys, overrides):
        frames_dir = write_frame_dir(tmp_path / "edge", moving_edge_sequence(32, 24, 9).frames)
        new, old = tmp_path / "new", tmp_path / "old"
        argv = ["pipeline", "--config", str(self.write_config(tmp_path, frames_dir, new, **overrides))]
        assert run(argv) == 0
        new_stdout = capsys.readouterr().out
        argv = ["pipeline", "--config", str(self.write_config(tmp_path, frames_dir, old, **overrides))]
        assert old_cmd_pipeline(build_parser().parse_args(argv)) == 0
        assert capsys.readouterr().out == new_stdout
        assert sorted(p.name for p in new.iterdir()) == sorted(PIPELINE_OUTPUTS)
        assert sorted(p.name for p in old.iterdir()) == sorted(PIPELINE_OUTPUTS)
        for name in PIPELINE_OUTPUTS:
            assert (new / name).read_bytes() == (old / name).read_bytes(), name
        assert int(new_stdout.split("count_undegraded=")[1].split()[0]) > 0


    def test_negative_seed_exits_2_before_any_stage(self, frames_dir, tmp_path, capsys, monkeypatch):
        # numpy rejected the seed only inside make_pair
        calls = []
        monkeypatch.setattr("evtkit.cli.make_pair", lambda *a: calls.append(a))
        out_dir = tmp_path / "out"
        cfg = self.write_config(tmp_path, frames_dir, out_dir, seed=-1)
        assert run(["pipeline", "--config", str(cfg)]) == 2
        assert "seed" in capsys.readouterr().err
        assert calls == []
        assert not out_dir.exists()



def old_cmd_simulate(args) -> int:
    """``cli.cmd_simulate`` as it was before every command ended in one
    write-and-report path; the oracle of ``simulate``."""
    frames = _load_frames(args.frames, {}, args.fps, args.timestamps)
    sensor = SensorModel.uniform(args.threshold, frames.width, frames.height)
    stream = simulate_events(frames, sensor)
    write_events(stream, args.out)
    _print_stats(stream)
    return EXIT_OK


def _voxelize_file(events_path, width: int, height: int, n_channels: int):
    """``cli._voxelize_file`` as it was before ``deblur`` and ``degrade`` shared
    one rule for an event file's geometry."""
    stream = read_events(events_path, width=width, height=height)
    duration = stream.t_end - stream.t_start
    if duration <= 0:
        duration = 1.0  # zero/single-event stream: any window works, grid is ~empty
    return voxelize(stream, stream.t_start, duration, n_channels)


def old_cmd_deblur(args) -> int:
    """``cli.cmd_deblur`` before the one write path; the oracle of ``deblur``."""
    blurry = read_image(args.blurry)
    grid = _voxelize_file(args.events, blurry.shape[1], blurry.shape[0], args.ne)
    if args.sequence:
        out = Path(args.out)
        for r, latent in enumerate(edi_sequence(blurry, grid, args.c)):
            write_image(latent, out.with_name(f"{out.stem}_{r:03d}{out.suffix}"))
    else:
        latent = edi_reconstruct(blurry, grid, EdiConfig(c=args.c, ref=args.ref))
        write_image(latent, args.out)
    return EXIT_OK


def old_cmd_denoise(args) -> int:
    """``cli.cmd_denoise`` before the one write path; the oracle of ``denoise``."""
    stream = scf_filter(read_events(args.events), radius=args.radius,
                        window=args.window_us / 1e6, min_support=args.min_support)
    if args.hot_threshold is not None:
        stream = hot_pixel_filter(stream, args.hot_threshold)
    write_events(stream, args.out)
    _print_stats(stream)
    return EXIT_OK


def old_cmd_eval(args) -> int:
    """``cli.cmd_eval`` before the one write path; the oracle of ``eval``."""
    lines = []
    if args.pred is not None:
        if args.gt is None:
            raise InputError("--pred needs --gt")
        pred = read_image(args.pred)
        gt = read_image(args.gt)
        lines.append(f"psnr={_fmt(psnr(pred, gt))}")
        lines.append(f"ssim={_fmt(ssim(pred, gt))}")
        lines.append(f"deblur_l1={_fmt(deblur_l1(pred, gt))}")
    elif args.pred_events is not None:
        if args.ref_events is None or args.deg_events is None:
            raise InputError("--pred-events needs --ref-events and --deg-events")
        pred = read_voxel(args.pred_events)
        ref = read_voxel(args.ref_events)
        deg = read_voxel(args.deg_events)
        value = event_l1_response(pred, ref, deg, alpha=args.alpha)
        lines.append(f"event_l1={_fmt(value)}")
    else:
        raise InputError("give --pred/--gt images or --pred-events/--ref-events/--deg-events")
    for line in lines:
        print(line)
    if args.report:
        Path(args.report).write_text("".join(line + "\n" for line in lines))
    return EXIT_OK


def stream_command(tmp_path, command):
    """argv of ``simulate``, ``degrade`` or ``denoise`` without ``--out``,
    with its input files made in ``tmp_path``."""
    if command == "simulate":
        frames_dir = write_frame_dir(tmp_path / "edge", moving_edge_sequence(32, 24, 9).frames)
        return ["simulate", "--frames", str(frames_dir), "--fps", "12"]
    src = tmp_path / "in.evs"
    write_events(canonical_sort(random_stream(np.random.default_rng(3), width=6, height=4, n=300)), src)
    if command == "degrade":
        cfg = tmp_path / "deg.cfg"
        cfg.write_text("t_s_us = 20000\nshot_rate = 20\nseed = 3\n")
        return ["degrade", "--events", str(src), "--config", str(cfg)]
    return ["denoise", "--events", str(src), "--hot-threshold", "15"]


def deblur_inputs(tmp_path):
    blurry = tmp_path / "b.pgm"
    write_image(np.random.default_rng(5).uniform(0, 1, (8, 8)), blurry)
    events = tmp_path / "e.evs"
    write_events(canonical_sort(random_stream(np.random.default_rng(6), width=8, height=8, n=60)), events)
    return ["deblur", "--blurry", str(blurry), "--events", str(events), "--ne", "10"]


def eval_inputs(tmp_path, images: bool):
    rng = np.random.default_rng(8)
    if images:
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_image(rng.uniform(0, 1, (16, 16)), a)
        write_image(rng.uniform(0, 1, (16, 16)), b)
        return ["eval", "--pred", str(a), "--gt", str(b)]
    paths = [tmp_path / f"{n}.vox" for n in "abc"]
    for path in paths:
        write_voxel(VoxelGrid(rng.integers(-2, 3, (4, 4, 3)).astype(float), 0.0, 1.0), path)
    return ["eval", "--pred-events", str(paths[0]), "--ref-events", str(paths[1]),
            "--deg-events", str(paths[2])]


def write_then_fail(obj, path):
    Path(path).write_bytes(b"partial")
    raise OSError("disk full")


class TestCommandsMatchOldCommands:
    """On valid input each command writes the bytes and prints the lines of
    its code from before ``_finish``."""

    def run_both(self, capsys, tmp_path, old_cmd, argv, out_flag, out_name):
        new, old = tmp_path / "new", tmp_path / "old"
        new.mkdir()
        old.mkdir()  # the old commands did not make their directory
        assert run(argv + [out_flag, str(new / out_name)]) == 0
        new_stdout = capsys.readouterr().out
        assert old_cmd(build_parser().parse_args(argv + [out_flag, str(old / out_name)])) == 0
        assert capsys.readouterr().out == new_stdout
        names = sorted(p.name for p in new.iterdir())
        assert names and names == sorted(p.name for p in old.iterdir())
        for name in names:
            assert (new / name).read_bytes() == (old / name).read_bytes(), name
        return new_stdout

    @pytest.mark.parametrize("command, old_cmd", [
        ("simulate", old_cmd_simulate), ("degrade", old_cmd_degrade), ("denoise", old_cmd_denoise)])
    @pytest.mark.parametrize("out_name", ["e.evs", "e.csv"])
    def test_stream_commands(self, tmp_path, capsys, command, old_cmd, out_name):
        argv = stream_command(tmp_path, command)
        stdout = self.run_both(capsys, tmp_path, old_cmd, argv, "--out", out_name)
        assert stdout.startswith("count=") and not stdout.startswith("count=0\n")

    @pytest.mark.parametrize("extra", [[], ["--ref", "3"], ["--sequence"]])
    def test_deblur(self, tmp_path, capsys, extra):
        stdout = self.run_both(capsys, tmp_path, old_cmd_deblur, deblur_inputs(tmp_path) + extra,
                               "--out", "latent.pgm")
        assert stdout == ""
        assert len(list((tmp_path / "new").iterdir())) == (11 if extra == ["--sequence"] else 1)

    @pytest.mark.parametrize("images", [True, False], ids=["images", "voxels"])
    def test_eval_with_report(self, tmp_path, capsys, images):
        stdout = self.run_both(capsys, tmp_path, old_cmd_eval, eval_inputs(tmp_path, images),
                               "--report", "report.txt")
        assert (tmp_path / "new" / "report.txt").read_text() == stdout

    @pytest.mark.parametrize("images", [True, False], ids=["images", "voxels"])
    def test_eval_without_report(self, tmp_path, capsys, images):
        argv = eval_inputs(tmp_path, images)
        assert run(argv) == 0
        new_stdout = capsys.readouterr().out
        assert old_cmd_eval(build_parser().parse_args(argv)) == 0
        assert capsys.readouterr().out == new_stdout != ""


class TestAllOrNothing:
    """Every command writes all of its outputs or none, and prints only after."""

    @pytest.mark.parametrize("command", ["simulate", "degrade", "denoise"])
    def test_failing_writer_leaves_no_output(self, tmp_path, capsys, monkeypatch, command):
        argv = stream_command(tmp_path, command)
        monkeypatch.setattr("evtkit.cli.write_events", write_then_fail)
        out = tmp_path / "out.evs"
        assert run(argv + ["--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().out == ""

    def test_sequence_write_failing_third_leaves_no_latent(self, tmp_path, monkeypatch):
        calls = []

        def write_image_failing_third(image, path):
            calls.append(path)
            if len(calls) == 3:
                raise OSError("disk full")
            write_image(image, path)
        monkeypatch.setattr("evtkit.cli.write_image", write_image_failing_third)
        argv = deblur_inputs(tmp_path) + ["--sequence", "--out", str(tmp_path / "latent.pgm")]
        assert run(argv) == 1
        assert len(calls) == 3
        assert not list(tmp_path.glob("latent*"))

    def test_eval_report_failing_prints_nothing(self, tmp_path, capsys, monkeypatch):
        def write_text_then_fail(path, text):
            path.write_bytes(text.encode()[:5])
            raise OSError("disk full")
        report = tmp_path / "report.txt"
        argv = eval_inputs(tmp_path, images=True) + ["--report", str(report)]
        monkeypatch.setattr(Path, "write_text", write_text_then_fail)
        assert run(argv) == 1
        assert capsys.readouterr().out == ""
        assert not report.exists()

    def test_missing_out_dir_is_made(self, tmp_path, capsys):
        out = tmp_path / "new" / "dir" / "e.evs"
        assert run(stream_command(tmp_path, "simulate") + ["--out", str(out)]) == 0
        count = int(capsys.readouterr().out.split("count=")[1].split()[0])
        assert count > 0 and len(read_events(out)) == count

    def test_failing_writer_removes_the_dirs_it_made(self, tmp_path, capsys, monkeypatch):
        argv = stream_command(tmp_path, "simulate")
        monkeypatch.setattr("evtkit.cli.write_events", write_then_fail)
        assert run(argv + ["--out", str(tmp_path / "new" / "dir" / "e.evs")]) == 1
        assert not (tmp_path / "new").exists()
        assert capsys.readouterr().out == ""

    def test_failing_writer_keeps_a_file_it_never_touched(self, tmp_path, capsys):
        # write_events rejects x = 70000 before it opens the path
        src = tmp_path / "big.csv"
        src.write_text("100000,70000,0,1\n200000,5,0,1\n")
        out = tmp_path / "existing.evs"
        out.write_bytes(b"earlier output")
        argv = ["denoise", "--events", str(src), "--min-support", "0", "--out", str(out)]
        assert run(argv) == 2
        assert "u16" in capsys.readouterr().err
        assert out.read_bytes() == b"earlier output"

    def test_writer_truncating_a_file_then_failing_puts_it_back(self, tmp_path, monkeypatch):
        def truncate_then_fail(obj, path):
            Path(path).write_bytes(b"")
            raise OSError("disk full")
        monkeypatch.setattr("evtkit.cli.write_events", truncate_then_fail)
        out = tmp_path / "existing.evs"
        out.write_bytes(b"earlier output")
        assert run(stream_command(tmp_path, "denoise") + ["--out", str(out)]) == 1
        assert out.read_bytes() == b"earlier output"
        assert not list(tmp_path.glob(".*"))

    @pytest.mark.parametrize("fails", [False, True], ids=["success", "writer-raises"])
    def test_a_users_file_at_the_old_hidden_name_keeps_its_bytes(self, tmp_path, capsys,
                                                                 monkeypatch, fails):
        # earlier outputs waited under the fixed name .{name}.old, which replaced this
        # file, and a successful run then unlinked it
        out = tmp_path / "e.evs"
        out.write_bytes(b"earlier output")
        users = tmp_path / ".e.evs.old"
        users.write_bytes(b"the user's file")
        if fails:
            monkeypatch.setattr("evtkit.cli.write_events", write_then_fail)
        assert run(stream_command(tmp_path, "simulate") + ["--out", str(out)]) == int(fails)
        assert users.read_bytes() == b"the user's file"
        assert [p.name for p in tmp_path.glob(".*")] == [".e.evs.old"]
        if fails:
            assert out.read_bytes() == b"earlier output"
        else:
            assert len(read_events(out)) > 0

    def test_failing_move_aside_leaves_no_hidden_dir(self, tmp_path, monkeypatch):
        def replace_failing(self, target):
            raise OSError("cannot rename")
        out = tmp_path / "e.evs"
        out.write_bytes(b"earlier output")
        argv = stream_command(tmp_path, "simulate") + ["--out", str(out)]
        monkeypatch.setattr(Path, "replace", replace_failing)
        assert run(argv) == 1
        assert out.read_bytes() == b"earlier output"
        assert not list(tmp_path.glob(".*"))

    def test_out_naming_a_directory_exits_2_and_leaves_it(self, tmp_path, capsys):
        # an unmapped IsADirectoryError exited 1 as "internal error: [Errno 21] Is a directory"
        out = tmp_path / "outdir"
        out.mkdir()
        (out / "kept.txt").write_text("keep me\n")
        assert run(stream_command(tmp_path, "simulate") + ["--out", str(out)]) == 2
        assert "Is a directory" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["kept.txt"]
        assert (out / "kept.txt").read_text() == "keep me\n"
        assert not list(tmp_path.glob(".*"))

    def test_out_through_a_symlink_writes_its_target(self, tmp_path, capsys):
        # only a regular file is moved aside; a link (/dev/stdout, say) is written through
        target = tmp_path / "target.evs"
        target.write_bytes(b"earlier output")
        link = tmp_path / "link.evs"
        link.symlink_to(target)
        assert run(stream_command(tmp_path, "simulate") + ["--out", str(link)]) == 0
        count = int(capsys.readouterr().out.split("count=")[1].split()[0])
        assert link.is_symlink() and len(read_events(target)) == count > 0
        assert not list(tmp_path.glob(".*"))

    def test_degrade_negative_seed_exits_2(self, tmp_path, capsys):
        # with zero noise nothing was drawn, so the seed went unchecked and degrade exited 0
        src = tmp_path / "in.evs"
        write_events(canonical_sort(random_stream(np.random.default_rng(3), n=20)), src)
        cfg = tmp_path / "deg.cfg"
        cfg.write_text("seed = -1\n")
        out = tmp_path / "o.evs"
        assert run(["degrade", "--events", str(src), "--config", str(cfg), "--out", str(out)]) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()


def read_events_roundtrip(stream, tmp_path):
    """Quantize timestamps to integer microseconds via a write/read cycle."""
    path = tmp_path / "_tmp.evs"
    write_events(stream, path)
    return canonical_sort(read_events(path))
