import numpy as np
import pytest

from evtkit import EventStream, canonical_sort, hot_pixel_filter, scf_filter, simulate_events, SensorModel
from evtkit.cli import run
from evtkit.fileio import load_frames, read_events, read_image, write_events, write_image, write_voxel
from evtkit import VoxelGrid

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

    def test_geometry_mismatch_exits_2(self, rng, tmp_path):
        blurry = tmp_path / "b.pgm"
        write_image(rng.uniform(0, 1, (4, 4)), blurry)
        events = tmp_path / "e.evs"
        write_events(canonical_sort(random_stream(rng, width=16, height=16, n=10)), events)
        assert run(["deblur", "--blurry", str(blurry), "--events", str(events),
                    "--out", str(tmp_path / "o.pgm")]) == 2


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


def read_events_roundtrip(stream, tmp_path):
    """Quantize timestamps to integer microseconds via a write/read cycle."""
    path = tmp_path / "_tmp.evs"
    write_events(stream, path)
    return canonical_sort(read_events(path))
