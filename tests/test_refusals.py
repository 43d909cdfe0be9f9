"""Refusals that no other test reaches, one case per check: the library raises
ValueError with its message, and a command exits 2 and prints its message."""

import io

import numpy as np
import pytest

from evtkit import EventStream, FrameSequence, NoiseParams, VoxelGrid, canonical_sort, fileio, inject_noise
from evtkit.cli import run
from evtkit.fileio import FormatError, load_frames, read_events, write_events, write_image


def degrade_argv(tmp_path, config_text):
    """A ``degrade`` command line whose config holds ``config_text``, or whose
    config file is missing when it is None."""
    src = tmp_path / "in.evs"
    write_events(EventStream([0.5], [0], [0], [1], 2, 2, 0.0, 1.0), src)
    cfg = tmp_path / "deg.cfg"
    if config_text is not None:
        cfg.write_text(config_text)
    return ["degrade", "--events", str(src), "--config", str(cfg), "--out", str(tmp_path / "o.evs")]


@pytest.mark.parametrize("config_text, message", [
    (None, "config file not found"),
    ("seed = 3\n= 1\n", "deg.cfg:2: empty key"),
    ("sigma = abc\n", "config key sigma: not a number: 'abc'"),
    ("seed = 1.5\n", "config key seed: not an integer: '1.5'"),
], ids=["missing-file", "empty-key", "not-a-number", "not-an-integer"])
def test_config_refusal_exits_2(tmp_path, capsys, config_text, message):
    assert run(degrade_argv(tmp_path, config_text)) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o.evs").exists()


@pytest.mark.parametrize("flags, message", [
    (["--pred", "p.pgm"], "--pred needs --gt"),
    (["--pred-events", "p.vox", "--ref-events", "r.vox"], "--pred-events needs --ref-events and --deg-events"),
    ([], "give --pred/--gt images or --pred-events/--ref-events/--deg-events"),
], ids=["pred-without-gt", "pred-events-without-deg", "nothing-to-compare"])
def test_eval_argument_refusal_exits_2(tmp_path, capsys, flags, message):
    report = tmp_path / "report.txt"
    assert run(["eval", *flags, "--report", str(report)]) == 2
    assert message in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("make, match", [
    (lambda path: VoxelGrid(np.zeros((2, 2)), 0.0, 1.0), "H x W x N"),
    (lambda path: VoxelGrid(np.zeros((2, 2, 0)), 0.0, 1.0), "n_channels must be >= 1"),
    (lambda path: FrameSequence(np.zeros((2, 2)), [0.0, 1.0]), "N x H x W"),
    (lambda path: FrameSequence(np.zeros((2, 2, 2)), [0.0]), "timestamp count"),
    (lambda path: FrameSequence(np.zeros((2, 2, 2)), [1.0, 1.0]), "strictly increasing"),
    (lambda path: NoiseParams(hot_pixel_fraction=1.5), r"hot_pixel_fraction must be in \[0, 1\]"),
    (lambda path: write_image(np.zeros((2, 2, 2)), path / "i.pgm"), "H x W or H x W x 3"),
    (lambda path: load_frames(path, fps=10.0), "no frames found"),
], ids=["voxel-not-3d", "voxel-no-channels", "frames-not-3d", "timestamp-count",
        "timestamps-not-increasing", "hot-fraction", "image-shape", "no-frames"])
def test_library_refusal(tmp_path, make, match):
    with pytest.raises(ValueError, match=match):
        make(tmp_path)
    assert not list(tmp_path.iterdir())


def test_noise_on_a_zero_length_window_adds_nothing():
    s = EventStream([0.5, 0.5], [1, 0], [0, 0], [1, -1], 2, 2, 0.5, 0.5)
    noisy = inject_noise(s, NoiseParams(shot_rate=1e6, leak_rate=1e6, hot_pixel_fraction=1.0,
                                        hot_pixel_rate=1e6, seed=1))
    want = canonical_sort(s)
    for got, expect in zip((noisy.t, noisy.x, noisy.y, noisy.p), (want.t, want.x, want.y, want.p)):
        assert got.tolist() == expect.tolist()


def test_short_read_after_the_size_check_is_refused(tmp_path, monkeypatch):
    # the file's size matches its header, but the read returns a byte less
    class ShortReader(io.BufferedReader):
        def readinto(self, buffer):
            return super().readinto(buffer) - 1

    path = tmp_path / "e.evs"
    write_events(EventStream([0.5, 0.75], [0, 1], [0, 1], [1, -1], 2, 2, 0.0, 1.0), path)
    monkeypatch.setattr(fileio, "open", lambda file, mode: ShortReader(io.FileIO(file, mode)), raising=False)
    with pytest.raises(FormatError, match="payload size does not match header count"):
        read_events(path)
