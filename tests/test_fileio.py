import struct
import sys
import types
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from evtkit import EventStream, VoxelGrid, canonical_sort, fileio
from evtkit.cli import run
from evtkit.fileio import (
    FormatError,
    load_frames,
    read_event_geometry,
    read_events,
    read_image,
    read_voxel,
    write_events,
    write_image,
    write_voxel,
)

from conftest import random_stream


class TestEventCsv:
    def test_csv_line_roundtrip(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("125,120,64,1\n")
        s = read_events(path, width=128, height=128)
        assert s.t[0] == pytest.approx(0.000125)
        assert (s.x[0], s.y[0], s.p[0]) == (120, 64, 1)

    def test_zero_polarity_rejected(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("125,120,64,0\n")
        with pytest.raises(FormatError, match="polarity"):
            read_events(path, width=128, height=128)

    def test_out_of_bounds_rejected(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("125,10,5,1\n")
        with pytest.raises(FormatError, match="outside geometry 10x10"):
            read_events(path, width=10, height=10)

    @pytest.mark.parametrize("text", ["", "\n", "# no events\n"])
    def test_empty_csv_reads_without_a_warning(self, tmp_path, text):
        path = tmp_path / "e.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = read_events(path)
        assert (len(s), s.width, s.height) == (0, 1, 1)

    def test_write_read_roundtrip(self, rng, tmp_path):
        s = canonical_sort(random_stream(rng, n=200))
        path = tmp_path / "e.csv"
        write_events(s, path)
        back = read_events(path, width=s.width, height=s.height)
        np.testing.assert_array_equal(np.round(s.t * 1e6), np.round(back.t * 1e6))
        np.testing.assert_array_equal(s.x, back.x)
        np.testing.assert_array_equal(s.p, back.p)


class TestEventBinary:
    def test_roundtrip_byte_identical(self, rng, tmp_path):
        s = canonical_sort(random_stream(rng, width=640, height=480, n=5000))
        p1, p2 = tmp_path / "a.evs", tmp_path / "b.evs"
        write_events(s, p1)
        write_events(read_events(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_carries_geometry(self, rng, tmp_path):
        s = canonical_sort(random_stream(rng, width=31, height=17, n=10))
        path = tmp_path / "e.evs"
        write_events(s, path)
        back = read_events(path)
        assert (back.width, back.height) == (31, 17) == read_event_geometry(path)

    @pytest.mark.parametrize("width, height", [(4, 4), (300, 4), (4, 200), (30, None), (None, 4)])
    def test_other_given_geometry_raises_before_any_event_is_read(self, tmp_path, width, height):
        # the header's 300x200 won, so read_events(p, 4, 4) returned x = 299
        path = tmp_path / "e.evs"
        write_events(EventStream([0.5], [299], [199], [1], 300, 200, 0.0, 1.0), path)
        blob = bytearray(path.read_bytes())
        blob[-1] = 0  # polarity 0: refused if the record were read
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="events 300x200 do not match the given"):
            read_events(path, width, height)
        with pytest.raises(FormatError, match="polarity"):
            read_events(path, 300, 200)

    def test_csv_has_no_header_geometry(self, rng, tmp_path):
        path = tmp_path / "e.csv"
        write_events(random_stream(rng, width=31, height=17, n=10), path)
        assert read_event_geometry(path) is None

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "e.evs"
        path.write_bytes(b"NOPE" + bytes(12))
        with pytest.raises(FormatError, match="magic"):
            read_events(path)

    def test_truncated_payload(self, rng, tmp_path):
        s = canonical_sort(random_stream(rng, n=10))
        path = tmp_path / "e.evs"
        write_events(s, path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(FormatError, match="size"):
            read_events(path)

    @pytest.mark.parametrize("reader", [read_events, read_event_geometry])
    @pytest.mark.parametrize("cut, extra, match", [(5, b"", "size"), (0, b"\0", "size"), (None, b"", "magic")],
                             ids=["short", "long", "magic"])
    def test_header_and_size_checks(self, rng, tmp_path, reader, cut, extra, match):
        path = tmp_path / "e.evs"
        write_events(canonical_sort(random_stream(rng, n=10)), path)
        blob = path.read_bytes()
        blob = b"NOPE" + blob[4:] if cut is None else blob[:len(blob) - cut] + extra
        path.write_bytes(blob)
        with pytest.raises(FormatError, match=match):
            reader(path)

    def test_fields_own_their_memory(self, rng, tmp_path):
        # no field is a view of the record buffer, so the stream does not
        # keep all 13 bytes of every record alive
        path = tmp_path / "e.evs"
        write_events(canonical_sort(random_stream(rng, n=50)), path)
        back = read_events(path)
        for field in (back.t, back.x, back.y, back.p):
            assert field.base is None and field.flags.c_contiguous

    def test_empty_stream(self, tmp_path):
        path = tmp_path / "e.evs"
        write_events(EventStream.empty(4, 4), path)
        assert path.stat().st_size == 16
        assert len(read_events(path)) == 0

    @pytest.mark.parametrize("x, y", [(70000, 0), (0, 65536), (-1, 0), (0, -1)])
    def test_coordinates_outside_u16_rejected(self, tmp_path, x, y):
        if min(x, y) < 0:  # EventStream refuses these, so no writer sees them
            with pytest.raises(ValueError, match="outside geometry 70001x70001"):
                EventStream([0.5], [x], [y], [1], 70001, 70001, 0.0, 1.0)
            return
        s = EventStream([0.5], [x], [y], [1], 70001, 70001, 0.0, 1.0)
        with pytest.raises(ValueError, match="65535"):
            write_events(s, tmp_path / "e.evs")

    def test_csv_keeps_coordinates_above_u16(self, tmp_path):
        s = EventStream([0.5], [70000], [3], [1], 70001, 4, 0.0, 1.0)
        path = tmp_path / "e.csv"
        write_events(s, path)
        back = read_events(path, width=70001, height=4)
        assert (back.x[0], back.y[0]) == (70000, 3)

    @pytest.mark.parametrize("line", ["10,4294967297,0,1", "10,0,4294967297,1",
                                      "10,2147483648,0,1", "10,0,2147483648,1"])
    def test_csv_coordinates_above_int32_rejected(self, tmp_path, line):
        # the int32 cast in EventStream would wrap x = 4294967297 to x = 1
        path = tmp_path / "e.csv"
        path.write_text(f"{line}\n20,0,0,1\n")
        with pytest.raises(FormatError, match="int32"):
            read_events(path)

    def test_csv_int32_max_coordinates_kept(self, tmp_path):
        top = 2 ** 31 - 1
        path = tmp_path / "e.csv"
        path.write_text(f"10,{top},0,1\n20,0,{top},1\n")
        back = read_events(path)
        assert back.x.tolist() == [top, 0] and back.y.tolist() == [0, top]
        assert (back.width, back.height) == (top + 1, top + 1)

    @pytest.mark.parametrize("suffix", [".evs", ".csv"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e13])
    def test_time_outside_int64_microseconds_rejected(self, tmp_path, suffix, bad):
        s = EventStream([0.5, bad], [0, 1], [0, 1], [1, 1], 4, 4, 0.0, 1.0)
        path = tmp_path / f"e{suffix}"
        with pytest.raises(ValueError, match="finite"):
            write_events(s, path)
        assert not path.exists()

    def test_polarity_check_equals_isin_over_every_int8(self, tmp_path):
        # write_events refuses a bad polarity, so the file is built from its parts
        path = tmp_path / "e.evs"
        header = fileio._EVENT_HEADER.pack(fileio.EVENT_MAGIC, 1, 1, 1)
        for v in range(-128, 128):
            path.write_bytes(header + np.array([(500000, 0, 0, v)], dtype=fileio._EVENT_RECORD).tobytes())
            if v in (-1, 1):
                assert read_events(path).p.tolist() == [v]
            else:
                with pytest.raises(FormatError, match="polarity"):
                    read_events(path)

    @pytest.mark.parametrize("suffix, x, p, width, match", [
        (".evs", 10, 1, 4, "outside geometry"), (".csv", 10, 1, 4, "outside geometry"),
        (".evs", 0, 0, 4, "polarity"), (".csv", 0, 0, 4, "polarity"),
        (".evs", 0, 1, 2 ** 32, "u32")])
    def test_write_refuses_what_read_refuses_before_open(self, tmp_path, suffix, x, p, width, match):
        # each file was written, and read_events refused it (the u32 width raised struct.error);
        # EventStream refuses the stream of each but the last, before write_events sees it
        path = tmp_path / f"e{suffix}"
        with pytest.raises(ValueError, match=match):
            write_events(EventStream([0.5], [x], [0], [p], width, 4, 0.0, 1.0), path)
        assert not path.exists()

    def test_u16_edge_coordinates_roundtrip(self, tmp_path):
        s = EventStream([0.25, 0.5], [0, 65535], [65535, 0], [1, -1], 65536, 65536, 0.0, 1.0)
        path = tmp_path / "e.evs"
        write_events(s, path)
        back = read_events(path)
        assert back.x.tolist() == [0, 65535] and back.y.tolist() == [65535, 0]


def old_us(t: np.ndarray) -> np.ndarray:
    """The microsecond cast before it reused its one float temporary."""
    return np.round(np.asarray(t) * 1e6).astype(np.int64)


edge_times = st.sampled_from([-0.0, 0.0, 0.5e-6, 1.5e-6, -2.5e-6, 2.5, 1e-7,
                              float(np.nextafter(fileio._MAX_T_S, 0)),
                              float(np.nextafter(-fileio._MAX_T_S, 0)), 9.1e12, -9.1e12])
# for most k, (k + 0.5) / 1e6 times 1e6 is k + 0.5 exactly: ties that np.round sends to even
half_us_times = st.integers(-10 ** 9, 10 ** 9).map(lambda k: (k + 0.5) / 1e6)
any_times = st.floats(-fileio._MAX_T_S, fileio._MAX_T_S, exclude_min=True, exclude_max=True)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(t=st.lists(st.one_of(edge_times, half_us_times, any_times), max_size=20),
       suffix=st.sampled_from([".evs", ".csv"]))
def test_event_files_equal_those_of_the_old_microsecond_cast(tmp_path, t, suffix):
    n = len(t)
    s = EventStream(t, np.arange(n) % 7, np.arange(n) % 5, np.where(np.arange(n) % 3, 1, -1),
                    7, 5, 0.0, 1.0)
    new, old = tmp_path / f"new{suffix}", tmp_path / f"old{suffix}"
    write_events(s, new)
    with mock.patch.object(fileio, "_us", old_us):
        write_events(s, old)
    assert new.read_bytes() == old.read_bytes()


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), width=st.sampled_from([0, 1, 4, 65536, 2 ** 32 - 1, 2 ** 32]), height=st.integers(0, 5),
       suffix=st.sampled_from([".evs", ".csv"]))
def test_written_events_are_refused_before_the_file_exists_or_read_back(tmp_path, data, width, height,
                                                                        suffix):
    # in-sensor events, with x past the .evs u16 field on the widest sensors
    xs = [v for v in (0, 3, 4, 65535, 70000) if v < width]
    events = data.draw(st.lists(st.tuples(st.integers(0, 10 ** 6), st.sampled_from(xs or [0]),
                                          st.integers(0, max(height - 1, 0)), st.sampled_from([-1, 1])),
                                max_size=6 if xs and height else 0))
    t_us, x, y, p = (np.array(col, dtype=np.int64) for col in zip(*events)) if events else [[]] * 4
    s = EventStream(np.asarray(t_us) / 1e6, x, y, p, width, height, 0.0, 1.0)
    path = tmp_path / f"e{suffix}"
    path.unlink(missing_ok=True)
    try:
        write_events(s, path)
    except ValueError:
        assert not path.exists()
        return
    back = read_events(path, width, height)
    assert (back.width, back.height) == (width, height)
    assert fileio._us(back.t).tolist() == list(t_us)
    assert back.x.tolist() == list(x) and back.y.tolist() == list(y) and back.p.tolist() == list(p)


def old_write_voxel(grid: VoxelGrid, path) -> None:
    """The ``.vox`` writer without the data and window checks, packed by
    hand from the format; the oracle of the bytes of valid grids."""
    with open(path, "wb") as f:
        f.write(struct.pack("<4sIIIqq", b"VOX1", grid.height, grid.width,
                            grid.n_channels, int(round(grid.t0 * 1e6)),
                            int(round(grid.duration * 1e6))))
        f.write(grid.data.astype("<f4").tobytes())


class TestVoxelFormat:
    def test_file_size_arithmetic(self, tmp_path):
        grid = VoxelGrid(np.zeros((4, 4, 2)), 0.0, 1.0)
        path = tmp_path / "g.vox"
        write_voxel(grid, path)
        # 32-byte header + 4*4*2 float32 payload
        assert path.stat().st_size == 32 + 128

    def test_roundtrip_identity(self, rng, tmp_path):
        data = rng.integers(-5, 6, (6, 7, 3)).astype(float)
        grid = VoxelGrid(data, 0.25, 2.0)
        p1, p2 = tmp_path / "a.vox", tmp_path / "b.vox"
        write_voxel(grid, p1)
        back = read_voxel(p1)
        np.testing.assert_array_equal(back.data, data)
        assert back.t0 == 0.25 and back.duration == 2.0
        write_voxel(back, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("bits", [0x7F800001, 0x7FC00000, 0x7F800000],
                             ids=["signalling-nan", "quiet-nan", "inf"])
    def test_non_finite_data_rejected(self, tmp_path, bits):
        path = tmp_path / "g.vox"
        path.write_bytes(struct.pack("<4sIIIqqI", b"VOX1", 1, 1, 1, 0, 1, bits))
        with pytest.raises(FormatError, match="finite"):
            read_voxel(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e39, -1e39])
    def test_write_refuses_what_read_refuses(self, tmp_path, value):
        path = tmp_path / "g.vox"
        with pytest.raises(ValueError, match="finite and within float32"):
            write_voxel(VoxelGrid(np.full((1, 1, 1), value), 0.0, 1.0), path)
        assert not path.exists()

    @pytest.mark.parametrize("t0, duration", [(np.nan, 1.0), (1e30, 1.0), (0.0, np.inf)],
                             ids=["nan-t0", "huge-t0", "inf-duration"])
    def test_window_outside_int64_us_rejected_before_open(self, tmp_path, t0, duration):
        # each was raised by the header pack, after open had made an empty file
        path = tmp_path / "g.vox"
        with pytest.raises(ValueError, match="t0 and duration must be finite"):
            write_voxel(VoxelGrid(np.zeros((1, 1, 1)), t0, duration), path)
        assert not path.exists()

    @given(t0=st.floats(-9.1e12, 9.1e12), duration=st.floats(0, 9.1e12),
           data=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6))
    @settings(max_examples=50, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_bytes_equal_old_writer(self, tmp_path, t0, duration, data):
        grid = VoxelGrid(np.array(data).reshape(1, -1, 1), t0, duration)
        new, old = tmp_path / "new.vox", tmp_path / "old.vox"
        write_voxel(grid, new)
        old_write_voxel(grid, old)
        assert new.read_bytes() == old.read_bytes()

    def test_write_keeps_float32_max(self, tmp_path):
        top = float(np.finfo(np.float32).max)
        path = tmp_path / "g.vox"
        write_voxel(VoxelGrid(np.array([[[top, -top]]]), 0.0, 1.0), path)
        assert read_voxel(path).data.tolist() == [[[top, -top]]]

    def test_truncated_rejected(self, rng, tmp_path):
        grid = VoxelGrid(rng.uniform(-1, 1, (2, 2, 2)), 0.0, 1.0)
        path = tmp_path / "g.vox"
        write_voxel(grid, path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(FormatError, match="size"):
            read_voxel(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "g.vox"
        path.write_bytes(b"XXXX" + bytes(28))
        with pytest.raises(FormatError, match="magic"):
            read_voxel(path)


class TestImages:
    def test_p5_endpoint_values(self, tmp_path):
        path = tmp_path / "i.pgm"
        path.write_bytes(b"P5\n2 1\n255\n" + bytes([0, 255]))
        np.testing.assert_array_equal(read_image(path), [[0.0, 1.0]])

    def test_write_read_identity(self, rng, tmp_path):
        img = rng.uniform(0, 1, (9, 7))
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_image(img, p1)
        write_image(read_image(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape", [(2, 3), (2, 3, 3)], ids=["p5", "p6"])
    def test_write_refuses_non_finite_pixels(self, tmp_path, value, shape):
        img = np.full(shape, 0.5)
        img[1, 2] = value
        path = tmp_path / "i.pnm"
        # the suite turns the uint8 cast's RuntimeWarning into an error, so
        # this fails on the cast if the check is missing
        with pytest.raises(ValueError, match="finite"):
            write_image(img, path)
        assert not path.exists()

    def test_p6_luma_conversion(self, tmp_path):
        path = tmp_path / "i.ppm"
        path.write_bytes(b"P6\n1 1\n255\n" + bytes([255, 0, 0]))
        assert read_image(path)[0, 0] == pytest.approx(0.299)

    def test_comment_in_header(self, tmp_path):
        path = tmp_path / "i.pgm"
        path.write_bytes(b"P5\n# a comment\n1 1\n255\n" + bytes([128]))
        assert read_image(path)[0, 0] == pytest.approx(128 / 255)

    def test_unsupported_magic(self, tmp_path):
        path = tmp_path / "i.pgm"
        path.write_bytes(b"P2\n1 1\n255\n0")
        with pytest.raises(FormatError, match="magic"):
            read_image(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "i.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(5))
        with pytest.raises(FormatError, match="truncated"):
            read_image(path)


class TestLoadFrames:
    def write_dir(self, tmp_path, values):
        d = tmp_path / "frames"
        d.mkdir()
        for i, v in enumerate(values):
            write_image(np.full((4, 4), v), d / f"{i:04d}.pgm")
        return d

    def test_fps_timestamps(self, tmp_path):
        d = self.write_dir(tmp_path, [0.2, 0.4])
        seq = load_frames(d, fps=100.0)
        np.testing.assert_allclose(seq.timestamps, [0.0, 0.01])
        assert seq.frames[0, 0, 0] == pytest.approx(round(0.2 * 255) / 255)

    def test_timestamp_file(self, tmp_path):
        d = self.write_dir(tmp_path, [0.1, 0.2, 0.3])
        ts = tmp_path / "ts.txt"
        ts.write_text("0\n5000\n10000\n")
        seq = load_frames(d, timestamps_path=ts)
        np.testing.assert_allclose(seq.timestamps, [0.0, 0.005, 0.010])

    def test_timestamp_count_mismatch(self, tmp_path):
        d = self.write_dir(tmp_path, [0.1, 0.2])
        ts = tmp_path / "ts.txt"
        ts.write_text("0\n1\n2\n")
        with pytest.raises(FormatError, match="timestamps"):
            load_frames(d, timestamps_path=ts)

    def test_eight_bit_roundtrip_exact(self, rng, tmp_path):
        d = tmp_path / "frames"
        d.mkdir()
        raw = rng.integers(0, 256, (4, 4), dtype=np.uint8)
        write_image(raw / 255.0, d / "0.pgm")
        seq = load_frames(d, fps=1.0)
        np.testing.assert_array_equal(np.round(seq.frames[0] * 255), raw)

    @pytest.mark.parametrize("text", ["0\nabc\n", "0\n1.5\n", "0 1\n2 3\n", "0\n1 2\n"])
    def test_malformed_timestamp_file(self, tmp_path, text):
        d = self.write_dir(tmp_path, [0.1, 0.2])
        ts = tmp_path / "ts.txt"
        ts.write_text(text)
        with pytest.raises(FormatError, match="timestamps"):
            load_frames(d, timestamps_path=ts)

    @pytest.mark.parametrize("fps", [np.nan, 0.0, -1.0])
    def test_fps_not_positive_rejected(self, tmp_path, fps):
        d = self.write_dir(tmp_path, [0.1, 0.2])
        with pytest.raises(ValueError, match="fps"):
            load_frames(d, fps=fps)

    def test_missing_dir_and_bad_args(self, tmp_path):
        with pytest.raises(FormatError):
            load_frames(tmp_path / "nope", fps=10.0)
        d = self.write_dir(tmp_path, [0.5])
        with pytest.raises(ValueError):
            load_frames(d)


def write_rgb_frames(directory, frames, suffix):
    """Each H x W x 3 uint8 frame as a P6 image named ``{i:04d}{suffix}``."""
    directory.mkdir()
    for i, frame in enumerate(frames):
        write_image(frame / 255.0, directory / f"{i:04d}{suffix}")
    return directory


def pillow_stub():
    """A ``PIL`` package whose ``Image.open`` decodes the P6 bytes that
    :func:`write_rgb_frames` stores under any name, as Pillow decodes a PNG."""

    class Opened:
        def __init__(self, path):
            magic, dims, _, payload = Path(path).read_bytes().split(b"\n", 3)
            assert magic == b"P6"
            w, h = (int(v) for v in dims.split())
            self.rgb = np.frombuffer(payload, dtype=np.uint8).reshape(h, w, 3)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def convert(self, mode):
            assert mode == "RGB"
            return self.rgb

    image = types.ModuleType("PIL.Image")
    image.open = Opened
    pil = types.ModuleType("PIL")
    pil.Image = image
    return pil


class TestPillowFrames:
    """``load_frames`` reads frames other than PGM/PPM through Pillow."""

    def frames(self, rng):
        return rng.integers(0, 256, (3, 5, 7, 3), dtype=np.uint8)

    def test_decoded_frames_equal_the_same_frames_as_ppm(self, rng, tmp_path, monkeypatch):
        frames = self.frames(rng)
        pil = pillow_stub()
        monkeypatch.setitem(sys.modules, "PIL", pil)
        monkeypatch.setitem(sys.modules, "PIL.Image", pil.Image)
        png = load_frames(write_rgb_frames(tmp_path / "png", frames, ".png"), fps=10.0)
        ppm = load_frames(write_rgb_frames(tmp_path / "ppm", frames, ".ppm"), fps=10.0)
        assert png.frames.tobytes() == ppm.frames.tobytes()
        assert png.timestamps.tobytes() == ppm.timestamps.tobytes()

    def test_without_pillow_names_the_extra_and_simulate_exits_2(self, rng, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(sys.modules, "PIL", None)  # import PIL raises ImportError
        monkeypatch.delitem(sys.modules, "PIL.Image", raising=False)
        d = write_rgb_frames(tmp_path / "png", self.frames(rng), ".png")
        with pytest.raises(FormatError, match=r"evtkit\[frames\]"):
            load_frames(d, fps=10.0)
        out = tmp_path / "e.evs"
        assert run(["simulate", "--frames", str(d), "--fps", "10", "--out", str(out)]) == 2
        assert "evtkit[frames]" in capsys.readouterr().err
        assert not out.exists()

    def test_real_png_frames_equal_the_same_frames_as_ppm(self, rng, tmp_path):
        image = pytest.importorskip("PIL.Image")
        frames = self.frames(rng)
        d = tmp_path / "png"
        d.mkdir()
        for i, frame in enumerate(frames):
            image.fromarray(frame).save(d / f"{i:04d}.png")
        png = load_frames(d, fps=10.0)
        ppm = load_frames(write_rgb_frames(tmp_path / "ppm", frames, ".ppm"), fps=10.0)
        assert png.frames.tobytes() == ppm.frames.tobytes()


def read_or_format_error(reader, path):
    """Run ``reader``: it may succeed or raise FormatError, nothing else."""
    try:
        reader(path)
    except FormatError:
        pass


u32 = st.one_of(st.integers(0, 4), st.integers(0, 2**32 - 1))
header_token = st.one_of(st.integers(-2, 300).map(lambda v: str(v).encode()),
                         st.sampled_from([b"255", b"abc", b"2.5", b"0x10", b"\xff", b"1e3"]))
csv_field = st.one_of(st.integers(-2, 70000).map(str),
                      st.sampled_from(["", " ", "abc", "1.5", "1e3", "nan", "-", "99999999999999999999"]))


@st.composite
def evs_blobs(draw):
    magic = draw(st.sampled_from([b"EVS1", b"EVS2", b"\0\0\0\0"]))
    head = struct.pack("<4sIII", magic, draw(u32), draw(u32), draw(u32))
    return head + draw(st.binary(max_size=60))


@st.composite
def vox_blobs(draw):
    magic = draw(st.sampled_from([b"VOX1", b"VOX2"]))
    h, w, n = draw(u32), draw(u32), draw(u32)
    head = struct.pack("<4sIIIqq", magic, h, w, n, draw(st.integers(-2**63, 2**63 - 1)),
                       draw(st.integers(-2**63, 2**63 - 1)))
    if h * w * n <= 64 and draw(st.booleans()):
        return head + draw(st.binary(min_size=4 * h * w * n, max_size=4 * h * w * n))
    return head + draw(st.binary(max_size=64))


@st.composite
def pnm_blobs(draw):
    magic = draw(st.sampled_from([b"P5", b"P6", b"P2", b"abc"]))
    sep = st.sampled_from([b" ", b"\n", b"\t", b"\n# c\n"])
    head = magic
    for _ in range(3):
        head += draw(sep) + draw(header_token)
    return head + draw(st.sampled_from([b"\n", b" ", b""])) + draw(st.binary(max_size=40))


@st.composite
def csv_blobs(draw):
    rows = draw(st.lists(st.lists(csv_field, max_size=6), max_size=6))
    return "".join(",".join(row) + "\n" for row in rows).encode()


# Each example overwrites the one file under tmp_path, so sharing it is safe.
fuzz = settings(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestReaderFuzz:
    @fuzz
    @given(blob=st.one_of(st.binary(max_size=80), evs_blobs()))
    def test_evs_garbage(self, tmp_path, blob):
        path = tmp_path / "f.evs"
        path.write_bytes(blob)
        read_or_format_error(read_events, path)

    @fuzz
    @given(blob=st.one_of(st.binary(max_size=80), csv_blobs()))
    def test_csv_garbage(self, tmp_path, blob):
        path = tmp_path / "f.csv"
        path.write_bytes(blob)
        read_or_format_error(read_events, path)

    @fuzz
    @given(blob=st.one_of(st.binary(max_size=80), vox_blobs()))
    def test_voxel_garbage(self, tmp_path, blob):
        path = tmp_path / "f.vox"
        path.write_bytes(blob)
        read_or_format_error(read_voxel, path)

    @fuzz
    @given(blob=st.one_of(st.binary(max_size=80), pnm_blobs()))
    def test_image_garbage(self, tmp_path, blob):
        path = tmp_path / "f.pgm"
        path.write_bytes(blob)
        read_or_format_error(read_image, path)

    @fuzz
    @given(seed=st.integers(0, 2**32 - 1), cut=st.floats(0, 1, exclude_max=True),
           suffix=st.sampled_from([".evs", ".vox", ".pgm", ".ppm", ".csv"]))
    def test_truncated(self, tmp_path, seed, cut, suffix):
        rng = np.random.default_rng(seed)
        path = tmp_path / f"f{suffix}"
        if suffix in (".evs", ".csv"):
            write_events(canonical_sort(random_stream(rng, n=int(rng.integers(1, 6)))), path)
            reader = read_events
        elif suffix == ".vox":
            write_voxel(VoxelGrid(rng.uniform(-1, 1, (2, 3, 2)), 0.5, 1.0), path)
            reader = read_voxel
        else:
            write_image(rng.uniform(0, 1, (3, 2) if suffix == ".pgm" else (3, 2, 3)), path)
            reader = read_image
        blob = path.read_bytes()
        path.write_bytes(blob[:int(cut * len(blob))])
        if suffix == ".csv":  # a cut at a line end leaves a valid, shorter file
            read_or_format_error(reader, path)
        else:
            with pytest.raises(FormatError):
                reader(path)

    def test_non_numeric_pnm_header(self, tmp_path):
        path = tmp_path / "i.pgm"
        path.write_bytes(b"P5 abc 2 255\n" + bytes(4))
        with pytest.raises(FormatError, match="abc"):
            read_image(path)

    def test_non_integer_csv_field(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("10,1,1,1\n20,x,1,1\n")
        with pytest.raises(FormatError):
            read_events(path)

    @pytest.mark.parametrize("h, w, n", [(0, 2**32 - 1, 2**32 - 1), (2**32 - 1, 0, 2**32 - 1),
                                         (0, 2**30, 2**30)])
    def test_empty_voxel_grid_of_huge_sides(self, tmp_path, h, w, n):
        # with no values to hold, the header's sides were trusted: numpy's
        # "array is too big" ValueError escaped from the reshape or, at
        # 2**60 float32 values, from the cast to float64
        path = tmp_path / "g.vox"
        path.write_bytes(struct.pack("<4sIIIqq", b"VOX1", h, w, n, 0, 1))
        with pytest.raises(FormatError, match="too large"):
            read_voxel(path)
        path.write_bytes(struct.pack("<4sIIIqq", b"VOX1", 0, 0, n, 0, 1))
        assert read_voxel(path).data.shape == (0, 0, n)

    def test_voxel_with_zero_channels(self, tmp_path):
        path = tmp_path / "g.vox"
        path.write_bytes(struct.pack("<4sIIIqq", b"VOX1", 2, 2, 0, 0, 1))
        with pytest.raises(FormatError):
            read_voxel(path)
