import numpy as np
import pytest

from evtkit import EventStream, VoxelGrid, canonical_sort
from evtkit.fileio import (
    FormatError,
    load_frames,
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
        with pytest.raises(FormatError, match="coordinates"):
            read_events(path, width=10, height=10)

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
        assert (back.width, back.height) == (31, 17)

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

    def test_empty_stream(self, tmp_path):
        path = tmp_path / "e.evs"
        write_events(EventStream.empty(4, 4), path)
        assert path.stat().st_size == 16
        assert len(read_events(path)) == 0

    @pytest.mark.parametrize("x, y", [(70000, 0), (0, 65536), (-1, 0), (0, -1)])
    def test_coordinates_outside_u16_rejected(self, tmp_path, x, y):
        s = EventStream([0.5], [x], [y], [1], 70000, 70000, 0.0, 1.0)
        with pytest.raises(ValueError, match="65535"):
            write_events(s, tmp_path / "e.evs")

    def test_csv_keeps_coordinates_above_u16(self, tmp_path):
        s = EventStream([0.5], [70000], [3], [1], 70001, 4, 0.0, 1.0)
        path = tmp_path / "e.csv"
        write_events(s, path)
        back = read_events(path, width=70001, height=4)
        assert (back.x[0], back.y[0]) == (70000, 3)

    def test_u16_edge_coordinates_roundtrip(self, tmp_path):
        s = EventStream([0.25, 0.5], [0, 65535], [65535, 0], [1, -1], 65536, 65536, 0.0, 1.0)
        path = tmp_path / "e.evs"
        write_events(s, path)
        back = read_events(path)
        assert back.x.tolist() == [0, 65535] and back.y.tolist() == [65535, 0]


class TestVoxelFormat:
    def test_file_size_arithmetic(self, tmp_path):
        grid = VoxelGrid(np.zeros((4, 4, 2)), 0.0, 1.0, 2)
        path = tmp_path / "g.vox"
        write_voxel(grid, path)
        # 32-byte header + 4*4*2 float32 payload
        assert path.stat().st_size == 32 + 128

    def test_roundtrip_identity(self, rng, tmp_path):
        data = rng.integers(-5, 6, (6, 7, 3)).astype(float)
        grid = VoxelGrid(data, 0.25, 2.0, 3)
        p1, p2 = tmp_path / "a.vox", tmp_path / "b.vox"
        write_voxel(grid, p1)
        back = read_voxel(p1)
        np.testing.assert_array_equal(back.data, data)
        assert back.t0 == 0.25 and back.duration == 2.0
        write_voxel(back, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_rejected(self, rng, tmp_path):
        grid = VoxelGrid(rng.uniform(-1, 1, (2, 2, 2)), 0.0, 1.0, 2)
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

    def test_p6_luma_conversion(self, tmp_path):
        path = tmp_path / "i.ppm"
        path.write_bytes(b"P6\n1 1\n255\n" + bytes([255, 0, 0]))
        assert read_image(path)[0, 0] == pytest.approx(0.299)
        assert read_image(path, as_gray=False).shape == (1, 1, 3)

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

    def test_missing_dir_and_bad_args(self, tmp_path):
        with pytest.raises(FormatError):
            load_frames(tmp_path / "nope", fps=10.0)
        d = self.write_dir(tmp_path, [0.5])
        with pytest.raises(ValueError):
            load_frames(d)
