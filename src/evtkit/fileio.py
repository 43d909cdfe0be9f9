"""File formats: event streams (CSV / binary), voxel tensors, PNM images,
and frame-directory ingestion.

All binary formats are little-endian and roundtrip-exact. Timestamps are
integer microseconds on disk and float seconds in memory.

Binary events (.evs): 16-byte header -- magic ``EVS1``, width u32, height
u32, count u32 -- followed by ``count`` packed 13-byte records
(t_us i64, x u16, y u16, p i8). A reader checks the file's size against the
header's count before it reads a record, so the header alone gives a
checked geometry (:func:`read_event_geometry`).

Voxel tensor (.vox): header -- magic ``VOX1``, H u32, W u32, N u32,
t0_us i64, T_us i64 -- followed by H*W*N float32 values in (h, w, n)
row-major order.

Images: portable graymap/pixmap, P5/P6 binary, maxval 255.
"""

from __future__ import annotations

import os
import struct
import warnings
from pathlib import Path

import numpy as np

from .core import EventStream, FrameSequence, VoxelGrid

__all__ = [
    "FormatError",
    "read_events", "read_event_geometry", "write_events",
    "read_voxel", "write_voxel",
    "read_image", "write_image",
    "load_frames",
]

EVENT_MAGIC = b"EVS1"
VOXEL_MAGIC = b"VOX1"
_EVENT_HEADER = struct.Struct("<4sIII")
_VOXEL_HEADER = struct.Struct("<4sIIIqq")
_EVENT_RECORD = np.dtype([("t", "<i8"), ("x", "<u2"), ("y", "<u2"), ("p", "<i1")])

PNM_SUFFIXES = {".pgm", ".ppm", ".pnm"}
_MAX_T_S = 9.2e12  # |t| bound in seconds whose microseconds fit int64
_MAX_F4 = float(np.finfo(np.float32).max)


class FormatError(ValueError):
    """Malformed or inconsistent file content."""


def _check_seconds(t, what: str) -> None:
    # min/max propagate NaN; the bound keeps t * 1e6 inside int64
    if not (np.min(t) > -_MAX_T_S and np.max(t) < _MAX_T_S):
        raise ValueError(f"{what} must be finite and within +/-{_MAX_T_S:.3g} s")


def _us(t: np.ndarray) -> np.ndarray:
    us = np.multiply(t, 1e6)  # the one float temporary, rounded in place
    return np.round(us, out=us).astype(np.int64)


def _seconds(t_us: np.ndarray) -> np.ndarray:
    return np.asarray(t_us, dtype=np.float64) / 1e6


def write_events(stream: EventStream, path) -> None:
    """Write an event stream as CSV (`t_us,x,y,p` lines) when ``path`` ends in
    ``.csv``, else as binary records. Before ``path`` is opened, a stream that
    :func:`read_events` would refuse raises ValueError."""
    path = Path(path)
    if len(stream):
        _check_seconds(stream.t, "event times")
    csv = path.suffix == ".csv"
    # EventStream keeps coordinates and geometry >= 0, so only the tops can fail
    if not csv and len(stream) and max(stream.x.max(), stream.y.max()) > 0xFFFF:
        raise ValueError("event coordinates above 65535 do not fit .evs u16 fields")
    if not csv and max(stream.width, stream.height) > 0xFFFFFFFF:
        raise ValueError(f"geometry {stream.width}x{stream.height} does not fit .evs u32 fields")
    t_us = _us(stream.t)
    if csv:
        cols = np.column_stack([t_us, stream.x.astype(np.int64),
                                stream.y.astype(np.int64), stream.p.astype(np.int64)])
        np.savetxt(path, cols, fmt="%d", delimiter=",")
    else:
        rec = np.empty(len(stream), dtype=_EVENT_RECORD)  # packed: every byte is set below
        rec["t"] = t_us
        rec["x"] = stream.x
        rec["y"] = stream.y
        rec["p"] = stream.p
        with open(path, "wb") as f:
            f.write(_EVENT_HEADER.pack(EVENT_MAGIC, stream.width, stream.height, len(stream)))
            f.write(rec.data)


def _read_event_header(f) -> tuple[int, int, int]:
    """Width, height and count from the header of the binary event file open
    as ``f``, left at the first record; raises FormatError unless the file's
    size is the header's plus ``count`` records."""
    header = f.read(_EVENT_HEADER.size)
    if len(header) < _EVENT_HEADER.size:
        raise FormatError("truncated event file header")
    magic, width, height, count = _EVENT_HEADER.unpack(header)
    if magic != EVENT_MAGIC:
        raise FormatError(f"bad event file magic: {magic!r}")
    if os.fstat(f.fileno()).st_size - _EVENT_HEADER.size != count * _EVENT_RECORD.itemsize:
        raise FormatError("event payload size does not match header count")
    return width, height, count


def read_event_geometry(path) -> tuple[int, int] | None:
    """Width and height of an event file without reading its events: from the
    header of a binary file, after the header and size checks of
    :func:`read_events`; None for CSV, which stores no geometry."""
    if Path(path).suffix == ".csv":
        return None
    with open(path, "rb") as f:
        return _read_event_header(f)[:2]


def read_events(path, width: int | None = None, height: int | None = None) -> EventStream:
    """Read an event stream: CSV when ``path`` ends in ``.csv``, else binary.
    Binary files carry their geometry, and a ``width`` or ``height`` given
    that differs from their header's raises FormatError before any event is
    read; CSV takes ``width``/``height`` (inferred as max coordinate + 1 when
    omitted)."""
    path = Path(path)
    if path.suffix == ".csv":
        try:
            with warnings.catch_warnings():  # a file without rows is 0 events, not a warning
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                raw = np.loadtxt(path, delimiter=",", dtype=np.int64, ndmin=2)
        except ValueError as exc:  # non-integer field, ragged rows, undecodable bytes
            raise FormatError(f"malformed CSV events: {exc}") from None
        if raw.size == 0:
            raw = raw.reshape(0, 4)
        if raw.shape[1] != 4:
            raise FormatError("CSV events need 4 columns: t_us,x,y,p")
        t_us, x, y, p = raw.T
        if width is None:
            width = int(x.max()) + 1 if len(x) else 1
        if height is None:
            height = int(y.max()) + 1 if len(y) else 1
    else:
        with open(path, "rb") as f:
            header_w, header_h, count = _read_event_header(f)
            if width not in (None, header_w) or height not in (None, header_h):
                raise FormatError(f"events {header_w}x{header_h} do not match the given {width}x{height}")
            width, height = header_w, header_h
            rec = np.empty(count, dtype=_EVENT_RECORD)
            if f.readinto(rec.data.cast("B")) != rec.nbytes:
                raise FormatError("event payload size does not match header count")
        # fields are gathered out of the records, so the stream does not keep
        # them alive; u16 fits int32, the dtype EventStream keeps
        t_us, x, y, p = rec["t"], rec["x"].astype(np.int32), rec["y"].astype(np.int32), rec["p"].copy()
    t = _seconds(t_us)
    t_start = float(t.min()) if len(t) else 0.0
    t_end = float(t.max()) if len(t) else 0.0
    try:
        return EventStream(t, x, y, p, width, height, t_start, t_end)
    except ValueError as exc:  # a coordinate past int32, an event off the sensor, a polarity not +/-1
        raise FormatError(f"bad events: {exc}") from None


def write_voxel(grid: VoxelGrid, path) -> None:
    """Write a voxel grid as float32; refuses what ``read_voxel`` refuses."""
    # the comparison is False for NaN, so this also rejects NaN and +/-inf
    if not (np.abs(grid.data) <= _MAX_F4).all():
        raise ValueError("voxel data must be finite and within float32 range")
    _check_seconds((grid.t0, grid.duration), "voxel t0 and duration")
    with open(path, "wb") as f:
        f.write(_VOXEL_HEADER.pack(VOXEL_MAGIC, grid.height, grid.width,
                                   grid.n_channels, int(round(grid.t0 * 1e6)),
                                   int(round(grid.duration * 1e6))))
        f.write(grid.data.astype("<f4").tobytes())


def read_voxel(path) -> VoxelGrid:
    blob = Path(path).read_bytes()
    if len(blob) < _VOXEL_HEADER.size:
        raise FormatError("truncated voxel file header")
    magic, h, w, n, t0_us, t_us = _VOXEL_HEADER.unpack_from(blob)
    if magic != VOXEL_MAGIC:
        raise FormatError(f"bad voxel file magic: {magic!r}")
    if len(blob) - _VOXEL_HEADER.size != h * w * n * 4:
        raise FormatError("voxel payload size does not match header")
    if n < 1:
        raise FormatError("voxel file has no channels")
    # numpy refuses a shape whose nonzero sides need more bytes than intp
    # counts, even when another side is 0 and the file holds no values
    if max(h, 1) * max(w, 1) * n * 8 > np.iinfo(np.intp).max:
        raise FormatError(f"voxel geometry {h}x{w}x{n} is too large for a float64 grid")
    data = np.frombuffer(blob, dtype="<f4", offset=_VOXEL_HEADER.size).reshape(h, w, n)
    if not np.isfinite(data).all():  # before the cast, which warns on a signalling NaN
        raise FormatError("voxel data must be finite")
    return VoxelGrid(data.astype(np.float64), t0_us / 1e6, t_us / 1e6)


def _read_pnm_tokens(blob: bytes, count: int):
    """First ``count`` whitespace-separated header tokens, skipping # comments.
    Returns (tokens, offset past the single whitespace after the last one)."""
    tokens = []
    i = 0
    while len(tokens) < count:
        if i >= len(blob):
            raise FormatError("malformed PNM header")
        ch = blob[i:i + 1]
        if ch == b"#":
            while i < len(blob) and blob[i:i + 1] != b"\n":
                i += 1
        elif ch.isspace():
            i += 1
        else:
            j = i
            while j < len(blob) and not blob[j:j + 1].isspace() and blob[j:j + 1] != b"#":
                j += 1
            tokens.append(blob[i:j])
            i = j
    return tokens, i + 1  # exactly one whitespace byte before the payload


def read_image(path) -> np.ndarray:
    """Read a P5/P6 PNM image to float [0, 1] (value / 255), H x W.

    P6 color is reduced to luma 0.299R + 0.587G + 0.114B.
    """
    blob = Path(path).read_bytes()
    tokens, offset = _read_pnm_tokens(blob, 4)
    magic = tokens[0]
    if magic not in (b"P5", b"P6"):
        raise FormatError(f"unsupported image magic: {magic!r}")
    if not all(v.isdigit() for v in tokens[1:]):
        raise FormatError(f"non-numeric PNM header: {b' '.join(tokens[1:])!r}")
    w, h, maxval = (int(v) for v in tokens[1:])
    if maxval != 255:
        raise FormatError("only maxval 255 is supported")
    channels = 1 if magic == b"P5" else 3
    payload = blob[offset:offset + w * h * channels]
    if len(payload) != w * h * channels:
        raise FormatError("truncated PNM payload")
    pix = np.frombuffer(payload, dtype=np.uint8).astype(np.float64) / 255.0
    if channels == 1:
        return pix.reshape(h, w)
    return pix.reshape(h, w, 3) @ np.array([0.299, 0.587, 0.114])


def write_image(image: np.ndarray, path) -> None:
    """Write a [0, 1] image as P5 (2-D input) or P6 (H x W x 3 input)."""
    image = np.asarray(image, dtype=np.float64)
    if not np.isfinite(image).all():  # the uint8 cast would make NaN byte 0
        raise ValueError("image pixels must be finite")
    quant = np.round(np.clip(image, 0.0, 1.0) * 255.0).astype(np.uint8)
    if image.ndim == 2:
        header = f"P5\n{image.shape[1]} {image.shape[0]}\n255\n"
    elif image.ndim == 3 and image.shape[2] == 3:
        header = f"P6\n{image.shape[1]} {image.shape[0]}\n255\n"
    else:
        raise ValueError("image must be H x W or H x W x 3")
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        f.write(quant.tobytes())


def _decode_frame(path: Path) -> np.ndarray:
    if path.suffix.lower() in PNM_SUFFIXES:
        return read_image(path)
    try:
        from PIL import Image as PILImage
    except ImportError as exc:
        raise FormatError(
            f"{path.suffix} frames need Pillow; install evtkit[frames] "
            "or convert to PGM/PPM") from exc
    with PILImage.open(path) as img:
        arr = np.asarray(img.convert("RGB"), dtype=np.float64) / 255.0
    return arr @ np.array([0.299, 0.587, 0.114])


def load_frames(directory, timestamps_path=None, fps: float | None = None) -> FrameSequence:
    """Load a directory of frames in lexicographic order.

    Timing comes from a timestamps file (one integer microsecond per line)
    or a constant ``fps``; exactly one must be given.
    """
    if (timestamps_path is None) == (fps is None):
        raise ValueError("give exactly one of fps and timestamps")
    directory = Path(directory)
    if not directory.is_dir():
        raise FormatError(f"not a directory: {directory}")
    paths = sorted(p for p in directory.iterdir()
                   if p.suffix.lower() in PNM_SUFFIXES | {".png", ".jpg", ".jpeg", ".bmp"})
    if not paths:
        raise FormatError(f"no frames found in {directory}")
    frames = np.stack([_decode_frame(p) for p in paths])
    if timestamps_path is not None:
        try:
            t_us = np.loadtxt(timestamps_path, dtype=np.int64, ndmin=1)
        except ValueError as exc:  # non-integer field, ragged rows, undecodable bytes
            raise FormatError(f"malformed timestamps file: {exc}") from None
        if t_us.ndim != 1:
            raise FormatError("timestamps file needs one integer per line")
        if len(t_us) != len(frames):
            raise FormatError(
                f"{len(t_us)} timestamps for {len(frames)} frames")
        timestamps = _seconds(t_us)
    else:
        if not fps > 0:  # NaN fails too
            raise ValueError("fps must be > 0")
        timestamps = np.arange(len(frames)) / fps
    return FrameSequence(np.clip(frames, 0.0, 1.0), timestamps)
