"""File formats: event streams (CSV / binary), voxel tensors, PNM images,
and frame-directory ingestion.

All binary formats are little-endian and roundtrip-exact. Timestamps are
integer microseconds on disk and float seconds in memory.

Binary events (.evs): 16-byte header -- magic ``EVS1``, width u32, height
u32, count u32 -- followed by ``count`` packed 13-byte records
(t_us i64, x u16, y u16, p i8).

Voxel tensor (.vox): header -- magic ``VOX1``, H u32, W u32, N u32,
t0_us i64, T_us i64 -- followed by H*W*N float32 values in (h, w, n)
row-major order.

Images: portable graymap/pixmap, P5/P6 binary, maxval 255.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .core import EventStream, FrameSequence, VoxelGrid

__all__ = [
    "FormatError",
    "read_events", "write_events",
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


class FormatError(ValueError):
    """Malformed or inconsistent file content."""


def _us(t: np.ndarray) -> np.ndarray:
    return np.round(np.asarray(t) * 1e6).astype(np.int64)


def _seconds(t_us: np.ndarray) -> np.ndarray:
    return np.asarray(t_us, dtype=np.float64) / 1e6


def _check_events(t_us, x, y, p, width, height):
    if len(p) and not np.isin(p, (-1, 1)).all():
        raise FormatError("polarity outside {-1, 1}")
    if len(x) and ((x < 0).any() or (x >= width).any()
                   or (y < 0).any() or (y >= height).any()):
        raise FormatError("event coordinates outside geometry")


def write_events(stream: EventStream, path, fmt: str | None = None) -> None:
    """Write an event stream as CSV (`t_us,x,y,p` lines) or binary records."""
    path = Path(path)
    fmt = fmt or ("csv" if path.suffix == ".csv" else "bin")
    t_us = _us(stream.t)
    if fmt == "csv":
        cols = np.column_stack([t_us, stream.x.astype(np.int64),
                                stream.y.astype(np.int64), stream.p.astype(np.int64)])
        np.savetxt(path, cols, fmt="%d", delimiter=",")
    elif fmt == "bin":
        if len(stream) and (min(stream.x.min(), stream.y.min()) < 0
                            or max(stream.x.max(), stream.y.max()) > 0xFFFF):
            raise ValueError("event coordinates outside 0..65535 do not fit .evs u16 fields")
        rec = np.zeros(len(stream), dtype=_EVENT_RECORD)
        rec["t"] = t_us
        rec["x"] = stream.x
        rec["y"] = stream.y
        rec["p"] = stream.p
        with open(path, "wb") as f:
            f.write(_EVENT_HEADER.pack(EVENT_MAGIC, stream.width, stream.height, len(stream)))
            f.write(rec.tobytes())
    else:
        raise ValueError(f"unknown event format: {fmt}")


def read_events(path, fmt: str | None = None,
                width: int | None = None, height: int | None = None) -> EventStream:
    """Read an event stream. Binary files carry their geometry; CSV needs
    ``width``/``height`` (inferred as max coordinate + 1 when omitted)."""
    path = Path(path)
    fmt = fmt or ("csv" if path.suffix == ".csv" else "bin")
    if fmt == "csv":
        raw = np.loadtxt(path, delimiter=",", dtype=np.int64, ndmin=2)
        if raw.size == 0:
            raw = raw.reshape(0, 4)
        if raw.shape[1] != 4:
            raise FormatError("CSV events need 4 columns: t_us,x,y,p")
        t_us, x, y, p = raw.T
        if width is None:
            width = int(x.max()) + 1 if len(x) else 1
        if height is None:
            height = int(y.max()) + 1 if len(y) else 1
    elif fmt == "bin":
        blob = Path(path).read_bytes()
        if len(blob) < _EVENT_HEADER.size:
            raise FormatError("truncated event file header")
        magic, width, height, count = _EVENT_HEADER.unpack_from(blob)
        if magic != EVENT_MAGIC:
            raise FormatError(f"bad event file magic: {magic!r}")
        payload = blob[_EVENT_HEADER.size:]
        if len(payload) != count * _EVENT_RECORD.itemsize:
            raise FormatError("event payload size does not match header count")
        rec = np.frombuffer(payload, dtype=_EVENT_RECORD)
        t_us, x, y, p = rec["t"], rec["x"].astype(np.int64), rec["y"].astype(np.int64), rec["p"]
    else:
        raise ValueError(f"unknown event format: {fmt}")
    _check_events(t_us, x, y, p, width, height)
    t = _seconds(t_us)
    t_start = float(t.min()) if len(t) else 0.0
    t_end = float(t.max()) if len(t) else 0.0
    return EventStream(t, x, y, p, width, height, t_start, t_end)


def write_voxel(grid: VoxelGrid, path) -> None:
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
    payload = blob[_VOXEL_HEADER.size:]
    if len(payload) != h * w * n * 4:
        raise FormatError("voxel payload size does not match header")
    data = np.frombuffer(payload, dtype="<f4").reshape(h, w, n)
    return VoxelGrid(data.astype(np.float64), t0_us / 1e6, t_us / 1e6, n)


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


def read_image(path, as_gray: bool = True) -> np.ndarray:
    """Read a P5/P6 PNM image to float [0, 1] (value / 255).

    P6 color is reduced to luma 0.299R + 0.587G + 0.114B when ``as_gray``;
    otherwise returned as H x W x 3.
    """
    blob = Path(path).read_bytes()
    tokens, offset = _read_pnm_tokens(blob, 4)
    magic = tokens[0]
    if magic not in (b"P5", b"P6"):
        raise FormatError(f"unsupported image magic: {magic!r}")
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
    pix = pix.reshape(h, w, 3)
    if as_gray:
        return pix @ np.array([0.299, 0.587, 0.114])
    return pix


def write_image(image: np.ndarray, path) -> None:
    """Write a [0, 1] image as P5 (2-D input) or P6 (H x W x 3 input)."""
    image = np.asarray(image, dtype=np.float64)
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
        raise ValueError("give exactly one of timestamps_path or fps")
    directory = Path(directory)
    if not directory.is_dir():
        raise FormatError(f"not a directory: {directory}")
    paths = sorted(p for p in directory.iterdir()
                   if p.suffix.lower() in PNM_SUFFIXES | {".png", ".jpg", ".jpeg", ".bmp"})
    if not paths:
        raise FormatError(f"no frames found in {directory}")
    frames = np.stack([_decode_frame(p) for p in paths])
    if timestamps_path is not None:
        t_us = np.loadtxt(timestamps_path, dtype=np.int64, ndmin=1)
        if len(t_us) != len(frames):
            raise FormatError(
                f"{len(t_us)} timestamps for {len(frames)} frames")
        timestamps = _seconds(t_us)
    else:
        if fps <= 0:
            raise ValueError("fps must be > 0")
        timestamps = np.arange(len(frames)) / fps
    return FrameSequence(np.clip(frames, 0.0, 1.0), timestamps)
