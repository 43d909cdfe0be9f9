"""Output checks and the brute-force oracles they compare against.

Every check counts as one attempt; a failed check or an exception raised
while checking counts as one failure. ``error_rate`` is failures over
attempts.
"""

from __future__ import annotations

import hashlib
import traceback

import numpy as np


class Checks:
    """Collects pass/fail outcomes with a short reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return bool(ok)

    def run(self, what: str, fn, *args) -> None:
        """Run a check function that returns None when fine, else a reason."""
        self.attempted += 1
        try:
            reason = fn(*args)
        except Exception:
            reason = "raised " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
        if reason is not None:
            self.failures.append(f"{what}: {reason}")

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def error_rate(self) -> float:
        return self.failed / max(self.attempted, 1)


def sha256(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes() if isinstance(part, np.ndarray)
                 else repr(part).encode())
    return h.hexdigest()


def is_canonical(stream) -> bool:
    """True when events are in (t, y, x, p) ascending order."""
    if len(stream) < 2:
        return True
    later = np.zeros(len(stream) - 1, dtype=bool)  # decided: strictly later
    for field in ("t", "y", "x", "p"):
        d = np.diff(getattr(stream, field).astype(np.float64))
        if (d[~later] < 0).any():
            return False
        later |= d > 0
    return True


def event_keys(t_us, x, y, p, width, height) -> np.ndarray:
    """One int64 per event, for matching events by value."""
    return ((np.asarray(t_us, np.int64) * height + y) * width + x) * 2 + (np.asarray(p) > 0)


def same_events_as_file(ev, stream, path):
    """The file read back holds the stream's events at microsecond precision.

    Compared as multisets, so a reader that re-sorts ties is still correct.
    """
    back = ev.fileio.read_events(path)
    if (back.width, back.height) != (stream.width, stream.height):
        return f"geometry {back.width}x{back.height} != {stream.width}x{stream.height}"
    if len(back) != len(stream):
        return f"{len(back)} events in file, {len(stream)} written"

    def keys(s):
        return np.sort(event_keys(np.round(s.t * 1e6), s.x, s.y, s.p, s.width, s.height))

    if not np.array_equal(keys(back), keys(stream)):
        return "file events differ from the stream written"
    return None


def scf_oracle_keep(stream, idx, radius: int, window: float, min_support: int) -> np.ndarray:
    """Brute-force SCF decision for events ``idx``: scan the whole stream."""
    keep = np.empty(len(idx), dtype=bool)
    for k, i in enumerate(idx):
        ti = stream.t[i]
        near = ((np.abs(stream.x - stream.x[i]) <= radius)
                & (np.abs(stream.y - stream.y[i]) <= radius)
                & (stream.t >= ti - window) & (stream.t <= ti + window))
        keep[k] = int(near.sum()) - 1 >= min_support
    return keep


def contains(stream, t, x, y, p) -> bool:
    """Whether a canonical-sorted stream holds the event (t, x, y, p)."""
    a = np.searchsorted(stream.t, t, side="left")
    b = np.searchsorted(stream.t, t, side="right")
    return bool(((stream.x[a:b] == x) & (stream.y[a:b] == y) & (stream.p[a:b] == p)).any())


def check_scf(stream_in, stream_out, rng, radius, window, min_support, samples=100):
    """SCF keep decisions on a seeded sample agree with the brute-force oracle."""
    if len(stream_in) == 0:
        return None
    idx = rng.choice(len(stream_in), min(samples, len(stream_in)), replace=False)
    want = scf_oracle_keep(stream_in, idx, radius, window, min_support)
    for i, keep in zip(idx, want):
        got = contains(stream_out, stream_in.t[i], stream_in.x[i], stream_in.y[i], stream_in.p[i])
        if got != keep:
            return f"event {i}: kept={got}, oracle says {bool(keep)}"
    return None


def check_hot_pixel(stream_in, stream_out, rate_threshold: float):
    """The hot-pixel filter output equals the input minus pixels above the rate."""
    duration = stream_in.t_end - stream_in.t_start
    pixel = stream_in.y.astype(np.int64) * stream_in.width + stream_in.x
    if duration > 0 and len(pixel):
        ids, counts = np.unique(pixel, return_counts=True)
        hot = ids[counts / duration > rate_threshold]
        keep = ~np.isin(pixel, hot)
    else:
        keep = np.ones(len(pixel), dtype=bool)
    for name in ("t", "x", "y", "p"):
        if not np.array_equal(getattr(stream_in, name)[keep], getattr(stream_out, name)):
            return f"output field {name} differs from the oracle ({keep.sum()} expected events)"
    return None


def direct_ssim(a: np.ndarray, b: np.ndarray, w: int = 8) -> float:
    """Mean SSIM over every w x w window, one window at a time."""
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    vals = []
    for i in range(a.shape[0] - w + 1):
        for j in range(a.shape[1] - w + 1):
            wa = a[i:i + w, j:j + w]
            wb = b[i:i + w, j:j + w]
            ma, mb = wa.mean(), wb.mean()
            va, vb = ((wa - ma) ** 2).mean(), ((wb - mb) ** 2).mean()
            cov = ((wa - ma) * (wb - mb)).mean()
            vals.append((2 * ma * mb + c1) * (2 * cov + c2)
                        / ((ma ** 2 + mb ** 2 + c1) * (va + vb + c2)))
    return float(np.mean(vals))


def check_ssim(ev, a, b, rng, crops=4, size=16):
    """evtkit's SSIM matches the per-window computation on sampled crops."""
    for _ in range(crops):
        i = int(rng.integers(0, a.shape[0] - size + 1))
        j = int(rng.integers(0, a.shape[1] - size + 1))
        ca, cb = a[i:i + size, j:j + size], b[i:i + size, j:j + size]
        got, want = ev.metrics.ssim(ca, cb), direct_ssim(ca, cb)
        if not abs(got - want) <= 1e-9:
            return f"crop at ({i}, {j}): ssim {got!r}, per-window {want!r}"
    return None


def check_edi(ev, blurry, grid, latents, c, rng, samples=64):
    """On sampled pixels, the unclamped latent times edi_weight is the blurry
    value, and each output latent is that latent clamped to [0, 1]."""
    h, w, n = grid.data.shape
    ys = rng.integers(0, h, samples)
    xs = rng.integers(0, w, samples)
    sub = ev.core.VoxelGrid(grid.data[ys, xs][:, None, :], grid.t0, grid.duration)
    b = blurry[ys, xs][:, None]
    for r, latent in enumerate(latents):
        free = ev.edi.edi_reconstruct(b, sub, ev.edi.EdiConfig(c=c, ref=r), clamp=False)[:, 0]
        for k in range(samples):
            weight = ev.edi.edi_weight(grid.data[ys[k], xs[k]], c, r)
            if not abs(free[k] * weight - b[k, 0]) <= 1e-12 * max(1.0, abs(b[k, 0])):
                return f"ref {r} pixel ({xs[k]}, {ys[k]}): latent*weight={free[k] * weight!r}, blurry={b[k, 0]!r}"
        if not np.allclose(latent[ys, xs], np.clip(free, 0.0, 1.0), rtol=1e-12, atol=0):
            return f"ref {r}: output latent is not the clamped reconstruction"
    return None
