"""Timing spans around evtkit's public functions, installed from outside.

Each public function of the traced modules is replaced, in every evtkit
module that binds it (the consumer's name, not only the defining one), by
a wrapper that records a span: name, start, end, parent span and run id.
Work the wrapper does for its own counters runs on a paused clock, so it
lands in no span and in no wall time.

A separate allocation pass records, per span, the tracemalloc peak above
the memory in use when the span began. tracemalloc slows allocation-heavy
Python loops several-fold, so its pass is never timed.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from checks import is_canonical

MODULES = ("core", "simulate", "degrade", "denoise", "voxel", "edi", "metrics", "fileio", "cli")


def public_functions(ev):
    """(qualified name, function) for each public function of MODULES."""
    for short in MODULES:
        mod = getattr(ev, short)
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                yield f"{short}.{name}", obj


def rebind(ev, replace: dict) -> list:
    """Point every evtkit module binding of each key at its value.

    Returns the (module, name, old) triples needed to undo it.
    """
    undo = []
    for mod in [ev] + [getattr(ev, m) for m in MODULES]:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replace:
                undo.append((mod, name, obj))
                setattr(mod, name, replace[obj])
    return undo


def restore(undo) -> None:
    for mod, name, obj in reversed(undo):
        setattr(mod, name, obj)


@dataclass
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0
    events_in: int = 0
    events_out: int = 0
    extra: dict = field(default_factory=dict)
    # allocation pass only
    base: int = 0
    peak: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _length(obj) -> int:
    """Events in a stream, or in a tuple of streams; 0 for anything else."""
    if isinstance(obj, tuple):
        return sum(_length(o) for o in obj)
    return len(obj) if hasattr(obj, "t") and hasattr(obj, "width") else 0


def _probe(name, original, args, result, span) -> None:
    """Per-function counters that need the arguments or the result."""
    if args:
        span.events_in = _length(args[0])
    span.events_out = _length(result)
    if name == "core.canonical_sort":
        span.extra["noop"] = int(is_canonical(args[0]))
    elif name in ("fileio.read_events", "fileio.write_events"):
        path = args[1] if name == "fileio.write_events" else args[0]
        span.extra["bytes"] = os.path.getsize(path)
    elif name == "edi.edi_reconstruct":
        free = original(*args[:3], clamp=False)
        finite = np.isfinite(free)
        span.extra["nonfinite"] = int((~finite).sum())
        span.extra["clamped"] = int(((free[finite] < 0) | (free[finite] > 1)).sum())


class Tracer:
    """Installs wrappers on enter and removes them on exit."""

    def __init__(self, ev, run: str, alloc: bool = False):
        self.ev = ev
        self.run = run
        self.alloc = alloc
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._paused = 0.0
        self._undo = []

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            if self.alloc:
                self._enter_alloc(span)
            span.start = self.now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.now()
                self._stack.pop()
                if span.parent is not None:
                    self.spans[span.parent].child_s += span.duration
                if self.alloc:
                    self._exit_alloc(span)
            if not self.alloc:
                paused = time.perf_counter()
                _probe(name, fn, args, result, span)
                self._paused += time.perf_counter() - paused
            return result
        return wrapper

    # Nested peaks: tracemalloc keeps one global peak, so a span resets it
    # on entry after folding it into its parent, and folds its own peak
    # into the parent on exit.
    def _enter_alloc(self, span):
        current, peak = tracemalloc.get_traced_memory()
        if span.parent is not None:
            parent = self.spans[span.parent]
            parent.peak = max(parent.peak, peak)
        tracemalloc.reset_peak()
        span.base = span.peak = current

    def _exit_alloc(self, span):
        span.peak = max(span.peak, tracemalloc.get_traced_memory()[1])
        if span.parent is not None:
            parent = self.spans[span.parent]
            parent.peak = max(parent.peak, span.peak)
        tracemalloc.reset_peak()

    def __enter__(self):
        wrappers = {fn: self._wrap(name, fn) for name, fn in public_functions(self.ev)}
        self._undo = rebind(self.ev, wrappers)
        if self.alloc:
            tracemalloc.start()
        return self

    def __exit__(self, *exc):
        if self.alloc:
            tracemalloc.stop()
        restore(self._undo)
        return False

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "run": self.run, "parent": s.parent, "start": s.start,
             "end": s.end, "self_s": s.self_s, "events_in": s.events_in,
             "events_out": s.events_out, **s.extra,
             **({"peak_alloc_bytes": s.peak - s.base} if self.alloc else {})}
            for s in self.spans
        ]


def layer_metrics(timed: Tracer, alloc: Tracer, wall_s: float, untraced_wall_s: float) -> dict:
    """Per-layer metrics, named module.function.quantity, from the two passes."""
    by_name: dict[str, list[Span]] = {}
    for s in timed.spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name, attr):
        return sum(getattr(s, attr) for s in by_name.get(name, []))

    def extra(name, key):
        return sum(s.extra.get(key, 0) for s in by_name.get(name, []))

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, tuple[float, str]] = {}
    for name in sorted({name for name, _ in public_functions(timed.ev)}):
        m[f"{name}.calls"] = (len(by_name.get(name, [])), "count")
        m[f"{name}.self_s"] = (total(name, "self_s"), "s")
        m[f"{name}.events_in"] = (total(name, "events_in"), "count")
        m[f"{name}.events_out"] = (total(name, "events_out"), "count")
        m[f"{name}.keep_ratio"] = (ratio(total(name, "events_out"), total(name, "events_in")), "ratio")
    scf = "denoise.scf_filter"
    m[f"{scf}.us_per_event"] = (ratio(total(scf, "self_s") * 1e6, total(scf, "events_in")), "us")
    m["core.canonical_sort.noop_calls"] = (extra("core.canonical_sort", "noop"), "count")
    m["degrade.inject_noise.events_added"] = (
        total("degrade.inject_noise", "events_out") - total("degrade.inject_noise", "events_in"), "count")
    for name in ("fileio.read_events", "fileio.write_events"):
        m[f"{name}.bytes"] = (extra(name, "bytes"), "B")
    m["edi.nonfinite_pixels"] = (extra("edi.edi_reconstruct", "nonfinite"), "count")
    m["edi.clamped_pixels"] = (extra("edi.edi_reconstruct", "clamped"), "count")
    m["cli.self_s"] = (sum(s.self_s for s in timed.spans if s.name.startswith("cli.")), "s")

    mb = 1024.0 * 1024.0
    for short in MODULES:
        peaks = [s.peak - s.base for s in alloc.spans if s.name.startswith(short + ".")]
        m[f"{short}.peak_alloc_mb"] = (max(peaks, default=0) / mb, "MB")
    ssim_peaks = [s.peak - s.base for s in alloc.spans if s.name == "metrics.ssim"]
    m["metrics.ssim.peak_alloc_mb"] = (max(ssim_peaks, default=0) / mb, "MB")

    top = sum(s.duration for s in timed.spans if s.parent is None)
    m["trace.wall_s"] = (wall_s, "s")
    m["trace.unattributed_s"] = (wall_s - top, "s")
    m["trace.overhead_ratio"] = (ratio(wall_s, untraced_wall_s), "ratio")
    return m


def self_time_closes(timed: Tracer, wall_s: float):
    """Self times plus unattributed time add up to the traced wall time."""
    selfs = sum(s.self_s for s in timed.spans)
    top = sum(s.duration for s in timed.spans if s.parent is None)
    gap = selfs + (wall_s - top) - wall_s
    if abs(gap) > 1e-6 * max(wall_s, 1e-3):
        return f"self times + unattributed miss the wall time by {gap:.3g} s"
    return None
