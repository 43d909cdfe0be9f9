import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.errors import InvalidArgument
from hypothesis import strategies as st

from evtkit import EventStream, FrameSequence

# To suggest a patch for a failing property, hypothesis's pytest plugin imports
# hypothesis.extra._patching, and with it libcst where that is installed. That
# import raises a DeprecationWarning that pyproject.toml's filterwarnings turns
# into an error, which ended the run in INTERNALERROR instead of reporting the
# falsifying example. Import it here once, with that warning ignored.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


# With CI set (GitHub Actions sets it), every run tries the same examples, and
# a failure prints a blob that replays it locally with @reproduce_failure.
# Recent hypothesis has a built-in "ci" profile; its other settings are kept.
try:
    ci_parent = settings.get_profile("ci")
except InvalidArgument:
    ci_parent = None
settings.register_profile("ci", ci_parent, derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


def random_stream(rng, width=8, height=6, n=40, t0=0.0, t1=1.0):
    return EventStream(
        rng.uniform(t0, t1, n),
        rng.integers(0, width, n),
        rng.integers(0, height, n),
        rng.choice([-1, 1], n),
        width, height, t0, t1,
    )


def traced_peak_mib(fn, *args):
    """Peak MiB that ``fn(*args)`` holds under tracemalloc, its result included."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def moving_edge_sequence(width=64, height=64, n_frames=13,
                         lo=0.15, hi=0.6, sharpness=0.5, duration=1.0):
    """A smooth vertical edge sweeping left to right across the frame.

    This is the synthetic ground-truth scene for the roundtrip tests: the
    edge crosses 60% of the width over the sequence, every row is identical,
    and intensities stay well above the log floor.
    """
    ts = np.linspace(0.0, duration, n_frames)
    xs = np.arange(width)
    frames = []
    for t in ts:
        center = width * (0.2 + 0.6 * t / duration)
        row = lo + (hi - lo) / (1.0 + np.exp(-(xs - center) / sharpness))
        frames.append(np.tile(row, (height, 1)))
    return FrameSequence(np.stack(frames), ts)


def event_keys(stream):
    """Hashable identity of each event (integer-microsecond time, x, y, p)."""
    return set(zip(np.round(stream.t * 1e6).astype(np.int64).tolist(),
                   stream.x.tolist(), stream.y.tolist(), stream.p.tolist()))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@st.composite
def count_streams(draw):
    """Streams for the per-pixel counts, with voxel window [0.25, 1.25].

    Times come from a pool that includes both window edges and times outside
    the window; some streams repeat their events (exact duplicates), and the
    stream window may be empty or inverted.
    """
    width, height = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    n = draw(st.integers(0, 30))
    pool = st.sampled_from([0.0, 0.25, 0.5, 0.7, 0.875, 1.25, 1.5])
    t = draw(st.lists(st.one_of(pool, st.floats(0.0, 1.5)), min_size=n, max_size=n))
    x = draw(st.lists(st.integers(0, width - 1), min_size=n, max_size=n))
    y = draw(st.lists(st.integers(0, height - 1), min_size=n, max_size=n))
    p = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    t_start, t_end = draw(st.sampled_from([(0.0, 1.5), (0.25, 1.25), (0.5, 0.5), (1.0, 0.5)]))
    s = EventStream(t, x, y, p, width, height, t_start, t_end)
    if draw(st.booleans()):
        s = s.with_arrays(*(np.tile(a, 2) for a in (s.t, s.x, s.y, s.p)))
    return s
