import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evtkit import EventStream, canonical_sort, hot_pixel_filter, pixel_index, scf_filter
from evtkit import core, denoise
from evtkit.denoise import _rank, check_scf_settings

from conftest import event_keys, random_stream


def scf_oracle(stream, radius, window, min_support):
    """Brute-force neighbor counting."""
    kept = []
    events = list(zip(stream.t, stream.x, stream.y, stream.p))
    for i, (t, x, y, p) in enumerate(events):
        support = sum(
            1 for j, (t2, x2, y2, _) in enumerate(events)
            if j != i and abs(t2 - t) <= window
            and abs(x2 - x) <= radius and abs(y2 - y) <= radius)
        if support >= min_support:
            kept.append((t, x, y, p))
    return sorted(kept, key=lambda e: (e[0], e[2], e[1], e[3]))


def scf_loop_reference(stream, radius=1, window=0.010, min_support=2):
    """The original per-event loop implementation of scf_filter."""
    if radius < 1:
        raise ValueError("radius must be >= 1")
    if window <= 0:
        raise ValueError("window must be > 0")
    if min_support < 0:
        raise ValueError("min_support must be >= 0")
    s = canonical_sort(stream)
    if min_support == 0 or len(s) == 0:
        return s

    lo = np.searchsorted(s.t, s.t - window, side="left")
    hi = np.searchsorted(s.t, s.t + window, side="right")
    keep = np.zeros(len(s), dtype=bool)
    for i in range(len(s)):
        xs = s.x[lo[i]:hi[i]]
        ys = s.y[lo[i]:hi[i]]
        near = ((np.abs(xs - s.x[i]) <= radius)
                & (np.abs(ys - s.y[i]) <= radius))
        # the event itself falls in its own window; subtract it
        if int(near.sum()) - 1 >= min_support:
            keep[i] = True
    return s.with_arrays(s.t[keep], s.x[keep], s.y[keep], s.p[keep])


def scf_searchsorted_reference(stream: EventStream, radius: int = 1, window: float = 0.010,
                               min_support: int = 2) -> EventStream:
    """scf_filter as it was with one binary search per event: the same keys
    and needles, each rank taken by ``searchsorted`` instead of a merge."""
    check_scf_settings(radius, window, min_support)
    s = canonical_sort(stream)
    n = len(s)
    keys = pixel_index(s)
    # offsets beyond the sensor can never find a neighbor
    rx, ry = min(radius, s.width - 1), min(radius, s.height - 1)
    padded_w = s.width + 2 * rx
    if padded_w * (s.height + 2 * ry) * n > np.iinfo(np.int64).max:
        raise ValueError("stream too large for int64 pixel*n keys")
    if min_support == 0 or n == 0:
        return s

    lo = np.searchsorted(s.t, s.t - window, side="left")
    hi = np.searchsorted(s.t, s.t + window, side="right")
    index = np.arange(n, dtype=np.int64)
    # (y + ry) * padded_w + x + rx, from the unpadded id y * width + x
    keys += np.multiply(s.y, 2 * rx, dtype=np.int64)
    keys += ry * padded_w + rx
    keys *= n
    keys += index
    keys.sort()  # pixel-major; keys are unique, so this is stable
    np.remainder(keys, n, out=index)  # canonical index of each key
    # needles pixel*n + lo and pixel*n + hi, in pixel-major (sorted) order
    lo_needle = lo[index]
    del lo
    lo_needle -= index
    lo_needle += keys
    hi_needle = hi[index]
    del hi
    hi_needle -= index
    hi_needle += keys
    del index  # recovered from keys at the end; keeps the loop's memory down

    # the event itself falls in its own window; start at -1 to subtract it
    support = np.full(n, -1, dtype=np.int64)
    shift = 0  # the needles are shifted in place from offset to offset
    for dy in range(-ry, ry + 1):
        for dx in range(-rx, rx + 1):
            step = (dy * padded_w + dx) * n - shift
            shift += step
            hi_needle += step
            support += keys.searchsorted(hi_needle)
            lo_needle += step
            support -= keys.searchsorted(lo_needle)
    keep = np.empty(n, dtype=bool)
    keep[np.remainder(keys, n, out=keys)] = support >= min_support
    return s.with_arrays(s.t[keep], s.x[keep], s.y[keep], s.p[keep])


def assert_same_stream(a, b):
    assert np.array_equal(a.t.view(np.int64), b.t.view(np.int64)), "t"  # NaN and -0.0 too
    for field in "xyp":
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


def strip_bytes_for(needles: int) -> int:
    """``core.STRIP_BYTES`` that makes ``_rank`` blocks of ``needles`` needles."""
    return 64 * needles


@st.composite
def scf_cases(draw):
    """Small streams on a dyadic time grid, so t +/- window lands exactly on
    other events' times. Few pixels and ticks give duplicate events, equal
    times at different pixels, and many events on border rows and columns."""
    width = draw(st.integers(1, 7))
    height = draw(st.integers(1, 7))
    ticks = draw(st.integers(1, 12))
    events = draw(st.lists(
        st.tuples(st.integers(0, ticks), st.integers(0, width - 1),
                  st.integers(0, height - 1), st.sampled_from([-1, 1])),
        max_size=50))
    if events:  # exact duplicates
        events += draw(st.lists(st.sampled_from(events), max_size=10))
    quantum = 2.0 ** -10
    t, x, y, p = np.array(events, dtype=np.int64).reshape(-1, 4).T
    stream = EventStream(t * quantum, x, y, p, width, height, 0.0, ticks * quantum)
    window = draw(st.integers(1, 4)) * quantum
    return stream, draw(st.integers(1, 3)), window, draw(st.integers(0, 5))


SPECIAL_FLOATS = [-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0, np.inf, np.nan]


@st.composite
def rank_cases(draw):
    """Sorted keys and sorted needles, int64 or float64 with duplicates, +-0.0,
    +-inf and NaN; needles are drawn from a wider range than keys."""
    if draw(st.booleans()):
        dtype, keys, needles = np.int64, st.integers(-5, 5), st.integers(-8, 8)
    else:
        dtype, keys = np.float64, st.sampled_from(SPECIAL_FLOATS)
        needles = st.one_of(st.sampled_from(SPECIAL_FLOATS + [-2.0, 2.0]), st.floats())
    return (np.sort(np.array(draw(st.lists(keys, max_size=30)), dtype=dtype)),
            np.sort(np.array(draw(st.lists(needles, max_size=30)), dtype=dtype)))


class TestRank:
    @settings(max_examples=500, deadline=None)
    @given(rank_cases(), st.integers(1, 8))
    @example((np.array([], dtype=np.int64), np.array([-1, 0, 1])), 2)
    @example((np.array([1, 2, 3]), np.array([], dtype=np.int64)), 1)
    @example((np.array([1, 1, 2, 3, 3]), np.array([0, 1, 1, 3, 4, 5, 9])), 3)
    @example((np.array([-0.0, 0.0, 0.0, np.nan]), np.array([-np.inf, -0.0, 0.0, np.inf, np.nan])), 2)
    @example((np.arange(0, 3000, 3), np.array([-1, 5, 1500, 1500, 2990, 4000])), 2)  # binary search
    @example((np.array([], dtype=np.int64), np.array([], dtype=np.int64)), 1)
    @example((np.arange(1000), np.array([], dtype=np.int64)), 1)
    def test_equals_searchsorted(self, case, block):
        keys, needles = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "STRIP_BYTES", strip_bytes_for(block))
            ranks = {side: _rank(keys, needles, side) for side in ("left", "right")}
        for side, got in ranks.items():
            assert got.dtype == np.intp
            assert np.array_equal(got, np.searchsorted(keys, needles, side)), side

    @pytest.mark.parametrize("keys, needles, merged", [
        (np.arange(0, 3000, 3), np.array([-1, 5, 1500, 1500, 2990, 4000]), False),  # sparse
        (np.array([], dtype=np.int64), np.array([], dtype=np.int64), False),
        (np.arange(1000), np.array([], dtype=np.int64), False),
        (np.array([], dtype=np.int64), np.array([1, 2]), False),
        (np.arange(0, 3000, 3), np.arange(0, 3000, 2), True),  # dense
        (np.zeros(1000, dtype=np.int64), np.arange(-1000, 0), True),  # dense in an empty span
    ])
    def test_merges_only_where_binary_search_costs_more(self, keys, needles, merged):
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(denoise, "row_strips", lambda *a: calls.append(a) or core.row_strips(*a))
            for side in ("left", "right"):
                assert np.array_equal(_rank(keys, needles, side), np.searchsorted(keys, needles, side))
        assert bool(calls) == merged


def scf_stream(kind: str, radius: int, window: float, rng) -> EventStream:
    """Streams that take SCF's early decisions to their extremes, on a
    sensor of 6 x 6 cells of (2r+1)^2 pixels. "bursts": 12 bursts of 2 to
    (2r+1)^2+2 events at one pixel inside one window, beside a few lone
    events, so with a small min_support nearly every event is decided at the
    centre offset. "isolated": one event per cell, at its corner, with
    overlapping times, so no event has support and none is decided early.
    "nan_times": the bursts with a fifth of their times NaN."""
    cell = 2 * radius + 1
    side = 6 * cell
    if kind == "isolated":
        y, x = np.mgrid[0:side:cell, 0:side:cell].reshape(2, -1)
        t = rng.uniform(0, 3 * window, len(x))
    else:
        parts = []
        for _ in range(12):
            size = int(rng.integers(2, cell * cell + 3))
            t0 = rng.uniform(0, 0.02)
            x, y = rng.integers(0, side, 2)
            parts.append((rng.uniform(t0, t0 + window, size), np.full(size, x), np.full(size, y)))
        lone = 8
        parts.append((rng.uniform(0, 0.02, lone), rng.integers(0, side, lone), rng.integers(0, side, lone)))
        t, x, y = (np.concatenate(field) for field in zip(*parts))
        if kind == "nan_times":
            t[rng.choice(len(t), len(t) // 5, replace=False)] = np.nan
    p = rng.choice([-1, 1], len(t))
    return EventStream(t, x, y, p, side, side, 0.0, 0.03)


class TestScfFilter:
    @pytest.mark.parametrize("kind", ["bursts", "isolated", "nan_times"])
    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_matches_references_for_every_min_support(self, kind, radius):
        window = 0.004
        s = scf_stream(kind, radius, window, np.random.default_rng(radius))
        for min_support in range((2 * radius + 1) ** 2 + 2):
            got = scf_filter(s, radius, window, min_support)
            assert_same_stream(got, scf_searchsorted_reference(s, radius, window, min_support))
            assert_same_stream(got, scf_loop_reference(s, radius, window, min_support))
            if kind == "isolated" and min_support > 0:
                assert len(got) == 0

    def test_zero_support_is_identity(self, rng):
        s = random_stream(rng, n=30)
        out = scf_filter(s, min_support=0)
        assert event_keys(out) == event_keys(s)

    def test_isolated_event_removed(self):
        s = EventStream([0.5], [3], [3], [1], 8, 8, 0.0, 1.0)
        out = scf_filter(s, radius=1, window=0.01, min_support=1)
        assert len(out) == 0

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(15):
            s = random_stream(rng, width=6, height=6, n=40, t1=0.2)
            radius = int(rng.integers(1, 3))
            window = float(rng.uniform(0.005, 0.05))
            min_support = int(rng.integers(1, 4))
            out = scf_filter(s, radius, window, min_support)
            assert scf_oracle(s, radius, window, min_support) == \
                list(zip(out.t, out.x, out.y, out.p))

    @settings(max_examples=300, deadline=None)
    @given(scf_cases())
    def test_matches_loop_reference(self, case):
        stream, radius, window, min_support = case
        assert_same_stream(scf_filter(stream, radius, window, min_support),
                           scf_loop_reference(stream, radius, window, min_support))

    @settings(max_examples=300, deadline=None)
    @given(scf_cases(), st.integers(1, 8))
    def test_matches_searchsorted_reference_across_blocks(self, case, block):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "STRIP_BYTES", strip_bytes_for(block))
            got = scf_filter(*case)
        assert_same_stream(got, scf_searchsorted_reference(*case))

    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_matches_searchsorted_reference_on_many_blocks(self, radius):
        s = random_stream(np.random.default_rng(radius), width=64, height=48, n=50_000)
        assert len(s) >= 3 * core.STRIP_BYTES // 64  # three or more blocks of needles
        got = scf_filter(s, radius, 0.01, 2 * radius)
        assert 0 < len(got) < len(s)
        assert_same_stream(got, scf_searchsorted_reference(s, radius, 0.01, 2 * radius))

    @pytest.mark.parametrize("block", [None, 3])
    def test_matches_searchsorted_reference_with_nan_times(self, rng, block):
        s = random_stream(rng, width=5, height=4, n=200, t1=0.05)
        t = s.t.copy()
        t[rng.choice(len(t), 20, replace=False)] = np.nan
        s = s.with_arrays(t, s.x, s.y, s.p)
        with pytest.MonkeyPatch.context() as mp:
            if block:
                mp.setattr(core, "STRIP_BYTES", strip_bytes_for(block))
            got = scf_filter(s, 1, 0.005, 1)
        assert np.isnan(got.t).any() and len(got) < len(s)
        assert_same_stream(got, scf_searchsorted_reference(s, 1, 0.005, 1))

    def test_matches_loop_reference_on_large_sensor(self, rng):
        # far-apart coordinates on a sensor whose pixel*n keys need int64
        side = 2 ** 20
        s = random_stream(rng, width=side, height=side, n=200, t1=0.01)
        xy = rng.integers(0, 3, (2, 200))
        s = s.with_arrays(s.t, np.where(xy[0] == 0, 0, side - xy[0]),
                          np.where(xy[1] == 0, 0, side - xy[1]), s.p)
        assert_same_stream(scf_filter(s, 2, 0.002, 1),
                           scf_loop_reference(s, 2, 0.002, 1))

    def test_matches_loop_reference_on_last_int32_rows(self):
        # padded row indices pass int32 max here
        h = 2 ** 31 - 1
        s = EventStream([0.1] * 3, [0] * 3, [h - 1, h - 3, 5], [1] * 3, 1, h, 0.0, 1.0)
        assert_same_stream(scf_filter(s, 2, 0.01, 1), scf_loop_reference(s, 2, 0.01, 1))

    @pytest.mark.parametrize("x, y", [(-1, 2), (8, 2), (3, -1), (3, 6)])
    def test_out_of_geometry_rejected(self, x, y):
        # with pixel = y*W + x keys, x = -1 would alias to the previous row;
        # scf_filter is never handed such a stream, because EventStream refuses it
        with pytest.raises(ValueError, match="outside geometry 8x6"):
            scf_filter(EventStream([0.1, 0.1, 0.1], [2, x, 4], [2, y, 2], [1, 1, 1], 8, 6, 0.0, 1.0),
                       1, 0.01, 1)

    def test_key_overflow_rejected(self):
        side = 2 ** 31 - 1
        s = EventStream([0.1, 0.2, 0.3, 0.4], [0, 1, 2, 3], [0, 1, 2, 3],
                        [1, 1, 1, 1], side, side, 0.0, 1.0)
        with pytest.raises(ValueError, match="int64"):
            scf_filter(s, 1, 0.01, 1)

    def test_subset_of_input(self, rng):
        s = random_stream(rng, n=60)
        out = scf_filter(s, 1, 0.05, 2)
        assert event_keys(out) <= event_keys(s)

    def test_support_monotone(self, rng):
        s = random_stream(rng, n=60, t1=0.1)
        sizes = [len(scf_filter(s, 1, 0.02, m)) for m in range(5)]
        assert sizes == sorted(sizes, reverse=True)

    def test_permutation_invariant(self, rng):
        s = random_stream(rng, n=40)
        perm = rng.permutation(len(s))
        shuffled = s.with_arrays(s.t[perm], s.x[perm], s.y[perm], s.p[perm])
        a = scf_filter(canonical_sort(s), 1, 0.03, 2)
        b = scf_filter(shuffled, 1, 0.03, 2)
        assert np.array_equal(a.t, b.t) and np.array_equal(a.x, b.x)

    def test_dense_edge_kept_sparse_noise_removed(self, rng):
        # signal: a 12x12 block pulsing in sync every 50 ms; noise: uniform
        # sparse events over 64x64 x 1 s
        sig = []
        for k in range(20):
            t = 0.05 * k
            for y in range(20, 32):
                for x in range(20, 32):
                    sig.append((t, x, y, 1))
        n_noise = 400
        noise = list(zip(rng.uniform(0, 1, n_noise),
                         rng.integers(0, 64, n_noise),
                         rng.integers(0, 64, n_noise),
                         rng.choice([-1, 1], n_noise)))
        all_events = sig + noise
        s = EventStream(np.array([e[0] for e in all_events]),
                        np.array([e[1] for e in all_events]),
                        np.array([e[2] for e in all_events]),
                        np.array([e[3] for e in all_events]),
                        64, 64, 0.0, 1.0)
        out = scf_filter(s, radius=1, window=0.010, min_support=2)
        kept = event_keys(out)
        sig_keys = {(round(t * 1e6), int(x), int(y), int(p)) for t, x, y, p in sig}
        noise_keys = {(round(t * 1e6), int(x), int(y), int(p)) for t, x, y, p in noise}
        assert len(kept & sig_keys) / len(sig_keys) >= 0.95
        assert 1 - len(kept & noise_keys) / len(noise_keys) >= 0.90

    def test_parameter_validation(self, rng):
        s = random_stream(rng, n=5)
        with pytest.raises(ValueError):
            scf_filter(s, radius=0)
        with pytest.raises(ValueError):
            scf_filter(s, window=0.0)
        with pytest.raises(ValueError):
            scf_filter(s, window=float("nan"))
        with pytest.raises(ValueError):
            scf_filter(s, min_support=-1)


class TestHotPixelFilter:
    def test_below_threshold_unchanged(self, rng):
        s = random_stream(rng, n=30)  # 30 events over 48 pixels, 1 s
        out = hot_pixel_filter(s, 100.0)
        assert event_keys(out) == event_keys(s)

    def test_hot_pixel_removed(self, rng):
        hot = EventStream(rng.uniform(0, 1, 1000),
                          np.full(1000, 2), np.full(1000, 3),
                          np.ones(1000), 8, 8, 0.0, 1.0)
        quiet = random_stream(rng, n=10)
        merged = hot.with_arrays(
            np.concatenate([hot.t, quiet.t]), np.concatenate([hot.x, quiet.x]),
            np.concatenate([hot.y, quiet.y]), np.concatenate([hot.p, quiet.p]))
        out = hot_pixel_filter(merged, 500.0)
        assert not np.any((out.x == 2) & (out.y == 3))
        expect = len(quiet) - np.count_nonzero((quiet.x == 2) & (quiet.y == 3))
        assert len(out) == expect

    def test_lower_threshold_never_keeps_more(self, rng):
        s = random_stream(rng, width=4, height=4, n=200)
        sizes = [len(hot_pixel_filter(s, thr)) for thr in (200.0, 100.0, 50.0, 10.0)]
        assert sizes == sorted(sizes, reverse=True)

    def test_threshold_must_be_positive(self, rng):
        with pytest.raises(ValueError):
            hot_pixel_filter(random_stream(rng, n=3), 0.0)
        with pytest.raises(ValueError):
            hot_pixel_filter(random_stream(rng, n=3), float("nan"))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 80),
           threshold=st.sampled_from([2.0, 5.0, 10.0, 30.0]))
    def test_keeps_input_order(self, seed, n, threshold):
        s = random_stream(np.random.default_rng(seed), width=3, height=3, n=n)  # unsorted
        out = hot_pixel_filter(s, threshold)
        counts = {}
        for x, y in zip(s.x.tolist(), s.y.tolist()):
            counts[x, y] = counts.get((x, y), 0) + 1
        keep = [counts[x, y] <= threshold for x, y in zip(s.x.tolist(), s.y.tolist())]
        for got, field in zip((out.t, out.x, out.y, out.p), (s.t, s.x, s.y, s.p)):
            np.testing.assert_array_equal(got, field[keep])
