import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evtkit import (
    EventStream,
    FrameSequence,
    canonical_sort,
    hot_pixel_filter,
    limit_bandwidth,
    pixel_index,
    stream_stats,
    validate,
    voxelize,
)

from conftest import random_stream


def test_sorted_stream_unchanged():
    s = EventStream([0.1, 0.2], [0, 1], [0, 1], [1, -1], 4, 4, 0.1, 0.2)
    out = canonical_sort(s)
    assert np.array_equal(out.t, s.t)
    assert np.array_equal(out.x, s.x)
    assert np.array_equal(out.y, s.y)
    assert np.array_equal(out.p, s.p)


def test_equal_time_tie_break_by_row():
    s = EventStream([0.5, 0.5], [0, 0], [3, 1], [1, 1], 4, 4, 0.5, 0.5)
    out = canonical_sort(s)
    assert list(out.y) == [1, 3]


def test_permutation_matches_tuple_sort_oracle(rng):
    s = random_stream(rng, n=200)
    perm = rng.permutation(len(s))
    shuffled = s.with_arrays(s.t[perm], s.x[perm], s.y[perm], s.p[perm])
    out = canonical_sort(shuffled)
    oracle = sorted(zip(s.t, s.y, s.x, s.p))
    assert oracle == list(zip(out.t, out.y, out.x, out.p))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 60))
def test_canonical_sort_idempotent_and_valid(seed, n):
    s = random_stream(np.random.default_rng(seed), n=n)
    once = canonical_sort(s)
    twice = canonical_sort(once)
    assert np.array_equal(once.t, twice.t)
    assert np.array_equal(once.x, twice.x)
    assert np.array_equal(once.y, twice.y)
    assert np.array_equal(once.p, twice.p)
    assert validate(once) is None


def test_sort_stable_under_duplication(rng):
    s = random_stream(rng, n=30)
    doubled = s.with_arrays(np.tile(s.t, 2), np.tile(s.x, 2),
                            np.tile(s.y, 2), np.tile(s.p, 2))
    out = canonical_sort(doubled)
    assert len(out) == 60
    assert validate(out) is None


def test_validate_empty_ok():
    assert validate(EventStream.empty(4, 4)) is None


def test_validate_zero_polarity():
    s = EventStream([0.1], [0], [0], [0], 4, 4, 0.0, 1.0)
    assert "polarity" in validate(s)


def test_validate_out_of_bounds_x():
    s = EventStream([0.1], [4], [0], [1], 4, 4, 0.0, 1.0)
    assert "bounds" in validate(s)


def test_validate_time_outside_window():
    s = EventStream([2.0], [0], [0], [1], 4, 4, 0.0, 1.0)
    assert "window" in validate(s)


def test_validate_detects_disorder():
    s = EventStream([0.5, 0.1], [0, 0], [0, 0], [1, 1], 4, 4, 0.0, 1.0)
    assert "ordering" in validate(s)


def test_equal_infinite_times_tie_break_by_row():
    # inf - inf is NaN, so only a comparison sees these times as tied
    s = EventStream([np.inf, np.inf], [0, 0], [1, 0], [1, 1], 4, 4, 0.0, np.inf)
    assert "ordering violation: events 0 and 1" in validate(s)
    out = canonical_sort(s)
    assert list(out.y) == [0, 1]
    assert validate(out) is None


def test_mismatched_array_lengths_rejected():
    with pytest.raises(ValueError):
        EventStream([0.1, 0.2], [0], [0], [1], 4, 4, 0.0, 1.0)


@pytest.mark.parametrize("bad", [np.nan, -0.1, 1.5])
def test_frames_outside_unit_range_rejected(bad):
    frames = np.full((2, 3, 3), 0.5)
    frames[1, 2, 0] = bad
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        FrameSequence(frames, [0.0, 1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_timestamps_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        FrameSequence(np.full((2, 3, 3), 0.5), [0.0, bad])
    with pytest.raises(ValueError, match="finite"):
        FrameSequence(np.full((1, 3, 3), 0.5), [bad])


def test_pixel_index_is_row_major_int64():
    s = EventStream([0.1, 0.2, 0.3], [0, 4, 2], [0, 0, 3], [1, 1, -1], 5, 4, 0.0, 1.0)
    ids = pixel_index(s)
    assert ids.dtype == np.int64
    assert ids.tolist() == [0, 4, 17]
    assert pixel_index(EventStream.empty(5, 4)).tolist() == []


def test_pixel_index_does_not_wrap_at_int32():
    side = 2 ** 20
    s = EventStream([0.1], [side - 1], [side - 1], [1], side, side, 0.0, 1.0)
    assert pixel_index(s).tolist() == [side * side - 1]


def test_validate_reports_bounds_like_pixel_index():
    s = EventStream([0.1, 0.2], [1, 4], [0, 0], [1, 1], 4, 4, 0.0, 1.0)
    assert validate(s) == "bounds violation: event 1 at (4, 0) outside 4x4"
    with pytest.raises(ValueError, match=r"^event 1 at \(4, 0\) outside 4x4$"):
        pixel_index(s)


PER_PIXEL_STAGES = {
    "voxelize": lambda s: voxelize(s, 0.0, 1.0, 4),
    "stream_stats": stream_stats,
    "limit_bandwidth": lambda s: limit_bandwidth(s, 0.05),
    "hot_pixel_filter": lambda s: hot_pixel_filter(s, 100.0),
}


@pytest.mark.parametrize("stage", PER_PIXEL_STAGES)
@pytest.mark.parametrize("x, y", [(-1, 2), (5, 2), (3, -1), (3, 4)])
def test_per_pixel_stage_rejects_event_outside_sensor(stage, x, y):
    # with ids y*W + x, (5, 2) would alias (0, 3) and (-1, 2) would alias (4, 1)
    s = EventStream([0.1, 0.4, 0.6], [0, x, 4], [3, y, 1], [1, 1, -1], 5, 4, 0.0, 1.0)
    with pytest.raises(ValueError, match=rf"event 1 at \({x}, {y}\) outside 5x4"):
        PER_PIXEL_STAGES[stage](s)


def test_voxelize_rejects_outside_sensor_event_outside_its_window():
    s = EventStream([0.1, 1.5], [0, 5], [0, 0], [1, 1], 5, 4, 0.0, 2.0)
    with pytest.raises(ValueError, match="outside 5x4"):
        voxelize(s, 0.0, 1.0, 4)


def lexsort_reference(s):
    """Canonical order as a plain (t, y, x, p) lexsort, NaN times last."""
    order = np.lexsort((s.p, s.x, s.y, s.t))
    return s.t[order], s.x[order], s.y[order], s.p[order]


@st.composite
def order_cases(draw):
    """Streams that are random, already sorted, duplicated, equal-time or
    NaN-time, over a 3x2 sensor and the window [0, 1]."""
    n = draw(st.integers(0, 30))
    pool = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 0.125, 0.75, np.nan]),
                         min_size=1, max_size=4, unique=True))
    t = np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)), dtype=float)
    x = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    p = np.array(draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n)))
    s = EventStream(t, x, y, p, 3, 2, 0.0, 1.0)
    if draw(st.booleans()):
        s = s.with_arrays(*lexsort_reference(s))
    if draw(st.booleans()):
        s = s.with_arrays(*(np.tile(a, 2) for a in (s.t, s.x, s.y, s.p)))
    return s


@settings(max_examples=300, deadline=None)
@given(order_cases())
def test_canonical_sort_matches_lexsort_reference(s):
    out = canonical_sort(s)
    for got, want in zip((out.t, out.x, out.y, out.p), lexsort_reference(s)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    assert (out is s) == (validate(s) is None)
    if not np.isnan(s.t).any():
        assert validate(out) is None


def test_validate_reports_nan_time():
    s = EventStream([0.1, np.nan, 0.5], [0, 1, 2], [0, 0, 0], [1, 1, 1], 4, 4, 0.0, 1.0)
    assert "window violation: event 1" in validate(s)


I32 = np.iinfo(np.int32)


@st.composite
def tie_cases(draw):
    """Streams where most events share a time with a neighbour: times from at
    most 4 values among NaN, -0.0 and 0.0, coordinates partly off the 3x2
    sensor, p in {-1, 0, 1}; sorted by time only or already canonical, some."""
    n = draw(st.integers(0, 40))
    pool = draw(st.lists(st.sampled_from([np.nan, -0.0, 0.0, 0.5, 1.0, 2.0]),
                         min_size=1, max_size=4))
    coord = st.one_of(st.integers(-1, 3), st.sampled_from([I32.min, I32.max]))
    t = np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)), dtype=float)
    x = np.array(draw(st.lists(coord, min_size=n, max_size=n)))
    y = np.array(draw(st.lists(coord, min_size=n, max_size=n)))
    p = np.array(draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=n, max_size=n)))
    s = EventStream(t, x, y, p, 3, 2, 0.0, 1.0)
    presort = draw(st.sampled_from(["none", "time", "canonical"]))
    if presort == "time":
        order = np.argsort(s.t, kind="stable")
        s = s.with_arrays(s.t[order], s.x[order], s.y[order], s.p[order])
    elif presort == "canonical":
        s = s.with_arrays(*lexsort_reference(s))
    return s


def assert_bit_equal(stream, arrays):
    for got, want in zip((stream.t, stream.x, stream.y, stream.p), arrays):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(tie_cases())
def test_canonical_sort_is_bit_identical_to_lexsort_on_ties(s):
    before = [a.copy() for a in (s.t, s.x, s.y, s.p)]
    assert_bit_equal(canonical_sort(s), lexsort_reference(s))
    assert_bit_equal(s, before)  # the input is not sorted in place


def test_signed_zero_times_keep_their_bits_and_tie_order():
    # -0.0 == 0.0, so (y, x, p) alone orders these events, and each time moves with its event
    s = EventStream([0.0, -0.0, 0.0, -0.0], [1, 0, 0, 2], [0, 1, 0, 0], [1, 1, -1, 1],
                    3, 2, 0.0, 1.0)
    out = canonical_sort(s)
    assert list(zip(out.y, out.x, out.p)) == [(0, 0, -1), (0, 1, 1), (0, 2, 1), (1, 0, 1)]
    assert np.signbit(out.t).tolist() == [False, False, True, True]
    assert_bit_equal(out, lexsort_reference(s))


@pytest.mark.parametrize("levels", [1, 7, 255, None])
def test_canonical_sort_matches_lexsort_on_large_streams(levels):
    # quantised times make long equal-time runs; None gives nearly no ties
    rng = np.random.default_rng(levels or 0)
    n = 20000
    t = rng.uniform(0.0, 1.0, n)
    if levels is not None:
        t = np.round(t * levels) / levels
    s = EventStream(t, rng.integers(0, 64, n), rng.integers(0, 48, n),
                    rng.choice([-1, 1], n), 64, 48, 0.0, 1.0)
    out = canonical_sort(s)
    assert_bit_equal(out, lexsort_reference(s))
    assert validate(out) is None
