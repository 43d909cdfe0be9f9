import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evtkit import (
    EventStream,
    FrameSequence,
    SensorModel,
    canonical_sort,
    hot_pixel_filter,
    limit_bandwidth,
    pixel_index,
    stream_stats,
    validate,
    voxelize,
)
from evtkit.core import STRIP_BYTES, _aligned_planes, _stable_time_order, row_strips
from evtkit.fileio import read_events, write_events

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
    # EventStream refuses the stream, so validate never sees it
    with pytest.raises(ValueError, match=r"^event 0 has polarity 0, not -1 or \+1$"):
        EventStream([0.1], [0], [0], [0], 4, 4, 0.0, 1.0)


def test_validate_out_of_bounds_x():
    with pytest.raises(ValueError, match="outside geometry 4x4"):
        EventStream([0.1], [4], [0], [1], 4, 4, 0.0, 1.0)


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


@pytest.mark.parametrize("size, error", [(4.0, TypeError), (4.5, TypeError), (-1, ValueError)])
def test_stream_geometry_must_be_a_non_negative_integer(size, error):
    # a float width once reached write_events, whose header packing raised struct.error
    for geometry in ((size, 4), (4, size)):
        with pytest.raises(error):
            EventStream.empty(*geometry)


def test_stream_geometry_of_numpy_integers_is_kept_as_python_ints(tmp_path):
    s = EventStream.empty(np.int64(4), np.uint16(3))
    assert (s.width, s.height) == (4, 3) and type(s.width) is int and type(s.height) is int
    write_events(s, tmp_path / "s.evs")
    back = read_events(tmp_path / "s.evs")
    assert (back.width, back.height) == (4, 3)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0])
def test_non_finite_or_non_positive_thresholds_rejected(bad):
    with pytest.raises(ValueError, match="c_nominal"):
        SensorModel.uniform(bad, 3, 2)
    thr = np.full((2, 3), 0.2)
    thr[1, 2] = bad
    with pytest.raises(ValueError, match="threshold_map"):
        SensorModel(0.2, thr)


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
    # the one bounds rule is EventStream's, so neither validate nor pixel_index restates it
    with pytest.raises(ValueError, match=r"^event 1 at \(4, 0\) outside geometry 4x4$"):
        EventStream([0.1, 0.2], [1, 4], [0, 0], [1, 1], 4, 4, 0.0, 1.0)


PER_PIXEL_STAGES = {
    "voxelize": lambda s: voxelize(s, 0.0, 1.0, 4),
    "stream_stats": stream_stats,
    "limit_bandwidth": lambda s: limit_bandwidth(s, 0.05),
    "hot_pixel_filter": lambda s: hot_pixel_filter(s, 100.0),
}


@pytest.mark.parametrize("stage", PER_PIXEL_STAGES)
@pytest.mark.parametrize("x, y", [(-1, 2), (5, 2), (3, -1), (3, 4)])
def test_per_pixel_stage_rejects_event_outside_sensor(stage, x, y):
    # with ids y*W + x, (5, 2) would alias (0, 3) and (-1, 2) would alias (4, 1);
    # the stage is never handed such a stream, because EventStream refuses it
    with pytest.raises(ValueError, match=rf"event 1 at \({x}, {y}\) outside geometry 5x4"):
        PER_PIXEL_STAGES[stage](EventStream([0.1, 0.4, 0.6], [0, x, 4], [3, y, 1], [1, 1, -1],
                                            5, 4, 0.0, 1.0))


def test_voxelize_rejects_outside_sensor_event_outside_its_window():
    with pytest.raises(ValueError, match="outside geometry 5x4"):
        voxelize(EventStream([0.1, 1.5], [0, 5], [0, 0], [1, 1], 5, 4, 0.0, 2.0), 0.0, 1.0, 4)


@pytest.mark.parametrize("x, y", [(-1, 2), (5, 2), (3, -1), (3, 4)])
def test_stream_refuses_event_outside_sensor(x, y):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^event 1 at \({x}, {y}\) outside geometry 5x4$"):
            EventStream([0.1, 0.4, 0.6], [0, x, 4], [3, y, 1], [1, 1, -1], 5, 4, 0.0, 1.0)


@pytest.mark.parametrize("field, values, dtype", [
    ("x", np.array([0, 2 ** 32 + 1]), "int32"),  # the unsafe cast kept x = 1
    ("x", np.array([0, 2 ** 31], dtype=np.uint32), "int32"),  # and x = -2**31
    ("p", np.array([1, 257]), "int8"),  # and p = 1
    ("x", np.array([0.0, 3.7]), "int32"),  # and x = 3
    ("x", np.array([0.0, np.nan]), "int32"),  # and warned "invalid value encountered in cast"
], ids=["int64-above-int32", "uint32-above-int32", "p-above-int8", "fraction", "nan"])
def test_stream_refuses_values_its_fields_cannot_hold(field, values, dtype):
    fields = {"t": [0.1, 0.5], "x": [0, 1], "y": [0, 1], "p": [1, 1]}
    fields[field] = values
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^event 1 has {field}={values[1]}, which {dtype} cannot hold$"):
            EventStream(**fields, width=4, height=4, t_start=0.0, t_end=1.0)


def test_stream_keeps_values_its_fields_hold_exactly():
    top = 2 ** 31 - 1
    s = EventStream([0.5, 0.6], np.array([3.0, -0.0]), np.array([top, 0], dtype=np.uint64),
                    np.array([-1.0, 1.0]), top + 1, top + 1, 0.0, 1.0)
    assert (s.x.dtype, s.y.dtype, s.p.dtype) == (np.int32, np.int32, np.int8)
    assert (s.x.tolist(), s.y.tolist(), s.p.tolist()) == ([3, 0], [top, 0], [-1, 1])


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
    most 4 values among NaN, -0.0 and 0.0, coordinates 0 to 3 and the int32
    maximum on a sensor that holds them, p in {-1, 1}; sorted by time only
    or already canonical, some."""
    n = draw(st.integers(0, 40))
    pool = draw(st.lists(st.sampled_from([np.nan, -0.0, 0.0, 0.5, 1.0, 2.0]),
                         min_size=1, max_size=4))
    coord = st.one_of(st.integers(0, 3), st.just(I32.max))
    t = np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)), dtype=float)
    x = np.array(draw(st.lists(coord, min_size=n, max_size=n)))
    y = np.array(draw(st.lists(coord, min_size=n, max_size=n)))
    p = np.array(draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n)))
    s = EventStream(t, x, y, p, I32.max + 1, I32.max + 1, 0.0, 1.0)
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


@settings(max_examples=200, deadline=None)
@given(height=st.integers(0, 300), row_bytes=st.integers(0, 2 ** 22))
def test_row_strips_cover_every_row_once_in_order(height, row_bytes):
    strips = list(row_strips(height, row_bytes))
    assert [i for s in strips for i in range(s.start, s.stop)] == list(range(height))
    rows = [s.stop - s.start for s in strips]
    assert all(r == rows[0] for r in rows[:-1]) and all(0 < r <= rows[0] for r in rows)
    if rows and rows[0] > 1:
        # a strip fits in the budget
        assert rows[0] * row_bytes <= STRIP_BYTES


def test_stream_refuses_every_int8_polarity_but_plus_minus_one():
    for v in np.arange(-128, 128).astype(np.int8):
        if v in (-1, 1):
            assert EventStream([0.5], [0], [0], [v], 1, 1, 0.0, 1.0).p.tolist() == [v]
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^event 0 has polarity {v}, not -1 or \+1$"):
                EventStream([0.5], [0], [0], [v], 1, 1, 0.0, 1.0)


def nan_with_payload(payload: int, negative: bool) -> float:
    bits = (0xFFF0000000000000 if negative else 0x7FF0000000000000) | payload
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


@st.composite
def time_arrays(draw):
    """Times from a small pool, so most of them tie: -0.0 and 0.0, NaNs with
    different payloads and signs, +-inf and a few finite values; n up to 3000
    (long equal runs), or 46,340 and 46,341, where the keys of the argsort
    path turn from int32 to int64; in random, sorted or reversed order."""
    special = [-0.0, 0.0, np.inf, -np.inf, nan_with_payload(1 << 51, False),
               nan_with_payload(1, False), nan_with_payload((1 << 51) | 7, True)]
    values = st.one_of(st.sampled_from(special), st.floats(-2.0, 2.0, width=16))
    pool = np.array(draw(st.lists(values, min_size=1, max_size=6)))
    n = draw(st.one_of(st.integers(0, 2), st.integers(0, 3000), st.sampled_from([46340, 46341])))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    t = pool[rng.integers(0, len(pool), n)]
    arrange = draw(st.sampled_from(["random", "sorted", "reversed"]))
    if arrange != "random":
        t = np.sort(t)  # NaN last, ties in no particular bit order
        if arrange == "reversed":
            t = t[::-1].copy()
    return t


@settings(max_examples=300, deadline=None)
@given(time_arrays())
def test_stable_time_order_equals_stable_argsort(t):
    got = _stable_time_order(t)
    want = np.argsort(t, kind="stable")
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    # equal times keep input order even where their bits differ
    assert t[got].tobytes() == t[want].tobytes()


def test_stable_time_order_keeps_signed_zeros_and_nan_payloads_in_input_order():
    a, b = nan_with_payload(1, False), nan_with_payload(2, True)
    t = np.array([b, 0.0, 1.0, -0.0, a, 0.0, -np.inf])
    assert _stable_time_order(t).tolist() == [6, 1, 3, 5, 2, 0, 4]


@pytest.mark.parametrize("n", [46340, 46341])
def test_stable_time_order_at_the_int32_key_edge(n, rng):
    # a NaN sends the times down the argsort path, whose keys r * n + index
    # are int32 up to n = 46,340 and int64 from 46,341
    t = rng.choice(np.array([np.nan, -np.inf, -0.0, 0.0, 0.5]), n)
    assert _stable_time_order(t).tobytes() == np.argsort(t, kind="stable").tobytes()


@pytest.mark.parametrize("span, bits_path", [((1 << 61) - 1, True), (1 << 61, False)])
@pytest.mark.parametrize("least", [0x3FF0000000000000, -0x3FF0000000000000, -(1 << 60)])
def test_stable_time_order_at_the_edge_of_the_bits_path(span, bits_path, least, monkeypatch):
    # five times, so an index takes 3 bits: keys (bits - least) << 3 | index
    # fit a uint64 while the span of the bits is below 2**61
    def time(key):  # the inverse of the key: negative keys are negative times
        return float(np.array(key if key >= 0 else (-key) | (1 << 63), dtype=np.uint64).view(np.float64))

    t = np.array([time(least + span), time(least), time(least + span), time(least), time(least)])
    argsorts, argsort = [], np.argsort
    monkeypatch.setattr(np, "argsort", lambda *a, **k: argsorts.append(a) or argsort(*a, **k))
    got = _stable_time_order(t)
    monkeypatch.undo()
    assert got.tolist() == [1, 3, 4, 0, 2] and got.dtype == np.intp
    assert (not argsorts) == bits_path


def test_stable_time_order_refuses_keys_that_overflow_int64():
    class Huge:  # only its length is read before the refusal
        def __len__(self):
            return 3037000500  # the least n with n * n above the int64 maximum

    with pytest.raises(ValueError, match="overflow"):
        _stable_time_order(Huge())


@pytest.mark.parametrize("count, length", [(1, 1), (1, 8), (2, 17), (5, 633), (5, 7680), (5, 12160), (3, 4099)])
def test_aligned_planes_are_zeroed_disjoint_and_64_byte_aligned(count, length):
    planes = _aligned_planes(count, length)
    assert planes.shape == (count, length) and planes.dtype == np.float64
    assert not planes.any()
    for k, plane in enumerate(planes):
        assert plane.ctypes.data % 64 == 0 and plane.flags.c_contiguous
        plane[:] = k + 1
    assert [set(plane.tolist()) for plane in planes] == [{k + 1} for k in range(count)]
