import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evtkit import Event, EventStream, FrameSequence, canonical_sort, validate

from conftest import random_stream


def test_sorted_stream_unchanged():
    s = EventStream.from_events(
        [Event(0.1, 0, 0, 1), Event(0.2, 1, 1, -1)], 4, 4)
    out = canonical_sort(s)
    assert np.array_equal(out.t, s.t)
    assert np.array_equal(out.x, s.x)
    assert np.array_equal(out.y, s.y)
    assert np.array_equal(out.p, s.p)


def test_equal_time_tie_break_by_row():
    s = EventStream.from_events(
        [Event(0.5, 0, 3, 1), Event(0.5, 0, 1, 1)], 4, 4)
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


def test_mismatched_array_lengths_rejected():
    with pytest.raises(ValueError):
        EventStream([0.1, 0.2], [0], [0], [1], 4, 4, 0.0, 1.0)


@pytest.mark.parametrize("bad", [np.nan, -0.1, 1.5])
def test_frames_outside_unit_range_rejected(bad):
    frames = np.full((2, 3, 3), 0.5)
    frames[1, 2, 0] = bad
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        FrameSequence(frames, [0.0, 1.0])
