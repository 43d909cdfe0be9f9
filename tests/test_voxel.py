import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evtkit import EventStream, VoxelGrid, canonical_sort, voxelize

from conftest import count_streams, random_stream


def test_empty_stream_all_zero():
    grid = voxelize(EventStream.empty(4, 4), 0.0, 1.0, 10)
    assert grid.data.shape == (4, 4, 10)
    assert not grid.data.any()


def test_two_event_hand_computed():
    s = EventStream([0.05, 0.55], [2, 2], [3, 3], [1, -1], 4, 4, 0.0, 1.0)
    grid = voxelize(s, 0.0, 1.0, 10)
    expect = np.zeros((4, 4, 10))
    expect[3, 2, 0] = 1
    expect[3, 2, 5] = -1
    np.testing.assert_array_equal(grid.data, expect)
    assert grid.data.sum(axis=2)[3, 2] == 0


def test_default_channel_count_is_ten():
    grid = voxelize(EventStream.empty(2, 2), 0.0, 1.0)
    assert grid.n_channels == 10


def test_event_at_window_end_goes_to_last_channel():
    s = EventStream([1.0], [0], [0], [1], 1, 1, 0.0, 1.0)
    grid = voxelize(s, 0.0, 1.0, 4)
    assert grid.data[0, 0, 3] == 1


def test_events_outside_window_ignored():
    s = EventStream([-0.1, 0.5, 1.5], [0] * 3, [0] * 3, [1] * 3, 1, 1, -0.5, 2.0)
    grid = voxelize(s, 0.0, 1.0, 2)
    assert grid.data.sum() == 1


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_channels=st.integers(1, 12))
def test_conservation(seed, n_channels):
    rng = np.random.default_rng(seed)
    s = random_stream(rng, width=5, height=4, n=rng.integers(0, 80))
    grid = voxelize(s, 0.0, 1.0, n_channels)
    signed = np.zeros((4, 5))
    counts = np.zeros((4, 5))
    np.add.at(signed, (s.y, s.x), s.p.astype(float))
    np.add.at(counts, (s.y, s.x), 1.0)
    np.testing.assert_array_equal(grid.data.sum(axis=2), signed)
    assert np.all(np.abs(grid.data).sum(axis=2) <= counts)
    assert np.all(grid.data == np.round(grid.data))


def test_refinement_pair_sums(rng):
    for _ in range(20):
        k = int(rng.integers(1, 8))
        s = random_stream(rng, n=100)
        fine = voxelize(s, 0.0, 1.0, 2 * k)
        coarse = voxelize(s, 0.0, 1.0, k)
        paired = fine.data.reshape(s.height, s.width, k, 2).sum(axis=3)
        np.testing.assert_array_equal(paired, coarse.data)


def test_permutation_invariance(rng):
    s = random_stream(rng, n=50)
    perm = rng.permutation(len(s))
    shuffled = s.with_arrays(s.t[perm], s.x[perm], s.y[perm], s.p[perm])
    np.testing.assert_array_equal(
        voxelize(canonical_sort(s), 0.0, 1.0, 7).data,
        voxelize(shuffled, 0.0, 1.0, 7).data)


def test_rejects_bad_window():
    s = EventStream.empty(2, 2)
    with pytest.raises(ValueError):
        voxelize(s, 0.0, 0.0, 4)
    with pytest.raises(ValueError):
        voxelize(s, 0.0, 1.0, 0)


@pytest.mark.parametrize("t0, duration", [(0.0, np.nan), (np.nan, 1.0), (0.0, np.inf), (np.inf, 1.0),
                                          (-np.inf, 1.0)])
def test_rejects_window_that_is_not_finite(t0, duration):
    # NaN gave an all-zero grid, and an infinite duration put every event in channel 0
    s = EventStream([0.1, 0.5, 0.9], [0, 1, 0], [0, 0, 1], [1, -1, 1], 2, 2, 0.0, 1.0)
    with pytest.raises(ValueError, match="finite t0"):
        voxelize(s, t0, duration, 4)


def add_at_reference(stream, t0, duration, n_channels=10):
    """voxelize as it was before np.bincount, kept verbatim as the oracle."""
    if duration <= 0:
        raise ValueError("duration must be > 0")
    if n_channels < 1:
        raise ValueError("n_channels must be >= 1")
    data = np.zeros((stream.height, stream.width, n_channels))
    inside = (stream.t >= t0) & (stream.t <= t0 + duration)
    if inside.any():
        t = stream.t[inside]
        chan = np.floor((t - t0) * n_channels / duration).astype(np.int64)
        chan = np.minimum(chan, n_channels - 1)  # right-edge closure
        np.add.at(data, (stream.y[inside], stream.x[inside], chan),
                  stream.p[inside].astype(np.float64))
    return VoxelGrid(data, t0, duration)


@settings(max_examples=300, deadline=None)
@given(s=count_streams(), n_channels=st.integers(1, 7))
def test_matches_add_at_reference(s, n_channels):
    grid = voxelize(s, 0.25, 1.0, n_channels)
    want = add_at_reference(s, 0.25, 1.0, n_channels)
    assert grid.data.dtype == want.data.dtype and grid.data.shape == want.data.shape
    assert grid.data.tobytes() == want.data.tobytes()
    assert (grid.t0, grid.duration, grid.n_channels) == (want.t0, want.duration, want.n_channels)


@pytest.mark.parametrize("t0, duration", [(0.0, 1.0), (-1.0, 3.0), (0.3, 0.4), (0.999, 0.5)],
                         ids=["window", "wider", "inner", "tail"])
def test_matches_add_at_reference_with_and_without_events_outside(rng, t0, duration):
    # the first two windows hold every event and skip the compression
    s = canonical_sort(random_stream(rng, width=9, height=7, n=2000))
    grid = voxelize(s, t0, duration, 6)
    assert grid.data.tobytes() == add_at_reference(s, t0, duration, 6).data.tobytes()
