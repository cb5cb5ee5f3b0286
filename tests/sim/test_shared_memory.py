import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IllegalSharedAccess, LaunchError
from repro.sim.shared_memory import SharedMemory, SharedWindow


def test_allocate_read_write():
    pool = SharedMemory(0, 8192)
    uid, window = pool.allocate(256)
    offs = np.array([0, 4, 252], dtype=np.int64)
    vals = np.array([1, 2, 3], dtype=np.uint32)
    window.write_words(offs, vals)
    assert np.array_equal(window.read_words(offs), vals)
    pool.free(uid)
    assert pool.allocated_bytes == 0


def test_bounds_checked():
    pool = SharedMemory(0, 8192)
    _, window = pool.allocate(64)
    with pytest.raises(IllegalSharedAccess):
        window.read_words(np.array([64], dtype=np.int64))
    with pytest.raises(IllegalSharedAccess):
        window.read_words(np.array([-4], dtype=np.int64))
    with pytest.raises(IllegalSharedAccess):
        window.read_words(np.array([2], dtype=np.int64))  # misaligned


def test_pool_capacity():
    pool = SharedMemory(0, 1024)
    pool.allocate(512)
    assert pool.can_allocate(512)
    assert not pool.can_allocate(513)
    pool.allocate(512)
    with pytest.raises(LaunchError):
        pool.allocate(4)


def test_allocate_rejects_nonpositive():
    pool = SharedMemory(0, 1024)
    with pytest.raises(LaunchError):
        pool.allocate(0)


def test_live_windows():
    pool = SharedMemory(0, 8192)
    pool.allocate(128)
    pool.allocate(256)
    assert sorted(w.size for w in pool.live_windows()) == [128, 256]
    assert pool.live_bits == (128 + 256) * 8


def _reference_check(window, offsets):
    """The full per-lane mask the fast accept sits in front of."""
    bad = (offsets < 0) | (offsets + 4 > window.size) | (offsets & 3 != 0)
    if bad.any():
        raise IllegalSharedAccess(int(offsets[int(np.argmax(bad))]), 4,
                                  window.size)


def _outcome(check, window, offsets):
    try:
        check(window, offsets)
    except IllegalSharedAccess as exc:
        return exc.offset, exc.size, exc.limit
    return None


_WINDOW_BYTES = 256
#: Lane offsets around both window edges (aligned or not), below zero
#: and anywhere inside the window.
_lane_offset = st.one_of(
    st.integers(-9, 9),
    st.integers(_WINDOW_BYTES - 9, _WINDOW_BYTES + 9),
    st.integers(0, _WINDOW_BYTES - 4).map(lambda o: o & ~3),
    st.integers(-(2**33), 2**33),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, _WINDOW_BYTES - 4).map(lambda o: o & ~3),
                min_size=1, max_size=32),
       st.lists(st.tuples(st.integers(0, 31), _lane_offset), max_size=3))
def test_fast_accept_matches_full_mask(good, bad_lanes):
    """Property: ``check_word_offsets`` accepts exactly the vectors the
    full mask accepts, and raises on the same first bad lane for every
    other, wherever the bad lanes sit."""
    _, window = SharedMemory(0, 8192).allocate(_WINDOW_BYTES)
    offsets = list(good)
    for lane, offset in bad_lanes:
        offsets.insert(min(lane, len(offsets)), offset)
    offsets = np.array(offsets[:32], dtype=np.int64)
    assert (_outcome(SharedWindow.check_word_offsets, window, offsets)
            == _outcome(_reference_check, window, offsets))


def test_fast_accept_edges():
    """The last word of the window passes; one past it, one below zero and
    a misaligned lane after a bad one each raise on the first bad lane."""
    _, window = SharedMemory(0, 8192).allocate(_WINDOW_BYTES)
    window.check_word_offsets(np.array([0, _WINDOW_BYTES - 4], dtype=np.int64))
    for offsets, first in (([0, _WINDOW_BYTES], _WINDOW_BYTES),
                           ([-4, 1], -4), ([8, 2, -4], 2)):
        offsets = np.array(offsets, dtype=np.int64)
        assert _outcome(SharedWindow.check_word_offsets, window,
                        offsets) == (first, 4, _WINDOW_BYTES)
