import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IllegalMemoryAccess, LaunchError
from repro.sim.memory import ALLOC_ALIGN, HEAP_BASE, GlobalMemory


def test_alloc_alignment_and_growth():
    mem = GlobalMemory(1 << 20)
    a = mem.alloc(100)
    b = mem.alloc(1)
    assert a == HEAP_BASE
    assert a % ALLOC_ALIGN == 0
    assert b % ALLOC_ALIGN == 0
    assert b > a


def test_out_of_memory():
    mem = GlobalMemory(8192)
    with pytest.raises(LaunchError):
        mem.alloc(1 << 20)


def test_alloc_validates_size():
    mem = GlobalMemory(1 << 16)
    with pytest.raises(LaunchError):
        mem.alloc(0)


def test_write_read_roundtrip():
    mem = GlobalMemory(1 << 16)
    addr = mem.alloc(64)
    payload = np.arange(16, dtype=np.uint32)
    mem.write_bytes(addr, payload)
    back = mem.read_bytes(addr, 64).view(np.uint32)
    assert np.array_equal(back, payload)


def test_host_access_bounds():
    mem = GlobalMemory(1 << 16)
    addr = mem.alloc(64)
    with pytest.raises(IllegalMemoryAccess):
        mem.read_bytes(addr, 4096)
    with pytest.raises(IllegalMemoryAccess):
        mem.write_bytes(0, np.zeros(4, dtype=np.uint8))


def test_check_word_addresses():
    mem = GlobalMemory(1 << 16)
    addr = mem.alloc(64)
    mem.check_word_addresses(np.array([addr, addr + 60], dtype=np.int64))
    with pytest.raises(IllegalMemoryAccess):
        mem.check_word_addresses(np.array([addr + 1], dtype=np.int64))  # misaligned
    with pytest.raises(IllegalMemoryAccess):
        mem.check_word_addresses(np.array([0], dtype=np.int64))  # null guard
    with pytest.raises(IllegalMemoryAccess):
        mem.check_word_addresses(np.array([mem.heap_end], dtype=np.int64))


def test_null_guard_region():
    """Address 0 is never allocatable — corrupted null pointers fault."""
    mem = GlobalMemory(1 << 16)
    assert mem.alloc(16) >= HEAP_BASE


def test_read_line_clips():
    mem = GlobalMemory(8192)
    line = mem.read_line(8192 - 16, 32)
    assert line.shape == (32,)
    assert not line[16:].any()


def test_reset():
    mem = GlobalMemory(1 << 16)
    addr = mem.alloc(64)
    mem.write_bytes(addr, np.ones(64, dtype=np.uint8))
    mem.reset()
    assert mem.heap_end == HEAP_BASE
    assert not mem.data.any()


def test_reset_clears_line_written_back_past_heap_end():
    """A corrupted dirty line can be written back past ``heap_end``; the
    next run must still start from zeroed DRAM."""
    mem = GlobalMemory(1 << 16)
    addr = mem.alloc(64)
    line = np.full(512, 0xA5, dtype=np.uint8)
    mem.write_line(addr, line)  # tail lands beyond the 256-byte allocation
    assert mem.data[mem.heap_end : addr + 512].all()
    mem.reset()
    assert not mem.data.any()
    mem.write_bytes(mem.alloc(16), np.ones(16, dtype=np.uint8))
    mem.reset()
    assert not mem.data.any()


def _reference_check(mem, addrs):
    """The full per-lane mask the fast accept sits in front of."""
    bad = (addrs < HEAP_BASE) | (addrs + 4 > mem.heap_end) | (addrs & 3 != 0)
    if bad.any():
        addr = int(addrs[int(np.argmax(bad))])
        if addr & 3:
            raise IllegalMemoryAccess(addr, 4, "misaligned")
        raise IllegalMemoryAccess(addr, 4)


def _outcome(check, mem, addrs):
    try:
        check(mem, addrs)
    except IllegalMemoryAccess as exc:
        return exc.address, exc.size, exc.reason
    return None


_HEAP_BYTES = 1000  # the heap ends at HEAP_BASE + 1024 (allocation padding)
_HEAP_END = HEAP_BASE + 1024
#: Lane addresses around both heap edges (aligned or not), below zero,
#: and anywhere inside the heap.
_lane_addr = st.one_of(
    st.integers(HEAP_BASE - 9, HEAP_BASE + 9),
    st.integers(_HEAP_END - 9, _HEAP_END + 9),
    st.integers(-9, 3),
    st.integers(HEAP_BASE, _HEAP_END - 4).map(lambda a: a & ~3),
    st.integers(HEAP_BASE, _HEAP_END),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(HEAP_BASE, _HEAP_END - 4).map(lambda a: a & ~3),
                min_size=1, max_size=32),
       st.lists(st.tuples(st.integers(0, 31), _lane_addr), max_size=3))
def test_fast_accept_matches_full_mask(good, bad_lanes):
    """Property: ``check_word_addresses`` accepts exactly the vectors the
    full mask accepts, and raises the same address and reason (the first
    bad lane) for every other, wherever the bad lanes sit."""
    mem = GlobalMemory(1 << 16)
    mem.alloc(_HEAP_BYTES)
    assert mem.heap_end == _HEAP_END
    addrs = list(good)
    for lane, addr in bad_lanes:
        addrs.insert(min(lane, len(addrs)), addr)
    addrs = np.array(addrs[:32], dtype=np.int64)
    assert (_outcome(GlobalMemory.check_word_addresses, mem, addrs)
            == _outcome(_reference_check, mem, addrs))


def test_fast_accept_edges():
    """The last word of the heap passes; one past it, one below the base
    and a misaligned lane after a bad one each raise as before."""
    mem = GlobalMemory(1 << 16)
    mem.alloc(_HEAP_BYTES)
    ok = np.array([HEAP_BASE, _HEAP_END - 4], dtype=np.int64)
    # An accepted vector comes back as the lane list the closures group.
    assert mem.check_word_addresses(ok) == [HEAP_BASE, _HEAP_END - 4]
    for addrs, expect in (
        ([HEAP_BASE, _HEAP_END], (_HEAP_END, 4, "out of bounds")),
        ([HEAP_BASE - 4, HEAP_BASE + 1], (HEAP_BASE - 4, 4, "out of bounds")),
        ([HEAP_BASE + 8, HEAP_BASE + 2, -4], (HEAP_BASE + 2, 4, "misaligned")),
    ):
        addrs = np.array(addrs, dtype=np.int64)
        assert _outcome(GlobalMemory.check_word_addresses, mem, addrs) == expect
