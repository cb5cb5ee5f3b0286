import numpy as np
import pytest

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
