"""Simulated device (DRAM) memory with a bump allocator and bounds checking.

Addresses are 32-bit byte addresses into a single flat device address space.
Accesses outside the allocated heap, or not 4-byte aligned, raise
:class:`~repro.errors.IllegalMemoryAccess` — the mechanism by which injected
faults that corrupt pointers/indices become DUE outcomes, mirroring the
"illegal memory access" kernel aborts of real GPUs.

A null guard region at the bottom of the address space ensures that a
zeroed/corrupted pointer faults instead of silently reading address 0.
"""

from __future__ import annotations

import mmap

import numpy as np

from repro.errors import IllegalMemoryAccess, LaunchError

#: Bottom of the allocatable heap; accesses below this always fault.
HEAP_BASE = 4096
#: Allocation alignment (bytes).
ALLOC_ALIGN = 256


class GlobalMemory:
    """Flat device memory: one uint8 array plus an allocation watermark."""

    def __init__(self, size_bytes: int):
        if size_bytes <= HEAP_BASE:
            raise LaunchError(f"device memory too small ({size_bytes} bytes)")
        self.size = size_bytes
        # An anonymous mapping: the OS supplies zeroed pages on first touch,
        # so building a device is O(1). ``np.zeros`` may instead memset a
        # reused heap block of the full DRAM size.
        self.data = np.frombuffer(mmap.mmap(-1, size_bytes), dtype=np.uint8)
        self._next = HEAP_BASE
        # End of the highest byte any write reached: ``reset`` zeroes only
        # up to it. Line write-backs may pass ``_next`` (a dirty line that
        # straddles the heap end), so this is tracked apart from it.
        self._written_end = 0

    # ------------------------------------------------------------------ #
    # Allocation
    # ------------------------------------------------------------------ #
    def alloc(self, nbytes: int) -> int:
        """Allocate ``nbytes`` and return the base address."""
        if nbytes <= 0:
            raise LaunchError("allocation size must be positive")
        base = self._next
        padded = (nbytes + ALLOC_ALIGN - 1) // ALLOC_ALIGN * ALLOC_ALIGN
        if base + padded > self.size:
            raise LaunchError(
                f"device out of memory: need {padded} bytes at 0x{base:x}, "
                f"capacity {self.size}"
            )
        self._next = base + padded
        return base

    def reset(self) -> None:
        """Free everything (used between independent application runs)."""
        self._next = HEAP_BASE
        self.data[: self._written_end] = 0
        self._written_end = 0

    @property
    def heap_end(self) -> int:
        return self._next

    # ------------------------------------------------------------------ #
    # Launch-boundary state (golden launch replay, see repro.sim.replay)
    # ------------------------------------------------------------------ #
    def boundary_state(self) -> tuple[int, int, np.ndarray]:
        """The allocator watermark, the written end and the bytes below it
        (every byte past the written end is zero)."""
        return self._next, self._written_end, self.data[: self._written_end].copy()

    def matches_boundary(self, state) -> bool:
        heap_end, written_end, data = state
        return (self._next == heap_end and self._written_end == written_end
                and np.array_equal(self.data[:written_end], data))

    def restore_boundary(self, state) -> None:
        """Load ``state``. The written end only grows, so restoring the exit
        state of a launch whose entry state matched rewrites every byte
        that can differ."""
        self._next, self._written_end, data = state
        self.data[: self._written_end] = data

    # ------------------------------------------------------------------ #
    # Validity checking (vectorised over a warp's lane addresses)
    # ------------------------------------------------------------------ #
    def check_word_addresses(self, addrs: np.ndarray) -> list[int]:
        """Validate lane addresses for 4-byte accesses; raise on the first
        bad one, else return them as a list of Python ints (the memory
        closures group lines from it).

        A vector whose bounds and OR-ed low bits pass is accepted without
        the per-lane mask, which only a failing vector builds."""
        lane_addrs = addrs.tolist()
        if (lane_addrs and min(lane_addrs) >= HEAP_BASE
                and max(lane_addrs) + 4 <= self._next
                and not np.bitwise_or.reduce(addrs) & 3):
            return lane_addrs
        bad = (addrs < HEAP_BASE) | (addrs + 4 > self._next) | (addrs & 3 != 0)
        if bad.any():
            idx = int(np.argmax(bad))
            addr = int(addrs[idx])
            if addr & 3:
                raise IllegalMemoryAccess(addr, 4, "misaligned")
            raise IllegalMemoryAccess(addr, 4)
        return lane_addrs

    # ------------------------------------------------------------------ #
    # Host-side raw access (bypasses caches; callers flush/invalidate)
    # ------------------------------------------------------------------ #
    def write_bytes(self, addr: int, payload: np.ndarray) -> None:
        payload = np.ascontiguousarray(payload).view(np.uint8).reshape(-1)
        if addr < HEAP_BASE or addr + payload.size > self._next:
            raise IllegalMemoryAccess(addr, payload.size, "host write out of bounds")
        end = addr + payload.size
        self.data[addr:end] = payload
        self._written_end = max(self._written_end, end)

    def read_bytes(self, addr: int, nbytes: int) -> np.ndarray:
        if addr < HEAP_BASE or addr + nbytes > self._next:
            raise IllegalMemoryAccess(addr, nbytes, "host read out of bounds")
        return self.data[addr : addr + nbytes].copy()

    def read_line(self, line_addr: int, line_bytes: int) -> np.ndarray:
        """Fetch one cache line; out-of-heap tails read as zeros (no fault).

        A line fill may straddle the heap watermark when a buffer ends
        mid-line; the hardware would happily fetch it, so no error here.
        Word-access validity is enforced separately per lane address.
        """
        end = line_addr + line_bytes
        if end <= self.size:
            return self.data[line_addr:end].copy()
        out = np.zeros(line_bytes, dtype=np.uint8)
        if line_addr < self.size:
            out[: self.size - line_addr] = self.data[line_addr:]
        return out

    def write_line(self, line_addr: int, payload: np.ndarray) -> None:
        """Write back one (possibly corrupted) line, clipped to device size."""
        end = min(line_addr + payload.size, self.size)
        if line_addr < self.size:
            self.data[line_addr:end] = payload[: end - line_addr]
            self._written_end = max(self._written_end, end)

    def write_lines(self, line_addrs: np.ndarray, payloads: np.ndarray) -> None:
        """Write back several lines (distinct, line-aligned ``line_addrs``;
        one row of ``payloads`` each) with one store, clipped like
        :meth:`write_line`."""
        line_bytes = payloads.shape[1]
        end = int(line_addrs.max()) + line_bytes
        if end > self.size:
            for addr, payload in zip(line_addrs.tolist(), payloads):
                self.write_line(addr, payload)
            return
        self.data[line_addrs[:, None] + np.arange(line_bytes)] = payloads
        self._written_end = max(self._written_end, end)
