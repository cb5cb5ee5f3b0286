"""Per-SM shared memory, allocated per CTA (as in GPGPU-Sim).

Each resident CTA owns a private window; LDS/STS offsets are bounds-checked
against the window so corrupted shared-memory indices become DUEs. Like the
register file, only windows of *live* CTAs exist, so shared-memory AVF uses
a derating factor.
"""

from __future__ import annotations

import numpy as np

from repro.errors import IllegalSharedAccess, LaunchError


class SharedWindow:
    """One CTA's shared-memory allocation."""

    __slots__ = ("data", "size", "_words")

    def __init__(self, nbytes: int):
        self.data = np.zeros(nbytes, dtype=np.uint8)
        self.size = nbytes
        # ``data`` as little-endian words, made once: ``data`` is only
        # ever written in place (stores, faults, checkpoint restore).
        self._words = self.data.view("<u4")

    def check_word_offsets(self, offsets: np.ndarray) -> None:
        """Validate lane offsets for 4-byte accesses; raise on the first
        bad one.

        A vector whose bounds and OR-ed low bits pass is accepted without
        the per-lane mask, which only a failing vector builds."""
        lane_offsets = offsets.tolist()
        if (lane_offsets and min(lane_offsets) >= 0
                and max(lane_offsets) + 4 <= self.size
                and not np.bitwise_or.reduce(offsets) & 3):
            return
        bad = (offsets < 0) | (offsets + 4 > self.size) | (offsets & 3 != 0)
        if bad.any():
            idx = int(np.argmax(bad))
            raise IllegalSharedAccess(int(offsets[idx]), 4, self.size)

    def read_words(self, offsets: np.ndarray) -> np.ndarray:
        self.check_word_offsets(offsets)
        return self._words[offsets >> 2]

    def write_words(self, offsets: np.ndarray, values: np.ndarray) -> None:
        self.check_word_offsets(offsets)
        self._words[offsets >> 2] = values

    @property
    def live_bits(self) -> int:
        return self.size * 8


class SharedMemory:
    """The shared-memory pool of one SM."""

    def __init__(self, sm_index: int, total_bytes: int):
        self.sm_index = sm_index
        self.total_bytes = total_bytes
        self.allocated_bytes = 0
        self._windows: dict[int, SharedWindow] = {}
        self._next_uid = 0

    def can_allocate(self, nbytes: int) -> bool:
        return self.allocated_bytes + nbytes <= self.total_bytes

    def allocate(self, nbytes: int) -> tuple[int, SharedWindow]:
        if nbytes <= 0:
            raise LaunchError("shared-memory allocation must be positive")
        if not self.can_allocate(nbytes):
            raise LaunchError(
                f"SM{self.sm_index} shared memory exhausted "
                f"({self.allocated_bytes}+{nbytes} > {self.total_bytes})"
            )
        uid = self._next_uid
        self._next_uid += 1
        window = SharedWindow(nbytes)
        self._windows[uid] = window
        self.allocated_bytes += nbytes
        return uid, window

    def free(self, uid: int) -> None:
        window = self._windows.pop(uid)
        self.allocated_bytes -= window.size

    def live_windows(self) -> list[SharedWindow]:
        return list(self._windows.values())

    @property
    def total_bits(self) -> int:
        return self.total_bytes * 8

    @property
    def live_bits(self) -> int:
        return self.allocated_bytes * 8
