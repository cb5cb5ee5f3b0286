"""Per-SM register file.

Registers live in per-warp banks of shape ``(regs_per_thread, 32)``, which
mirrors GPGPU-Sim's behaviour of allocating registers per thread at launch
and freeing them at thread exit: only *live* registers exist to be injected.
The AVF derating factor (Section II-B of the paper) corrects for this by
scaling the measured failure rate to the whole physical register file.
"""

from __future__ import annotations

import numpy as np

from repro.errors import LaunchError


class WarpRegisters:
    """Register bank of one resident warp: ``regs[r, lane]`` (uint32)."""

    __slots__ = ("regs", "num_regs", "views")

    def __init__(self, num_regs: int, warp_size: int):
        self.num_regs = num_regs
        self.regs = np.zeros((max(num_regs, 1), warp_size), dtype=np.uint32)
        #: ``regs`` read as uint32, int32 and float32 (the executor's
        #: ``U``, ``S`` and ``F``); writers of ``regs`` write in place.
        self.views = (self.regs, self.regs.view(np.int32),
                      self.regs.view(np.float32))

    @property
    def live_bits(self) -> int:
        return self.num_regs * self.regs.shape[1] * 32


class RegisterFile:
    """The pool of physical registers of one SM.

    Tracks allocation so occupancy limits are enforced and the injector can
    enumerate live banks at the injection cycle.
    """

    def __init__(self, sm_index: int, total_regs: int, warp_size: int):
        self.sm_index = sm_index
        self.total_regs = total_regs
        self.warp_size = warp_size
        self.allocated_regs = 0
        self._banks: dict[int, WarpRegisters] = {}  # warp uid -> bank
        self._next_uid = 0

    def can_allocate(self, num_warps: int, regs_per_thread: int) -> bool:
        need = num_warps * regs_per_thread * self.warp_size
        return self.allocated_regs + need <= self.total_regs

    def allocate(self, regs_per_thread: int) -> tuple[int, WarpRegisters]:
        """Allocate one warp's bank; returns (uid, bank)."""
        need = regs_per_thread * self.warp_size
        if self.allocated_regs + need > self.total_regs:
            raise LaunchError(
                f"SM{self.sm_index} register file exhausted "
                f"({self.allocated_regs}+{need} > {self.total_regs})"
            )
        uid = self._next_uid
        self._next_uid += 1
        bank = WarpRegisters(regs_per_thread, self.warp_size)
        self._banks[uid] = bank
        self.allocated_regs += need
        return uid, bank

    def free(self, uid: int) -> None:
        bank = self._banks.pop(uid)
        self.allocated_regs -= bank.num_regs * self.warp_size

    def live_banks(self) -> list[WarpRegisters]:
        return list(self._banks.values())

    @property
    def total_bits(self) -> int:
        return self.total_regs * 32

    @property
    def live_bits(self) -> int:
        return self.allocated_regs * 32
