"""Extended software-level fault models (Section V-B of the paper).

The paper identifies a core limitation of destination-register injection:
it cannot represent a fault that an instruction *reads* — and proposes a
register reuse analyzer that would replicate a source-register fault into
every subsequent reader. This module implements the experiment:

* ``SourceTransientInjector`` — flip one bit of one source register for a
  single dynamic instruction, then restore it (the naive source-injection
  model the paper criticises: "the fault would affect only this
  instruction").
* ``SourceStickyInjector`` — flip the bit and leave it until the program
  overwrites the register (the reuse-analyzer-augmented model: the fault
  affects every subsequent read, matching microarchitecture behaviour).

Comparing the two SVF estimates quantifies how much vulnerability the naive
model misses — the replication factor of Figure 12.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.rng import derive_rng


@dataclass
class SourceFaultPlan:
    """One planned source-register injection."""

    launch_index: int
    candidate_index: int  # over (dynamic instruction, source register, lane)
    bit: int
    sticky: bool  # False: transient (restore after the instruction)
    fired: bool = field(default=False)
    description: str = field(default="")


class SourceInjector:
    """GPU hook flipping a *source* register around one dynamic instruction.

    Exposes ``wants_sources`` so the SM issue loop knows to call the
    before/after pair; destination counting hooks are no-ops here.
    """

    wants_sources = True
    #: One flip, then the injector is done (see :mod:`repro.sim.replay`).
    persistent = False

    def __init__(self, plan: SourceFaultPlan):
        self.plan = plan
        #: The current launch may still inject (and so is never replayed).
        self.armed = False
        self._counter = 0

    def begin_launch(self, launch_index: int, kernel_name: str) -> None:
        self.armed = (
            launch_index == self.plan.launch_index and not self.plan.fired
        )
        self._counter = 0

    @property
    def fired(self) -> bool:
        return self.plan.fired

    #: Fired, and acts no more (see :mod:`repro.sim.gpu`): one flip.
    spent = fired

    def can_resume(self, checkpoint) -> bool:
        """Source candidates are not among the launch's counters, so a
        golden checkpoint cannot say how many have passed: an armed
        launch always starts from cycle 0 (see :mod:`repro.sim.replay`)."""
        return False

    def after_write(self, warp, dst, gm, n_exec, is_load) -> None:
        """Destination hook (unused by source models)."""

    def before_exec(self, warp, instr, gm, n_exec: int):
        """Source hook: returns a restore callable for transient faults."""
        if not self.armed:
            return None
        src_regs = instr.source_registers()
        if not src_regs:
            return None
        plan = self.plan
        candidates = n_exec * len(src_regs)
        start = self._counter
        self._counter = start + candidates
        k = plan.candidate_index
        if not start <= k < start + candidates:
            return None
        offset = k - start
        reg = src_regs[offset // n_exec]
        lane = int(np.nonzero(gm)[0][offset % n_exec])
        mask = np.uint32(1 << plan.bit)
        warp.bank.regs[reg, lane] ^= mask
        plan.fired = True
        plan.description = f"warp {warp.uid} lane {lane} R{reg} bit {plan.bit}"
        self.armed = False
        if plan.sticky:
            return None

        def restore(_warp=warp, _reg=reg, _lane=lane, _mask=mask):
            _warp.bank.regs[_reg, _lane] ^= _mask

        return restore


def plan_source_fault(
    launches: list[dict], seed: int, sticky: bool, context: str = ""
) -> SourceFaultPlan:
    """Draw one source-register fault plan.

    Candidate spaces for source injection are not in the standard profile
    (NVBitFI does not count them either), so we draw the candidate index
    uniformly from a window proportional to the launch's destination
    candidates scaled by a source-arity factor of 2 — a draw past the real
    candidate count simply never fires and is classified Masked, which
    matches the behaviour of real sampling-based injectors that discard
    no-op plans.
    """
    from repro.errors import PlanningError

    rng = derive_rng(seed, "svf-src-plan")
    launches = [rec for rec in launches if rec["injectable"] > 0]
    if not launches:
        where = context or "the target kernel"
        raise PlanningError(
            f"cannot plan a source-operand fault for {where}: no injectable "
            f"candidates — profile the kernel first, or pick a kernel that "
            f"executes instructions"
        )
    weights = np.array([rec["injectable"] for rec in launches], dtype=float)
    idx = int(rng.choice(len(launches), p=weights / weights.sum()))
    chosen = launches[idx]
    candidate = int(rng.integers(chosen["injectable"] * 2))
    return SourceFaultPlan(
        launch_index=chosen["index"],
        candidate_index=candidate,
        bit=int(rng.integers(32)),
        sticky=sticky,
    )
