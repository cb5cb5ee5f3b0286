"""Software-level fault injector (the NVBitFI analogue).

The fault model is NVBitFI's: pick one dynamic instance of a general-purpose
instruction (one thread of one executed instruction) in the target kernel
and flip one bit of its *destination register value* right after the write.
Only live, software-visible data is ever touched — no dead registers, no
cache lines, no instruction encodings — which is precisely the blindness to
hardware state the paper shows makes SVF diverge from AVF.

``loads_only=True`` restricts candidates to memory loads (LD/LDS/LDT
destinations) and yields the paper's SVF-LD metric (Figure 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.rng import derive_rng, weighted_index


@dataclass
class SoftwareFaultPlan:
    """One planned software-level injection."""

    launch_index: int
    candidate_index: int  # thread-level dynamic-instruction candidate number
    bit: int  # 0..31 within the destination value
    loads_only: bool = False
    fired: bool = field(default=False)
    description: str = field(default="")
    #: Instruction class actually hit ("load"/"alu"); SDC-anatomy site tag.
    injected_class: str = field(default="")


class SoftwareInjector:
    """GPU hook receiving ``after_write`` for every injectable instruction."""

    #: Destination-register model: the SM skips the source-injection hooks.
    wants_sources = False
    #: One flip, then the injector is done (see :mod:`repro.sim.replay`).
    persistent = False

    def __init__(self, plan: SoftwareFaultPlan):
        self.plan = plan
        #: The current launch may still inject (and so is never replayed).
        self.armed = False
        self._counter = 0

    def begin_launch(self, launch_index: int, kernel_name: str) -> None:
        self.armed = launch_index == self.plan.launch_index and not self.plan.fired
        self._counter = 0

    @property
    def fired(self) -> bool:
        return self.plan.fired

    #: Fired, and acts no more (see :mod:`repro.sim.gpu`): one flip.
    spent = fired

    def _candidates_at(self, checkpoint) -> int:
        return checkpoint.stat("sw_injectable_loads" if self.plan.loads_only
                               else "sw_injectable_instructions")

    def can_resume(self, checkpoint) -> bool:
        """Whether the armed launch may start from golden ``checkpoint``
        (see :mod:`repro.sim.replay`): the candidates counted before it
        do not include the planned one. The launch's counters count the
        same candidates this injector does."""
        return (not self.plan.fired
                and self._candidates_at(checkpoint) <= self.plan.candidate_index)

    def resume(self, checkpoint) -> None:
        """Continue counting from ``checkpoint``'s candidate count."""
        self._counter = self._candidates_at(checkpoint)

    def after_write(self, warp, dst: int, gm: np.ndarray, n_exec: int,
                    is_load: bool) -> None:
        """Hot-path hook: count candidates; flip when the target is reached."""
        if not self.armed:
            return
        plan = self.plan
        if plan.loads_only and not is_load:
            return
        start = self._counter
        self._counter = start + n_exec
        k = plan.candidate_index
        if start <= k < start + n_exec:
            lane = int(np.nonzero(gm)[0][k - start])
            warp.bank.regs[dst, lane] ^= np.uint32(1 << plan.bit)
            plan.fired = True
            plan.injected_class = "load" if is_load else "alu"
            plan.description = (
                f"warp {warp.uid} lane {lane} R{dst} bit {plan.bit}"
            )
            self.armed = False


def plan_software_fault(
    launches: list[dict],
    seed: int,
    loads_only: bool = False,
    context: str = "",
) -> SoftwareFaultPlan:
    """Draw one fault plan, uniform over the kernel's dynamic candidates.

    ``launches`` are the profile records of the target kernel; instances are
    weighted by their candidate counts so the draw is uniform over all
    dynamic candidates of the kernel across its launches. ``context``
    (e.g. ``"app/kernel"``) names the target in planner errors.
    """
    from repro.errors import PlanningError

    rng = derive_rng(seed, "sw-plan")
    key = "injectable_loads" if loads_only else "injectable"
    launches = [rec for rec in launches if rec[key] > 0]
    if not launches:
        where = context or "the target kernel"
        raise PlanningError(
            f"cannot plan a software fault for {where}: no injectable "
            f"candidates ({'loads' if loads_only else 'all'}) — profile the "
            f"kernel first, or pick a kernel that executes instructions"
        )
    chosen = launches[weighted_index(rng, [rec[key] for rec in launches])]
    candidate = int(rng.integers(chosen[key]))
    bit = int(rng.integers(32))
    return SoftwareFaultPlan(
        launch_index=chosen["index"],
        candidate_index=candidate,
        bit=bit,
        loads_only=loads_only,
    )
