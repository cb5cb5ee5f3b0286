"""Golden launch replay: skip launches that would repeat the fault-free run.

A launch is a deterministic function of its inputs (the program, the
kernel name, grid and block, the encoded parameters and the shared-memory
size), the GPU configuration, any injector or tracer acting on it, and
the device state that survives a launch boundary. The fault-free profiling
run records all of these per launch as a :class:`ReplayTrack`. When an
injected trial reaches a launch whose inputs and entry state equal those
of the golden launch at the same index, and nothing can act on it (no
injector armed for it, no tracer), the GPU restores the golden exit state
and appends a copy of the golden record instead of simulating. The result
is exact by construction: the simulated launch would have reached the same
state with the same counters.

This covers every launch before a fault fires, and every launch after a
fault has died: a boundary that equals golden is exactly "the fault did
not reach architectural state".

The boundary state (:class:`Boundary`) is:

* DRAM: the allocator watermark, the written end and the bytes below it;
* the L2: valid/dirty bits, and the tag, data and LRU stamp (relative to
  the LRU clock) of each valid line;
* each SM's round-robin scheduler cursor, which a control-state fault on
  an idle SM can leave set (retiring a CTA clears it).

Nothing else survives: L1s, register banks, shared-memory windows, warps
and cache fill timing are all rebuilt or reset at every launch. The warp,
register-bank and shared-memory-window uid counters do not affect
behaviour, but a replayed launch advances them by the golden amounts so
later uids match a fully simulated run.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.arch.config import GPUConfig
from repro.isa.program import Program


@dataclass(frozen=True, eq=False)
class Boundary:
    """Device state at a launch boundary (see the module docstring)."""

    memory: tuple
    l2: tuple
    schedulers: tuple[int, ...]

    @classmethod
    def capture(cls, gpu) -> "Boundary":
        return cls(gpu.mem.boundary_state(), gpu.l2.boundary_state(),
                   tuple(sm.scheduler_cursor for sm in gpu.sms))

    def matches(self, gpu) -> bool:
        """Whether ``gpu`` is in this state, cheapest checks first."""
        return (all(sm.scheduler_cursor == rr
                    for sm, rr in zip(gpu.sms, self.schedulers))
                and gpu.mem.matches_boundary(self.memory)
                and gpu.l2.matches_boundary(self.l2))

    def restore(self, gpu) -> None:
        gpu.mem.restore_boundary(self.memory)
        gpu.l2.restore_boundary(self.l2)
        for sm, rr in zip(gpu.sms, self.schedulers):
            sm.scheduler_cursor = rr


def uid_counters(gpu) -> tuple[int, ...]:
    """The warp uid counter, then each SM's register-bank and
    shared-memory-window uid counters."""
    return (gpu._warp_uid,
            *(sm.rf._next_uid for sm in gpu.sms),
            *(sm.smem._next_uid for sm in gpu.sms))


def advance_uid_counters(gpu, deltas: tuple[int, ...]) -> None:
    n = len(gpu.sms)
    gpu._warp_uid += deltas[0]
    for sm, rf, smem in zip(gpu.sms, deltas[1:1 + n], deltas[1 + n:]):
        sm.rf._next_uid += rf
        sm.smem._next_uid += smem


@dataclass(frozen=True, eq=False)
class GoldenLaunch:
    """One launch of the fault-free run. ``program`` is held, not its
    ``id()``, so it cannot be collected and its id reused."""

    program: Program
    launch: object  # repro.sim.gpu.KernelLaunch
    entry: Boundary
    exit: Boundary
    uid_deltas: tuple[int, ...]
    record: object  # repro.sim.gpu.LaunchRecord


class ReplayTrack:
    """The golden launches of one fault-free run on ``config``."""

    def __init__(self, config: GPUConfig):
        self.config = config
        self.launches: list[GoldenLaunch] = []

    def entry_boundary(self, gpu) -> Boundary:
        """Capture the entry state of the next golden launch. Launches
        issued back to back (no host copy in between) share the previous
        launch's exit state instead of storing it twice."""
        if self.launches and self.launches[-1].exit.matches(gpu):
            return self.launches[-1].exit
        return Boundary.capture(gpu)

    def find(self, gpu, index: int, program: Program, launch
             ) -> GoldenLaunch | None:
        """The golden launch ``index`` if ``gpu`` is about to repeat it
        (same inputs, configuration and entry state), else None."""
        if index >= len(self.launches):
            return None
        golden = self.launches[index]
        if (golden.program is not program or golden.launch != launch
                or (gpu.config is not self.config
                    and gpu.config != self.config)):
            return None
        return golden if golden.entry.matches(gpu) else None


def replayed_record(golden: GoldenLaunch):
    """A copy of the golden record, flagged as replayed."""
    stats = golden.record.stats
    stats = dataclasses.replace(
        stats, l1d=dataclasses.replace(stats.l1d),
        l1t=dataclasses.replace(stats.l1t), l2=dataclasses.replace(stats.l2))
    return dataclasses.replace(golden.record, stats=stats, replayed=True)
