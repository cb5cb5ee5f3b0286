"""Golden replay: skip work that would repeat the fault-free run.

The shortcuts, and the fact that makes each one exact:

* **whole-launch replay**: a launch is a deterministic function of its
  inputs and its entry state, and a launch no injector is armed for with
  the golden inputs and entry state repeats the golden launch;
* **fast-forward** to a golden checkpoint: every armed injector says it
  has not acted before that checkpoint (``can_resume``), so the trial
  equals golden there;
* **checkpoint convergence**: every injector has fired and none is
  persistent, and the trial equals golden at a checkpoint on every cell a
  later instruction can read;
* **fire-time convergence**: the launch's only actor is a transient fault
  that wrote only dead state, and the trial equalled golden until then;
* **trial-level convergence** (``GPU._finish_from_golden``): every launch
  so far ended from the golden run and every injector is spent, so the
  host has seen only golden data and issues the golden launches on golden
  state; the trial ends Masked with the golden cycles and outputs, unless
  a golden launch left would overrun a cycle budget.

A launch is a deterministic function of its inputs (the program, the
kernel name, grid and block, the encoded parameters and the shared-memory
size), the GPU configuration, any injector or tracer acting on it, and
the device state that survives a launch boundary. The fault-free profiling
run records all of these per launch as a :class:`ReplayTrack`. An injected
trial that reaches a launch whose inputs, configuration and entry state
equal those of the golden launch at the same index, with no tracer
attached, uses the golden run in one of two ways:

* **Whole-launch replay.** When no injector is armed for the launch, the
  GPU restores the golden exit state and appends a copy of the golden
  record instead of simulating. This covers every launch before a fault
  fires, and every launch after a fault has died: a boundary that equals
  golden is exactly "the fault did not reach architectural state".
* **Checkpoints.** When an injector is armed, the launch is simulated, but
  against the golden launch's :class:`Checkpoint` grid: the full device
  state at up to :data:`CHECKPOINTS_PER_LAUNCH` loop tops of ``GPU._run``
  spread evenly over the golden launch's cycles. *Fast-forward*: the
  launch starts from the latest checkpoint the injector cannot yet have
  acted on (each injector states that rule itself, ``can_resume``) rather
  than from cycle 0. *Convergence*: once every armed injector has fired,
  and none is persistent, the trial is compared to each checkpoint it
  reaches; on equality the fault has died inside the launch, and the rest
  of the launch is taken from the golden run.

Convergence compares every component exactly except the registers, which
compare only the (register, lane) cells live-in at the lane's next pc
(:meth:`Checkpoint.live_registers`): a uniform warp's lanes sit at its
``upc``, a diverged warp's at their per-lane PCs, and done lanes compare
nothing. A pc outside the program, or in a block the CFG cannot reach,
compares every register. A trial that matches golden on every live cell
has the golden future, because:

* the executor writes a register at issue, with no scoreboard and no
  deferred writeback;
* no instruction reads another lane's GPR (there is no SHFL, and VOTE
  reads predicates of co-active lanes only);
* ALU ops compute over all 32 lanes but write only guarded lanes, with
  NumPy's floating-point errors ignored, so a dead value in an inactive
  lane has no side effect;
* timing depends on values only through addresses and branch guards, and
  those read live cells;
* comparison runs only once every injector has fired and none is
  persistent.

The liveness mask is built from the checkpoint's own control and lane
state; a trial that differs there is rejected by those components, so the
golden mask is the trial's. Predicates, PCs, the done mask, shared memory,
caches and DRAM are compared exactly, and a restored checkpoint writes
every register.

*Fire-time convergence* takes the same decision at the fire itself: when
a transient microarchitecture plan, the launch's only actor, writes only
dead state (RF cells :func:`bank_live_mask` calls dead, bits of invalid
cache lines, or nothing at all; see ``MicroarchFaultPlan.dead_on_arrival``),
the trial, golden until the fire, equals golden on every cell a comparison
reads, so the rest of the launch is golden
(:meth:`CheckpointCursor.converged_at_fire`). Every cache fill writes the
whole line before it sets ``valid``, so an invalid line is never read.

*The plan-time exit* of a campaign trial (``repro.fi.campaign``) takes
that decision before the trial runs, for a transient cache fault whose
every bit lies in a line the golden launch never fills. A cache fault's
site does not depend on device state, and inside a launch a line's
``valid`` bit only goes from 0 to 1: only ``Cache.invalidate_all`` and
restores clear it, and both run outside ``GPU._run``. So a line invalid
in the golden launch's exit mask (:attr:`GoldenLaunch.exit_valid`,
recorded by the profiling run only) was invalid at every cycle of that
launch. Such a plan that reaches a launch anyway ends it at its fire.

The shortcuts in this module end in one path, "finish from golden"
(``GPU._finish_from_golden``): set the uid counters to their entry
values plus the golden deltas, append a copy of the golden record whose
``simulated_cycles`` says how many cycles this run clocked (0 for a
replayed launch) and whose ``dead_at_fire`` says whether its fault was
dead at the fire, and restore the golden exit boundary. The result is
exact by construction: the simulated launch would have reached the same
state with the same counters. When every launch of the run so far ended
there and no injector can act again, the run ends there too
(``repro.sim.gpu.TrialConverged``), without the exit restore: nothing
reads the device before the next run's ``GPU.reset``. A launch that ran
to its end instead may have handed the host corrupted data, so it keeps
the run going even if a later launch matches golden.

Checkpoints are captured lazily, by injected trials themselves while their
injector is still pristine (the state then equals golden by construction),
and stored on the :class:`GoldenLaunch`; they never enter a key or payload.
A profiling run records none. So a trial's ``simulated_cycles`` depends on
the trials that ran before it on the same profile: run again after others
(or after itself), it may fast-forward to a checkpoint its first run did
not have, and clock fewer cycles; its outcome, cycles, outputs and stats do
not change. Summed over a campaign ("cycles simulated" in ``campaign
report``), the figure depends on trial order and, since each forked worker
captures its own checkpoints, on how a worker pool shards the trials.

The boundary state (:class:`Boundary`) is:

* DRAM: the allocator watermark, the written end and the bytes below it;
* the L2: valid/dirty bits, and the tag, data and LRU stamp (relative to
  the LRU clock) of each valid line;
* each SM's round-robin scheduler cursor, which a control-state fault on
  an idle SM can leave set (retiring a CTA or ``GPU.reset`` clears it).

Nothing else survives: L1s, register banks, shared-memory windows, warps
and cache fill timing are all rebuilt or reset at every launch. The warp,
register-bank and shared-memory-window uid counters do not affect
behaviour, but they name fault sites, so a launch taken from the golden
run sets them as a fully simulated one would.

A checkpoint adds the state of the launch in flight (see
:data:`_COMPONENTS`): the cycle, the launch's counters, the pending CTAs,
every resident CTA and warp, register banks and shared-memory windows in
allocation order, and the L1s and L2 with their fill timing and counters.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Callable, NamedTuple

import numpy as np

from repro.arch.config import GPUConfig
from repro.arch.structures import Structure
from repro.isa.program import Program
from repro.staticanalysis import dataflow
from repro.sim.register_file import WarpRegisters
from repro.sim.shared_memory import SharedWindow
from repro.sim.stats import LaunchStats
from repro.sim.warp import NUM_PREDS, Warp

#: Checkpoint grid points per golden launch, spaced evenly over its cycles.
CHECKPOINTS_PER_LAUNCH = 16

#: A cycle no launch reaches: the loop's "no checkpoint due" sentinel.
NEVER = 1 << 62


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


def set_uid_counters(gpu, values) -> None:
    n = len(gpu.sms)
    gpu._warp_uid = values[0]
    for sm, rf, smem in zip(gpu.sms, values[1:1 + n], values[1 + n:]):
        sm.rf._next_uid = rf
        sm.smem._next_uid = smem


# ---------------------------------------------------------------------- #
# Checkpoints
# ---------------------------------------------------------------------- #
#: The scalar :class:`LaunchStats` counters (the cache counters are merged
#: in when the launch ends, so they are zero while it runs).
_STAT_FIELDS = tuple(f.name for f in fields(LaunchStats)
                     if f.name not in ("l1d", "l1t", "l2"))
_stat_counters = attrgetter(*_STAT_FIELDS)


def _counters(gpu, base) -> tuple:
    """The launch's counters, the pending CTA count (the pending CTAs are
    always a suffix of the CTA order), each SM's scheduler cursor and the
    uid counters relative to the launch's entry values ``base``."""
    return (*_stat_counters(gpu.stats), len(gpu._pending),
            *(sm.scheduler_cursor for sm in gpu.sms),
            *(now - entry for now, entry in zip(uid_counters(gpu), base)))


def _control(gpu, base) -> tuple:
    """Per SM: each warp in scheduling order (uid, CTA, index in it, bank
    uid, next issue cycle, barrier wait, divergence flag, uniform PC),
    each resident CTA in residency order (id, SMEM window uid, barrier
    arrivals), and the register-bank and SMEM-window allocation orders.
    Uids are relative to the launch's entry counters."""
    n = len(gpu.sms)
    w0 = base[0]
    out = []
    for i, sm in enumerate(gpu.sms):
        r0, s0 = base[1 + i], base[1 + n + i]
        out.append((
            tuple((w.uid - w0, w.cta.ctaid, w.index_in_cta, w.rf_uid - r0,
                   w.next_ready, w.waiting_barrier, w.diverged, w.upc)
                  for w in sm.warps),
            tuple((c.ctaid, None if c.smem_uid is None else c.smem_uid - s0,
                   c.barrier_arrived) for c in sm.ctas),
            tuple(uid - r0 for uid in sm.rf._banks),
            tuple(uid - s0 for uid in sm.smem._windows)))
    return tuple(out)


def _lanes(gpu, base) -> bytes:
    """Each warp's predicates, per-lane PCs and done mask. The per-lane
    PCs count even while the warp is uniform: an alive-mask fault can
    revive a lane whose stale PC is then read."""
    return b"".join([b for sm in gpu.sms for w in sm.warps
                     for b in (w.preds.tobytes(), w.pc.tobytes(),
                               w.done.tobytes())])


def _registers(gpu, base) -> bytes:
    return b"".join([bank.regs.tobytes() for sm in gpu.sms
                     for bank in sm.rf._banks.values()])


def _registers_match(gpu, base, stored, checkpoint) -> bool:
    """Whether every live (register, lane) cell of ``checkpoint`` holds
    its golden value. Equal bytes settle it at the cost of a full
    compare; the live cells are gathered only when the bytes differ."""
    now = _registers(gpu, base)
    if now == stored:
        return True
    if len(now) != len(stored):
        return False
    cells, values = checkpoint.live_registers(gpu)
    return np.array_equal(np.frombuffer(now, np.uint32)[cells], values)


#: Live-in tables by program identity (see :func:`_live_table`). Each
#: entry holds its program, so no other program can reuse that id.
_LIVE_TABLES: dict[int, tuple[Program, np.ndarray]] = {}


def _live_table(program: Program) -> np.ndarray:
    """``table[pc, r]``: whether GPR ``r`` is live-in at instruction
    ``pc`` of ``program``. The rows of unreachable instructions, and the
    extra last row that stands for any pc outside the program, are all
    True: a lane there compares every register."""
    entry = _LIVE_TABLES.get(id(program))
    if entry is None:
        result = dataflow.liveness(program)
        table = np.ones((len(program) + 1, max(program.num_regs, 1)), bool)
        for pc, live in enumerate(result.live_in):
            if result.reachable[pc]:
                table[pc] = False
                table[pc, [v for v in live
                           if not dataflow.is_pred_var(v)]] = True
        entry = _LIVE_TABLES[id(program)] = (program, table)
    return entry[1]


def bank_live_mask(program: Program, diverged: bool, upc: int,
                   lane_pcs: np.ndarray, alive: np.ndarray) -> np.ndarray:
    """``mask[r, lane]`` of one warp's register bank: whether register
    ``r`` is live-in at the lane's next pc in ``program``
    (:func:`_live_table`). A uniform warp's lanes sit at its ``upc``, a
    diverged warp's at their ``lane_pcs``; lanes not ``alive`` are all
    dead, and a pc outside the program keeps every register live."""
    table = _live_table(program)
    off_program = len(program)
    pcs = lane_pcs if diverged else np.full(len(alive), upc)
    pcs = np.where((pcs >= 0) & (pcs < off_program), pcs, off_program)
    return (table[pcs] & alive[:, None]).T


def _shared(gpu, base) -> bytes:
    return b"".join([window.data.tobytes() for sm in gpu.sms
                     for window in sm.smem._windows.values()])


def _caches(gpu) -> list:
    return [*(sm.l1d for sm in gpu.sms), *(sm.l1t for sm in gpu.sms), gpu.l2]


class _Component(NamedTuple):
    name: str
    capture: Callable
    #: ``matches(gpu, base, stored, checkpoint)``; None compares
    #: ``capture`` with ``==``.
    matches: Callable | None = None


#: What a checkpoint holds, cheapest comparison first.
_COMPONENTS = (
    _Component("counters", _counters),
    _Component("control", _control),
    _Component("lanes", _lanes),
    _Component("registers", _registers, _registers_match),
    _Component("shared", _shared),
    _Component("caches",
               lambda gpu, base: tuple(c.checkpoint_state()
                                       for c in _caches(gpu)),
               lambda gpu, base, stored, checkpoint: all(
                   c.matches_checkpoint(s)
                   for c, s in zip(_caches(gpu), stored))),
    _Component("memory", lambda gpu, base: gpu.mem.boundary_state(),
               lambda gpu, base, stored, checkpoint:
               gpu.mem.matches_boundary(stored)),
)
_MEMORY = len(_COMPONENTS) - 1


@dataclass(frozen=True, eq=False)
class Checkpoint:
    """The device state at one loop top of a golden launch: the cycle
    ``now`` and one value per :data:`_COMPONENTS` entry."""

    now: int
    parts: tuple
    #: :meth:`live_registers`, once built.
    _live: tuple | None = field(default=None, init=False, repr=False)

    @classmethod
    def capture(cls, gpu, base, now: int, memory=None) -> "Checkpoint":
        """The state of ``gpu`` at loop top ``now``; ``base`` holds the
        launch's entry uid counters. ``memory`` is an earlier DRAM state
        to share when DRAM still holds it."""
        parts = [c.capture(gpu, base) for c in _COMPONENTS[:_MEMORY]]
        if memory is None or not gpu.mem.matches_boundary(memory):
            memory = gpu.mem.boundary_state()
        return cls(now, (*parts, memory))

    def stat(self, name: str) -> int:
        """A :class:`LaunchStats` counter at this checkpoint."""
        return self.parts[0][_STAT_FIELDS.index(name)]

    @property
    def memory(self) -> tuple:
        return self.parts[_MEMORY]

    def mismatch(self, gpu, base, first: int = 0) -> int | None:
        """The index of a component in which ``gpu`` differs from this
        checkpoint, or None if it equals it. Component ``first`` is
        compared first; the order changes only the cost."""
        for i in (first, *range(first), *range(first + 1, len(_COMPONENTS))):
            component = _COMPONENTS[i]
            stored = self.parts[i]
            if component.matches is None:
                if component.capture(gpu, base) != stored:
                    return i
            elif not component.matches(gpu, base, stored, self):
                return i
        return None

    def live_registers(self, gpu) -> tuple[np.ndarray, np.ndarray]:
        """The cells of the ``registers`` part (indices of its uint32
        words) live-in at their lane's next pc, and their golden values.
        Built once, from this checkpoint's own control and lane state: a
        uniform warp's lanes sit at its ``upc``, a diverged warp's at
        their per-lane PCs, and done lanes compare nothing."""
        if self._live is None:
            warp_size = gpu.config.warp_size
            program = gpu.kernel.program
            num_regs = max(program.num_regs, 1)
            _, control, lanes, registers = self.parts[:4]
            rows = np.frombuffer(lanes, np.uint8).reshape(
                -1, (NUM_PREDS + 4 + 1) * warp_size)
            pc_at, done_at = NUM_PREDS * warp_size, (NUM_PREDS + 4) * warp_size
            lane_pcs = rows[:, pc_at:done_at].copy().view(np.int32)
            alive = ~rows[:, done_at:].view(bool)
            banks = []
            warp = 0
            for warp_rows, _, bank_order, _ in control:
                sm_banks = np.zeros(
                    (len(bank_order), num_regs, warp_size), bool)
                bank_at = {rel: i for i, rel in enumerate(bank_order)}
                for row in warp_rows:
                    bank_rel, diverged, upc = row[3], row[6], row[7]
                    sm_banks[bank_at[bank_rel]] = bank_live_mask(
                        program, diverged, upc, lane_pcs[warp], alive[warp])
                    warp += 1
                banks.append(sm_banks)
            cells = np.flatnonzero(np.concatenate(banks))
            values = np.frombuffer(registers, np.uint32)[cells]
            object.__setattr__(self, "_live", (cells, values))
        return self._live

    def restore(self, gpu, base, ctas: list) -> None:
        """Load this checkpoint at the start of a launch whose entry state
        equals the golden one: ``gpu.stats`` is the launch's fresh
        counters, no CTA is resident yet, ``ctas`` is the launch's CTA
        order and ``base`` the uid counters at entry."""
        counters, control, lanes, registers, shared, caches, memory = (
            self.parts)
        stats = gpu.stats
        for name, value in zip(_STAT_FIELDS, counters):
            setattr(stats, name, value)
        sms = gpu.sms
        n = len(sms)
        at = len(_STAT_FIELDS)
        pending, cursors, uids = (counters[at], counters[at + 1:at + 1 + n],
                                  counters[at + 1 + n:])
        gpu._pending = ctas[len(ctas) - pending:]
        by_id = {cta.ctaid: cta for cta in ctas}

        warp_size = gpu.config.warp_size
        num_regs = max(gpu.kernel.program.num_regs, 1)
        smem_bytes = gpu._current_smem_bytes
        banks_data = np.frombuffer(registers, np.uint32).reshape(
            -1, num_regs, warp_size)
        windows_data = np.frombuffer(shared, np.uint8).reshape(
            -1, max(smem_bytes, 1))
        lane_rows = np.frombuffer(lanes, np.uint8).reshape(
            -1, (NUM_PREDS + 4 + 1) * warp_size)
        pc_at, done_at = NUM_PREDS * warp_size, (NUM_PREDS + 4) * warp_size
        next_bank = next_window = next_warp = 0
        for i, sm in enumerate(sms):
            warp_rows, cta_rows, bank_order, window_order = control[i]
            r0, s0 = base[1 + i], base[1 + n + i]
            banks = {}
            for rel in bank_order:
                bank = WarpRegisters(num_regs, warp_size)
                bank.regs[:] = banks_data[next_bank]
                next_bank += 1
                banks[r0 + rel] = bank
            sm.rf._banks = banks
            sm.rf.allocated_regs = len(banks) * num_regs * warp_size
            windows = {}
            for rel in window_order:
                window = SharedWindow(smem_bytes)
                window.data[:] = windows_data[next_window]
                next_window += 1
                windows[s0 + rel] = window
            sm.smem._windows = windows
            sm.smem.allocated_bytes = len(windows) * smem_bytes
            for ctaid, window_rel, arrived in cta_rows:
                cta = by_id[ctaid]
                cta.sm = sm
                cta.barrier_arrived = arrived
                if window_rel is not None:
                    cta.smem_uid = s0 + window_rel
                    cta.smem = windows[cta.smem_uid]
                sm.ctas.append(cta)
            for (uid, ctaid, index, bank_rel, next_ready, waiting, diverged,
                 upc) in warp_rows:
                cta = by_id[ctaid]
                warp = Warp(base[0] + uid, cta, index, r0 + bank_rel,
                            banks[r0 + bank_rel])
                row = lane_rows[next_warp]
                next_warp += 1
                warp.preds = row[:pc_at].view(bool).reshape(
                    NUM_PREDS, warp_size).copy()
                warp.pc = row[pc_at:done_at].view(np.int32).copy()
                warp.done = row[done_at:].view(bool).copy()
                warp.next_ready = next_ready
                warp.waiting_barrier = waiting
                warp.diverged = diverged
                warp.upc = upc
                warp.update_finished()
                cta.warps.append(warp)  # warps join in index order
                sm.warps.append(warp)
            sm.scheduler_cursor = cursors[i]
        set_uid_counters(gpu, [b + u for b, u in zip(base, uids)])
        for cache, state in zip(_caches(gpu), caches):
            cache.restore_checkpoint(state)
        gpu.mem.restore_boundary(memory)
        gpu.now = self.now


def exit_valid_masks(gpu, boundary: Boundary) -> tuple[np.ndarray, ...]:
    """The valid mask of every cache of ``gpu`` (in :func:`_caches`
    order) at the end of a launch whose exit boundary is ``boundary``; the
    L2's is the boundary's own."""
    return (*(c.valid.copy() for c in _caches(gpu)[:-1]), boundary.l2[0])


@dataclass(frozen=True, eq=False)
class GoldenLaunch:
    """One launch of the fault-free run. ``program`` is held, not its
    ``id()``, so it cannot be collected and its id reused.
    ``checkpoints[k]`` is the state at the first loop top at or after
    ``grid[k]``, once an injected trial has captured it. ``exit_valid``
    holds every cache's valid mask at the launch's end
    (:func:`exit_valid_masks`)."""

    program: Program
    launch: object  # repro.sim.gpu.KernelLaunch
    entry: Boundary
    exit: Boundary
    uid_deltas: tuple[int, ...]
    record: object  # repro.sim.gpu.LaunchRecord
    exit_valid: tuple = field(repr=False)
    checkpoints: list = field(
        default_factory=lambda: [None] * CHECKPOINTS_PER_LAUNCH, repr=False)

    def valid_at_exit(self, structure: Structure, index: int) -> np.ndarray:
        """The valid mask at the end of this launch of instance ``index``
        of cache ``structure`` (in ``GPU.cache_instances`` order), a
        superset of its valid lines at every cycle of it (see the module
        docstring)."""
        if structure is Structure.L2:
            return self.exit_valid[-1]
        if structure is Structure.L1T:
            index += (len(self.exit_valid) - 1) // 2  # after every L1D
        return self.exit_valid[index]

    @property
    def grid(self) -> list[int]:
        """The checkpoint cycles, spaced evenly inside the launch."""
        n = CHECKPOINTS_PER_LAUNCH
        return [k * self.record.cycles // (n + 1) for k in range(1, n + 1)]


class CheckpointCursor:
    """One armed launch's walk along its golden launch's checkpoints.

    ``actors`` are what acts on the launch (a microarchitecture fault plan
    and/or a software injector), each with ``fired``, ``persistent``,
    ``can_resume(checkpoint)`` and ``resume(checkpoint)`` (called only
    once every actor accepted the checkpoint); ``base`` holds
    the uid counters at launch entry. ``GPU._run`` calls :meth:`visit` at
    the first loop top at or past :attr:`next_cycle`.
    """

    def __init__(self, golden: GoldenLaunch, actors: list, base: tuple):
        self.golden = golden
        self.actors = actors
        self.base = base
        self.grid = golden.grid
        self.k = 0  # next grid point
        self.start = 0  # the cycle simulation started from
        self.end = 0  # the cycle the trial converged at
        self.first = 0  # the component that differed at the last compare
        self.dead_at_fire = False  # converged at the fire cycle
        self._last: Checkpoint | None = None
        self.next_cycle = self._due()

    def _due(self) -> int:
        if self.k >= len(self.grid):
            return NEVER
        checkpoint = self.golden.checkpoints[self.k]
        return checkpoint.now if checkpoint is not None else self.grid[self.k]

    def fast_forward(self) -> Checkpoint | None:
        """The latest stored checkpoint no actor can have acted before
        (the actors take up their state there), or None."""
        slots = self.golden.checkpoints
        for k in range(len(slots) - 1, -1, -1):
            checkpoint = slots[k]
            if checkpoint is not None and all(
                    a.can_resume(checkpoint) for a in self.actors):
                for a in self.actors:
                    a.resume(checkpoint)
                self.k, self.start = k + 1, checkpoint.now
                self._last = checkpoint
                self.next_cycle = self._due()
                return checkpoint
        return None

    def visit(self, gpu, now: int) -> bool:
        """Capture the missing checkpoints due at loop top ``now`` while no
        actor has acted; once every actor has fired (none persistent),
        compare the trial to the checkpoint taken at ``now``. True when
        the trial equals it: the rest of the launch is golden."""
        fired = [a.fired for a in self.actors]
        if any(f and a.persistent for f, a in zip(fired, self.actors)):
            self.next_cycle = NEVER  # an active defect never converges
            return False
        pristine, converging = not any(fired), all(fired)
        slots = self.golden.checkpoints
        while self.k < len(self.grid):
            checkpoint = slots[self.k]
            if checkpoint is None:
                if self.grid[self.k] > now:
                    break
                if pristine:
                    slots[self.k] = self._capture(gpu, now)
            elif checkpoint.now > now:
                break
            elif (checkpoint.now == now and converging
                  and checkpoint is not self._last):
                self._last = checkpoint
                differs = checkpoint.mismatch(gpu, self.base, self.first)
                if differs is None:
                    self.end = now
                    return True
                self.first = differs
            self.k += 1
        self.next_cycle = self._due()
        return False

    def converged_at_fire(self, gpu, plan, now: int) -> bool:
        """Whether ``plan``, a transient fault that is the launch's only
        actor and has just fired at loop top ``now``, flipped only dead
        state (``plan.dead_on_arrival``). The trial equaled golden up to
        the fire, so it equals it on every cell a comparison reads: the
        rest of the launch is golden."""
        if (len(self.actors) > 1 or plan.persistent
                or not plan.dead_on_arrival(gpu)):
            return False
        self.end, self.dead_at_fire = now, True
        return True

    def _capture(self, gpu, now: int) -> Checkpoint:
        last = self._last
        if last is not None and last.now == now:
            return last  # grid points closer than the loop's steps
        memory = last.memory if last is not None else (
            self.golden.entry.memory)
        self._last = Checkpoint.capture(gpu, self.base, now, memory)
        return self._last


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


def golden_record(golden: GoldenLaunch, simulated_cycles: int,
                  dead_at_fire: bool = False):
    """A copy of the golden record for a launch that clocked
    ``simulated_cycles`` of its cycles itself."""
    return dataclasses.replace(golden.record, stats=golden.record.stats.copy(),
                               simulated_cycles=simulated_cycles,
                               dead_at_fire=dead_at_fire)
