"""Top-level GPU device: memory management, kernel launch, and the clock.

The GPU executes launches synchronously (the host driver regains control when
the kernel has drained). Fault-injection hooks:

* ``uarch_injector`` — armed per launch; fired once when the clock reaches the
  planned cycle, flipping one bit in a hardware structure. Persistent plans
  (stuck-at / intermittent fault models) additionally get an ``enforce``
  call every clock iteration after firing, re-pinning their bits, and are
  re-armed (and re-bound to the launch's live state) on every later launch.
* ``sw_injector`` — receives an ``after_write`` callback for every dynamic
  instruction that produces a general-purpose destination value.
* ``tracer`` — optional dynamic-trace consumer (register-reuse analysis).
* ``cycle_budget_fn`` — per-launch cycle budget (timeout detection), set by
  the campaign harness from the fault-free profile.
* ``trial_cycle_budget`` — cross-launch watchdog: total cycles one app run
  (all launches together) may execute before :class:`SimTimeout` aborts it.
  Per-launch budgets cannot catch a host-side convergence loop that a
  persistent fault keeps from ever converging; this one does.
* ``replay`` — the fault-free run's :class:`~repro.sim.replay.ReplayTrack`:
  a launch that would repeat a golden launch is restored from it instead
  of simulated, or, when an injector is armed for it, simulated from the
  golden launch's checkpoints. ``recorder`` is the track a fault-free run
  records into.

*Trial-level convergence*: once every launch of a run has ended from the
golden run and every attached injector is spent (fired, not persistent),
the host has seen only golden data, so it would issue the rest of the
golden launches on golden state and end with the golden outputs. The GPU
then raises :class:`TrialConverged` instead of returning from the launch,
unless a remaining golden launch would overrun its per-launch budget or
the golden total would overrun ``trial_cycle_budget`` (then the run goes
on and times out as a simulated one would).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.config import GPUConfig
from repro.arch.structures import Structure
from repro.errors import DeadlockError, LaunchError, SimTimeout
from repro.isa.program import Program
from repro.sim.cache import Cache, DRAMInterface
from repro.sim.executor import CompiledKernel
from repro.sim.memory import GlobalMemory
from repro.sim.replay import (
    NEVER,
    Boundary,
    CheckpointCursor,
    GoldenLaunch,
    ReplayTrack,
    exit_valid_masks,
    golden_record,
    set_uid_counters,
    uid_counters,
)
from repro.sim.sm import ISSUE_COUNTERS, SM
from repro.sim.stats import LaunchStats
from repro.sim.warp import CTA
from repro.utils.bitops import bitcast_f2u

#: Absolute cycle cap for launches without an explicit budget (profiling).
DEFAULT_CYCLE_CAP = 10_000_000

#: Compiled kernels one GPU keeps, least recently used evicted first. Host
#: code can derive constant banks from device data (sradv1's ``q0sqr``,
#: lud's ``k``), so faulty trials can add keys the golden run never made.
KERNEL_MEMO_SIZE = 32


class TrialConverged(Exception):
    """Control flow, not an error: the run has converged to the golden
    run for good (see the module docstring). ``rest`` holds the golden
    launches it did not run; the campaign classifies the trial Masked
    with the golden run's cycles and outputs."""

    def __init__(self, rest: list[GoldenLaunch]):
        super().__init__(f"converged with {len(rest)} golden launch(es) left")
        self.rest = rest


@dataclass(frozen=True)
class Buffer:
    """A device allocation."""

    addr: int
    nbytes: int


@dataclass(frozen=True)
class KernelLaunch:
    """Launch geometry + parameters (kept on the record for reproducibility)."""

    name: str
    grid: tuple[int, int]
    block: tuple[int, int]
    params: tuple[int, ...]
    smem_bytes: int


@dataclass
class LaunchRecord:
    """Everything measured about one completed launch."""

    index: int
    launch: KernelLaunch
    stats: LaunchStats
    program_name: str = ""
    #: The cycles this run clocked itself. Fewer than ``cycles`` when the
    #: launch was fast-forwarded or finished from the golden run, and 0
    #: when it was replayed whole (see :mod:`repro.sim.replay`) or its
    #: trial was settled when planned (``repro.fi.campaign``); ``stats``
    #: are the golden launch's when it finished from the golden run.
    simulated_cycles: int = 0
    #: Observation only: the launch's fault flipped only dead state, so it
    #: finished from the golden run at the fire cycle, or the campaign
    #: found before the trial that it would (every bit in a line the
    #: golden launch never fills, or an RF fault its fire census found
    #: dead) and took the launch from the golden run without simulating it.
    dead_at_fire: bool = False

    @property
    def replayed(self) -> bool:
        """Restored from the golden run without simulating."""
        return self.simulated_cycles == 0 and not self.dead_at_fire

    @property
    def name(self) -> str:
        return self.launch.name

    @property
    def cycles(self) -> int:
        return self.stats.cycles


def _encode_param(p) -> int:
    if isinstance(p, Buffer):
        return p.addr
    if isinstance(p, bool):
        return int(p)
    if isinstance(p, (int, np.integer)):
        return int(p) & 0xFFFFFFFF
    if isinstance(p, (float, np.floating)):
        return bitcast_f2u(float(p))
    raise LaunchError(f"unsupported kernel parameter type {type(p)!r}")


class GPU:
    """The simulated device."""

    def __init__(self, config: GPUConfig):
        self.config = config
        self.mem = GlobalMemory(config.dram_bytes)
        self._dram_if = DRAMInterface(self.mem, config.latencies.dram, None)
        self.l2 = Cache("l2", config.l2, config.latencies.l2_hit, self._dram_if,
                        write_back=True)
        self.sms = [SM(i, self) for i in range(config.num_sms)]
        self.launch_records: list[LaunchRecord] = []
        self.now = 0
        self.kernel: CompiledKernel | None = None
        self._kernels: dict[tuple[int, bytes], CompiledKernel] = {}
        self.stats: LaunchStats | None = None
        self._warp_uid = 0
        self._pending: list[CTA] = []
        self._current_smem_bytes = 0
        # Hooks
        self.uarch_injector = None
        self.sw_injector = None
        self.tracer = None
        self.cycle_budget_fn = None
        # Trial watchdog (see module docstring): cumulative cycle budget
        # across every launch of one app run, and the cycles already burnt
        # by completed launches of the current run.
        self.trial_cycle_budget: int | None = None
        self.trial_cycles_done = 0
        # Golden launch replay (see repro.sim.replay): the fault-free track
        # launches are replayed from, and the track a fault-free run records.
        self.replay: ReplayTrack | None = None
        self.recorder: ReplayTrack | None = None
        # Every launch of this run so far ended from the golden run.
        self._golden_so_far = True

    @property
    def global_cycle(self) -> int:
        """Cycles executed so far in this app run, across all launches."""
        return self.trial_cycles_done + self.now

    # ------------------------------------------------------------------ #
    # Memory API
    # ------------------------------------------------------------------ #
    def malloc(self, nbytes: int) -> Buffer:
        return Buffer(self.mem.alloc(nbytes), nbytes)

    def malloc_like(self, array: np.ndarray) -> Buffer:
        return self.malloc(array.nbytes)

    def memcpy_htod(self, buffer: Buffer, array: np.ndarray) -> None:
        payload = np.ascontiguousarray(array).view(np.uint8).reshape(-1)
        if payload.size > buffer.nbytes:
            raise LaunchError("htod copy larger than buffer")
        # Make DRAM authoritative, then drop stale cached copies.
        self.l2.flush()
        self.l2.invalidate_all()
        self.mem.write_bytes(buffer.addr, payload)

    def memcpy_dtoh(self, buffer: Buffer, dtype=np.uint32, count: int | None = None
                    ) -> np.ndarray:
        self.l2.flush()
        raw = self.mem.read_bytes(buffer.addr, buffer.nbytes)
        out = raw.view(dtype)
        if count is not None:
            out = out[:count]
        return out.copy()

    def upload(self, array: np.ndarray) -> Buffer:
        """Allocate + copy in one step."""
        buf = self.malloc_like(array)
        self.memcpy_htod(buf, array)
        return buf

    # ------------------------------------------------------------------ #
    # Launch
    # ------------------------------------------------------------------ #
    def next_warp_uid(self) -> int:
        self._warp_uid += 1
        return self._warp_uid

    def launch(
        self,
        program: Program,
        grid: tuple[int, int],
        block: tuple[int, int],
        params=(),
        smem_bytes: int = 0,
        name: str | None = None,
    ) -> LaunchRecord:
        """Run one kernel to completion; returns its record."""
        gx, gy = grid
        bx, by = block
        if gx < 1 or gy < 1 or bx < 1 or by < 1:
            raise LaunchError(f"bad launch geometry grid={grid} block={block}")
        if bx * by > self.config.max_warps_per_sm * self.config.warp_size:
            raise LaunchError(f"block of {bx * by} threads exceeds SM capacity")
        if smem_bytes > self.config.smem_bytes_per_sm:
            raise LaunchError("requested shared memory exceeds SM capacity")
        if program.uses_shared and smem_bytes == 0:
            raise LaunchError(f"{program.name} uses shared memory but none requested")

        encoded = tuple(_encode_param(p) for p in params)
        kernel_name = name or program.name
        launch_index = len(self.launch_records)
        launch = KernelLaunch(kernel_name, grid, block, encoded, smem_bytes)

        budget = self._launch_budget(launch_index, kernel_name)
        plan = None
        if self.uarch_injector is not None:
            plan = self.uarch_injector.arm(launch_index, kernel_name, self)
        sw_injector = self.sw_injector
        if sw_injector is not None:
            sw_injector.begin_launch(launch_index, kernel_name)
        # What may act on this launch: each has ``fired``, ``persistent``
        # and the checkpoint resume rule (see repro.sim.replay).
        actors = [plan] if plan is not None else []
        if sw_injector is not None and sw_injector.armed:
            actors.append(sw_injector)

        entry_uids = uid_counters(self)
        golden = None
        if self.replay is not None and self.tracer is None:
            golden = self.replay.find(self, launch_index, program, launch)
            if golden is not None and not self.golden_fits(
                    (golden,), self.trial_cycles_done):
                golden = None
        if golden is not None and not actors:
            return self._finish_from_golden(golden, entry_uids)
        cursor = None
        if golden is not None and not any(a.fired for a in actors):
            cursor = CheckpointCursor(golden, actors, entry_uids)

        if self.recorder is not None:
            entry = self.recorder.entry_boundary(self)

        self.kernel = self._compiled(program, np.asarray(encoded, dtype=np.uint32))
        stats = LaunchStats(
            regs_per_thread=program.num_regs,
            smem_bytes_per_cta=smem_bytes,
            threads_launched=gx * gy * bx * by,
            ctas_launched=gx * gy,
        )
        self.stats = stats
        self._dram_if.stats = stats

        # Kernel boundary: L1 caches do not persist across launches; the L2
        # keeps its data but its fill timing belongs to the old clock epoch.
        for sm in self.sms:
            sm.l1d.invalidate_all()
            sm.l1t.invalidate_all()
            sm.l1d.reset_stats()
            sm.l1t.reset_stats()
        self.l2.reset_stats()
        self.l2.new_clock_epoch()

        # Build the pending CTA queue (x fastest, matching CUDA's iteration).
        self._current_smem_bytes = smem_bytes
        grid_dim = (gx, gy, 1)
        block_dim = (bx, by, 1)
        self._pending = [
            CTA((cx, cy, 0), grid_dim, block_dim)
            for cy in range(gy)
            for cx in range(gx)
        ]
        num_warps = -(-bx * by // self.config.warp_size)
        if not any(
            sm.can_host(num_warps, max(program.num_regs, 1), smem_bytes)
            for sm in self.sms
        ):
            raise LaunchError(
                f"no SM can host a CTA of {kernel_name} "
                f"({num_warps} warps, {program.num_regs} regs, {smem_bytes}B smem)"
            )
        checkpoint = cursor.fast_forward() if cursor is not None else None
        if checkpoint is not None:
            checkpoint.restore(self, entry_uids, self._pending)
        else:
            for sm in self.sms:
                self._fill_sm(sm, program, smem_bytes)

        if plan is not None and plan.fired:
            # A persistent fault re-armed for a later launch: the simulator
            # rebuilt RF/warp state at launch, so the plan re-resolves its
            # drawn site against the live structures.
            plan.rebind(self)

        converged = False
        try:
            converged = self._run(plan, budget, stats, cursor)
        finally:
            self._dram_if.stats = None
            self._drain_residency()
            if not converged:
                self.trial_cycles_done += stats.cycles
                self._golden_so_far = False
            self.now = 0

        if converged:
            return self._finish_from_golden(golden, entry_uids,
                                            cursor.end - cursor.start,
                                            cursor.dead_at_fire)
        start = checkpoint.now if checkpoint is not None else 0
        record = LaunchRecord(launch_index, launch, stats, program.name,
                              stats.cycles - start)
        self._collect_cache_stats(stats)
        self.launch_records.append(record)
        if self.recorder is not None:
            deltas = tuple(b - a for a, b in zip(entry_uids, uid_counters(self)))
            boundary = Boundary.capture(self)
            self.recorder.launches.append(GoldenLaunch(
                program, launch, entry, boundary, deltas, record,
                exit_valid_masks(self, boundary)))
        return record

    def _finish_from_golden(self, golden: GoldenLaunch, entry_uids: tuple,
                            simulated_cycles: int | None = None,
                            dead_at_fire: bool = False) -> LaunchRecord:
        """Take the effect of a golden launch this run has not simulated
        (``simulated_cycles`` None) or has converged back to after
        clocking ``simulated_cycles`` of it: its exit state, its uid
        counters and a copy of its record. Raises :class:`TrialConverged`
        when the whole rest of the run is golden, without restoring the
        exit state: nothing reads the device before the next run's
        :meth:`reset`."""
        set_uid_counters(self, [a + d for a, d in
                                zip(entry_uids, golden.uid_deltas)])
        record = golden_record(golden, simulated_cycles or 0, dead_at_fire)
        if simulated_cycles is not None:
            self.stats = record.stats
        self.trial_cycles_done += record.cycles
        self.launch_records.append(record)
        if self._golden_so_far and self._injectors_spent():
            self._end_converged_trial()
        golden.exit.restore(self)
        return record

    def _injectors_spent(self) -> bool:
        """Some injector is attached, and every attached one is spent:
        it has fired and acts no more."""
        uarch, sw = self.uarch_injector, self.sw_injector
        return ((uarch is not None or sw is not None)
                and (uarch is None or uarch.spent)
                and (sw is None or sw.spent))

    def _end_converged_trial(self) -> None:
        """Raise :class:`TrialConverged` if the remaining golden launches
        fit the budgets (:meth:`golden_fits`)."""
        rest = self.replay.launches[len(self.launch_records):]
        if self.golden_fits(rest, self.trial_cycles_done):
            raise TrialConverged(rest)

    def golden_fits(self, launches, done: int) -> bool:
        """Whether golden ``launches`` run after ``done`` cycles of the
        trial fit their per-launch budgets, and their total the trial
        watchdog: a simulated run would time out otherwise."""
        for golden in launches:
            cycles = golden.record.cycles
            if cycles > self._launch_budget(golden.record.index,
                                            golden.launch.name):
                return False
            done += cycles
        return self.trial_cycle_budget is None or done <= self.trial_cycle_budget

    def _launch_budget(self, launch_index: int, kernel_name: str) -> int:
        budget = None
        if self.cycle_budget_fn is not None:
            budget = self.cycle_budget_fn(launch_index, kernel_name)
        return DEFAULT_CYCLE_CAP if budget is None else budget

    def _compiled(self, program: Program, const_bank: np.ndarray) -> CompiledKernel:
        """The kernel of ``program`` specialised to ``const_bank``, memoised.

        The key holds the program's identity; the memoised kernel keeps
        the program alive, so no other program can reuse that id while the
        entry exists.
        """
        key = (id(program), const_bank.tobytes())
        kernel = self._kernels.pop(key, None)
        if kernel is None:
            kernel = CompiledKernel(program, const_bank, self.config)
            if len(self._kernels) >= KERNEL_MEMO_SIZE:
                del self._kernels[next(iter(self._kernels))]
        self._kernels[key] = kernel  # most recently used last
        return kernel

    def _fill_sm(self, sm: SM, program: Program, smem_bytes: int) -> None:
        regs = max(program.num_regs, 1)
        while self._pending:
            cta = self._pending[0]
            num_warps = -(-cta.num_threads // self.config.warp_size)
            if not sm.can_host(num_warps, regs, smem_bytes):
                return
            self._pending.pop(0)
            sm.host_cta(cta, regs, smem_bytes)

    def on_cta_finished(self, sm: SM, cta: CTA) -> None:
        sm.retire_cta(cta)
        if self._pending and self.kernel is not None:
            self._fill_sm(sm, self.kernel.program, self._current_smem_bytes)

    def _drain_residency(self) -> None:
        """Force-free every resident CTA (after an aborted launch)."""
        self._pending = []
        for sm in self.sms:
            for cta in list(sm.ctas):
                sm.retire_cta(cta)

    def _collect_cache_stats(self, stats: LaunchStats) -> None:
        for sm in self.sms:
            stats.l1d.merge(sm.l1d.stats)
            stats.l1t.merge(sm.l1t.stats)
        stats.l2.merge(self.l2.stats)

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def _run(self, plan, budget: int, stats: LaunchStats,
             cursor: CheckpointCursor | None = None) -> bool:
        """Clock the launch until every CTA has retired, from cycle
        ``self.now`` (0, or a restored checkpoint's cycle).

        Event-driven issue: ``ready[i]`` caches SM ``i``'s next issue cycle
        (:meth:`SM.next_event`), and an SM is polled only once that cycle
        has come, so :meth:`SM.pick_ready` always finds a warp. An SM's
        schedule changes only when it issues (barriers, EXIT, CTA
        retire/refill and the round-robin cursor all stay on that SM) or
        when a fault rewrites control state on some SM, so the cache is
        refreshed exactly then: after each issue for the issuing SM, and
        for every SM after the plan fires or a persistent plan re-pins.

        Run-ahead: after an issue, the SM goes on issuing its SM-local
        instructions at the cycles this loop would have given it
        (:meth:`SM.run_ahead`), up to the horizon: the next checkpoint
        visit and the first cycle past either cycle budget. Issues of
        different SMs between shared events commute, and no loop top
        inside the horizon does anything but count the resident warps,
        which only an EXIT (never run ahead) changes, so the schedule is
        the lock-step one. It needs an issue order across SMs nothing
        can see: no tracer, no plan still to fire or re-pinning every
        cycle, and no armed software injector counting instructions.
        Errors stay lock-step's: one raised ahead waits for its cycle
        (``SM.fault``), one raised here takes back the counters of the
        issues other SMs ran ahead past it (:meth:`_take_back_ahead`),
        and a barrier deadlock is dated at the last issue
        (``SM.stalled_at``).

        ``cursor`` is visited at the loop tops its golden checkpoints are
        due at, and asked right after the plan fires whether the fault
        landed only in dead state; returns True when the trial equals
        golden at either (the rest of the launch is the golden run's),
        else False.
        """
        now = self.now
        sms = self.sms
        trial_budget = self.trial_cycle_budget
        burnt = self.trial_cycles_done
        for sm in sms:
            sm.fault, sm.stalled_at, sm.ahead = None, now, []
        ready = [sm.next_event() for sm in sms]
        checkpoint_due = cursor.next_cycle if cursor is not None else NEVER
        # The first cycle a timeout or the trial watchdog raises at.
        limit = budget + 1
        if trial_budget is not None:
            limit = min(limit, trial_budget - burnt + 1)
        horizon = min(checkpoint_due, limit)
        si = self.sw_injector
        counting = si is not None and si.armed
        ahead = self._may_run_ahead(plan)
        while True:
            if now >= checkpoint_due:
                if cursor.visit(self, now):
                    return True
                checkpoint_due = cursor.next_cycle
                horizon = min(checkpoint_due, limit)

            try:
                for i, ev in enumerate(ready):
                    if ev is not None and ev <= now:
                        sm = sms[i]
                        if sm.fault is not None:
                            raise sm.fault
                        warp = sm.pick_ready(now)
                        warp.next_ready = now + sm.execute(warp, now)
                        ready[i] = (sm.run_ahead(now, horizon) if ahead
                                    else sm.next_event())
            except Exception:
                self._take_back_ahead(now, i)
                raise

            if counting and not si.armed:  # the software fault fired
                counting = False
                ahead = self._may_run_ahead(plan)
            if plan is not None:
                if not plan.fired:
                    if now >= plan.cycle:
                        plan.fire(self)
                        if cursor is not None and cursor.converged_at_fire(
                                self, plan, now):
                            return True
                        ready = [sm.next_event() for sm in sms]
                        ahead = self._may_run_ahead(plan)
                elif plan.persistent:
                    # Stuck-at / intermittent models: the defect re-asserts
                    # itself every clock iteration, overriding any write.
                    plan.enforce(self)
                    ready = [sm.next_event() for sm in sms]

            resident = 0
            for sm in sms:
                resident += len(sm.warps)
            nxt: int | None = None
            for ev in ready:
                if ev is not None and (nxt is None or ev < nxt):
                    nxt = ev
            stats.max_warps_observed = max(stats.max_warps_observed, resident)
            if resident == 0 and not self._pending:
                break
            if nxt is None:
                # Lock-step issue finds the deadlock at the last issue,
                # which an SM that stalled running ahead made later.
                last = max(sm.stalled_at for sm in sms)
                if last > now:
                    stats.warp_cycles_resident += resident * (last - now)
                    now = self.now = stats.cycles = last
                raise DeadlockError("all resident warps blocked (barrier deadlock)")
            new_now = max(now + 1, nxt)
            stats.warp_cycles_resident += resident * (new_now - now)
            now = new_now
            self.now = now
            stats.cycles = now
            if now > budget:
                raise SimTimeout(now, budget)
            if trial_budget is not None and burnt + now > trial_budget:
                # Cross-launch watchdog: the whole app run overshot K× its
                # golden cycle count (REPRO_HANG_FACTOR) — abort instead of
                # wedging the worker on a fault-induced infinite loop.
                raise SimTimeout(burnt + now, trial_budget)
        stats.cycles = now
        return False

    def _take_back_ahead(self, now: int, first: int) -> None:
        """Subtract from the launch's counters the issues SMs ran ahead
        past the issue of SM ``first`` at cycle ``now`` that raised:
        lock-step issue never reached them."""
        stats = self.stats
        for j, sm in enumerate(self.sms):
            for t, before in sm.ahead:
                if t > now or (t == now and j > first):
                    for name, start, end in zip(ISSUE_COUNTERS, before,
                                                sm.ahead_end):
                        setattr(stats, name, getattr(stats, name) - end + start)
                    break

    def _may_run_ahead(self, plan) -> bool:
        """Whether the issue order across SMs is invisible: no tracer, no
        microarchitecture plan still to fire or persistent, and no armed
        software injector (see :meth:`_run`)."""
        si = self.sw_injector
        return (self.tracer is None and (si is None or not si.armed)
                and (plan is None or (plan.fired and not plan.persistent)))

    # ------------------------------------------------------------------ #
    # Fault-target enumeration (used by the microarchitecture injector)
    # ------------------------------------------------------------------ #
    def live_rf_banks(self):
        """All live warp register banks across SMs, flattened."""
        banks = []
        for sm in self.sms:
            banks.extend(sm.rf.live_banks())
        return banks

    def live_smem_windows(self):
        windows = []
        for sm in self.sms:
            windows.extend(sm.smem.live_windows())
        return windows

    def resident_warps(self):
        """All resident warps across SMs (control-state fault targets)."""
        return [warp for sm in self.sms for warp in sm.warps]

    def cache_instances(self, structure) -> list[Cache]:
        if structure is Structure.L1D:
            return [sm.l1d for sm in self.sms]
        if structure is Structure.L1T:
            return [sm.l1t for sm in self.sms]
        if structure is Structure.L2:
            return [self.l2]
        raise ValueError(f"{structure} is not a cache structure")

    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Return the device to its post-boot state (fresh app run)."""
        self.mem.reset()
        self.l2.invalidate_all()
        self.l2.reset_stats()
        for sm in self.sms:
            sm.l1d.invalidate_all()
            sm.l1t.invalidate_all()
            sm.l1d.reset_stats()
            sm.l1t.reset_stats()
            sm.scheduler_cursor = 0
        # Uids name warps in fault descriptions: count them from boot, as
        # a fresh GPU does, whatever launches the last trial skipped.
        set_uid_counters(self, [0] * len(uid_counters(self)))
        self.launch_records.clear()
        self.now = 0
        self.trial_cycles_done = 0
        self._golden_so_far = True
        self.kernel = None
        self.stats = None
        self._pending = []
