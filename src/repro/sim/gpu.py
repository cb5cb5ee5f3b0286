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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.config import GPUConfig
from repro.errors import DeadlockError, LaunchError, SimTimeout
from repro.isa.program import Program
from repro.sim.cache import Cache, DRAMInterface
from repro.sim.executor import CompiledKernel
from repro.sim.memory import GlobalMemory
from repro.sim.sm import SM
from repro.sim.stats import LaunchStats
from repro.sim.warp import CTA
from repro.utils.bitops import bitcast_f2u

#: Absolute cycle cap for launches without an explicit budget (profiling).
DEFAULT_CYCLE_CAP = 10_000_000

#: Compiled kernels one GPU keeps, least recently used evicted first. Host
#: code can derive constant banks from device data (sradv1's ``q0sqr``,
#: lud's ``k``), so faulty trials can add keys the golden run never made.
KERNEL_MEMO_SIZE = 32


@dataclass(frozen=True)
class Buffer:
    """A device allocation."""

    addr: int
    nbytes: int

    def word_addr(self, index: int) -> int:
        return self.addr + 4 * index


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
        const_bank = np.asarray(encoded, dtype=np.uint32)
        kernel_name = name or program.name
        launch_index = len(self.launch_records)
        launch = KernelLaunch(kernel_name, grid, block, encoded, smem_bytes)

        self.kernel = self._compiled(program, const_bank)
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
        for sm in self.sms:
            self._fill_sm(sm, program, smem_bytes)

        budget = None
        if self.cycle_budget_fn is not None:
            budget = self.cycle_budget_fn(launch_index, kernel_name)
        if budget is None:
            budget = DEFAULT_CYCLE_CAP

        plan = None
        if self.uarch_injector is not None:
            plan = self.uarch_injector.arm(launch_index, kernel_name, self)
            if plan is not None and plan.fired:
                # A persistent fault re-armed for a later launch: the
                # simulator rebuilt RF/warp state at launch, so the plan
                # re-resolves its drawn site against the live structures.
                plan.rebind(self)

        if self.sw_injector is not None:
            self.sw_injector.begin_launch(launch_index, kernel_name)

        try:
            self._run(plan, budget, stats)
        finally:
            self._dram_if.stats = None
            self._drain_residency()
            self.trial_cycles_done += stats.cycles
            self.now = 0

        record = LaunchRecord(launch_index, launch, stats, program.name)
        self._collect_cache_stats(stats)
        self.launch_records.append(record)
        return record

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
    def _run(self, plan, budget: int, stats: LaunchStats) -> None:
        """Clock the launch until every CTA has retired.

        Event-driven issue: ``ready[i]`` caches SM ``i``'s next issue cycle
        (:meth:`SM.next_event`), and an SM is polled only once that cycle
        has come, so :meth:`SM.pick_ready` always finds a warp. An SM's
        schedule changes only when it issues (barriers, EXIT, CTA
        retire/refill and the round-robin cursor all stay on that SM) or
        when a fault rewrites control state on some SM, so the cache is
        refreshed exactly then: after each issue for the issuing SM, and
        for every SM after the plan fires or a persistent plan re-pins.
        """
        now = 0
        self.now = 0
        sms = self.sms
        trial_budget = self.trial_cycle_budget
        burnt = self.trial_cycles_done
        ready = [sm.next_event() for sm in sms]
        while True:
            for i, ev in enumerate(ready):
                if ev is not None and ev <= now:
                    sm = sms[i]
                    warp = sm.pick_ready(now)
                    warp.next_ready = now + sm.execute(warp, now)
                    ready[i] = sm.next_event()

            if plan is not None:
                if not plan.fired:
                    if now >= plan.cycle:
                        plan.fire(self)
                        ready = [sm.next_event() for sm in sms]
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
        from repro.arch.structures import Structure

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
        self.launch_records.clear()
        self.now = 0
        self.trial_cycles_done = 0
        self.kernel = None
        self.stats = None
        self._pending = []
