"""Streaming multiprocessor: warp residency and the per-issue step function.

Each SM owns a register file, a shared-memory pool, an L1 data cache and an
L1 texture cache; it issues at most one warp-instruction per cycle, picking
ready warps round-robin (GTO-less, like GPGPU-Sim's simplest scheduler).
Between instructions that reach shared state it can run ahead of the GPU
clock (:meth:`SM.run_ahead`).
"""

from __future__ import annotations

from operator import attrgetter

import numpy as np

from repro.errors import LaunchError
from repro.sim.cache import Cache
from repro.sim.executor import K_ALU, K_BAR, K_BRA, K_EXIT, K_MEM
from repro.sim.register_file import RegisterFile
from repro.sim.shared_memory import SharedMemory
from repro.sim.warp import CTA, Warp

#: The ``LaunchStats`` counters an SM-local issue changes.
ISSUE_COUNTERS = ("warp_instructions", "thread_instructions",
                  "shared_instructions", "sw_injectable_instructions",
                  "sw_injectable_loads")
issue_counters = attrgetter(*ISSUE_COUNTERS)


class SM:
    """One streaming multiprocessor."""

    def __init__(self, index: int, gpu):
        self.index = index
        self.gpu = gpu
        config = gpu.config
        self.rf = RegisterFile(index, config.rf_regs_per_sm, config.warp_size)
        self.smem = SharedMemory(index, config.smem_bytes_per_sm)
        self.l1d = Cache(
            f"sm{index}.l1d", config.l1d, config.latencies.l1_hit, gpu.l2,
            write_back=False,
        )
        self.l1t = Cache(
            f"sm{index}.l1t", config.l1t, config.latencies.l1_hit, gpu.l2,
            write_back=False,
        )
        self.ctas: list[CTA] = []
        self.warps: list[Warp] = []
        self._rr = 0
        # Run-ahead results the clock loop reads (see run_ahead).
        self.fault: Exception | None = None
        self.stalled_at = 0
        self.ahead: list[tuple[int, tuple]] = []
        self.ahead_end: tuple = ()

    # ------------------------------------------------------------------ #
    # Residency
    # ------------------------------------------------------------------ #
    def can_host(self, num_warps: int, regs_per_thread: int, smem_bytes: int) -> bool:
        config = self.gpu.config
        if len(self.ctas) >= config.max_ctas_per_sm:
            return False
        if len(self.warps) + num_warps > config.max_warps_per_sm:
            return False
        if not self.rf.can_allocate(num_warps, regs_per_thread):
            return False
        if smem_bytes and not self.smem.can_allocate(smem_bytes):
            return False
        return True

    def host_cta(self, cta: CTA, regs_per_thread: int, smem_bytes: int) -> None:
        config = self.gpu.config
        num_warps = -(-cta.num_threads // config.warp_size)
        if not self.can_host(num_warps, regs_per_thread, smem_bytes):
            raise LaunchError(f"SM{self.index} cannot host CTA {cta.ctaid}")
        cta.sm = self
        if smem_bytes:
            cta.smem_uid, cta.smem = self.smem.allocate(smem_bytes)
        for i in range(num_warps):
            rf_uid, bank = self.rf.allocate(max(regs_per_thread, 1))
            warp = Warp(self.gpu.next_warp_uid(), cta, i, rf_uid, bank)
            cta.warps.append(warp)
            self.warps.append(warp)
        self.ctas.append(cta)

    def retire_cta(self, cta: CTA) -> None:
        for warp in cta.warps:
            self.rf.free(warp.rf_uid)
            self.warps.remove(warp)
        if cta.smem_uid is not None:
            self.smem.free(cta.smem_uid)
            cta.smem = None
        self.ctas.remove(cta)
        self._rr = 0

    # ------------------------------------------------------------------ #
    # Issue
    # ------------------------------------------------------------------ #
    @property
    def scheduler_cursor(self) -> int:
        """The round-robin scheduler's warp cursor.

        Exposed as a named fault-injection site: permanent faults in the
        warp scheduler's selection state are one of the control-unit
        targets of the permanent/intermittent fault models.
        """
        return self._rr

    @scheduler_cursor.setter
    def scheduler_cursor(self, value: int) -> None:
        self._rr = value

    def pick_ready(self, now: int) -> Warp | None:
        warps = self.warps
        n = len(warps)
        rr = self._rr
        for k in range(n):
            warp = warps[(rr + k) % n]
            if (
                not warp.finished
                and not warp.waiting_barrier
                and warp.next_ready <= now
            ):
                self._rr = (rr + k + 1) % n
                return warp
        return None

    def next_event(self) -> int | None:
        """Earliest cycle at which some warp of this SM becomes issueable."""
        best: int | None = None
        for warp in self.warps:
            if not warp.finished and not warp.waiting_barrier:
                nr = warp.next_ready
                if best is None or nr < best:
                    best = nr
        return best

    def run_ahead(self, t: int, horizon: int) -> int | None:
        """Go on issuing after this SM's issue at cycle ``t``, one
        instruction per cycle at the cycles the clock loop would pick,
        while the issue stays on SM-local state and its cycle is below
        ``horizon``; returns the SM's next issue cycle, or None when
        every warp is blocked.

        Only the L2/DRAM path, the pending-CTA queue and the GPU-wide
        hooks are shared between SMs, so the loop stops before a global
        ``LD``/``LDT``/``ST``, an ``EXIT`` (CTA retire and refill use the
        pending queue; the resident count changes only there) and a pc
        outside the program, and leaves those issues to the clock loop.
        The round-robin cursor is restored on a stop, so the loop picks
        the same warp. An issue that raises is not raised here: an
        earlier issue on another SM may raise first, so the error waits
        in ``fault`` until the clock loop reaches cycle ``t``. A stall
        leaves its cycle in ``stalled_at`` for the deadlock check, and
        ``ahead``/``ahead_end`` keep the launch's counters before each
        issue and at the end, so an error elsewhere can take back the
        issues past it.
        """
        local = self.gpu.kernel.local_pcs
        stats = self.gpu.stats
        self.ahead = ahead = []
        while True:
            nxt = self.next_event()
            if nxt is None:
                self.stalled_at = t
                break
            t = nxt if nxt > t else t + 1
            if t >= horizon:
                break
            rr = self._rr
            warp = self.pick_ready(t)
            if warp.diverged:
                groups = warp.groups
                pc = (groups if groups is not None else warp.regroup())[0][0]
            else:
                pc = warp.upc
            if pc not in local:
                self._rr = rr
                break
            ahead.append((t, issue_counters(stats)))
            try:
                warp.next_ready = t + self.execute(warp, t)
            except Exception as exc:
                self.fault = exc
                break
        self.ahead_end = issue_counters(stats)
        return None if nxt is None else t

    def execute(self, warp: Warp, now: int) -> int:
        """Issue one instruction for ``warp``; returns its latency."""
        gpu = self.gpu
        stats = gpu.stats
        uniform = not warp.diverged
        if uniform:
            cur = warp.upc
            active = warp.alive
        else:
            groups = warp.groups
            if groups is None:
                groups = warp.regroup()
            cur, active, n_active = groups[0]
        entries = gpu.kernel.entries
        if cur >= len(entries) or cur < 0:
            # Control flow ran outside the program (fault-corrupted
            # predicates can skip the EXIT; a corrupted PC sign bit goes
            # negative): a detected crash.
            from repro.errors import IllegalInstruction

            raise IllegalInstruction(
                f"warp {warp.uid} ran outside the program (pc={cur})"
            )
        instr, kind, fn, latency, flags, dst = entries[cur]

        # Guard evaluation.
        if instr.guard_pred == 7 and not instr.guard_neg:
            gm = active
            n_exec = warp.n_alive if uniform else n_active
        else:
            gp = warp.preds[instr.guard_pred]
            gm = active & ~gp if instr.guard_neg else active & gp
            n_exec = int(np.count_nonzero(gm))

        stats.warp_instructions += 1
        stats.thread_instructions += n_exec

        if kind == K_ALU or kind == K_MEM:
            injectable, is_load, is_store, is_shared = flags
            restore = None
            si = gpu.sw_injector
            if si is not None and not si.armed:
                si = None  # its hooks return at once until it is armed
            if si is not None and si.wants_sources and n_exec:
                restore = si.before_exec(warp, instr, gm, n_exec)
            if kind == K_MEM:
                if n_exec:
                    latency = fn(self, warp, gm)
                if is_shared:
                    stats.shared_instructions += n_exec
                elif is_load:
                    stats.load_instructions += n_exec
                else:
                    stats.store_instructions += n_exec
            else:
                if n_exec:
                    fn(self, warp, gm)
            if restore is not None:
                restore()
            if injectable and n_exec:
                stats.sw_injectable_instructions += n_exec
                if is_load:
                    stats.sw_injectable_loads += n_exec
                if si is not None:
                    si.after_write(warp, dst, gm, n_exec, is_load)
            if uniform:
                warp.upc = cur + 1
            else:
                warp.advance(cur, active, n_active)
        elif kind == K_BRA:
            if not uniform:
                warp.branch(cur, active, n_active, instr.target, gm, n_exec)
            elif n_exec == warp.n_alive:  # all active lanes take the branch
                warp.upc = instr.target
            elif n_exec == 0:
                warp.upc = cur + 1
            else:
                # Mixed outcome: materialise per-lane PCs and diverge (until
                # the next issue, even if both sides land on one pc).
                warp.branch(cur, active, warp.n_alive, instr.target, gm, n_exec)
        elif kind == K_EXIT:
            warp.done |= gm
            if not uniform:
                warp.pc[active & ~gm] += 1
            elif n_exec != warp.n_alive:
                warp.upc = cur + 1  # surviving lanes continue uniformly
            if warp.update_finished():
                cta = warp.cta
                cta.maybe_release_barrier()
                if cta.finished:
                    gpu.on_cta_finished(self, cta)
            if not uniform:
                warp.regroup()
        elif kind == K_BAR:
            # All lanes of the warp (guarded or not) converge at the barrier.
            if uniform:
                warp.upc = cur + 1
            else:
                warp.advance(cur, active, n_active)
            warp.cta.arrive_barrier(warp)
        else:  # K_NOP
            if uniform:
                warp.upc = cur + 1
            else:
                warp.advance(cur, active, n_active)

        if not uniform:
            # Reconvergence: all alive lanes back at one PC.
            groups = warp.groups
            if len(groups) == 1:
                warp.diverged = False
                warp.upc = groups[0][0]
                warp.groups = None

        tracer = gpu.tracer
        if tracer is not None:
            tracer.record(cur, instr, warp, gm)
        return latency
