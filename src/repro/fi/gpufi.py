"""Microarchitecture-level fault injector (the gpuFI-4 analogue).

A fault plan names one launch of the target kernel, one injection cycle
within it, and an injection site. When the simulated clock reaches the
cycle, one uniformly-chosen bit of that site is corrupted.

Two orthogonal axes extend the paper's transient single-bit model:

**Fault model** (:data:`FAULT_MODELS`):

* ``transient`` — the paper's SEU: the bit is flipped once and the run
  continues (plus adjacent multi-bit groups via ``num_bits``).
* ``stuck0`` / ``stuck1`` — a permanent defect: the bit is pinned to 0/1
  at the injection cycle and re-pinned by a per-cycle enforcement hook
  (:meth:`MicroarchFaultPlan.enforce`) for the rest of the run, overriding
  every subsequent write; the plan is re-armed on every later launch and
  re-bound to the launch's live state (the physical cell does not heal at
  kernel boundaries).
* ``intermittent`` — an aging-silicon duty-cycled defect: stuck-at
  behaviour that is only active for the first ``duty_on`` cycles of every
  ``duty_period``-cycle window (both drawn from the plan's RNG), measured
  on the cross-launch clock from the firing cycle.

**Target** (:data:`FAULT_TARGETS`):

* ``storage`` — the paper's arrays:

  * **RF / SMEM** — among the *live* banks/windows at the injection cycle
    (GPGPU-Sim only materialises live registers and allocated shared
    memory; the derating factor of :mod:`repro.fi.avf` compensates).
  * **L1D / L1T / L2** — among *all* data-array bits of the structure,
    valid or not, across every instance on the chip.

* ``control`` — the parallelism-management state of Guerrero-Balaguera
  et al. (PAPERS.md): per-lane PCs, the uniform PC, the active/done lane
  masks, barrier wait flags and arrival counters, and the SM scheduler's
  round-robin cursor. Sites are weighted by their bit widths, so the
  per-lane PC arrays dominate the draw the way they dominate the real
  control-unit area.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.arch.structures import Structure
from repro.errors import ExecutionError, PlanningError
from repro.sim.cache import Cache
from repro.sim.register_file import WarpRegisters
from repro.sim.replay import NEVER, bank_live_mask
from repro.utils.rng import (
    UARCH_FIRE,
    UARCH_PLAN,
    StreamTable,
    derive_rng,
    weighted_index,
)

#: The fault models the microarchitecture injector understands.
FAULT_MODELS = ("transient", "stuck0", "stuck1", "intermittent")

#: What a fault lands on: storage arrays vs parallelism-management state.
FAULT_TARGETS = ("storage", "control")

#: Persistent models: armed on every launch, re-pinned every cycle.
PERSISTENT_MODELS = ("stuck0", "stuck1", "intermittent")

#: The cache structures: their fault sites span every line, valid or not,
#: so a site depends on the configuration alone, never on device state.
CACHE_STRUCTURES = (Structure.L1D, Structure.L1T, Structure.L2)


class ECCUncorrectableError(ExecutionError):
    """Multi-bit fault detected by SECDED: a DUE by definition."""


# --------------------------------------------------------------- bit targets
#
# A bit target is one corruptible bit with ``flip()`` (transient) and
# ``pin(value)`` (stuck-at enforcement; must be idempotent and cheap when the
# bit already holds the value — it runs every clock iteration). Targets bind
# to the structures live at selection time; when the simulator frees those
# structures (CTA retirement, launch teardown) the binding writes to orphaned
# state and the fault has no further architectural effect until the plan is
# re-bound at the next launch.

class _BufferBit:
    """One bit of a uint8-viewable storage array (RF bank, SMEM window,
    cache data array) held by ``owner`` (the bank, window or cache). Bit
    numbering matches :func:`repro.utils.bitops.flip_bit_in_bytes`."""

    __slots__ = ("flat", "byte", "mask", "owner")

    def __init__(self, buf: np.ndarray, bit: int, owner):
        self.flat = buf.reshape(-1)
        self.byte, sub = divmod(bit, 8)
        self.mask = np.uint8(1 << sub)
        self.owner = owner

    def flip(self) -> None:
        self.flat[self.byte] ^= self.mask

    def pin(self, value: int) -> None:
        if value:
            self.flat[self.byte] |= self.mask
        else:
            self.flat[self.byte] &= np.uint8(~self.mask)


class _LanePCBit:
    """One bit of one lane's program counter.

    The per-lane PC array is authoritative hardware state; while the warp is
    uniform the simulator keeps lanes implicitly at ``upc``, so the first
    effective corruption materialises the per-lane PCs (same semantics,
    different encoding) before writing.
    """

    __slots__ = ("warp", "lane", "bit")

    def __init__(self, warp, bit_index: int):
        self.lane, self.bit = divmod(bit_index, 32)
        self.warp = warp

    def _read(self) -> int:
        warp = self.warp
        if warp.diverged:
            word = int(warp.pc.view(np.uint32)[self.lane])
        else:
            word = warp.upc & 0xFFFFFFFF
        return (word >> self.bit) & 1

    def flip(self) -> None:
        self.pin(1 - self._read())

    def pin(self, value: int) -> None:
        if self._read() == value:
            return
        warp = self.warp
        warp.materialize_pcs()
        warp.pc.view(np.uint32)[self.lane] ^= np.uint32(1 << self.bit)


class _AliveMaskBit:
    """One lane of the warp's stored done/active mask (``done[lane]``)."""

    __slots__ = ("warp", "lane")

    def __init__(self, warp, lane: int):
        self.warp = warp
        self.lane = lane

    def _read(self) -> int:
        return int(bool(self.warp.done[self.lane]))

    def flip(self) -> None:
        self.pin(1 - self._read())

    def pin(self, value: int) -> None:
        warp = self.warp
        if bool(warp.done[self.lane]) == bool(value):
            return
        warp.done[self.lane] = bool(value)
        warp.update_finished()


class _IntAttrBit:
    """One bit of a small integer control register (``upc``, a barrier
    arrival counter, the scheduler's round-robin cursor). ``post`` runs
    after an effective write — the hardware attached to the register (e.g.
    the barrier release comparator) reacts to the new value."""

    __slots__ = ("obj", "attr", "bit", "post")

    def __init__(self, obj, attr: str, bit: int, post=None):
        self.obj = obj
        self.attr = attr
        self.bit = bit
        self.post = post

    def _read(self) -> int:
        return (int(getattr(self.obj, self.attr)) >> self.bit) & 1

    def flip(self) -> None:
        self.pin(1 - self._read())

    def pin(self, value: int) -> None:
        if self._read() == value:
            return
        setattr(self.obj, self.attr,
                int(getattr(self.obj, self.attr)) ^ (1 << self.bit))
        if self.post is not None:
            self.post()


class _FlagBit:
    """A boolean control flag (``waiting_barrier``)."""

    __slots__ = ("obj", "attr")

    def __init__(self, obj, attr: str):
        self.obj = obj
        self.attr = attr

    def _read(self) -> int:
        return int(bool(getattr(self.obj, self.attr)))

    def flip(self) -> None:
        self.pin(1 - self._read())

    def pin(self, value: int) -> None:
        if self._read() != value:
            setattr(self.obj, self.attr, bool(value))


def _dead_bit(gpu, bit) -> bool:
    """Whether flipping ``bit`` now leaves every later read unchanged: it
    is a bit of an invalid cache line (a fill writes the whole line before
    it sets ``valid``), or of a register cell of a done lane or not
    live-in at its lane's next pc (:func:`repro.sim.replay.bank_live_mask`)."""
    if not isinstance(bit, _BufferBit):
        return False
    owner = bit.owner
    if isinstance(owner, Cache):
        return not owner.valid[bit.byte // owner.geo.line_bytes]
    if isinstance(owner, WarpRegisters):
        warp = next(w for sm in gpu.sms for w in sm.warps if w.bank is owner)
        live = bank_live_mask(gpu.kernel.program, warp.diverged, warp.upc,
                              warp.pc, ~warp.done)
        return not live.reshape(-1)[bit.byte // 4]
    return False


def _control_sites(gpu) -> list[tuple[str, int, object]]:
    """Enumerate the live control-state sites as (name, bits, factory).

    Finished warps are skipped — their state is no longer consulted, the
    control analogue of only injecting live RF banks.
    """
    sites: list[tuple[str, int, object]] = []
    cursor_bits = max(1, int(gpu.config.max_warps_per_sm).bit_length())
    for sm in gpu.sms:
        sites.append((
            f"sm{sm.index}.sched.rr", cursor_bits,
            lambda b, sm=sm: _IntAttrBit(sm, "scheduler_cursor", b)))
        for cta in sm.ctas:
            sites.append((
                f"sm{sm.index}.barrier.arrived", 8,
                lambda b, cta=cta: _IntAttrBit(
                    cta, "barrier_arrived", b,
                    post=cta.maybe_release_barrier)))
        for warp in sm.warps:
            if warp.finished:
                continue
            lanes = int(warp.pc.size)
            sites.append((f"warp{warp.uid}.pc", lanes * 32,
                          lambda b, w=warp: _LanePCBit(w, b)))
            sites.append((f"warp{warp.uid}.upc", 32,
                          lambda b, w=warp: _IntAttrBit(w, "upc", b)))
            sites.append((f"warp{warp.uid}.active", lanes,
                          lambda b, w=warp: _AliveMaskBit(w, b)))
            sites.append((f"warp{warp.uid}.barrier.wait", 1,
                          lambda b, w=warp: _FlagBit(w, "waiting_barrier")))
    return sites


@dataclass
class MicroarchFaultPlan:
    """One planned microarchitecture-level injection.

    ``num_bits`` selects the upset width: 1 = the paper's single-bit flips;
    2 = adjacent double-bit upsets (Section II-A notes beam studies find
    multi-bit flips confined to adjacent cells of one structure).

    ``ecc_protected`` models SECDED on the target structure: single-bit
    faults are corrected in place (no flip happens — the campaign classifies
    the trial Masked without simulating), and multi-bit faults raise a
    detected-uncorrectable error (DUE).

    ``fault_model`` / ``target`` select the persistence axis and the site
    family (see the module docstring). ``structure`` is ``None`` for
    control-target plans. ``stuck_value`` and the ``duty_*`` windows only
    matter to the intermittent model and come from the planner's RNG.

    ``streams`` is the campaign's :class:`~repro.utils.rng.StreamTable`
    the site is drawn from; ``None`` derives the stream with
    :func:`~repro.utils.rng.derive_rng` (the same draws).
    """

    launch_index: int
    cycle: int
    structure: Structure | None
    seed: int
    num_bits: int = 1
    ecc_protected: bool = False
    fault_model: str = "transient"
    target: str = "storage"
    stuck_value: int = 0  # intermittent only; stuck0/stuck1 encode theirs
    duty_period: int = 0  # intermittent: window length (0 = always active)
    duty_on: int = 0  # intermittent: active cycles per window
    fired: bool = field(default=False)
    hit_live_target: bool = field(default=True)
    description: str = field(default="")
    #: The bit targets :meth:`fire` wrote (empty when it wrote none);
    #: None before it fires.
    _fire_bits: list | None = field(default=None, init=False, repr=False,
                                  compare=False)
    #: A cache fault's site once drawn (:meth:`_cache_site`).
    _site: tuple | None = field(default=None, init=False, repr=False,
                                compare=False)
    streams: StreamTable | None = field(default=None, repr=False,
                                        compare=False)

    def _fire_rng(self) -> np.random.Generator:
        """A fresh ``uarch-fire`` stream: every draw of the site starts
        from its first value, so the fire and every rebind draw the same
        site index."""
        if self.streams is None:
            return derive_rng(self.seed, UARCH_FIRE)
        return self.streams(self.seed, UARCH_FIRE)

    @property
    def corrected_by_ecc(self) -> bool:
        """True when the fault provably has no architectural effect."""
        return self.ecc_protected and self.num_bits == 1

    @property
    def persistent(self) -> bool:
        """Stuck-at / intermittent plans outlive their injection cycle."""
        return self.fault_model in PERSISTENT_MODELS

    @property
    def pin_value(self) -> int:
        """The value a persistent fault forces onto its bits."""
        if self.fault_model == "stuck1":
            return 1
        if self.fault_model == "intermittent":
            return self.stuck_value
        return 0

    def _bits(self, first_bit: int, space_bits: int) -> list[int]:
        """The adjacent bit group of this fault within one storage space.

        Groups drawn near the top edge slide down instead of wrapping to
        bit 0: physically adjacent cells never straddle a bank/window
        boundary, and a group never exceeds its containing space.
        """
        count = min(self.num_bits, space_bits)
        start = max(0, min(first_bit, space_bits - count))
        return list(range(start, start + count))

    # ------------------------------------------------- golden checkpoints
    def can_resume(self, checkpoint) -> bool:
        """Whether a launch may start from golden ``checkpoint`` (see
        :mod:`repro.sim.replay`): the plan has not fired, and fires after
        the issue phase of the first loop top with ``now >= cycle``, so it
        has not acted at any loop top up to its cycle."""
        return not self.fired and checkpoint.now <= self.cycle

    def resume(self, checkpoint) -> None:
        """Nothing to take up: the plan keys on the clock alone."""

    def dead_on_arrival(self, gpu) -> bool:
        """Whether every bit :meth:`fire` wrote is dead (:func:`_dead_bit`),
        or it wrote none. Asked right after the fire, while the plan is the
        launch's only actor: until then the trial equals the golden run,
        so it still does on every cell a later read sees. This says nothing
        about later writes: only a transient plan writes no more."""
        bits = self._fire_bits
        return bits is not None and all(_dead_bit(gpu, bit) for bit in bits)

    @property
    def needs_census(self) -> bool:
        """Whether a fire census (:class:`FireCensus`) gives this plan's
        dead-at-arm verdict: a transient, unprotected RF fault, whose site
        is drawn over the banks live at its fire."""
        return (self.structure is Structure.RF and self.target == "storage"
                and not self.persistent and not self.ecc_protected)

    def dead_at_arm(self, gpu, golden, dead_fires=frozenset()) -> bool:
        """Whether in a launch that repeats ``golden`` (the
        :class:`repro.sim.replay.GoldenLaunch` this plan is armed for)
        :meth:`fire` would write only dead state (:meth:`dead_on_arrival`).

        * A transient, unprotected cache fault: every bit lies in a line
          invalid when ``golden`` ends. Inside a launch a line's ``valid``
          bit only goes from 0 to 1, so that line was invalid at every
          cycle of the launch, the fire included.
        * A plan that :attr:`needs_census`: its seed is in ``dead_fires``,
          the seeds the campaign's fire census found dead at their fire
          on the golden state."""
        if self.persistent or self.ecc_protected or self.target != "storage":
            return False
        if self.structure is Structure.RF:  # needs_census, asked cheaply
            return self.seed in dead_fires
        if self.structure not in CACHE_STRUCTURES:
            return False
        cache, index, bits, _ = self._cache_site(gpu)
        valid = golden.valid_at_exit(self.structure, index)
        line_bits = 8 * cache.geo.line_bytes
        return not any(valid[bit // line_bits] for bit in bits)

    # ------------------------------------------------------------ selection
    def _select_storage(self, gpu, rng) -> tuple[list, str]:
        structure = self.structure
        if structure is Structure.RF:
            banks = gpu.live_rf_banks()
            sizes = [bank.regs.size * 32 for bank in banks]
            total = sum(sizes)
            if total == 0:
                return [], ""
            bit = int(rng.integers(total))
            for bank, size in zip(banks, sizes):
                if bit < size:
                    targets = [_BufferBit(bank.regs.view(np.uint8), b, bank)
                               for b in self._bits(bit, size)]
                    return targets, f"RF bank bit {bit} x{self.num_bits}"
                bit -= size
        elif structure is Structure.SMEM:
            windows = gpu.live_smem_windows()
            sizes = [w.size * 8 for w in windows]
            total = sum(sizes)
            if total == 0:
                return [], ""
            bit = int(rng.integers(total))
            for window, size in zip(windows, sizes):
                if bit < size:
                    targets = [_BufferBit(window.data, b, window)
                               for b in self._bits(bit, size)]
                    return targets, f"SMEM window bit {bit} x{self.num_bits}"
                bit -= size
        return [], ""

    def _cache_site(self, gpu) -> tuple[Cache, int, list[int], str]:
        """A cache fault's instance and its index among the structure's
        instances (:meth:`GPU.cache_instances`), bits of its data array
        and label, drawn over every instance of the structure on the first
        call (a cache site does not depend on device state; see
        :data:`CACHE_STRUCTURES`) and kept by instance index."""
        caches = gpu.cache_instances(self.structure)
        if self._site is None:
            bit = int(self._fire_rng().integers(
                sum(c.total_bits for c in caches)))
            for index, cache in enumerate(caches):
                if bit < cache.total_bits:
                    self._site = (index, self._bits(bit, cache.total_bits),
                                  f"{cache.name} bit {bit} x{self.num_bits}")
                    break
                bit -= cache.total_bits
        index, bits, label = self._site
        return caches[index], index, bits, label

    def _select_control(self, gpu, rng) -> tuple[list, str]:
        sites = _control_sites(gpu)
        total = sum(bits for _, bits, _ in sites)
        if total == 0:
            return [], ""
        bit = int(rng.integers(total))
        for name, bits, make in sites:
            if bit < bits:
                group = self._bits(bit, bits)
                targets = [make(b) for b in group]
                return targets, f"{name} bit {bit} x{len(group)}"
            bit -= bits
        return [], ""

    def _select(self, gpu) -> tuple[list, str]:
        if self.target == "storage" and self.structure in CACHE_STRUCTURES:
            cache, _, bits, label = self._cache_site(gpu)
            return [_BufferBit(cache.data, b, cache) for b in bits], label
        rng = self._fire_rng()
        if self.target == "control":
            return self._select_control(gpu, rng)
        return self._select_storage(gpu, rng)

    # ------------------------------------------------------ fire / enforce
    def fire(self, gpu) -> None:
        """Corrupt the planned bit(s); called by the GPU clock at ``cycle``."""
        self.fired = True
        if self.corrected_by_ecc:
            self._fire_bits = []
            self.description = "ECC corrected single-bit fault"
            return
        if self.ecc_protected and self.num_bits > 1:
            raise ECCUncorrectableError(
                f"{self.num_bits}-bit fault in ECC-protected "
                f"{self.structure.value if self.structure else self.target}"
            )
        targets, label = self._select(gpu)
        self._fire_bits = targets
        if not targets:
            self.hit_live_target = False
            return
        if not self.persistent:
            for t in targets:
                t.flip()
            self.description = label
            return
        self._targets = targets
        self._fired_at = gpu.global_cycle
        self.description = f"{label} {self.fault_model}@{self.pin_value}"
        self.enforce(gpu)

    def rebind(self, gpu) -> None:
        """Re-resolve a persistent fault against the current launch's state.

        The simulator rebuilds RF banks, SMEM windows and warp state per
        launch; the physical defect does not move, so the plan re-draws the
        same site index from its RNG and binds it to whatever is live now
        (caches simply re-bind to the same persistent cell). Called by the
        GPU when a fired persistent plan is armed for a later launch.
        """
        if not (self.persistent and self.fired) or self.corrected_by_ecc:
            return
        targets, _ = self._select(gpu)
        self._targets = targets
        if targets:
            self.hit_live_target = True
            self.enforce(gpu)

    def _duty_active(self, global_cycle: int) -> bool:
        if self.duty_period <= 0:
            return True
        return (global_cycle - self._fired_at) % self.duty_period < self.duty_on

    def enforce(self, gpu) -> None:
        """Re-pin the fault's bits (the per-cycle persistent-model hook)."""
        targets = getattr(self, "_targets", None)
        if not targets:
            return
        if (self.fault_model == "intermittent"
                and not self._duty_active(gpu.global_cycle)):
            return
        value = self.pin_value
        for t in targets:
            t.pin(value)


class MicroarchInjector:
    """GPU hook object carrying one :class:`MicroarchFaultPlan` per app run."""

    def __init__(self, plan: MicroarchFaultPlan):
        self.plan = plan

    @property
    def spent(self) -> bool:
        """Fired, and acts no more (see :mod:`repro.sim.gpu`)."""
        return self.plan.fired and not self.plan.persistent

    def arm(self, launch_index: int, kernel_name: str, gpu):
        """Called by the GPU at launch start; returns the active plan or None.

        Transient plans arm exactly once, for their planned launch.
        Persistent plans (stuck-at / intermittent) stay armed for every
        launch from the planned one on — a physical defect does not heal at
        a kernel boundary — and the GPU re-binds fired plans to the new
        launch's live state.
        """
        plan = self.plan
        if plan.persistent:
            return plan if launch_index >= plan.launch_index else None
        if launch_index == plan.launch_index and not plan.fired:
            return plan
        return None


class FireCensus:
    """GPU hook of a fault-free run that takes each of ``plans`` (plans
    that :attr:`~MicroarchFaultPlan.needs_census`) to its fire and
    collects in :attr:`dead` the seeds of those whose fire would write
    only dead state, flipping nothing.

    Armed on each launch that holds a plan, the census is also the
    launch's actor: at each plan's fire loop top (the first with ``now >=
    cycle``, after the issue phase) it draws the plan's own site
    (:meth:`MicroarchFaultPlan._select`) on the golden state and asks
    :func:`_dead_bit` of every bit. A trial equals the golden run up to
    its fire, so its fire would see the same. The census never fires, so
    the launch runs lock-step, as every trial's does up to its fire, and
    to its end as a pristine trial's would, capturing every checkpoint of
    it (see :mod:`repro.sim.replay`)."""

    fired = persistent = False
    #: Never spent: no launch of the run ends it at convergence.
    spent = False

    def __init__(self, plans):
        self.dead: set[int] = set()
        self._by_launch: dict[int, list] = {}
        for plan in sorted(plans, key=lambda plan: plan.cycle):
            self._by_launch.setdefault(plan.launch_index, []).append(plan)
        self._due: list = []

    def arm(self, launch_index: int, kernel_name: str, gpu):
        """Act on the launch if it holds a plan, taking its plans in
        cycle order."""
        self._due = self._by_launch.get(launch_index, [])
        if not self._due:
            return None
        self._next = 0
        self.cycle = self._due[0].cycle
        return self

    def can_resume(self, checkpoint) -> bool:
        """The first plan's rule (:meth:`MicroarchFaultPlan.can_resume`)."""
        return checkpoint.now <= self._due[0].cycle

    def resume(self, checkpoint) -> None:
        """Nothing to take up: the plans key on the clock alone."""

    def dead_on_arrival(self, gpu) -> bool:
        """Never: the census ends no launch at a fire."""
        return False

    def fire(self, gpu) -> None:
        """Judge every plan due at this loop top."""
        due = self._due
        while self._next < len(due) and due[self._next].cycle <= gpu.now:
            plan = due[self._next]
            targets, _ = plan._select(gpu)
            if all(_dead_bit(gpu, bit) for bit in targets):
                self.dead.add(plan.seed)
            self._next += 1
        self.cycle = due[self._next].cycle if self._next < len(due) else NEVER


def plan_microarch_fault(
    launches: list[dict],
    structure: Structure | None,
    seed: int,
    num_bits: int = 1,
    ecc_protected: bool = False,
    fault_model: str = "transient",
    target: str = "storage",
    context: str = "",
    streams: StreamTable | None = None,
) -> MicroarchFaultPlan:
    """Draw one fault plan, uniform over the target kernel's execution time.

    ``launches`` are the profile records of the target kernel. Launch
    instances are weighted by their cycle counts and the injection cycle is
    uniform within the chosen launch — together a uniform draw over all
    cycles the kernel was resident, the paper's fault model. The
    intermittent model additionally draws its stuck value and duty-cycle
    windows here, so plan determinism covers them.

    ``context`` names the app/kernel in planner errors. ``streams`` is
    the campaign's stream table, which the plan keeps for its site draw;
    ``None`` derives both streams with :func:`derive_rng`.
    """
    where = context or "the target kernel"
    if fault_model not in FAULT_MODELS:
        raise PlanningError(
            f"unknown fault model {fault_model!r} for {where} "
            f"(known: {', '.join(FAULT_MODELS)})")
    if target not in FAULT_TARGETS:
        raise PlanningError(
            f"unknown fault target {target!r} for {where} "
            f"(known: {', '.join(FAULT_TARGETS)})")
    if target == "control":
        if structure is not None:
            raise PlanningError(
                f"control-target faults for {where} pick their own "
                f"parallelism-management sites; drop the structure "
                f"({structure.value})")
        if ecc_protected:
            raise PlanningError(
                f"ECC protects storage arrays, not the parallelism-"
                f"management state targeted for {where}")
    elif structure is None:
        raise PlanningError(
            f"storage-target faults for {where} need a structure "
            f"(RF/SMEM/L1D/L1T/L2)")
    rng = (derive_rng(seed, UARCH_PLAN) if streams is None
           else streams(seed, UARCH_PLAN))
    if not launches:
        raise PlanningError(
            f"cannot plan a microarchitecture fault for {where}: the "
            f"profile records no launches (is the kernel name right?)")
    chosen = launches[weighted_index(
        rng, [max(rec["cycles"], 1) for rec in launches])]
    cycle = int(rng.integers(max(chosen["cycles"], 1)))
    stuck_value = 0
    duty_period = 0
    duty_on = 0
    if fault_model == "intermittent":
        # Drawn after the transient draws, so transient plans consume the
        # identical RNG prefix they always did.
        stuck_value = int(rng.integers(2))
        duty_period = int(2 ** rng.integers(5, 11))  # 32..1024 cycles
        duty_on = max(1, int(duty_period * rng.uniform(0.1, 0.9)))
    return MicroarchFaultPlan(
        launch_index=chosen["index"],
        cycle=cycle,
        structure=structure,
        seed=seed,
        num_bits=num_bits,
        ecc_protected=ecc_protected,
        fault_model=fault_model,
        target=target,
        stuck_value=stuck_value,
        duty_period=duty_period,
        duty_on=duty_on,
        streams=streams,
    )
