"""Injection-free (ACE-style) vulnerability estimators.

The paper measures AVF-RF by statistical fault injection: flip a random bit
of an allocated register at a random cycle and classify the outcome. The
mechanism behind the measured number is almost entirely *structural*: a flip
only matters while the register is **live** (written, not yet re-read for
the last time), and it propagates in proportion to how many reads consume
the value (the Fig. 12 register-reuse effect). Both are static program
properties, so this module estimates them with zero injections — in the
spirit of Mukherjee et al.'s ACE analysis and Hari et al.'s two-level
program-analysis SDC model (PAPERS.md):

* ``ace_fraction`` — live register-bit-cycles over allocated
  register-bit-cycles, with per-instruction *static execution weights*
  standing in for cycles (loop nesting from the CFG, a 1/2 factor per
  predicated guard). This estimates the failure probability of a flip in an
  allocated register.
* ``avf_rf`` — ``ace_fraction`` times the RF derating factor
  (allocated bits / physical RF bits, from :mod:`repro.arch.structures`),
  the static analogue of the paper's ``AVF(h) = FR(h) * DF(h)``.
* ``mean_reads_per_write`` / ``dead_write_fraction`` — the static analogue
  of the dynamic register-reuse analyzer in :mod:`repro.analysis.reuse`:
  expected reads-before-redefinition per destination write, from def-use
  chains instead of a trace.

Beyond the RF, the same ACE reasoning extends to shared memory
(validated by the ``static-structures`` experiment):

* ``static_smem_ace`` — shared-memory bits are ACE from a store until the
  last load that can read them (value-set intersection from the abstract
  interpreter, :mod:`repro.staticanalysis.absint`), with the store-to-load
  interval measured in static execution weight. Scoped to barrier epochs:
  tiles are produce/consume state, so a word with no downstream reader
  contributes nothing.

A control-state (PC/active-mask lifetime) estimator was tried the same way
and dropped: it anti-correlates with the control-target campaigns (see
EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.config import GPUConfig
from repro.arch.structures import rf_derating, smem_derating
from repro.isa.program import Program
from repro.staticanalysis.cfg import (
    ControlFlowGraph,
    build_cfg,
    guard_always_true,
)
from repro.staticanalysis.dataflow import def_use_chains, is_pred_var, liveness

#: Assumed iterations of a natural loop per nesting level. Only the *ratio*
#: between instruction weights matters for the estimators, so this is a
#: coarse but conventional static-profile assumption.
LOOP_WEIGHT = 8.0

#: Probability a predicated instruction's guard is true. With no value
#: information, a guard is a coin flip (NVCC's static branch weights make
#: the same assumption).
GUARD_PROB = 0.5


def instruction_weights(cfg: ControlFlowGraph) -> list[float]:
    """Static execution-frequency weight of each instruction.

    ``LOOP_WEIGHT ** loop_depth`` for reachable instructions (scaled by
    ``GUARD_PROB`` when predicated), 0 for unreachable ones. These weights
    stand in for dynamic instruction counts everywhere the estimators need
    a "cycles" weighting.
    """
    program = cfg.program
    depth = cfg.loop_depth()
    reachable = cfg.reachable_blocks()
    weights = [0.0] * len(program)
    for block in cfg.blocks:
        if block.index not in reachable:
            continue
        base = LOOP_WEIGHT ** depth.get(block.index, 0)
        for i in range(block.start, block.end):
            w = base
            if not guard_always_true(program[i]):
                w *= GUARD_PROB
            weights[i] = w
    return weights


@dataclass(frozen=True)
class StaticVFReport:
    """All static vulnerability estimates of one kernel."""

    kernel: str
    num_instructions: int
    num_regs: int
    #: Static estimate of dynamic instruction count (sum of weights).
    weight_mass: float
    #: Weighted mean live GPRs per instruction.
    mean_live_regs: float
    #: Peak live GPRs at any instruction.
    max_live_regs: int
    #: Live register-bit-cycles / allocated register-bit-cycles.
    ace_fraction: float
    #: Allocated RF bits / physical RF bits (1.0 when geometry unknown).
    derating: float
    #: The headline estimate: ``ace_fraction * derating``.
    avf_rf: float
    #: Static Fig. 12 analogue: expected reads per destination write.
    mean_reads_per_write: float
    #: Weighted fraction of writes never read.
    dead_write_fraction: float

    def summary(self) -> str:
        return (
            f"{self.kernel}: AVF-RF(est) = {self.avf_rf:.4%} "
            f"(ACE {self.ace_fraction:.1%} x DF {self.derating:.4f}), "
            f"live {self.mean_live_regs:.1f}/{self.num_regs} regs, "
            f"reads/write {self.mean_reads_per_write:.2f}, "
            f"dead writes {self.dead_write_fraction:.1%}"
        )


def static_avf_rf(
    program: Program,
    config: GPUConfig | None = None,
    threads: int | None = None,
) -> float:
    """Convenience wrapper returning only the AVF-RF estimate."""
    return static_vf_report(program, config=config, threads=threads).avf_rf


def static_vf_report(
    program: Program,
    config: GPUConfig | None = None,
    threads: int | None = None,
    derating: float | None = None,
) -> StaticVFReport:
    """Compute every static estimate for one kernel program.

    ``derating`` (or ``config`` + ``threads``, the launch geometry) supplies
    the allocated-over-physical RF factor; geometry is a property of the
    *launch*, not of the injections, so passing the profiled value keeps the
    estimator injection-free. With neither, ``derating = 1`` and ``avf_rf``
    ranks kernels by ACE fraction alone.
    """
    cfg = build_cfg(program)
    weights = instruction_weights(cfg)
    live = liveness(cfg)
    chains = def_use_chains(cfg)

    mass = sum(weights)
    regs = max(program.num_regs, 1)
    if mass > 0.0:
        live_mass = sum(
            w * live.live_regs_in(i) for i, w in enumerate(weights) if w
        )
        mean_live = live_mass / mass
        max_live = max(
            (live.live_regs_in(i) for i, w in enumerate(weights) if w),
            default=0,
        )
    else:
        mean_live = 0.0
        max_live = 0
    ace = mean_live / regs

    # Static register reuse over GPR definition sites.
    def_mass = 0.0
    read_mass = 0.0
    dead_mass = 0.0
    for (d, var), uses in chains.uses_of.items():
        if is_pred_var(var):
            continue
        w = weights[d]
        if w <= 0.0:
            continue
        def_mass += w
        read_mass += w * len(uses)
        if not uses:
            dead_mass += w
    mean_reads = read_mass / def_mass if def_mass else 0.0
    dead_fraction = dead_mass / def_mass if def_mass else 0.0

    if derating is None:
        if config is not None and threads is not None:
            derating = rf_derating(program.num_regs, threads, config)
        else:
            derating = 1.0

    return StaticVFReport(
        kernel=program.name,
        num_instructions=len(program),
        num_regs=program.num_regs,
        weight_mass=mass,
        mean_live_regs=mean_live,
        max_live_regs=max_live,
        ace_fraction=ace,
        derating=derating,
        avf_rf=ace * derating,
        mean_reads_per_write=mean_reads,
        dead_write_fraction=dead_fraction,
    )


# --------------------------------------------------------------------------- #
# SMEM estimators (launch-context aware)
# --------------------------------------------------------------------------- #
def _access_bytes(rng, smem_bytes: int) -> int:
    """Bytes one static access's lanes can collectively touch."""
    if rng.is_top:
        return smem_bytes
    words = (rng.hi - rng.lo) // max(rng.stride, 4) + 1
    return max(4, min(smem_bytes, 4 * words))


def static_smem_ace(program: Program, ctx) -> float:
    """Live shared-memory byte-weight over allocated byte-weight.

    For every shared store, the stored footprint is ACE from the store to
    the *last* shared load whose abstract address set intersects it
    (program order; loop repetition is carried by the instruction
    weights). A stored tile nothing reads downstream — or a barrier epoch
    that only rewrites it — contributes nothing, mirroring the
    write-to-last-read rule of RF liveness.
    """
    from repro.staticanalysis.absint import analyze

    smem = ctx.smem_bytes
    if smem <= 0:
        return 0.0
    interp = analyze(program, ctx)
    if interp.degraded:
        return 0.0
    weights = instruction_weights(interp.cfg)
    mass = sum(weights)
    if mass <= 0.0:
        return 0.0
    # Prefix weight mass: cum[i] = weight of instructions [0, i).
    cum = [0.0]
    for w in weights:
        cum.append(cum[-1] + w)
    shared = [a for a in interp.accesses.values()
              if a.is_shared and a.feasible]
    stores = [a for a in shared if a.is_store]
    loads = [a for a in shared if not a.is_store]
    live_mass = 0.0
    for s in stores:
        s_rng = interp.address_range(s.index)
        last = None
        for ld in loads:
            if ld.index <= s.index:
                continue
            l_rng = interp.address_range(ld.index)
            if s_rng.is_top or l_rng.is_top or (
                    l_rng.lo <= s_rng.hi + 3 and s_rng.lo <= l_rng.hi + 3):
                last = ld.index if last is None else max(last, ld.index)
        if last is None:
            continue
        live_mass += _access_bytes(s_rng, smem) * (cum[last + 1] - cum[s.index])
    return min(1.0, live_mass / (smem * mass))


@dataclass(frozen=True)
class StaticStructureReport:
    """Static SMEM vulnerability estimates of one kernel."""

    kernel: str
    #: Live shared bytes-weight / allocated, context-averaged.
    smem_ace: float
    #: Allocated SMEM bits / physical SMEM bits (0 when no SMEM is used).
    smem_derating: float
    #: The SMEM headline: ``smem_ace * smem_derating``.
    avf_smem: float

    def summary(self) -> str:
        return (
            f"{self.kernel}: AVF-SMEM(est) = {self.avf_smem:.4%} "
            f"(ACE {self.smem_ace:.1%} x DF {self.smem_derating:.4f})"
        )


def static_structure_report(
    program: Program,
    contexts,
    config: GPUConfig | None = None,
) -> StaticStructureReport:
    """SMEM estimates of one kernel over its launch contexts.

    Context-dependent quantities (SMEM ACE, derating) are averaged over
    the distinct launch shapes in ``contexts``
    (:class:`~repro.staticanalysis.launches.LaunchContext`); like the
    RF estimator this is injection-free — geometry is a property of the
    launch, not of any fault.
    """
    contexts = tuple(contexts)
    smem_ace = 0.0
    df = 0.0
    if contexts:
        smem_ace = sum(static_smem_ace(program, c)
                       for c in contexts) / len(contexts)
        if config is not None:
            df = sum(smem_derating(c.smem_bytes, c.nctas, config)
                     for c in contexts) / len(contexts)
        else:
            df = 1.0 if any(c.smem_bytes for c in contexts) else 0.0
    return StaticStructureReport(
        kernel=program.name,
        smem_ace=smem_ace,
        smem_derating=df,
        avf_smem=smem_ace * df,
    )
