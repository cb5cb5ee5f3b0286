"""Iterative dataflow framework over the CFG, plus its three instantiations.

The framework is deliberately small: programs are at most a few hundred
instructions, so per-instruction sets and a round-robin worklist converge in
a handful of passes. What matters for correctness on this ISA is
*predication*: a ``@P0``-guarded write **may** not happen, so it generates a
definition (for reaching definitions) and a use of its guard, but it never
*kills* — only an unguarded (``@PT``) write is a must-kill. This mirrors the
executor, where every ALU closure writes with ``np.copyto`` under the guard
mask and leaves the other lanes' values intact.

Variables are small ints: GPR ``Rn`` is ``n``; predicate ``Pn`` is
``PRED_BASE + n`` (see :func:`pred_var`). RZ and PT are hard-wired and never
appear as variables.

Instantiations:

* :func:`liveness` — backward may-analysis; live GPR/predicate sets per
  instruction, the input of the ACE-style AVF-RF estimator.
* :func:`reaching_definitions` — forward may-analysis with an ``ENTRY_DEF``
  pseudo-definition per variable, which is how the linter finds reads of
  uninitialized registers.
* :func:`def_use_chains` — built on reaching definitions; drives the
  dead-write lint and the static register-reuse (Fig. 12 analogue)
  estimator.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.instruction import Instruction
from repro.isa.program import Program
from repro.staticanalysis.cfg import (
    ControlFlowGraph,
    build_cfg,
    guard_always_true,
)

#: Variable-id base for predicates (GPR ids are 0..254, so 256+ is free).
PRED_BASE = 256

#: Pseudo definition site: "value at kernel entry" (uninitialized).
ENTRY_DEF = -1


def pred_var(index: int) -> int:
    """Variable id of predicate ``P<index>``."""
    return PRED_BASE + index


def is_pred_var(var: int) -> bool:
    return var >= PRED_BASE


def var_name(var: int) -> str:
    """Assembly spelling of a variable id (``R5`` / ``P3``)."""
    if is_pred_var(var):
        return f"P{var - PRED_BASE}"
    return f"R{var}"


def instr_uses(instr: Instruction) -> tuple[int, ...]:
    """Variables this instruction may read (GPR sources, predicate sources,
    and its guard). PT/RZ are constants, never uses."""
    uses = [*instr.source_registers()]
    uses.extend(pred_var(p) for p in instr.source_predicates())
    if not guard_always_true(instr) and instr.guard_pred != 7:
        uses.append(pred_var(instr.guard_pred))
    out: list[int] = []
    for v in uses:
        if v not in out:
            out.append(v)
    return tuple(out)


def instr_defs(instr: Instruction) -> tuple[int, ...]:
    """Variables this instruction may write (its GPR and/or predicate dst)."""
    defs = [*instr.dest_registers()]
    dp = instr.dest_predicate()
    if dp is not None:
        defs.append(pred_var(dp))
    return tuple(defs)


def instr_kills(instr: Instruction) -> tuple[int, ...]:
    """Variables this instruction *must* write: defs of unguarded
    instructions only. A predicated write leaves unguarded lanes' old value
    visible, so it cannot kill a definition or end a live range."""
    if guard_always_true(instr):
        return instr_defs(instr)
    return ()


# --------------------------------------------------------------------------- #
# Liveness (backward, may)
# --------------------------------------------------------------------------- #
@dataclass
class LivenessResult:
    """Per-instruction live-variable sets (GPRs and predicates).

    ``reachable[i]`` says whether instruction ``i`` lies in a block reachable
    from the entry. The analysis skips the other blocks, so their live sets
    are empty because they were never analysed, not because nothing is live
    there.
    """

    cfg: ControlFlowGraph
    live_in: list[frozenset[int]]
    live_out: list[frozenset[int]]
    reachable: list[bool]

    def live_regs_in(self, index: int) -> int:
        """Number of live *GPRs* entering instruction ``index``."""
        return sum(1 for v in self.live_in[index] if not is_pred_var(v))

    def live_in_names(self, index: int) -> list[str]:
        return sorted(
            (var_name(v) for v in self.live_in[index]),
            key=lambda n: (n[0] != "R", int(n[1:])),
        )


def liveness(target: Program | ControlFlowGraph) -> LivenessResult:
    """Backward may-liveness. Virtual successors (EXIT / off-end) contribute
    empty live-out: lane termination (and the off-end crash) discards all
    register state, the derating fact the AVF estimators lean on."""
    cfg = target if isinstance(target, ControlFlowGraph) else build_cfg(target)
    program = cfg.program
    n = len(program)
    live_in: list[set[int]] = [set() for _ in range(n)]
    live_out: list[set[int]] = [set() for _ in range(n)]
    reachable = cfg.reachable_blocks()

    changed = True
    while changed:
        changed = False
        # Reverse block order converges quickly for mostly-forward CFGs.
        for block in reversed(cfg.blocks):
            if block.index not in reachable:
                continue
            out: set[int] = set()
            for s in block.successors:
                if s >= 0:
                    out |= live_in[cfg.blocks[s].start]
            for i in range(block.end - 1, block.start - 1, -1):
                instr = program[i]
                if live_out[i] != out:
                    live_out[i] = set(out)
                    changed = True
                new_in = (out - set(instr_kills(instr))) | set(instr_uses(instr))
                if live_in[i] != new_in:
                    live_in[i] = new_in
                    changed = True
                out = new_in
    return LivenessResult(
        cfg=cfg,
        live_in=[frozenset(s) for s in live_in],
        live_out=[frozenset(s) for s in live_out],
        reachable=[cfg.block_of_instr[i] in reachable for i in range(n)],
    )


# --------------------------------------------------------------------------- #
# Reaching definitions (forward, may)
# --------------------------------------------------------------------------- #
@dataclass
class ReachingDefsResult:
    """Per-instruction reaching definitions: ``in_defs[i][var]`` is the set
    of instruction indices whose write of ``var`` may still be visible when
    instruction ``i`` issues (``ENTRY_DEF`` = never written on some path)."""

    cfg: ControlFlowGraph
    in_defs: list[dict[int, frozenset[int]]]

    def defs_of(self, index: int, var: int) -> frozenset[int]:
        return self.in_defs[index].get(var, frozenset({ENTRY_DEF}))


def reaching_definitions(target: Program | ControlFlowGraph) -> ReachingDefsResult:
    """Forward may-analysis. Every variable referenced anywhere starts with
    the ``ENTRY_DEF`` pseudo-definition at block 0; an unguarded write kills
    all prior definitions of its variable, a guarded one only adds its own."""
    cfg = target if isinstance(target, ControlFlowGraph) else build_cfg(target)
    program = cfg.program
    n = len(program)
    all_vars: set[int] = set()
    for instr in program.instructions:
        all_vars.update(instr_uses(instr))
        all_vars.update(instr_defs(instr))

    entry_state = {v: frozenset({ENTRY_DEF}) for v in all_vars}
    # Block-entry states; instruction-level states are rebuilt on the fly.
    block_in: dict[int, dict[int, frozenset[int]]] = {0: entry_state}
    reachable = cfg.reachable_blocks()

    def transfer(state: dict[int, frozenset[int]], i: int) -> dict[int, frozenset[int]]:
        instr = program[i]
        kills = instr_kills(instr)
        defs = instr_defs(instr)
        if not defs:
            return state
        state = dict(state)
        for v in kills:
            state[v] = frozenset({i})
        for v in defs:
            if v not in kills:
                state[v] = state.get(v, frozenset({ENTRY_DEF})) | {i}
        return state

    changed = True
    while changed:
        changed = False
        for block in cfg.blocks:
            if block.index not in reachable or block.index not in block_in:
                continue
            state = block_in[block.index]
            for i in range(block.start, block.end):
                state = transfer(state, i)
            for s in block.successors:
                if s < 0:
                    continue
                prev = block_in.get(s)
                if prev is None:
                    block_in[s] = dict(state)
                    changed = True
                    continue
                merged = dict(prev)
                grew = False
                for v, sites in state.items():
                    old = merged.get(v)
                    if old is None:
                        merged[v] = sites
                        grew = True
                    elif not sites <= old:
                        merged[v] = old | sites
                        grew = True
                if grew:
                    block_in[s] = merged
                    changed = True

    in_defs: list[dict[int, frozenset[int]]] = [dict() for _ in range(n)]
    for block in cfg.blocks:
        if block.index not in reachable or block.index not in block_in:
            continue
        state = block_in[block.index]
        for i in range(block.start, block.end):
            in_defs[i] = state
            state = transfer(state, i)
    return ReachingDefsResult(cfg=cfg, in_defs=in_defs)


# --------------------------------------------------------------------------- #
# Def-use chains
# --------------------------------------------------------------------------- #
@dataclass
class DefUseChains:
    """Bidirectional def/use maps over one program.

    ``uses_of[(d, var)]`` lists the instructions that may read the value
    ``d`` wrote into ``var``; ``defs_of[(u, var)]`` lists the definition
    sites (possibly ``ENTRY_DEF``) whose value instruction ``u`` may read.
    Only instructions in reachable blocks participate.
    """

    cfg: ControlFlowGraph
    uses_of: dict[tuple[int, int], tuple[int, ...]]
    defs_of: dict[tuple[int, int], frozenset[int]]

    def dead_defs(self) -> list[tuple[int, int]]:
        """Definition sites whose value is never read: ``(instr, var)``."""
        return [site for site, uses in self.uses_of.items() if not uses]

    def reads_per_def(self, site: tuple[int, int]) -> int:
        return len(self.uses_of.get(site, ()))


def def_use_chains(target: Program | ControlFlowGraph) -> DefUseChains:
    cfg = target if isinstance(target, ControlFlowGraph) else build_cfg(target)
    program = cfg.program
    rd = reaching_definitions(cfg)
    reachable = cfg.reachable_blocks()
    uses_of: dict[tuple[int, int], set[int]] = {}
    defs_of: dict[tuple[int, int], frozenset[int]] = {}
    for block in cfg.blocks:
        if block.index not in reachable:
            continue
        for i in range(block.start, block.end):
            instr = program[i]
            for v in instr_defs(instr):
                uses_of.setdefault((i, v), set())
            for v in instr_uses(instr):
                sites = rd.defs_of(i, v)
                defs_of[(i, v)] = sites
                for d in sites:
                    if d != ENTRY_DEF:
                        uses_of.setdefault((d, v), set()).add(i)
    return DefUseChains(
        cfg=cfg,
        uses_of={k: tuple(sorted(v)) for k, v in uses_of.items()},
        defs_of=defs_of,
    )
