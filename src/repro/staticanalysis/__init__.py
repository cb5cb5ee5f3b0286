"""Static ISA analysis: CFG, dataflow, vulnerability estimators, linter.

This package computes, *without a single fault injection*, the program
properties that drive the paper's injection-derived numbers: live-register
intervals (liveness dataflow), register reuse (def-use chains, the static
analogue of the Fig. 12 analyzer) and the fraction of register-file state
that is architecturally correct-execution (ACE) — an ACE-style AVF-RF
estimate in the spirit of Mukherjee et al. and of Hari et al.'s two-level
SDC model (see PAPERS.md). It also hosts a kernel linter that gives the
hand-written ISA kernels a correctness net beyond golden-output checks.
"""

from repro.staticanalysis.cfg import (
    BasicBlock,
    ControlFlowGraph,
    EXIT_NODE,
    OFF_END,
    build_cfg,
    guard_always_false,
    guard_always_true,
)
from repro.staticanalysis.dataflow import (
    DefUseChains,
    ENTRY_DEF,
    LivenessResult,
    ReachingDefsResult,
    def_use_chains,
    instr_defs,
    instr_kills,
    instr_uses,
    is_pred_var,
    liveness,
    pred_var,
    reaching_definitions,
    var_name,
)
from repro.staticanalysis.lint import (
    Finding,
    LintReport,
    Severity,
    Waiver,
    lint_program,
)
from repro.staticanalysis.vf import (
    GUARD_PROB,
    LOOP_WEIGHT,
    StaticStructureReport,
    StaticVFReport,
    instruction_weights,
    static_avf_rf,
    static_smem_ace,
    static_structure_report,
    static_vf_report,
)

__all__ = [
    "BasicBlock",
    "ControlFlowGraph",
    "EXIT_NODE",
    "OFF_END",
    "build_cfg",
    "guard_always_false",
    "guard_always_true",
    "DefUseChains",
    "ENTRY_DEF",
    "LivenessResult",
    "ReachingDefsResult",
    "def_use_chains",
    "instr_defs",
    "instr_kills",
    "instr_uses",
    "is_pred_var",
    "liveness",
    "pred_var",
    "reaching_definitions",
    "var_name",
    "Finding",
    "LintReport",
    "Severity",
    "Waiver",
    "lint_program",
    "GUARD_PROB",
    "LOOP_WEIGHT",
    "StaticStructureReport",
    "StaticVFReport",
    "instruction_weights",
    "static_avf_rf",
    "static_smem_ace",
    "static_structure_report",
    "static_vf_report",
]
