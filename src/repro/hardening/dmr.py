"""Selective Dual Modular Redundancy: duplicate, compare, signal DUE.

:class:`DMRHarness` is the two-copy
:class:`~repro.hardening.redundancy.ReplicaHarness`, the detection-only
sibling of :class:`~repro.hardening.tmr.TMRHarness`: every allocation/upload
is duplicated, every launch runs twice (copy-sequential, ~2x the execution
time), and a device-side comparison kernel checks the two copies of each
declared output word-by-word, raising a sticky flag on any mismatch. A set
flag is a DUE (:class:`DMRMismatchError`) at ``finalize``: with only two
copies, duplication-with-comparison detects but can never arbitrate.

Comparison launches are named ``<kernel>@cmp`` so per-kernel campaigns
treat the check as part of the hardened unit at the microarchitecture
level while the software-level injector (which instruments only the
computational kernel) skips it — the same convention as TMR's ``@vote``.
"""

from __future__ import annotations

from repro.errors import ExecutionError
from repro.hardening.redundancy import ReplicaHarness
from repro.isa import assemble


class DMRMismatchError(ExecutionError):
    """The two DMR copies disagree (detected, uncorrectable: DUE)."""


#: Word-wise comparison of two buffer copies.
#: params: c[0x0][0x0/0x4] = copies A0/A1, c[0x0][0x8] = flag buffer,
#:         c[0x0][0xc] = word count.
_CMP_ASM = """
    S2R R0, SR_CTAID.X
    S2R R1, SR_TID.X
    S2R R2, SR_NTID.X
    IMAD R3, R0, R2, R1
    ISETP.GE P0, R3, c[0x0][0xc]
@P0 EXIT
    SHL R4, R3, 0x2
    IADD R5, R4, c[0x0][0x0]
    IADD R6, R4, c[0x0][0x4]
    LD R7, [R5]
    LD R8, [R6]
    ISETP.NE P1, R7, R8
    MOV R9, 0x1
    IADD R10, RZ, c[0x0][0x8]
@P1 ST [R10], R9
    EXIT
"""

CMP_PROGRAM = assemble(_CMP_ASM, name="dmr_cmp")


class DMRHarness(ReplicaHarness):
    """Device harness applying duplication-with-comparison per launch."""

    copies = 2
    post_program = CMP_PROGRAM
    post_step = "cmp"
    post_label = "DMR compare"
    due_error = DMRMismatchError
    due_message = "duplication-with-comparison mismatch"


def dmr_harness_factory() -> DMRHarness:
    """Harness factory for :func:`repro.fi.campaign.run_campaign`."""
    return DMRHarness()
