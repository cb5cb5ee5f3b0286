"""Thread-level Triple Modular Redundancy (the paper's Figure 6 workflow).

:class:`TMRHarness`, the three-copy setting of
:class:`~repro.hardening.redundancy.ReplicaHarness`, transparently hardens
any application written against the ``DeviceHarness`` API:

1. **Pre-processing** — every allocation/upload is triplicated; the
   application sees copy 0, the harness tracks the shadows.
2. **Kernel execution** — every launch runs three times, once per data
   copy (thread triplication realised as copy-sequential execution: the
   same total thread count, the same ~3x execution-time penalty).
3. **Post-processing** — after each launch, a *device-side* majority-vote
   kernel reconciles every declared output buffer, writing the bitwise
   majority ``(a&b)|(a&c)|(b&c)`` back to all three copies and raising a
   sticky flag on any three-way word disagreement. The flag is checked at
   ``finalize``; a set flag is a DUE (:class:`TMRVoteError`), per Figure 6.

Because the vote runs on the device, its stores leave dirty L2 lines holding
the final output — the hardware-only SDC window the paper identifies as the
reason AVF still sees SDCs after hardening while SVF claims they are gone.
Vote launches are named ``<kernel>@vote`` so per-kernel campaigns treat the
vote as part of the hardened kernel they protect.
"""

from __future__ import annotations

from repro.errors import ExecutionError
from repro.hardening.redundancy import POST_BLOCK, ReplicaHarness
from repro.isa import assemble


class TMRVoteError(ExecutionError):
    """Three-way disagreement detected by a majority vote (DUE)."""


#: Word-wise majority vote over three buffer copies.
#: params: c[0x0][0x0..0x8] = copies A0/A1/A2, c[0x0][0xc] = flag buffer,
#:         c[0x0][0x10] = word count.
_VOTE_ASM = """
    S2R R0, SR_CTAID.X
    S2R R1, SR_TID.X
    S2R R2, SR_NTID.X
    IMAD R3, R0, R2, R1
    ISETP.GE P0, R3, c[0x0][0x10]
@P0 EXIT
    SHL R4, R3, 0x2
    IADD R5, R4, c[0x0][0x0]
    IADD R6, R4, c[0x0][0x4]
    IADD R7, R4, c[0x0][0x8]
    LD R8, [R5]
    LD R9, [R6]
    LD R10, [R7]
    AND R11, R8, R9
    AND R12, R8, R10
    AND R13, R9, R10
    OR R14, R11, R12
    OR R14, R14, R13
    ISETP.NE P1, R8, R9
    ISETP.NE P2, R8, R10
    ISETP.NE P3, R9, R10
    PSETP.AND P1, P1, P2
    PSETP.AND P1, P1, P3
    MOV R15, 0x1
    IADD R16, RZ, c[0x0][0xc]
@P1 ST [R16], R15
    ST [R5], R14
    ST [R6], R14
    ST [R7], R14
    EXIT
"""

VOTE_PROGRAM = assemble(_VOTE_ASM, name="tmr_vote")

_VOTE_BLOCK = POST_BLOCK


class TMRHarness(ReplicaHarness):
    """Device harness applying thread-level TMR to every kernel launch."""

    copies = 3
    post_program = VOTE_PROGRAM
    post_step = "vote"
    post_label = "TMR vote"
    due_error = TMRVoteError
    due_message = "majority vote failed: three-way disagreement"


def tmr_harness_factory() -> TMRHarness:
    """Harness factory for :func:`repro.fi.campaign.run_campaign`."""
    return TMRHarness()
