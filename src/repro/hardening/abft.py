"""Algorithm-based fault tolerance for GEMM: checksum, locate, correct.

Huang-Abraham style ABFT specialized to the launch granularity of the
:class:`~repro.kernels.base.DeviceHarness` API. After every launch of a
kernel with a registered GEMM parameter signature (``C[m,n] = A[m,k] @
B[k,n]``), :class:`ABFTHarness` runs a four-step device-side check over
the freshly-written product:

1. ``<kernel>@abft-sum`` — input checksums: ``asum[k] = sum_i A[i,k]``
   and ``bsum[k] = sum_j B[k,j]`` (O(K*(M+N)) work, the reason ABFT is
   cheaper than re-execution).
2. ``<kernel>@abft-row`` — row test: ``sum_j C[i,j]`` against
   ``sum_k A[i,k]*bsum[k]``; a row whose difference exceeds the
   floating-point tolerance is flagged in ``rowbad``.
3. ``<kernel>@abft-col`` — column test, symmetric, into ``colbad``.
4. ``<kernel>@abft-fix`` — arbitration: no flags means clean; exactly
   one flagged row *and* one flagged column locates a single corrupted
   element, which is **recomputed in place** with the same ascending-k
   FFMA order as ``gemm_tile`` (so the corrected element is bit-identical
   to an uncorrupted run and the trial classifies MASKED); any other
   flag pattern raises the sticky DUE flag, the same
   :class:`~repro.hardening.redundancy.DeviceFlag` TMR and DMR use,
   checked at :meth:`ABFTHarness.finalize`.

Float32 checksums are inexact, so the row/column tests use a relative +
absolute tolerance (:data:`EPS_REL`/:data:`EPS_ABS`) sized well above
accumulated round-off on clean data and well below any corruption that
survives the severity registry's quality thresholds: corruptions smaller
than the tolerance are exactly the ones the quality metrics already rate
tolerable. Kernels without a registered signature pass through
unprotected — ABFT is an algorithm-specific scheme by construction.

Check launches use the ``<kernel>@...`` suffix convention: part of the
hardened unit for microarchitecture-level campaigns (a fault in the
checksum pipeline itself can raise a false DUE — a real ABFT cost),
invisible to the software-level injector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ExecutionError
from repro.hardening.redundancy import DeviceFlag
from repro.isa import assemble
from repro.kernels.base import DeviceHarness
from repro.sim.gpu import GPU, Buffer


class ABFTCheckError(ExecutionError):
    """Checksum discrepancy that could not be located/corrected (DUE)."""


#: Row/column test tolerance: ``|lhs - rhs| > EPS_REL*(|lhs|+|rhs|) +
#: EPS_ABS`` flags a discrepancy.
EPS_REL = np.float32(1e-5)
EPS_ABS = np.float32(1e-5)


@dataclass(frozen=True)
class GemmSignature:
    """Parameter indices of a GEMM-shaped kernel (``C = A @ B``)."""

    a: int  # param index of the A buffer [m, k]
    b: int  # param index of the B buffer [k, n]
    c: int  # param index of the C buffer [m, n]
    m: int  # param index of the row count
    n: int  # param index of the column count
    k: int  # param index of the inner dimension


#: kernel name -> parameter signature of its GEMM launches. Kernels not
#: listed here run unprotected under the ABFT harness.
GEMM_SIGNATURES: dict[str, GemmSignature] = {}


def register_gemm_signature(kernel: str, signature: GemmSignature
                            ) -> GemmSignature:
    """Register (or replace) the GEMM parameter signature of one kernel."""
    GEMM_SIGNATURES[kernel] = signature
    return signature


# The nn suite's tiled GEMM: params (A, B, C, M, N, K) — see
# repro.kernels.nn.gemm.launch_gemm.
register_gemm_signature("gemm_tile", GemmSignature(0, 1, 2, 3, 4, 5))


#: Input checksums: asum[k] = sum_i A[i,k], bsum[k] = sum_j B[k,j].
#: params: 0x0=A 0x4=B 0x8=asum 0xc=bsum 0x10=M 0x14=N 0x18=K
_SUM_ASM = """
    S2R R0, SR_CTAID.X
    S2R R1, SR_NTID.X
    S2R R2, SR_TID.X
    IMAD R3, R0, R1, R2
    ISETP.GE P0, R3, c[0x0][0x18]
@P0 EXIT
    SHL R4, R3, 0x2
    MOV R5, RZ
    MOV R6, RZ
    IADD R7, R4, c[0x0][0x0]
    MOV R8, c[0x0][0x18]
    SHL R8, R8, 0x2
aloop:
    LD R9, [R7]
    FADD R5, R5, R9
    IADD R7, R7, R8
    IADD R6, R6, 0x1
    ISETP.LT P0, R6, c[0x0][0x10]
@P0 BRA aloop
    IADD R10, R4, c[0x0][0x8]
    ST [R10], R5
    MOV R5, RZ
    MOV R6, RZ
    IMAD R7, R3, c[0x0][0x14], RZ
    SHL R7, R7, 0x2
    IADD R7, R7, c[0x0][0x4]
bloop:
    LD R9, [R7]
    FADD R5, R5, R9
    IADD R7, R7, 0x4
    IADD R6, R6, 0x1
    ISETP.LT P0, R6, c[0x0][0x14]
@P0 BRA bloop
    IADD R10, R4, c[0x0][0xc]
    ST [R10], R5
    EXIT
"""

#: Row test: |sum_j C[i,j] - sum_k A[i,k]*bsum[k]| > tol -> rowbad[i]=1.
#: params: 0x0=C 0x4=A 0x8=bsum 0xc=rowbad 0x10=M 0x14=N 0x18=K
#:         0x1c=eps_rel 0x20=eps_abs
_ROW_ASM = """
    S2R R0, SR_CTAID.X
    S2R R1, SR_NTID.X
    S2R R2, SR_TID.X
    IMAD R3, R0, R1, R2
    ISETP.GE P0, R3, c[0x0][0x10]
@P0 EXIT
    MOV R4, RZ
    MOV R5, RZ
    IMAD R6, R3, c[0x0][0x14], RZ
    SHL R6, R6, 0x2
    IADD R6, R6, c[0x0][0x0]
lloop:
    LD R7, [R6]
    FADD R4, R4, R7
    IADD R6, R6, 0x4
    IADD R5, R5, 0x1
    ISETP.LT P0, R5, c[0x0][0x14]
@P0 BRA lloop
    MOV R8, RZ
    MOV R5, RZ
    IMAD R9, R3, c[0x0][0x18], RZ
    SHL R9, R9, 0x2
    IADD R9, R9, c[0x0][0x4]
    MOV R10, c[0x0][0x8]
rloop:
    LD R11, [R9]
    LD R12, [R10]
    FFMA R8, R11, R12, R8
    IADD R9, R9, 0x4
    IADD R10, R10, 0x4
    IADD R5, R5, 0x1
    ISETP.LT P0, R5, c[0x0][0x18]
@P0 BRA rloop
    FABS R13, R4
    FABS R14, R8
    FADD R13, R13, R14
    FMUL R13, R13, c[0x0][0x1c]
    FADD R13, R13, c[0x0][0x20]
    FSUB R15, R4, R8
    FABS R15, R15
    FSETP.GT P1, R15, R13
    SHL R16, R3, 0x2
    IADD R16, R16, c[0x0][0xc]
    MOV R17, 0x1
@P1 ST [R16], R17
    EXIT
"""

#: Column test: |sum_i C[i,j] - sum_k asum[k]*B[k,j]| > tol -> colbad[j]=1.
#: params: 0x0=C 0x4=B 0x8=asum 0xc=colbad 0x10=M 0x14=N 0x18=K
#:         0x1c=eps_rel 0x20=eps_abs
_COL_ASM = """
    S2R R0, SR_CTAID.X
    S2R R1, SR_NTID.X
    S2R R2, SR_TID.X
    IMAD R3, R0, R1, R2
    ISETP.GE P0, R3, c[0x0][0x14]
@P0 EXIT
    MOV R18, c[0x0][0x14]
    SHL R18, R18, 0x2
    MOV R4, RZ
    MOV R5, RZ
    SHL R6, R3, 0x2
    IADD R6, R6, c[0x0][0x0]
lloop:
    LD R7, [R6]
    FADD R4, R4, R7
    IADD R6, R6, R18
    IADD R5, R5, 0x1
    ISETP.LT P0, R5, c[0x0][0x10]
@P0 BRA lloop
    MOV R8, RZ
    MOV R5, RZ
    SHL R9, R3, 0x2
    IADD R9, R9, c[0x0][0x4]
    MOV R10, c[0x0][0x8]
rloop:
    LD R11, [R10]
    LD R12, [R9]
    FFMA R8, R11, R12, R8
    IADD R9, R9, R18
    IADD R10, R10, 0x4
    IADD R5, R5, 0x1
    ISETP.LT P0, R5, c[0x0][0x18]
@P0 BRA rloop
    FABS R13, R4
    FABS R14, R8
    FADD R13, R13, R14
    FMUL R13, R13, c[0x0][0x1c]
    FADD R13, R13, c[0x0][0x20]
    FSUB R15, R4, R8
    FABS R15, R15
    FSETP.GT P1, R15, R13
    SHL R16, R3, 0x2
    IADD R16, R16, c[0x0][0xc]
    MOV R17, 0x1
@P1 ST [R16], R17
    EXIT
"""

#: Arbitration/correction: scan the flag vectors; a unique (row, col)
#: intersection is recomputed in place with gemm_tile's ascending-k FFMA
#: order; anything else detected-but-unlocatable raises the sticky flag.
#: params: 0x0=C 0x4=A 0x8=B 0xc=rowbad 0x10=colbad 0x14=flag
#:         0x18=M 0x1c=N 0x20=K
_FIX_ASM = """
    S2R R0, SR_TID.X
    ISETP.GE P0, R0, 0x1
@P0 EXIT
    MOV R1, RZ
    MOV R2, RZ
    MOV R3, RZ
    MOV R4, c[0x0][0xc]
rscan:
    LD R5, [R4]
    ISETP.NE P1, R5, 0x0
@P1 IADD R1, R1, 0x1
@P1 MOV R2, R3
    IADD R4, R4, 0x4
    IADD R3, R3, 0x1
    ISETP.LT P0, R3, c[0x0][0x18]
@P0 BRA rscan
    MOV R6, RZ
    MOV R7, RZ
    MOV R3, RZ
    MOV R4, c[0x0][0x10]
cscan:
    LD R5, [R4]
    ISETP.NE P1, R5, 0x0
@P1 IADD R6, R6, 0x1
@P1 MOV R7, R3
    IADD R4, R4, 0x4
    IADD R3, R3, 0x1
    ISETP.LT P0, R3, c[0x0][0x1c]
@P0 BRA cscan
    IADD R8, R1, R6
    ISETP.EQ P0, R8, 0x0
@P0 EXIT
    ISETP.EQ P1, R1, 0x1
    ISETP.EQ P2, R6, 0x1
    PSETP.AND P1, P1, P2
    PSETP.NOT P2, P1
@P2 MOV R9, 0x1
@P2 IADD R10, RZ, c[0x0][0x14]
@P2 ST [R10], R9
@P2 EXIT
    MOV R11, RZ
    MOV R3, RZ
    IMAD R12, R2, c[0x0][0x20], RZ
    SHL R12, R12, 0x2
    IADD R12, R12, c[0x0][0x4]
    SHL R13, R7, 0x2
    IADD R13, R13, c[0x0][0x8]
    MOV R14, c[0x0][0x1c]
    SHL R14, R14, 0x2
fixloop:
    LD R15, [R12]
    LD R16, [R13]
    FFMA R11, R15, R16, R11
    IADD R12, R12, 0x4
    IADD R13, R13, R14
    IADD R3, R3, 0x1
    ISETP.LT P0, R3, c[0x0][0x20]
@P0 BRA fixloop
    IMAD R17, R2, c[0x0][0x1c], R7
    SHL R17, R17, 0x2
    IADD R17, R17, c[0x0][0x0]
    ST [R17], R11
    EXIT
"""

SUM_PROGRAM = assemble(_SUM_ASM, name="abft_sum")
ROW_PROGRAM = assemble(_ROW_ASM, name="abft_row")
COL_PROGRAM = assemble(_COL_ASM, name="abft_col")
FIX_PROGRAM = assemble(_FIX_ASM, name="abft_fix")

_CHECK_BLOCK = 64


def _grid_1d(n: int) -> tuple[int, int]:
    return (-(-n // _CHECK_BLOCK), 1)


class ABFTHarness(DeviceHarness):
    """Pass-through harness adding checksum checks to GEMM launches."""

    def __init__(self):
        self._flag = DeviceFlag(ABFTCheckError, "ABFT checksum discrepancy (uncorrectable)")

    def launch(self, gpu: GPU, program, grid, block, params=(),
               smem_bytes: int = 0, name: str | None = None,
               outputs: tuple[Buffer, ...] = ()) -> None:
        kernel_name = name or program.name
        gpu.launch(program, grid, block, params, smem_bytes, kernel_name)
        sig = GEMM_SIGNATURES.get(kernel_name)
        if sig is not None:
            self.run_gemm_checks(gpu, params, sig, kernel_name)

    def run_gemm_checks(self, gpu: GPU, params, sig: GemmSignature,
                        kernel_name: str) -> None:
        """Checksum/locate/correct one just-completed GEMM launch."""
        buf_a, buf_b, buf_c = params[sig.a], params[sig.b], params[sig.c]
        m, n, k = int(params[sig.m]), int(params[sig.n]), int(params[sig.k])
        flag = self._flag.buffer(gpu)
        asum = gpu.malloc(4 * k)
        bsum = gpu.malloc(4 * k)
        rowbad = gpu.upload(np.zeros(m, dtype=np.uint32))
        colbad = gpu.upload(np.zeros(n, dtype=np.uint32))
        dims = [m, n, k]
        gpu.launch(
            SUM_PROGRAM, _grid_1d(k), (_CHECK_BLOCK, 1),
            [buf_a, buf_b, asum, bsum, *dims],
            0, f"{kernel_name}@abft-sum",
        )
        gpu.launch(
            ROW_PROGRAM, _grid_1d(m), (_CHECK_BLOCK, 1),
            [buf_c, buf_a, bsum, rowbad, *dims, EPS_REL, EPS_ABS],
            0, f"{kernel_name}@abft-row",
        )
        gpu.launch(
            COL_PROGRAM, _grid_1d(n), (_CHECK_BLOCK, 1),
            [buf_c, buf_b, asum, colbad, *dims, EPS_REL, EPS_ABS],
            0, f"{kernel_name}@abft-col",
        )
        gpu.launch(
            FIX_PROGRAM, (1, 1), (1, 1),
            [buf_c, buf_a, buf_b, rowbad, colbad, flag, *dims],
            0, f"{kernel_name}@abft-fix",
        )

    def finalize(self, gpu: GPU) -> None:
        """Raise a DUE on any unlocatable checksum discrepancy."""
        self._flag.check(gpu)


def abft_harness_factory() -> ABFTHarness:
    """Harness factory for :func:`repro.fi.campaign.run_campaign`."""
    return ABFTHarness()
