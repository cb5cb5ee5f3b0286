"""Static vulnerability estimators: weights, ACE fraction, reuse."""

import pytest

from repro.arch.structures import Structure, rf_allocation_bits, rf_derating, structure_bits
from repro.isa import assemble
from repro.staticanalysis import (
    GUARD_PROB,
    LOOP_WEIGHT,
    build_cfg,
    instruction_weights,
    static_avf_rf,
    static_smem_ace,
    static_structure_report,
    static_vf_report,
)
from repro.staticanalysis.launches import LaunchContext


def test_weights_scale_with_loop_depth():
    prog = assemble(
        """
        MOV R1, 0x0
    top:
        IADD R1, R1, 0x1
        ISETP.LT P0, R1, 0xa
    @P0 BRA top
        EXIT
    """
    )
    weights = instruction_weights(build_cfg(prog))
    assert weights[0] == 1.0
    assert weights[1] == LOOP_WEIGHT
    assert weights[2] == LOOP_WEIGHT
    # Predicated loop-tail branch: loop weight times the guard probability.
    assert weights[3] == LOOP_WEIGHT * GUARD_PROB
    assert weights[4] == 1.0


def test_weights_zero_for_unreachable():
    prog = assemble("BRA end\nMOV R9, 0x1\nend:\nEXIT")
    weights = instruction_weights(build_cfg(prog))
    assert weights[1] == 0.0


def test_report_fields_consistent():
    prog = assemble(
        """
        MOV R1, 0x1
        MOV R2, 0x2
        IADD R3, R1, R2
        MOV R4, 0x0
        ST [R4], R3
        EXIT
    """
    )
    report = static_vf_report(prog)
    assert report.num_instructions == len(prog)
    assert report.num_regs == prog.num_regs
    assert 0.0 < report.ace_fraction <= 1.0
    assert report.derating == 1.0
    assert report.avf_rf == pytest.approx(report.ace_fraction)
    assert report.max_live_regs >= round(report.mean_live_regs)
    assert report.dead_write_fraction == 0.0
    assert report.mean_reads_per_write > 0.0
    assert prog.name in report.summary()


def test_dead_writes_lower_reuse():
    dead = static_vf_report(assemble(
        """
        MOV R1, 0x1
        MOV R1, 0x2
        MOV R2, 0x0
        ST [R2], R1
        EXIT
    """
    ))
    assert dead.dead_write_fraction > 0.0


def test_higher_live_pressure_raises_ace():
    low = static_vf_report(assemble(
        """
        MOV R1, 0x1
        MOV R2, 0x0
        ST [R2], R1
        EXIT
    """
    ))
    # Same register count, but all values stay live until the very end.
    high = static_vf_report(assemble(
        """
        MOV R1, 0x1
        MOV R2, 0x2
        IADD R1, R1, R2
        MOV R2, 0x0
        ST [R2], R1
        EXIT
    """
    ))
    assert high.ace_fraction > low.ace_fraction


def test_rf_allocation_and_derating(gv100):
    bits = rf_allocation_bits(16, 1024)
    assert bits == 16 * 32 * 1024
    df_small = rf_derating(16, 256, gv100)
    df_large = rf_derating(16, 4096, gv100)
    assert 0.0 < df_small < df_large <= 1.0
    # Saturates at the physical register file size.
    huge = rf_derating(256, 10**9, gv100)
    assert huge == 1.0
    assert structure_bits(Structure.RF, gv100) > 0


def test_static_avf_rf_uses_launch_geometry(gv100):
    prog = assemble(
        """
        MOV R1, 0x1
        MOV R2, 0x0
        ST [R2], R1
        EXIT
    """
    )
    unscaled = static_avf_rf(prog)
    scaled = static_avf_rf(prog, config=gv100, threads=256)
    df = rf_derating(prog.num_regs, 256, gv100)
    assert scaled == pytest.approx(unscaled * df)
    # Explicit derating wins over geometry.
    report = static_vf_report(prog, derating=0.25)
    assert report.avf_rf == pytest.approx(report.ace_fraction * 0.25)


# ------------------------------------------------- SMEM / control estimates

_SMEM_ROUNDTRIP = assemble(
    """
    S2R R0, SR_TID.X
    SHL R1, R0, 0x2
    STS [R1], R0
    BAR.SYNC
    LDS R2, [R1]
    MOV R3, 0x0
    ST [R3], R2
    EXIT
""",
    name="smem_rt",
)

_SMEM_WRITE_ONLY = assemble(
    """
    S2R R0, SR_TID.X
    SHL R1, R0, 0x2
    STS [R1], R0
    EXIT
""",
    name="smem_wo",
)


def _ctx(prog, smem_bytes=128):
    return LaunchContext(kernel=prog.name, grid=(1, 1), block=(32, 1),
                         const_bank=(), buffers=((0, 128),),
                         smem_bytes=smem_bytes)


def test_static_smem_ace_store_to_last_load():
    ace = static_smem_ace(_SMEM_ROUNDTRIP, _ctx(_SMEM_ROUNDTRIP))
    assert 0.0 < ace <= 1.0


def test_static_smem_ace_zero_without_loads():
    # A store nothing ever reads back carries no live interval.
    assert static_smem_ace(_SMEM_WRITE_ONLY, _ctx(_SMEM_WRITE_ONLY)) == 0.0


def test_static_structure_report_composes(gv100):
    ctx = _ctx(_SMEM_ROUNDTRIP)
    report = static_structure_report(_SMEM_ROUNDTRIP, [ctx], gv100)
    assert report.kernel == "smem_rt"
    assert report.avf_smem == pytest.approx(
        report.smem_ace * report.smem_derating)
    assert 0.0 < report.smem_derating <= 1.0
    assert "smem_rt" in report.summary()


def test_static_structure_report_no_smem(gv100):
    prog = assemble("MOV R1, 0x0\nST [R1], R1\nEXIT", name="nosmem")
    report = static_structure_report(prog, [_ctx(prog, smem_bytes=0)], gv100)
    assert report.smem_ace == 0.0
    assert report.smem_derating == 0.0
    assert report.avf_smem == 0.0
