"""Extension fault models: multi-bit, ECC, source injection, PVF."""

import numpy as np
import pytest

from repro.arch.structures import Structure
from repro.fi import CampaignSpec, run_campaign
from repro.fi.gpufi import ECCUncorrectableError, MicroarchFaultPlan
from repro.fi.pvf import pvf_from_campaign
from repro.fi.svf_modes import SourceFaultPlan, SourceInjector
from repro.isa import assemble
from repro.kernels import get_application
from repro.sim import GPU


def test_double_bit_flip_touches_two_bits(gv100):
    gpu = GPU(gv100)
    plan = MicroarchFaultPlan(0, 0, Structure.L2, seed=3, num_bits=2)
    before = gpu.l2.data.copy()
    plan.fire(gpu)
    diff = before ^ gpu.l2.data
    assert int(np.bitwise_count(diff).sum()) == 2


def test_ecc_corrects_single_bit(gv100):
    gpu = GPU(gv100)
    plan = MicroarchFaultPlan(0, 0, Structure.L2, seed=3, ecc_protected=True)
    assert plan.corrected_by_ecc
    before = gpu.l2.data.copy()
    plan.fire(gpu)
    assert np.array_equal(before, gpu.l2.data)  # nothing flipped
    assert "ECC corrected" in plan.description


def test_ecc_detects_double_bit_as_due(gv100):
    gpu = GPU(gv100)
    plan = MicroarchFaultPlan(0, 0, Structure.L2, seed=3, num_bits=2,
                              ecc_protected=True)
    with pytest.raises(ECCUncorrectableError):
        plan.fire(gpu)


def test_ecc_campaign_all_masked(tmp_cache, gv100):
    app = get_application("va")
    result = run_campaign(CampaignSpec(
        level="uarch", app=app, kernel="va_k1", structure=Structure.RF,
        config=gv100, trials=10, seed=1, use_cache=False,
        ecc_protected=True))
    assert result.counts.masked == 10


@pytest.mark.parametrize("ecc", [True, False])
def test_trials_ended_at_convergence_roll_up_every_launch(ecc, tmp_path,
                                                          gv100):
    """A trial that ends at convergence, ECC-corrected before the first
    launch or once its L2 fault has died, rolls up the golden launches it
    did not run as replayed, and the report counts it."""
    from repro.telemetry.events import TelemetrySession, read_events
    from repro.telemetry.metrics import render_summary, summarize_events

    session = TelemetrySession(tmp_path / "events.jsonl")
    run_campaign(CampaignSpec(
        level="uarch", app="sradv1", structure=Structure.L2, config=gv100,
        trials=8, seed=1, use_cache=False, ecc_protected=ecc),
        telemetry_session=session)
    session.close()
    summary = summarize_events(read_events(tmp_path / "events.jsonl"))
    rolls = summary.kernels.values()
    assert sum(r["launches"] for r in rolls) == 8 * 10
    if ecc:
        assert summary.trials_converged == 8
        assert sum(r["replayed"] for r in rolls) == 8 * 10
        assert sum(r["simulated_cycles"] for r in rolls) == 0
    assert 0 < summary.trials_converged <= 8
    assert (f"trials ended at convergence {summary.trials_converged} of 8 "
            "trials") in render_summary(summary)


def test_multibit_campaign_runs(tmp_cache, gv100):
    app = get_application("va")
    base = CampaignSpec(level="uarch", app=app, kernel="va_k1",
                        structure=Structure.RF, config=gv100, trials=30,
                        seed=4, use_cache=False)
    r1 = run_campaign(base)
    r2 = run_campaign(base.derive(num_bits=2))
    # Paper: single- and multi-bit flips behave similarly (no wild jump).
    assert abs(r1.counts.failure_rate - r2.counts.failure_rate) < 0.5


def test_source_transient_restores_register(gv100):
    """A transient source fault must corrupt the consumer only once."""
    prog = assemble(
        """
        S2R R0, SR_TID.X
        IADD R1, R0, 0x0       # R1 = tid (dest candidates 32..63)
        IADD R2, R1, 0x0       # reads R1 (source candidate window)
        IADD R3, R1, 0x0       # reads R1 again
        SHL R4, R0, 0x2
        IADD R4, R4, c[0x0][0x0]
        ST [R4], R2
        IADD R5, R4, 0x80
        ST [R5], R3
        EXIT
    """,
        name="t",
    )
    gpu = GPU(gv100)
    out = gpu.malloc(4 * 64)
    # Source candidates: IADD R2 reads R1 (32 lanes) at counter 0..31 after
    # first injectable... ordering: we pick the lane-0 read of instruction
    # "IADD R2, R1, 0" -> the first instruction with a register source is
    # IADD R1, R0 (reads R0): counter 0..31; then IADD R2 (reads R1): 32..63.
    plan = SourceFaultPlan(0, 32, bit=4, sticky=False)
    gpu.sw_injector = SourceInjector(plan)
    gpu.launch(prog, (1, 1), (32, 1), [out])
    got = gpu.memcpy_dtoh(out, np.uint32, 64)
    assert plan.fired
    assert got[0] == 0 ^ 16  # corrupted read
    assert got[32] == 0  # restored before the second read


def test_source_sticky_persists(gv100):
    prog = assemble(
        """
        S2R R0, SR_TID.X
        IADD R1, R0, 0x0
        IADD R2, R1, 0x0
        IADD R3, R1, 0x0
        SHL R4, R0, 0x2
        IADD R4, R4, c[0x0][0x0]
        ST [R4], R2
        IADD R5, R4, 0x80
        ST [R5], R3
        EXIT
    """,
        name="t",
    )
    gpu = GPU(gv100)
    out = gpu.malloc(4 * 64)
    plan = SourceFaultPlan(0, 32, bit=4, sticky=True)
    gpu.sw_injector = SourceInjector(plan)
    gpu.launch(prog, (1, 1), (32, 1), [out])
    got = gpu.memcpy_dtoh(out, np.uint32, 64)
    assert got[0] == 16 and got[32] == 16  # both reads corrupted


def test_source_campaign_runs(tmp_cache, v100):
    app = get_application("va")
    transient = run_campaign(CampaignSpec(
        level="src", app=app, kernel="va_k1", config=v100, trials=25,
        seed=7, use_cache=False))
    sticky = run_campaign(CampaignSpec(
        level="src-sticky", app=app, kernel="va_k1", config=v100,
        trials=25, seed=7, use_cache=False))
    assert transient.counts.total == sticky.counts.total == 25
    assert transient.injector == "sw-src-transient"
    assert sticky.injector == "sw-src-sticky"


def test_pvf_decomposition(tmp_cache, gv100):
    app = get_application("hotspot")
    result = run_campaign(CampaignSpec(
        level="uarch", app=app, kernel="hotspot_k1", structure=Structure.RF,
        config=gv100, trials=30, seed=2, use_cache=False))
    pvf = pvf_from_campaign(result)
    assert pvf.pvf == pytest.approx(result.counts.failure_rate)
    assert pvf.avf_rf == pytest.approx(
        result.counts.failure_rate * result.derating_factor
    )
    assert pvf.pvf >= pvf.avf_rf  # DF <= 1: PVF upper-bounds AVF-RF


def test_pvf_rejects_wrong_campaign(tmp_cache, v100):
    app = get_application("va")
    sw = run_campaign(CampaignSpec(level="sw", app=app, kernel="va_k1",
                                   config=v100, trials=5, use_cache=False))
    with pytest.raises(ValueError):
        pvf_from_campaign(sw)
