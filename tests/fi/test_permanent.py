"""Permanent/intermittent fault models, control-state targets and the
hang-safe trial watchdog (``REPRO_HANG_FACTOR``)."""

import json

import numpy as np
import pytest

from repro.arch.structures import Structure
from repro.errors import PlanningError, SimTimeout
from repro.fi import campaign as campaign_mod
from repro.fi import CampaignSpec, run_campaign
from repro.fi.campaign import trial_cycle_budget
from repro.fi.gpufi import (
    MicroarchFaultPlan,
    MicroarchInjector,
    _AliveMaskBit,
    plan_microarch_fault,
)
from repro.fi.journal import list_journals
from repro.isa import assemble
from repro.kernels import get_application
from repro.kernels.base import DeviceHarness, GPUApplication
from repro.sim import GPU
from repro.sim.warp import CTA

LAUNCHES = [
    {"index": 0, "name": "k1", "cycles": 100},
    {"index": 2, "name": "k1", "cycles": 300},
]


def _host_cta(gpu, threads=32, regs=4):
    gpu.kernel = None
    cta = CTA((0, 0, 0), (1, 1, 1), (threads, 1, 1))
    gpu.sms[0].host_cta(cta, regs_per_thread=regs, smem_bytes=0)
    return cta


# ------------------------------------------------------------- planner API

def test_planner_rejects_unknown_model_and_target():
    with pytest.raises(PlanningError, match="unknown fault model"):
        plan_microarch_fault(LAUNCHES, Structure.RF, 0, fault_model="flaky")
    with pytest.raises(PlanningError, match="unknown fault target"):
        plan_microarch_fault(LAUNCHES, Structure.RF, 0, target="alu")


def test_planner_rejects_contradictory_targets():
    with pytest.raises(PlanningError, match="drop the structure"):
        plan_microarch_fault(LAUNCHES, Structure.RF, 0, target="control")
    with pytest.raises(PlanningError, match="ECC protects storage"):
        plan_microarch_fault(LAUNCHES, None, 0, target="control",
                             ecc_protected=True)
    with pytest.raises(PlanningError, match="need a structure"):
        plan_microarch_fault(LAUNCHES, None, 0)


def test_planner_error_names_the_kernel():
    with pytest.raises(PlanningError, match="bfs/bfs_k1"):
        plan_microarch_fault([], Structure.RF, 0, context="bfs/bfs_k1")
    # PlanningError stays a ValueError for callers that predate it.
    with pytest.raises(ValueError):
        plan_microarch_fault([], Structure.RF, 0)


def test_transient_plan_rng_prefix_unchanged_by_new_models():
    """Intermittent-only draws happen after the legacy draws, so a
    transient plan's (launch, cycle) is independent of the model axis."""
    for seed in range(20):
        t = plan_microarch_fault(LAUNCHES, Structure.RF, seed)
        i = plan_microarch_fault(LAUNCHES, Structure.RF, seed,
                                 fault_model="intermittent")
        assert (t.launch_index, t.cycle) == (i.launch_index, i.cycle)
        assert t.duty_period == 0 and i.duty_period > 0


def test_intermittent_plan_draws_are_deterministic():
    a = plan_microarch_fault(LAUNCHES, Structure.RF, 9,
                             fault_model="intermittent")
    b = plan_microarch_fault(LAUNCHES, Structure.RF, 9,
                             fault_model="intermittent")
    assert (a.stuck_value, a.duty_period, a.duty_on) == \
        (b.stuck_value, b.duty_period, b.duty_on)
    assert 32 <= a.duty_period <= 1024
    assert 1 <= a.duty_on < a.duty_period


# ---------------------------------------------------- multi-bit group clamp

def test_bit_groups_clamp_to_their_space():
    plan = MicroarchFaultPlan(0, 0, Structure.RF, seed=0, num_bits=2)
    assert plan._bits(0, 100) == [0, 1]
    # Top-edge draw slides down instead of wrapping to bit 0.
    assert plan._bits(99, 100) == [98, 99]
    wide = MicroarchFaultPlan(0, 0, Structure.RF, seed=0, num_bits=8)
    assert wide._bits(1, 4) == [0, 1, 2, 3]  # never exceeds the space


# --------------------------------------------------------- stuck-at firing

def test_stuck1_pins_bit_against_overwrite(gv100):
    gpu = GPU(gv100)
    _host_cta(gpu)
    bank = gpu.live_rf_banks()[0]
    plan = MicroarchFaultPlan(0, 0, Structure.RF, seed=7,
                              fault_model="stuck1")
    plan.fire(gpu)
    assert plan.fired and plan.persistent
    assert int(np.bitwise_count(bank.regs).sum()) == 1
    # The program overwrites the register; the defect re-asserts itself.
    bank.regs[:] = 0
    plan.enforce(gpu)
    assert int(np.bitwise_count(bank.regs).sum()) == 1


def test_stuck0_holds_bit_low(gv100):
    gpu = GPU(gv100)
    _host_cta(gpu)
    bank = gpu.live_rf_banks()[0]
    plan = MicroarchFaultPlan(0, 0, Structure.RF, seed=7,
                              fault_model="stuck0")
    plan.fire(gpu)
    assert int(np.bitwise_count(bank.regs).sum()) == 0
    bank.regs[:] = 0xFFFFFFFF
    plan.enforce(gpu)
    total_bits = bank.regs.size * 32
    assert int(np.bitwise_count(bank.regs).sum()) == total_bits - 1


def test_stuck_fire_site_is_deterministic(gv100):
    snaps = []
    for _ in range(2):
        gpu = GPU(gv100)
        _host_cta(gpu)
        plan = MicroarchFaultPlan(0, 0, Structure.RF, seed=21,
                                  fault_model="stuck1")
        plan.fire(gpu)
        snaps.append(gpu.live_rf_banks()[0].regs.copy())
    assert np.array_equal(snaps[0], snaps[1])


def test_intermittent_respects_duty_windows(gv100):
    gpu = GPU(gv100)
    _host_cta(gpu)
    bank = gpu.live_rf_banks()[0]
    plan = MicroarchFaultPlan(0, 0, Structure.RF, seed=7,
                              fault_model="intermittent", stuck_value=1,
                              duty_period=8, duty_on=4)
    gpu.now = 0
    plan.fire(gpu)  # _fired_at = 0; window [0, 4) active
    assert int(np.bitwise_count(bank.regs).sum()) == 1
    bank.regs[:] = 0
    gpu.now = 6  # inactive half of the window: the bit floats
    plan.enforce(gpu)
    assert int(np.bitwise_count(bank.regs).sum()) == 0
    gpu.now = 10  # next window's active phase
    plan.enforce(gpu)
    assert int(np.bitwise_count(bank.regs).sum()) == 1


def test_persistent_plan_arms_every_later_launch(gv100):
    plan = MicroarchFaultPlan(1, 5, Structure.RF, seed=0,
                              fault_model="stuck0")
    injector = MicroarchInjector(plan)
    gpu = GPU(gv100)
    assert injector.arm(0, "k", gpu) is None
    assert injector.arm(1, "k", gpu) is plan
    plan.fired = True
    # A physical defect does not heal at kernel boundaries.
    assert injector.arm(2, "k", gpu) is plan
    transient = MicroarchFaultPlan(1, 5, Structure.RF, seed=0)
    transient.fired = True
    assert MicroarchInjector(transient).arm(2, "k", gpu) is None


def test_rebind_reattaches_to_fresh_state(gv100):
    gpu = GPU(gv100)
    cta = _host_cta(gpu)
    plan = MicroarchFaultPlan(0, 0, Structure.RF, seed=7,
                              fault_model="stuck1")
    plan.fire(gpu)
    # Launch teardown: the bank dies with the CTA.
    gpu.sms[0].retire_cta(cta)
    _host_cta(gpu)  # next launch rebuilds residency
    plan.rebind(gpu)
    assert plan.hit_live_target
    assert int(np.bitwise_count(gpu.live_rf_banks()[0].regs).sum()) == 1


# ----------------------------------------------------- control-state sites

def test_control_fault_hits_live_state(gv100):
    gpu = GPU(gv100)
    _host_cta(gpu)
    plan = MicroarchFaultPlan(0, 0, None, seed=3, target="control",
                              fault_model="stuck1")
    plan.fire(gpu)
    assert plan.fired and plan.hit_live_target
    assert "stuck1@1" in plan.description


def test_control_fault_without_residency_hits_only_scheduler(gv100):
    """With no warps resident, the only live control state is the SM
    schedulers' — per-warp sites (PCs, masks, barriers) need residency."""
    for seed in range(40):
        gpu = GPU(gv100)
        plan = MicroarchFaultPlan(0, 0, None, seed=seed, target="control")
        plan.fire(gpu)
        assert plan.fired and plan.hit_live_target
        assert ".sched.rr" in plan.description


def test_control_sites_cover_all_families(gv100):
    """Across seeds, draws land on PCs, masks and scheduler/barrier state."""
    families = set()
    for seed in range(120):
        gpu = GPU(gv100)
        _host_cta(gpu)
        plan = MicroarchFaultPlan(0, 0, None, seed=seed, target="control",
                                  fault_model="stuck1")
        plan.fire(gpu)
        families.add(plan.description.split(" ")[0].split(".")[-1])
    assert {"pc", "upc", "active"} <= families


# ------------------------------------------------------------ the watchdog

_HANG_K1 = assemble(
    """
    # flag[0] = 1, stored by lane 0 only after a delay loop (params:
    # 0x0=flag). The loop keeps the warp live (and the store pending) for
    # most of the launch, so mid-launch control faults have a real window
    # to suppress the store.
    S2R R0, SR_TID.X
    ISETP.NE P0, R0, 0x0
@P0 EXIT
    MOV R3, 0x30
delay:
    IADD R3, R3, -1
    ISETP.GT P1, R3, c[0x0][0x4]
@P1 BRA delay
    MOV R1, 0x1
    MOV R2, c[0x0][0x0]
    ST [R2], R1
    EXIT
""",
    name="hang_k1",
)


class HostLoopApp(GPUApplication):
    """Host convergence loop: relaunches until the kernel sets its flag.

    Fault-free this takes one launch. A persistent fault that keeps lane 0
    from storing makes every launch complete *successfully* without ever
    satisfying the host's convergence check — an unbounded host loop no
    per-launch cycle budget can see. Only the cross-launch trial watchdog
    converts it to a Timeout.
    """

    name = "hangloop"
    kernel_names = ("hang_k1",)

    def make_inputs(self, rng):
        return {"zero": np.zeros(1, dtype=np.uint32)}

    def run(self, gpu, harness=None):
        h = harness or DeviceHarness()
        flag = h.upload(gpu, self.inputs["zero"])
        while True:
            h.launch(gpu, _HANG_K1, (1, 1), (32, 1), [flag, 0],
                     name="hang_k1", outputs=(flag,))
            if int(h.download(gpu, flag, np.uint32, 1)[0]):
                break
        return {"flag": h.download(gpu, flag, np.uint32, 1)}

    def reference(self):
        return {"flag": np.ones(1, dtype=np.uint32)}


class _Lane0KillPlan(MicroarchFaultPlan):
    """A provably-hanging control fault: lane 0's done bit stuck high."""

    def _select(self, gpu):
        warps = [w for w in gpu.resident_warps() if not w.finished]
        if not warps:
            return [], ""
        return [_AliveMaskBit(warps[0], 0)], f"warp{warps[0].uid}.active"


def test_watchdog_bounds_total_trial_cycles(gv100, monkeypatch):
    monkeypatch.delenv("REPRO_HANG_FACTOR", raising=False)
    app = HostLoopApp()
    gpu = GPU(gv100)
    gpu.trial_cycle_budget = 2_000
    plan = _Lane0KillPlan(0, 0, None, seed=0, target="control",
                          fault_model="stuck1")
    gpu.uarch_injector = MicroarchInjector(plan)
    with pytest.raises(SimTimeout):
        app.run(gpu)
    # Each relaunch completed under its per-launch budget — only the
    # cumulative bound caught the host loop.
    assert len(gpu.launch_records) > 3
    assert gpu.global_cycle > 2_000


def test_watchdog_off_path_is_silent(gv100):
    app = HostLoopApp()
    gpu = GPU(gv100)
    gpu.trial_cycle_budget = 2_000
    out = app.run(gpu)
    assert int(out["flag"][0]) == 1
    assert len(gpu.launch_records) == 1


def test_trial_cycle_budget_scales_with_hang_factor(monkeypatch, v100):
    from repro.fi import profile_app

    profile = profile_app(get_application("va"), v100)
    monkeypatch.setenv("REPRO_HANG_FACTOR", "3")
    expected = max(campaign_mod.TRIAL_CYCLE_FLOOR,
                   int(3 * profile.total_cycles))
    assert trial_cycle_budget(profile) == expected


def test_hang_factor_keys_the_cache(tmp_path, monkeypatch):
    """Under ``REPRO_HANG_FACTOR=0.5`` nw's golden run overruns the trial
    watchdog, so all four ECC-corrected RF trials time out. A rerun at
    the default factor in the same cache directory must not get those
    Timeouts back: it matches a run in a fresh directory."""
    spec = CampaignSpec(level="uarch", app="nw", structure="rf",
                        config="gv100", ecc_protected=True, num_bits=1,
                        trials=4, seed=1)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "shared"))
    monkeypatch.setenv("REPRO_HANG_FACTOR", "0.5")
    assert run_campaign(spec).counts.timeout == 4
    monkeypatch.delenv("REPRO_HANG_FACTOR")
    rerun = run_campaign(spec)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "fresh"))
    fresh = run_campaign(spec)
    assert rerun.counts == fresh.counts
    assert fresh.counts.masked == 4


def test_hanging_campaign_classifies_timeout(tmp_cache, monkeypatch):
    """Acceptance: a provably-hanging control-state stuck-at trial ends as
    TIMEOUT within budget and the campaign completes without tripping
    REPRO_MAX_TRIAL_FAILURES — serial and with a worker pool."""
    monkeypatch.setattr(campaign_mod, "TRIAL_CYCLE_FLOOR", 3_000)
    app = HostLoopApp()
    spec = CampaignSpec(level="uarch", app=app, kernel="hang_k1",
                        structure=None, target="control",
                        fault_model="stuck1", trials=12, seed=86,
                        use_cache=False)
    serial = run_campaign(spec)
    assert serial.counts.total == 12
    assert serial.counts.crash == 0
    assert serial.counts.timeout >= 1  # the watchdog reclaimed the hangs
    parallel = run_campaign(
        CampaignSpec(level="uarch", app=app, kernel="hang_k1",
                     structure=None, target="control", fault_model="stuck1",
                     trials=12, seed=86, workers=2, use_cache=False))
    assert parallel.counts == serial.counts


# ------------------------------------------------- campaign-level plumbing

def _cache_payloads(cache):
    return {p.name: json.loads(p.read_text())
            for p in sorted(cache.glob("*.json"))}


def test_legacy_transient_path_serial_parallel_identical(tmp_path,
                                                         monkeypatch):
    """Acceptance: with the new models off, journals/tallies/cache payloads
    stay byte-identical at any worker count (the legacy uarch pipeline)."""
    def spec(workers):
        return CampaignSpec(level="uarch", app="va", kernel="va_k1",
                            structure=Structure.RF, trials=20, seed=11,
                            workers=workers)

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
    serial = run_campaign(spec(1))
    serial_cache = _cache_payloads(tmp_path / "serial")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "parallel"))
    parallel = run_campaign(spec(4))
    parallel_cache = _cache_payloads(tmp_path / "parallel")

    assert parallel.to_dict() == serial.to_dict()
    assert parallel_cache == serial_cache
    assert not list_journals()
    # Off-path payloads carry no trace of the new axes.
    payload = next(iter(serial_cache.values()))
    assert "fault_model" not in payload and "fault_target" not in payload


def test_stuck_campaign_serial_parallel_identical(tmp_path, monkeypatch):
    def spec(workers):
        return CampaignSpec(level="uarch", app="va", kernel="va_k1",
                            structure=Structure.RF, fault_model="stuck0",
                            trials=12, seed=5, workers=workers)

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
    serial = run_campaign(spec(1))
    serial_cache = _cache_payloads(tmp_path / "serial")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "parallel"))
    parallel = run_campaign(spec(4))

    assert parallel.to_dict() == serial.to_dict()
    assert _cache_payloads(tmp_path / "parallel") == serial_cache
    payload = next(iter(serial_cache.values()))
    assert payload["fault_model"] == "stuck0"


def test_model_axes_get_distinct_cache_keys(tmp_cache):
    keys = set()
    for model in ("transient", "stuck0", "stuck1", "intermittent"):
        run_campaign(CampaignSpec(level="uarch", app="va", kernel="va_k1",
                                  structure=Structure.RF, fault_model=model,
                                  trials=4, seed=1))
        keys.add(frozenset(p.name for p in tmp_cache.glob("*.json")))
    assert len(keys) == 4  # every model added its own entry


def test_campaign_validates_model_and_target():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError, match="unknown fault model"):
        run_campaign(CampaignSpec(level="uarch", app="va", structure="rf",
                                  fault_model="flaky"))
    with pytest.raises(ConfigError, match="no notion"):
        run_campaign(CampaignSpec(level="sw", app="va",
                                  fault_model="stuck0"))
    with pytest.raises(ConfigError, match="drop the structure"):
        run_campaign(CampaignSpec(level="uarch", app="va", structure="rf",
                                  target="control"))
    with pytest.raises(ConfigError, match="ECC protects storage"):
        run_campaign(CampaignSpec(level="uarch", app="va", structure=None,
                                  target="control", ecc_protected=True))


def test_control_campaign_end_to_end(tmp_cache):
    result = run_campaign(CampaignSpec(
        level="uarch", app="va", kernel="va_k1", structure=None,
        target="control", fault_model="intermittent", trials=8, seed=3))
    assert result.counts.total == 8
    assert result.structure is None
    assert result.fault_model == "intermittent"
    assert result.fault_target == "control"
    assert result.derating_factor == 1.0
    # Round-trips through the cache with the new fields intact.
    again = run_campaign(CampaignSpec(
        level="uarch", app="va", kernel="va_k1", structure=None,
        target="control", fault_model="intermittent", trials=8, seed=3))
    assert again.to_dict() == result.to_dict()


def test_outcome_mix_and_avf_by_fault_model(tmp_cache):
    from repro.fi.avf import avf_by_fault_model, outcome_mix

    results = {}
    for model in ("transient", "stuck1"):
        results[model] = run_campaign(CampaignSpec(
            level="uarch", app="va", kernel="va_k1", structure=Structure.RF,
            fault_model=model, trials=8, seed=2))
    mix = outcome_mix(results["transient"])
    assert set(mix) == {"masked", "sdc", "timeout", "due"}
    assert abs(sum(mix.values()) - 1.0) < 1e-9
    avfs = avf_by_fault_model(results)
    assert set(avfs) == {"transient", "stuck1"}
    with pytest.raises(ValueError, match="was run with"):
        avf_by_fault_model({"stuck0": results["transient"]})
