"""Golden launch replay (:mod:`repro.sim.replay`): exactness and fallbacks."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.arch.structures import Structure
from repro.errors import ExecutionError
from repro.fi.campaign import _gpu_factory, _kernel_rollup, profile_app
from repro.fi.gpufi import MicroarchFaultPlan, MicroarchInjector, plan_microarch_fault
from repro.fi.nvbitfi import SoftwareInjector, plan_software_fault
from repro.kernels import get_application
from repro.kernels.base import DeviceHarness

_PROFILES: dict = {}


def golden_profile(app_name, config):
    key = (app_name, config.name)
    if key not in _PROFILES:
        _PROFILES[key] = profile_app(get_application(app_name), config)
    return _PROFILES[key]


def run_trial(app, profile, gpu=None, uarch=None, sw=None, replay=True,
              tracer=None):
    """One app run the way a campaign trial runs it; returns the outcome
    (``"ok"`` or the exception type), cycles, outputs, per-launch stats
    and replayed flags."""
    gpu = gpu or _gpu_factory(profile, profile.replay.config)()
    gpu.reset()
    gpu.replay = profile.replay if replay else None
    gpu.uarch_injector = uarch and MicroarchInjector(uarch)
    gpu.sw_injector = sw and SoftwareInjector(sw)
    gpu.tracer = tracer
    outputs = None
    try:
        outputs = app.run(gpu, DeviceHarness())
        outcome = "ok"
    except ExecutionError as exc:
        outcome = (type(exc).__name__, getattr(exc, "cycles", None))
    records = gpu.launch_records
    return {"outcome": outcome, "cycles": sum(r.cycles for r in records),
            "outputs": outputs,
            "stats": [r.stats.snapshot() for r in records],
            "replayed": [r.replayed for r in records]}


def same_run(a: dict, b: dict) -> bool:
    outputs_equal = (a["outputs"] is None) == (b["outputs"] is None) and (
        a["outputs"] is None or all(
            np.array_equal(a["outputs"][k], b["outputs"][k])
            for k in a["outputs"]))
    return (outputs_equal and a["outcome"] == b["outcome"]
            and a["cycles"] == b["cycles"] and a["stats"] == b["stats"])


@pytest.mark.parametrize("app_name,kernel,level", [
    ("sradv1", "sradv1_k1", Structure.L2),
    ("sradv1", "sradv1_k3", Structure.L1D),
    ("bfs", "bfs_k1", "sw"),
    ("bfs", "bfs_k2", "sw-ld"),
    ("lud", "lud_k2", "sw"),
])
def test_replay_on_and_off_agree(app_name, kernel, level, gv100, v100):
    config = v100 if isinstance(level, str) else gv100
    app = get_application(app_name)
    profile = golden_profile(app_name, config)
    launches = profile.kernel_launches(kernel)

    def plan(seed):  # a fresh plan per run: plans record that they fired
        if isinstance(level, str):
            return {"sw": plan_software_fault(launches, seed, level == "sw-ld")}
        return {"uarch": plan_microarch_fault(launches, level, seed)}

    replayed = 0
    for seed in range(12):
        on = run_trial(app, profile, **plan(seed))
        off = run_trial(app, profile, replay=False, **plan(seed))
        assert same_run(on, off), seed
        assert not any(off["replayed"])
        replayed += sum(on["replayed"])
    assert replayed > 0


def test_fault_free_run_replays_every_launch(gv100):
    app = get_application("bfs")
    profile = golden_profile("bfs", gv100)
    got = run_trial(app, profile)
    assert all(got["replayed"]) and len(got["replayed"]) == len(profile.launches)
    assert same_run(got, run_trial(app, profile, replay=False))
    assert got["stats"] == [g.record.stats.snapshot()
                            for g in profile.replay.launches]


def test_replayed_launches_leave_gpu_stats_alone(gv100):
    profile = golden_profile("pathfinder", gv100)
    gpu = _gpu_factory(profile, gv100)()
    run_trial(get_application("pathfinder"), profile, gpu=gpu)
    assert all(r.replayed for r in gpu.launch_records)
    assert gpu.stats is None
    assert gpu.launch_records[0].stats is not profile.replay.launches[0].record.stats
    assert _kernel_rollup(gpu)["pathfinder_k1"]["replayed"] == 4


@pytest.mark.parametrize("limit", ["launch", "trial"])
def test_budget_crossing_launch_is_simulated_and_times_out(limit, gv100):
    app = get_application("sradv1")
    profile = golden_profile("sradv1", gv100)
    cycles = [l["cycles"] for l in profile.launches]
    k = 5  # the launch that crosses the budget

    def trial(replay):
        gpu = _gpu_factory(profile, gv100)()
        if limit == "trial":
            gpu.trial_cycle_budget = sum(cycles[:k]) + cycles[k] // 2
        else:
            budget_fn = gpu.cycle_budget_fn
            gpu.cycle_budget_fn = (lambda i, name: cycles[k] // 2 if i == k
                                   else budget_fn(i, name))
        return run_trial(app, profile, gpu=gpu, replay=replay)

    on, off = trial(True), trial(False)
    assert on["outcome"][0] == "SimTimeout"
    assert same_run(on, off)
    assert on["replayed"] == [True] * k


def test_reused_gpu_keeps_replaying_despite_lru_clock_offset(gv100):
    app = get_application("sradv1")
    profile = golden_profile("sradv1", gv100)
    plan = lambda: plan_microarch_fault(profile.kernel_launches("sradv1_k1"),
                                        Structure.L2, 30)
    gpu = _gpu_factory(profile, gv100)()
    fault = plan()
    first = run_trial(app, profile, gpu=gpu, uarch=fault)
    # The premise: the fault flips a valid L2 line, so the launch is not
    # dead at fire and keeps accessing the L2 after it.
    assert fault.fired and not gpu.launch_records[0].dead_at_fire
    clock = gpu.l2._lru_clock
    second = run_trial(app, profile, gpu=gpu, uarch=plan())
    assert gpu.l2._lru_clock != clock
    assert first["replayed"][0] is False and any(second["replayed"])
    assert same_run(first, second) and first["replayed"] == second["replayed"]


def test_profile_of_another_config_or_app_seed_never_replays(gv100, v100):
    profile = golden_profile("bfs", gv100)
    other_config = _gpu_factory(profile, v100)()
    got = run_trial(get_application("bfs"), profile, gpu=other_config)
    assert got["outcome"] == "ok" and not any(got["replayed"])
    got = run_trial(get_application("bfs", seed=7), profile)
    assert got["outcome"] == "ok" and not any(got["replayed"])
    assert same_run(got, run_trial(get_application("bfs", seed=7), profile,
                                   replay=False))


def test_scheduler_cursor_left_set_blocks_replay(gv100):
    """A control fault on an idle SM can leave its round-robin cursor set
    across a launch boundary (``reset`` keeps it too); that launch is
    simulated, and it differs from golden."""
    app = get_application("pathfinder")
    profile = golden_profile("pathfinder", gv100)
    runs = []
    for replay in (True, False):
        gpu = _gpu_factory(profile, gv100)()
        gpu.sms[0].scheduler_cursor = 1
        runs.append(run_trial(app, profile, gpu=gpu, replay=replay))
    assert runs[0]["replayed"][0] is False
    assert runs[0]["stats"][0] != profile.replay.launches[0].record.stats.snapshot()
    assert same_run(*runs)


def test_tracer_disables_replay(gv100):
    from repro.analysis.reuse import TraceRecorder

    got = run_trial(get_application("pathfinder"),
                    golden_profile("pathfinder", gv100),
                    tracer=TraceRecorder())
    assert got["outcome"] == "ok" and not any(got["replayed"])


@pytest.mark.parametrize("fault_model,expected", [
    ("stuck1", [True, True, False, False]),
    ("transient", [True, True, False, True]),
])
def test_armed_launches_are_simulated(fault_model, expected, gv100):
    """A persistent plan arms its planned launch and every later one; a
    transient plan only its own (a masked one leaves golden state)."""
    app = get_application("pathfinder")
    profile = golden_profile("pathfinder", gv100)
    plan = lambda: MicroarchFaultPlan(launch_index=2, cycle=5,
                                      structure=Structure.RF, seed=11,
                                      fault_model=fault_model)
    got = run_trial(app, profile, uarch=plan())
    assert got["replayed"] == expected
    assert same_run(got, run_trial(app, profile, uarch=plan(), replay=False))


def test_replay_is_not_part_of_profile_identity(gv100):
    profile = golden_profile("pathfinder", gv100)
    off = dataclasses.replace(profile, replay=None)
    assert off.launches == profile.launches and off.replay is None
    assert "replay" not in repr(profile)
