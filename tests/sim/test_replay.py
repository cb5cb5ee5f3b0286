"""Golden launch replay (:mod:`repro.sim.replay`) and trial-level
convergence (:mod:`repro.sim.gpu`): exactness and fallbacks."""

from __future__ import annotations

import dataclasses
from contextlib import nullcontext

import pytest

from repro.arch.structures import Structure
from repro.fi.campaign import CampaignSpec, _gpu_factory, _kernel_rollup, _level_driver
from repro.fi.gpufi import MicroarchFaultPlan, MicroarchInjector, plan_microarch_fault
from repro.identity import campaign_identity, identity_tag
from repro.kernels import get_application
from repro.sim.gpu import GPU
from repro.utils.rng import spawn_seeds
from tests.sim.trials import (CENSUS, VectorAdds, agree, assert_same, exactness,
                              fresh_profile, full, golden_profile, no_arm_verdict, run, run_on)


#: kernel -> the seeds its row draws (default: 3 to 5, past the matrix's):
#: most sradv1 cache faults settle at plan time.
REPLAY_SEEDS = {"sradv1_k1": (30, 31), "sradv1_k3": (6,)}


@pytest.mark.parametrize("app_name,kernel,level", [
    ("sradv1", "sradv1_k1", Structure.L2),
    ("sradv1", "sradv1_k3", Structure.L1D),
    ("bfs", "bfs_k1", "sw"),
    ("bfs", "bfs_k2", "sw-ld"),
    ("lud", "lud_k2", "sw"),
])
def test_replay_on_and_off_agree(app_name, kernel, level):
    """Rows of the exactness oracle in which a faulted trial replays a
    later launch whole."""
    label = level if isinstance(level, str) else f"{level.value}-transient"
    tally = exactness(app_name, [(label, kernel, seed) for seed in
                                 REPLAY_SEEDS.get(kernel, range(3, 6))])
    assert tally["whole-launch replay"], tally


def test_fault_free_run_replays_every_launch(gv100):
    app = get_application("bfs")
    profile = golden_profile("bfs", gv100)
    got = run(app, profile)
    assert all(got["replayed"]) and len(got["replayed"]) == len(profile.launches)
    assert got["converged"] is None  # no injector: never ends early
    assert_same(got, run(app, full(profile)))
    assert got["stats"] == [g.record.stats.snapshot()
                            for g in profile.replay.launches]


def test_replayed_launches_leave_gpu_stats_alone(gv100):
    profile = golden_profile("pathfinder", gv100)
    gpu = _gpu_factory(profile, gv100)()
    run(get_application("pathfinder"), profile, gpu=gpu)
    assert all(r.replayed for r in gpu.launch_records)
    assert gpu.stats is None
    assert gpu.launch_records[0].stats is not profile.replay.launches[0].record.stats
    assert _kernel_rollup(gpu.launch_records)["pathfinder_k1"]["replayed"] == 4


@pytest.mark.parametrize("limit", ["launch", "trial"])
def test_budget_crossing_launch_is_simulated_and_times_out(limit, gv100):
    """Also when the trial could end at convergence before it: a trial
    watchdog below the golden total (``REPRO_HANG_FACTOR`` below 1) or a
    launch budget a golden launch left overruns keeps it running."""
    app = get_application("sradv1")
    profile = golden_profile("sradv1", gv100)
    cycles = [l["cycles"] for l in profile.launches]
    launches = profile.kernel_launches("sradv1_k1")
    k = 5  # the launch that crosses the budget

    def trial(prof, *plans):
        gpu = _gpu_factory(profile, gv100)()
        if limit == "trial":
            gpu.trial_cycle_budget = sum(cycles[:k]) + cycles[k] // 2
        else:
            budget_fn = gpu.cycle_budget_fn
            gpu.cycle_budget_fn = (lambda i, name: cycles[k] // 2 if i == k
                                   else budget_fn(i, name))
        return run(app, prof, *plans, gpu=gpu)

    on, off = trial(profile), trial(full(profile))
    assert on["outcome"][0] == "SimTimeout"
    assert_same(on, off)
    assert on["replayed"] == [True] * k
    for seed in range(8):
        make = lambda: plan_microarch_fault(launches, Structure.L2, seed)
        on = trial(profile, make())
        assert on["outcome"][0] == "SimTimeout" and on["converged"] is None
        assert_same(on, trial(full(profile), make()))


def test_reused_gpu_keeps_replaying_despite_lru_clock_offset(gv100):
    app = get_application("sradv1")
    profile = golden_profile("sradv1", gv100)
    plan = lambda: plan_microarch_fault(profile.kernel_launches("sradv1_k1"),
                                        Structure.L2, 30)
    gpu = _gpu_factory(profile, gv100)()
    fault = plan()
    first = run(app, profile, fault, gpu=gpu)
    # The premise: the fault flips a valid L2 line, so the launch is not
    # dead at fire and keeps accessing the L2 after it.
    assert fault.fired and not gpu.launch_records[0].dead_at_fire
    clock = gpu.l2._lru_clock
    second = run(app, profile, plan(), gpu=gpu)
    assert gpu.l2._lru_clock != clock
    assert first["replayed"][0] is False and any(second["replayed"])
    assert_same(first, second)
    assert first["replayed"] == second["replayed"]


def test_profile_of_another_config_or_app_seed_never_replays(gv100, v100):
    profile = golden_profile("bfs", gv100)
    other_config = _gpu_factory(profile, v100)()
    got = run(get_application("bfs"), profile, gpu=other_config)
    assert got["outcome"] == "ok" and not any(got["replayed"])
    got = run(get_application("bfs", seed=7), profile)
    assert got["outcome"] == "ok" and not any(got["replayed"])
    assert_same(got, run(get_application("bfs", seed=7), full(profile)))


def test_scheduler_cursor_left_set_blocks_replay(gv100, monkeypatch):
    """A control fault on an idle SM can leave its round-robin cursor set
    across a launch boundary; that launch is simulated, and it differs
    from golden. (``reset`` clears the cursors, so set it after.)"""
    app = get_application("pathfinder")
    profile = golden_profile("pathfinder", gv100)
    reset = GPU.reset

    def reset_leaving_a_cursor(gpu):
        reset(gpu)
        gpu.sms[0].scheduler_cursor = 1

    monkeypatch.setattr(GPU, "reset", reset_leaving_a_cursor)
    on, off = run(app, profile), run(app, full(profile))
    assert on["replayed"][0] is False
    assert on["stats"][0] != profile.replay.launches[0].record.stats.snapshot()
    assert_same(on, off)


def test_trials_on_a_reused_gpu_equal_trials_on_fresh_ones(gv100):
    """Each trial of a control campaign, many of which leave a scheduler
    cursor set or stop at a DUE mid-run, runs on a GPU reused from the
    trial before exactly as on a fresh GPU, fault descriptions (which name
    warps by uid) included: reset returns it to boot state."""
    app = get_application("pathfinder")
    profile = golden_profile("pathfinder", gv100)
    kernel = app.kernel_names[0]
    spec = CampaignSpec(level="uarch", app=app, target="control", seed=5)
    plan = _level_driver(spec, "pathfinder").plan
    launches = profile.kernel_launches(kernel)
    tag = identity_tag(campaign_identity("uarch", "pathfinder", kernel,
                                         gv100.name, target="control"))
    reused = _gpu_factory(profile, gv100)()
    stopped = 0
    for seed in spawn_seeds(5, tag, 16):  # the campaign's first 16 trials
        run(app, profile, plan(launches, seed))  # captures checkpoints
        got = run(app, profile, plan(launches, seed), gpu=reused)
        fresh = run(app, profile, plan(launches, seed))
        assert_same(got, fresh, simulated=True)
        stopped += got["outcome"] != "ok"
    assert stopped


def test_tracer_disables_replay(gv100):
    from repro.analysis.reuse import TraceRecorder

    got = run(get_application("pathfinder"),
              golden_profile("pathfinder", gv100), tracer=TraceRecorder())
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
    got = agree(app, profile, lambda: MicroarchFaultPlan(
        launch_index=2, cycle=5, structure=Structure.RF, seed=11,
        fault_model=fault_model))
    assert got["replayed"] == expected


def test_replay_is_not_part_of_profile_identity(gv100):
    profile = golden_profile("pathfinder", gv100)
    off = dataclasses.replace(profile, replay=None)
    assert off.launches == profile.launches and off.replay is None
    assert "replay" not in repr(profile)


# ---------------------------------------------------------------------- #
# Trial-level convergence: a run whose fault has died ends at that launch
# ---------------------------------------------------------------------- #
#: label -> (app, kernel or None for every launch, cell, seeds, whether
#: trials end early).
TRIAL_CELLS = {
    "sradv1-l2": ("sradv1", None, "l2-transient", (8,), True),
    "bfs-rf": ("bfs", "bfs_k1", "rf-transient", range(3, 6), True),
    "bfs-sw": ("bfs", "bfs_k2", "sw", range(9, 13), True),
    "pathfinder-src": ("pathfinder", "pathfinder_k1", "src", range(3, 9),
                       True),
    "lud-rf-intermittent": ("lud", "lud_k2", "rf-intermittent", range(3, 6),
                            False),
}


@pytest.mark.parametrize("cell", sorted(TRIAL_CELLS))
def test_trial_level_convergence_equals_running_on(cell):
    """Rows of the exactness oracle: a run ends at convergence only when
    every launch so far was a golden copy and its one-flip fault has
    fired, and then equals running on to the end (the oracle checks it).
    Persistent faults never end it."""
    app_name, kernel, label, seeds, ends = TRIAL_CELLS[cell]
    # RF faults the fire census calls dead would settle at plan time; with
    # the verdict off they end at the fire, and their trial there.
    with no_arm_verdict() if label in CENSUS else nullcontext():
        tally = exactness(app_name, [(label, kernel, seed) for seed in seeds])
    assert bool(tally["trial-level convergence"]) == ends, tally


@pytest.mark.parametrize("fault_model", ["transient", "stuck1",
                                         "intermittent"])
def test_only_a_fired_one_flip_fault_is_spent(fault_model):
    injector = MicroarchInjector(MicroarchFaultPlan(
        0, 0, Structure.RF, 0, fault_model=fault_model))
    assert not injector.spent
    injector.plan.fired = True
    assert injector.spent == (fault_model == "transient")


def test_a_diverged_launch_keeps_the_trial_running(gv100):
    """A launch that did not end from the golden run may have handed the
    host corrupted data: a later launch that is a golden copy does not
    end the trial."""
    app = VectorAdds(256, launches=2)
    profile = fresh_profile(app, gv100)
    sdc = 0
    for seed in range(24):
        make = lambda: (plan_microarch_fault(profile.launches[:1],
                                             Structure.RF, seed),)
        run(app, profile, *make())  # captures the checkpoints
        got, on = run_on(app, profile, make)
        assert_same(got, on, simulated=True)
        assert got["converged"] in (None, 1)
        sdc += got["replayed"] == [False, True] and got["outcome"] == "ok" and (
            got["outputs"]["c0"].tobytes() != profile.golden["c0"].tobytes())
    assert sdc
