"""Fire-time convergence (:mod:`repro.sim.replay`) and the plan-time exit
(:func:`repro.fi.campaign._settled_at_plan`): a transient fault whose
every flipped bit is dead (a register cell not live-in at its lane's next
pc, a done lane, an invalid cache line) ends its launch from the golden
run at the fire cycle, and a cache fault whose every bit lies in a line
the golden launch never fills, or an RF fault the campaign's fire census
(:func:`repro.fi.campaign._fire_census`) found dead at its fire, settles
its trial before it runs. The exactness oracle (``tests/sim/trials.py``
``exactness``) checks that every trial equals full simulation and every
cell called dead is really dead, over its matrix and here over
hand-picked apps and seeds; the rest are the edge cases."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.arch.structures import Structure
import repro.fi.campaign as campaign_module
from repro.fi import CampaignSpec, run_campaign
from repro.fi.campaign import (_gpu_factory, _injection_trial_fn, _kernel_rollup,
                               _settled_at_plan)
from repro.fi.gpufi import (FireCensus, MicroarchFaultPlan, MicroarchInjector, _BufferBit,
                            plan_microarch_fault)
from repro.fi.outcomes import FaultOutcome
from repro.fi.nvbitfi import plan_software_fault
from repro.kernels import get_application
from repro.staticanalysis.dataflow import is_pred_var, liveness
from tests.sim.test_checkpoint import populate
from tests.sim.trials import (agree, assert_same, draw, exactness, fresh_profile, full,
                              golden_profile, no_arm_verdict, run, trial)

#: app -> its target kernel.
APPS = {"gemm": "gemm_tile", "hotspot": "hotspot_k1", "sradv1": "sradv1_k1",
        "bfs": "bfs_k1"}


def rows(app_kernels, labels, seeds) -> Counter:
    """The exactness oracle's tally over apps ``app_kernels`` (app ->
    kernel, None for every launch) x cells ``labels`` x ``seeds``."""
    return sum((exactness(app_name, [(label, kernel, seed)
                                     for label in labels for seed in seeds])
                for app_name, kernel in app_kernels.items()), Counter())


#: structure label -> the seeds its row draws: most cache faults settle,
#: but faults of seed 23 (L1s) or 31 (L2) often do not.
DEAD_SEEDS = {"rf": (3, 4), "rf-2bit": (3, 4), "l1d": (3, 23),
              "l1t": (3, 23), "l2": (3, 31)}


@pytest.mark.parametrize("label", sorted(DEAD_SEEDS))
def test_dead_at_fire_equals_full_simulation(label):
    """Rows of the exactness oracle, which checks each fault called dead
    (``check_dead``): the cell settles or ends at the fire at least
    twice, also fires faults that are not dead, and (RF) calls dead both
    done lanes of live registers and dead registers of alive lanes."""
    cell = label if label.endswith("2bit") else f"{label}-transient"
    tally = rows(APPS, [cell], DEAD_SEEDS[label])
    dead = tally["fire-time convergence"] + tally["plan-time exit"]
    assert tally[cell] > dead >= 2, tally
    if label.startswith("rf"):
        assert tally["done lane"] and tally["dead register"], tally


class JustWritten(MicroarchFaultPlan):
    """Flips, as an RF fault, a register that the instruction a uniform
    warp issued at this loop top wrote and that is live-in at the warp's
    next pc, in an alive lane: at the first loop top from ``cycle`` on
    that has one. ``before`` holds each uniform warp's pc after the
    previous loop top's issue phase, which is its pc before this one's."""

    def __init__(self, cycle):
        super().__init__(0, cycle, Structure.RF, seed=0)
        self.before = {}

    def fire(self, gpu):
        result = liveness(gpu.kernel.program)
        for warp in (w for sm in gpu.sms for w in sm.warps):
            pc = warp.upc
            if (warp.diverged or warp.finished
                    or self.before.get(warp.uid) != pc - 1):
                continue
            written = sorted(v for v in result.live_in[pc]
                             - result.live_in[pc - 1] if not is_pred_var(v))
            if written:
                lane = int(np.flatnonzero(warp.alive)[0])
                cell = written[0] * gpu.config.warp_size + lane
                self.fired = True
                self._fire_bits = [_BufferBit(warp.bank.regs.view(np.uint8),
                                              32 * cell, warp.bank)]
                self._fire_bits[0].flip()
                self.description = f"R{written[0]} lane {lane}"
                return
        self.before = {w.uid: w.upc for sm in gpu.sms for w in sm.warps
                       if not w.diverged}
        self.cycle = gpu.now + 1


@pytest.mark.parametrize("app_name", ["gemm", "hotspot"])
def test_register_written_at_the_fire_cycle_is_live(app_name, gv100):
    """The fault fires after the loop top's issue phase: a register the
    issued instruction just wrote, read next, is live, never dead."""
    app = get_application(app_name)
    profile = golden_profile(app_name, gv100)
    cycles = profile.launches[0]["cycles"]
    hits = 0
    for cycle in range(cycles // 8, cycles, cycles // 8):
        on = agree(app, profile, lambda: JustWritten(cycle))
        if on["descriptions"][0]:
            hits += 1
            assert not any(on["dead_at_fire"])
    assert hits >= 4


def test_dead_at_the_resume_cycle_is_not_a_replay(gv100):
    """A dead fault fired at the cycle its launch fast-forwarded to clocks
    no cycle, yet its launch was simulated: the record says dead at fire,
    not replayed, and the trial rollup counts it. (A campaign would
    settle this plan before the trial runs.)"""
    app = get_application("gemm")
    profile = fresh_profile(app, gv100)
    checkpoint = populate(app, profile)[5]
    gpu = _gpu_factory(profile, gv100)()
    # gemm reads no texture, so every L1T line is invalid.
    on = agree(app, profile, lambda: MicroarchFaultPlan(
        0, checkpoint.now, Structure.L1T, 3), gpu=gpu)
    assert on["simulated"] == [0] and on["dead_at_fire"] == [True]
    (record,) = gpu.launch_records
    assert not record.replayed
    rollup = _kernel_rollup(gpu.launch_records)["gemm_tile"]
    assert rollup["dead_at_fire"] == 1 and rollup["replayed"] == 0


#: label -> (app, kernel, level, plan keywords): faults that must keep
#: today's path however dead the bits they hit.
OTHER_FAULTS = {
    "smem": ("gemm", "gemm_tile", Structure.SMEM, {}),
    "control": ("gemm", "gemm_tile", None, {"target": "control"}),
    "rf-stuck0": ("gemm", "gemm_tile", Structure.RF, {"fault_model": "stuck0"}),
    "l1t-stuck1": ("gemm", "gemm_tile", Structure.L1T,
                   {"fault_model": "stuck1"}),
    "l2-intermittent": ("sradv1", "sradv1_k1", Structure.L2,
                        {"fault_model": "intermittent"}),
    "l1t-ecc-2bit": ("gemm", "gemm_tile", Structure.L1T,
                     {"num_bits": 2, "ecc_protected": True}),
    "sw": ("bfs", "bfs_k1", "sw", {}),
    "sw-ld": ("nw", "nw_k1", "sw-ld", {}),
}


@pytest.mark.parametrize("label", sorted(OTHER_FAULTS))
def test_other_faults_never_end_at_fire(label, gv100, v100):
    app_name, kernel, level, kw = OTHER_FAULTS[label]
    config = v100 if isinstance(level, str) else gv100
    app = get_application(app_name)
    profile = golden_profile(app_name, config)
    launches = profile.kernel_launches(kernel)
    gpu = _gpu_factory(profile, config)()
    for seed in range(6):
        got = trial(app, profile, draw(level, launches, seed, **kw), gpu)
        assert not got["settled"] and not any(got["dead_at_fire"]), seed


def test_a_second_actor_keeps_the_launch_simulated(gv100):
    """A dead microarchitecture fault early in launch 0 does not end the
    launch while a software fault may still fire in it (gemm), nor the
    trial while one is planned for a later launch (pathfinder)."""
    for app_name, later in (("gemm", 0), ("pathfinder", 2)):
        app = get_application(app_name)
        profile = golden_profile(app_name, gv100)
        launches = profile.kernel_launches(app.kernel_names[0])[later:]
        golden = {k: v.tobytes() for k, v in profile.golden.items()}
        acted = 0
        for seed in range(8):
            # Neither app reads a texture, so the L1T bit is dead.
            make = lambda: (MicroarchFaultPlan(0, 50, Structure.L1T, seed),
                            plan_software_fault(launches, seed))
            on = run(app, profile, *make())
            assert any(on["dead_at_fire"]) == bool(later)
            assert not on["converged"] or on["converged"] > later
            assert_same(on, run(app, full(profile), *make()))
            acted += on["outputs"] is None or {
                k: v.tobytes() for k, v in on["outputs"].items()} != golden
        assert acted, app_name  # a software fault acted after the dead one


# ---------------------------------------------------------------------- #
# The plan-time exit (repro.fi.campaign._settled_at_plan)
# ---------------------------------------------------------------------- #
#: cache label -> the seed its row draws, one the exit declines in some
#: apps.
ARM_SEEDS = {"l1d": 6, "l1t": 6, "l2": 8}


@pytest.mark.parametrize("label", sorted(ARM_SEEDS))
def test_arm_time_verdict_equals_full_simulation(label):
    """Rows of the exactness oracle over apps of several launches, 1- and
    2-bit upsets drawn over all of the app's launches: the plan-time exit
    settles plans and declines others."""
    tally = rows(dict.fromkeys(("sradv1", "bfs", "lud", "pathfinder")),
                 [f"{label}-transient", f"{label}-2bit"], (ARM_SEEDS[label],))
    trials = tally[f"{label}-transient"] + tally[f"{label}-2bit"]
    assert 0 < tally["plan-time exit"] < trials, tally


def _trial(app, profile, plan, config):
    """``(outcome, cycles)`` of the campaign trial body injecting
    ``plan``, on a fresh budget-configured GPU."""
    trial_fn = _injection_trial_fn(app, profile, None, lambda seed: plan,
                                   "uarch_injector", MicroarchInjector)
    return trial_fn(_gpu_factory(profile, config)(), 0)


def test_settled_trials_keep_the_cycle_budgets(gv100, monkeypatch):
    """Under ``REPRO_HANG_FACTOR=0.5`` nw's golden run (52 670 cycles)
    overruns the trial watchdog's 50 000-cycle floor, so a simulated trial
    times out. ECC-corrected RF plans and dead-at-arm L1T plans, which
    the plan-time exit settles under the default factor, then time out as
    full simulation does."""
    app = get_application("nw")
    profile = golden_profile("nw", gv100)
    launches = profile.kernel_launches("nw_k1")
    makes = [lambda seed: plan_microarch_fault(launches, Structure.RF, seed,
                                               ecc_protected=True),
             lambda seed: plan_microarch_fault(launches, Structure.L1T, seed)]
    gpu = _gpu_factory(profile, gv100)()
    cases = [(make, seed) for make in makes for seed in range(4)
             if _settled_at_plan(gpu, make(seed), profile) is not None]
    assert {make for make, _ in cases} == set(makes)
    monkeypatch.setenv("REPRO_HANG_FACTOR", "0.5")
    for make, seed in cases:
        on = _trial(app, profile, make(seed), gv100)
        assert on == _trial(app, full(profile), make(seed), gv100), seed
        assert on[0] is FaultOutcome.TIMEOUT


def test_plan_time_exit_keeps_the_report_lines(gv100, tmp_path):
    """A telemetry-on sradv1 L2 campaign reports the same faults dead at
    fire and trials ended at convergence over the same cycles with the
    dead-at-arm verdict on and off; on, it simulates fewer cycles. The
    lines with it on are pinned."""
    from repro.telemetry.events import TelemetrySession, read_events
    from repro.telemetry.metrics import render_summary, summarize_events

    def lines(name):
        session = TelemetrySession(tmp_path / name)
        run_campaign(CampaignSpec(
            level="uarch", app="sradv1", structure=Structure.L2,
            config=gv100, trials=32, seed=1, use_cache=False, workers=1),
            telemetry_session=session)
        session.close()
        report = render_summary(summarize_events(read_events(tmp_path / name)))
        return [line.strip() for line in report.splitlines()
                if line.lstrip().startswith(("cycles simulated",
                                             "faults dead at fire",
                                             "trials ended at convergence"))]

    on = lines("on.jsonl")
    with no_arm_verdict():
        off = lines("off.jsonl")
    assert on == ["cycles simulated   2136 of 406656 (0.5%)",
                  "faults dead at fire 30 of 32 trials",
                  "trials ended at convergence 30 of 32 trials"]
    assert on[1:] == off[1:]
    simulated = [int(line.split()[2]) for line in (on[0], off[0])]
    assert on[0].split()[4] == off[0].split()[4] and simulated[0] < simulated[1]


def test_a_campaign_asks_for_the_golden_budget_verdict_once(gv100,
                                                             monkeypatch):
    """The plan-time exit asks ``GPU.golden_fits`` over the whole replay
    track once per campaign GPU, not once per settled trial, and settling
    a plan builds no list of the GPU's caches."""
    import repro.sim.replay as replay_module
    from repro.sim.gpu import GPU

    profile = fresh_profile("sradv1", gv100)  # trials capture checkpoints
    whole, real_fits = [], GPU.golden_fits

    def golden_fits(gpu, launches, done):
        if launches is profile.replay.launches:
            whole.append(gpu)
        return real_fits(gpu, launches, done)

    monkeypatch.setattr(GPU, "golden_fits", golden_fits)
    result = run_campaign(CampaignSpec(
        level="uarch", app="sradv1", structure=Structure.L2, config=gv100,
        trials=32, seed=1, use_cache=False, workers=1), profile=profile)
    assert result.counts.total == 32
    assert len(whole) == 1

    def no_caches(gpu):
        raise AssertionError("the settle path built the cache list")

    monkeypatch.setattr(replay_module, "_caches", no_caches)
    gpu = _gpu_factory(profile, gv100)()
    launches = profile.kernel_launches("sradv1_k1")
    settled = [seed for seed in range(16) if _settled_at_plan(
        gpu, plan_microarch_fault(launches, Structure.L2, seed), profile)]
    assert settled


class Sited(MicroarchFaultPlan):
    """A transient L2 fault at a given site: bits ``bits`` of the L2 data
    array."""

    def __init__(self, launch, cycle, bits):
        super().__init__(launch, cycle, Structure.L2, seed=0,
                         num_bits=len(bits))
        self.bits = bits

    def _cache_site(self, gpu):
        return gpu.l2, 0, self.bits, f"l2 bits {self.bits}"


def test_a_two_bit_upset_reaching_a_filled_line_is_simulated(gv100):
    """A 2-bit upset whose first bit lies in a line the launch never fills
    and whose second bit lies in the next line, which it fills: the
    verdict declines it, and at its fire the flip is live."""
    app = get_application("sradv1")
    profile = golden_profile("sradv1", gv100)
    golden = profile.replay.launches[0]
    valid = golden.exit.l2[0]
    line_bits = 8 * gv100.l2.line_bytes
    line = int(np.flatnonzero(~valid[:-1] & valid[1:])[0])
    edge = (line + 1) * line_bits  # the first bit of the filled line
    cycle = golden.record.cycles - 1
    plan = Sited(0, cycle, [edge - 1, edge])
    assert not plan.dead_at_arm(_gpu_factory(profile, gv100)(), golden)
    on = agree(app, profile, lambda: Sited(0, cycle, [edge - 1, edge]))
    assert not on["dead_at_fire"][0]


# ---------------------------------------------------------------------- #
# The fire census (repro.fi.campaign._fire_census)
# ---------------------------------------------------------------------- #
def _spy_on_census(monkeypatch):
    """Log every census's dead seeds, every plan-time exit's
    ``(seed, settled)`` and every trial's ``seed -> whether a launch
    ended dead at fire`` of the campaigns run after the call."""
    log = {"census": [], "settled": [], "dead": {}}
    census, settled, trial_fn = (campaign_module._fire_census,
                                 campaign_module._settled_at_plan,
                                 campaign_module._injection_trial_fn)

    def fire_census(*args):
        log["census"].append(census(*args))
        return log["census"][-1]

    def settled_at_plan(gpu, plan, *args):
        got = settled(gpu, plan, *args)
        log["settled"].append((plan.seed, got is not None))
        return got

    def injection_trial_fn(*args, **kw):
        body = trial_fn(*args, **kw)

        def run(gpu, seed):
            try:
                return body(gpu, seed)
            finally:  # a settled trial leaves the last trial's records
                log["dead"][seed] = any(r.dead_at_fire
                                        for r in gpu.launch_records)
        return run

    monkeypatch.setattr(campaign_module, "_fire_census", fire_census)
    monkeypatch.setattr(campaign_module, "_settled_at_plan", settled_at_plan)
    monkeypatch.setattr(campaign_module, "_injection_trial_fn",
                        injection_trial_fn)
    return log


@pytest.mark.parametrize("app_name", ["gemm", "hotspot"])
def test_the_census_calls_dead_exactly_the_faults_dead_at_fire(
        app_name, gv100, tmp_cache, monkeypatch):
    """With the plan-time verdict off, every trial of a transient RF
    campaign is simulated to its fire, and its launch ends dead at fire
    exactly when the campaign's fire census called its seed dead (both
    happen). The verdict goes through ``MicroarchFaultPlan.dead_at_arm``:
    off, no trial settles; on, exactly the census's seeds do. Every
    census after the first starts from the checkpoints it captured."""
    log = _spy_on_census(monkeypatch)
    profile = fresh_profile(app_name, gv100)
    for seed in (1, 2):
        spec = CampaignSpec(level="uarch", app=app_name, structure="rf",
                            config=gv100, trials=64, seed=seed,
                            use_cache=False, workers=1)
        with no_arm_verdict():
            run_campaign(spec, profile=profile)
        (dead,) = log["census"]
        assert len(log["dead"]) == 64
        assert dead == {s for s, hit in log["dead"].items() if hit}
        assert 0 < len(dead) < 64
        assert not any(hit for _, hit in log["settled"])
        log["settled"].clear()
        run_campaign(spec, profile=profile)
        assert {s for s, hit in log["settled"] if hit} == dead
        for entry in log.values():
            entry.clear()


#: label -> spec fields of a campaign that takes no fire census.
NO_CENSUS = {
    "sw": dict(level="sw", app="bfs"),
    "sw-ld": dict(level="sw-ld", app="nw"),
    "src": dict(level="src", app="pathfinder"),
    "l2": dict(level="uarch", app="sradv1", structure="l2"),
    "l1d": dict(level="uarch", app="hotspot", structure="l1d"),
    "smem": dict(level="uarch", app="gemm", structure="smem"),
    "control": dict(level="uarch", app="gemm", target="control"),
    "rf-stuck1": dict(level="uarch", app="gemm", structure="rf",
                      fault_model="stuck1"),
    "rf-intermittent": dict(level="uarch", app="va", structure="rf",
                            fault_model="intermittent"),
    "rf-ecc": dict(level="uarch", app="gemm", structure="rf",
                   ecc_protected=True),
    "rf-ecc-2bit": dict(level="uarch", app="gemm", structure="rf",
                        num_bits=2, ecc_protected=True),
}


def test_only_transient_unprotected_rf_campaigns_take_a_census(
        tmp_cache, monkeypatch):
    """Software, source, cache, SMEM, control, stuck-at, intermittent
    and ECC campaigns run no census pass; a 2-bit transient RF campaign
    runs one."""
    passes = []

    class Counted(FireCensus):
        def __init__(self, plans):
            super().__init__(plans)
            passes.append(self)

    monkeypatch.setattr(campaign_module, "FireCensus", Counted)
    for label, fields in NO_CENSUS.items():
        run_campaign(CampaignSpec(trials=4, seed=1, use_cache=False,
                                  workers=1, **fields))
        assert not passes, label
    run_campaign(CampaignSpec(level="uarch", app="gemm", structure="rf",
                              num_bits=2, trials=4, seed=1, use_cache=False,
                              workers=1))
    assert len(passes) == 1
