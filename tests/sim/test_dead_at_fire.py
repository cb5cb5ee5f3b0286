"""Fire-time convergence (:mod:`repro.sim.replay`): a transient fault whose
every flipped bit is dead (a register cell not live-in at its lane's next
pc, a done lane, an invalid cache line) ends its launch from the golden
run at the fire cycle. Every trial must equal full simulation, and every
cell called dead must really be dead."""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from repro.arch.structures import Structure
from repro.fi import CampaignSpec, run_campaign
from repro.fi.campaign import (_converged, _gpu_factory, _injection_trial_fn, _kernel_rollup,
                               _settled_at_plan)
from repro.fi.gpufi import (MicroarchFaultPlan, MicroarchInjector, _BufferBit,
                            plan_microarch_fault)
from repro.fi.outcomes import FaultOutcome
from repro.fi.nvbitfi import plan_software_fault
from repro.kernels import application_names, get_application
from repro.sim.cache import Cache
from repro.sim.register_file import WarpRegisters
from repro.staticanalysis.dataflow import is_pred_var, liveness
from tests.sim.test_checkpoint import populate
from tests.sim.trials import (agree, assert_same, draw, fresh_profile, full, golden_profile,
                              no_arm_verdict, run)

#: app -> its target kernel.
APPS = {"gemm": "gemm_tile", "hotspot": "hotspot_k1", "sradv1": "sradv1_k1",
        "bfs": "bfs_k1", "nw": "nw_k1"}

#: structure label -> (structure, upset width).
STRUCTURES = {"rf": (Structure.RF, 1), "rf-2bit": (Structure.RF, 2),
              "l1d": (Structure.L1D, 1), "l1t": (Structure.L1T, 1),
              "l2": (Structure.L2, 1)}

SEEDS = range(12)

#: A cycle no launch reaches: a plan drawn there never fires.
NEVER = 1 << 40


def _as(cls, plan):
    """``plan`` as an instance of the subclass ``cls``."""
    return cls(**{f.name: getattr(plan, f.name) for f in fields(plan)
                  if f.init})


def _warp_of(gpu, bank):
    return next(w for sm in gpu.sms for w in sm.warps if w.bank is bank)


class Watched(MicroarchFaultPlan):
    """The drawn plan; at fire time it notes why each register cell it
    flipped could be dead: ``"done lane"`` when the lane is done though
    the register is live-in at the lane's pc, ``"dead register"`` when the
    lane is alive."""

    def fire(self, gpu):
        super().fire(gpu)
        self.reasons = set()
        for bit in self._fire_bits:
            if isinstance(bit.owner, WarpRegisters):
                warp = _warp_of(gpu, bit.owner)
                reg, lane = divmod(bit.byte // 4, gpu.config.warp_size)
                pc = int(warp.pc[lane]) if warp.diverged else warp.upc
                live_in = liveness(gpu.kernel.program).live_in
                if not warp.done[lane]:
                    self.reasons.add("dead register")
                elif 0 <= pc < len(live_in) and reg in live_in[pc]:
                    self.reasons.add("done lane")


class Inverted(MicroarchFaultPlan):
    """The drawn plan, but inverting every bit of each register cell or
    cache line its fault hits instead of one: a dead cell stays dead."""

    def fire(self, gpu):
        super().fire(gpu)
        cells = {}
        for bit in self._fire_bits:
            bit.flip()  # undone, so each cell is inverted exactly once
            owner = bit.owner
            if isinstance(owner, Cache):
                cells[id(owner), bit.byte // owner.geo.line_bytes] = (
                    owner.data, bit.byte // owner.geo.line_bytes)
            else:
                cells[id(owner), bit.byte // 4] = (
                    owner.regs.reshape(-1), bit.byte // 4)
        for array, at in cells.values():
            array[at] = ~array[at]


@pytest.mark.parametrize("label", sorted(STRUCTURES))
def test_dead_at_fire_equals_full_simulation(label, gv100):
    """Every trial, dead at fire or not, equals the checkpoints-off run in
    outcome, cycles, outputs, per-launch stats and description. Each cell
    called dead stays harmless when its whole register or line is
    inverted and simulated in full. The structure takes the new path at
    least twice, also fires faults that are not dead, and (RF) calls
    dead both done lanes of live registers and dead registers of alive
    lanes."""
    structure, num_bits = STRUCTURES[label]
    dead = live = 0
    reasons = set()
    for app_name, kernel in APPS.items():
        app = get_application(app_name)
        profile = golden_profile(app_name, gv100)
        launches = profile.kernel_launches(kernel)
        golden = run(app, full(profile),
                     MicroarchFaultPlan(0, NEVER, structure, 0))
        for seed in SEEDS:
            make = lambda: plan_microarch_fault(launches, structure, seed,
                                                num_bits=num_bits)
            plan = _as(Watched, make())
            on = run(app, profile, plan)
            assert_same(on, run(app, full(profile), make()))
            hits = on["dead_at_fire"]
            assert sum(hits) <= 1
            if any(hits):
                dead += 1
                # The dead launch is the planned one, cut at the fire.
                at = plan.launch_index
                assert hits[at] and plan.fired
                assert on["simulated"][at] < on["stats"][at]["cycles"]
                inverted = run(app, full(profile), _as(Inverted, make()))
                assert_same({**inverted, "descriptions": [""]}, golden)
                reasons |= plan.reasons
            elif plan.fired:
                live += 1
    assert dead >= 2 and live >= 1, (dead, live)
    if structure is Structure.RF:
        assert reasons == {"done lane", "dead register"}


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
        assert _settled_at_plan(gpu, draw(level, launches, seed, **kw),
                                profile) is None, seed
        on = agree(app, profile, lambda: draw(level, launches, seed, **kw))
        assert not any(on["dead_at_fire"]), seed


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
class Verdicts(MicroarchFaultPlan):
    """The drawn plan, noting each dead-at-arm verdict it gives."""

    def dead_at_arm(self, gpu, golden):
        taken = super().dead_at_arm(gpu, golden)
        self.verdicts = [*getattr(self, "verdicts", []), taken]
        return taken


#: Cache structure label -> structure.
CACHES = {"l1d": Structure.L1D, "l1t": Structure.L1T, "l2": Structure.L2}

ORACLE_SEEDS = range(6)


@pytest.mark.parametrize("label", sorted(CACHES))
def test_arm_time_verdict_equals_full_simulation(label, gv100):
    """Every paper app, 1- and 2-bit upsets, plans drawn over all of the
    app's launches, through the campaign's plan-time exit. Each trial it
    settles equals full simulation (outcome, cycles, outputs, per-launch
    stats), its armed launch rolls up dead at fire, no cycle simulated
    and not replayed, and run through the GPU that launch ends dead at
    fire. Each trial it declines, run through the GPU, equals full
    simulation, description too, and the GPU never asks the verdict.
    The exit settles plans and declines others."""
    structure = CACHES[label]
    taken = declined = 0
    for app_name in application_names():
        app = get_application(app_name)
        profile = golden_profile(app_name, gv100)
        golden_stats = [g.record.stats.snapshot()
                        for g in profile.replay.launches]
        gpu = _gpu_factory(profile, gv100)()
        for num_bits in (1, 2):
            for seed in ORACLE_SEEDS:
                make = lambda: plan_microarch_fault(
                    profile.launches, structure, seed, num_bits=num_bits)
                plan = _as(Verdicts, make())
                settled = _settled_at_plan(gpu, plan, profile)
                assert plan.verdicts == [settled is not None]  # asked once
                expected = run(app, full(profile), make())
                if settled is None:
                    declined += 1
                    assert_same(run(app, profile, plan, gpu=gpu), expected)
                    assert plan.verdicts == [False]
                    continue
                taken += 1
                outcome, cycles, outputs = _converged(profile, *settled)
                assert outcome is FaultOutcome.MASKED
                assert_same({"outcome": "ok", "cycles": cycles,
                             "outputs": outputs, "descriptions": [""],
                             "stats": golden_stats},
                            {**expected, "descriptions": [""]})
                at = plan.launch_index
                (record,), rest = settled
                assert record.index == at and len(rest) == len(golden_stats) - 1
                (roll,) = _kernel_rollup((record,)).values()
                assert (roll["dead_at_fire"], roll["simulated_cycles"],
                        roll["replayed"]) == (1, 0, 0)
                off = run(app, profile, make(), gpu=gpu)
                assert off["dead_at_fire"][at], (app_name, seed, num_bits)
                assert_same(off, expected)
    assert taken and declined, (taken, declined)


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


class Sited(MicroarchFaultPlan):
    """A transient L2 fault at a given site: bits ``bits`` of the L2 data
    array."""

    def __init__(self, launch, cycle, bits):
        super().__init__(launch, cycle, Structure.L2, seed=0,
                         num_bits=len(bits))
        self.bits = bits

    def _cache_site(self, gpu):
        return gpu.l2, self.bits, f"l2 bits {self.bits}"


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
