"""Mid-launch golden checkpoints (:mod:`repro.sim.replay`): fast-forward,
convergence, resume rules, fallbacks, and the completeness of what a
checkpoint compares and restores. Their exactness against full
simulation is the oracle's (``tests/sim/test_exactness.py``)."""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
import pytest

import repro.sim.replay as replay_module
from repro.arch.structures import Structure
from repro.fi import CampaignSpec, run_campaign
from repro.fi.campaign import _gpu_factory
from repro.fi.gpufi import MicroarchFaultPlan, plan_microarch_fault
from repro.fi.nvbitfi import SoftwareFaultPlan, plan_software_fault
from repro.kernels import get_application
from repro.sim.gpu import GPU
from repro.sim.replay import CHECKPOINTS_PER_LAUNCH, Checkpoint, ReplayTrack, uid_counters
from repro.staticanalysis.dataflow import is_pred_var, liveness
from tests.sim.trials import (CENSUS, VectorAdds, agree, assert_same, cursor_spy, draw,
                              exactness, fresh_profile, full, golden_profile, kinds,
                              no_arm_verdict, run)


@pytest.fixture()
def spy():
    """The cursor log of :func:`tests.sim.trials.cursor_spy`."""
    with cursor_spy() as events:
        yield events


def populate(app, profile, kernel_index=0):
    """Capture every checkpoint of launch ``kernel_index``: a plan that
    fires in the launch's last cycle keeps the injector pristine."""
    cycles = profile.launches[kernel_index]["cycles"]
    run(app, profile, MicroarchFaultPlan(kernel_index, cycles - 1,
                                         Structure.L1T, seed=1))
    slots = profile.replay.launches[kernel_index].checkpoints
    assert all(slot is not None for slot in slots)
    return slots


# ---------------------------------------------------------------------- #
# Rows of the exactness oracle in which checkpoints engage
# ---------------------------------------------------------------------- #
_FF, _CONVERGED, _DEAD = ("fast-forward", "checkpoint convergence",
                          "fire-time convergence")

#: label -> (app, kernel, cell, seeds, shortcuts some trial must take).
#: Faults drawn in a fresh profile fast-forward only to checkpoints the
#: trials before them captured, hence runs of seeds.
CELLS = {
    "gemm-rf": ("gemm", "gemm_tile", "rf-transient", (*range(16), 36, 49),
                {_FF, _CONVERGED, _DEAD}),
    "gemm-smem": ("gemm", "gemm_tile", "smem-transient", range(8),
                  {_FF, _CONVERGED}),
    "gemm-control": ("gemm", "gemm_tile", "control-transient", range(3, 7),
                     {_FF}),
    "gemm-rf-2bit": ("gemm", "gemm_tile", "rf-2bit", (*range(16), 36, 49),
                     {_FF, _CONVERGED, _DEAD}),
    "va-rf-stuck0": ("va", "va_k1", "rf-stuck0", range(3, 7), {_FF}),
    "hotspot-l1d": ("hotspot", "hotspot_k1", "l1d-transient", range(3, 19),
                    {_FF, _DEAD}),
    "hotspot-sw-ld": ("hotspot", "hotspot_k1", "sw-ld", range(3, 9), {_FF}),
    "pathfinder-src": ("pathfinder", "pathfinder_k1", "src", range(3, 9),
                       {_CONVERGED}),
    # Most sradv1 L2 faults settle at plan time.
    "sradv1-l2": ("sradv1", "sradv1_k1", "l2-transient", (30, 31, 294),
                  {_FF, _CONVERGED}),
}


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_checkpoints_on_and_off_agree(cell):
    app_name, kernel, label, seeds, shortcuts = CELLS[cell]
    # RF faults the fire census calls dead would settle at plan time; with
    # the verdict off they end at the fire.
    with no_arm_verdict() if label in CENSUS else nullcontext():
        tally = exactness(app_name, [(label, kernel, seed) for seed in seeds])
    assert all(tally[name] for name in shortcuts), tally


def test_converged_launch_takes_the_golden_record(spy, gv100):
    app = get_application("gemm")
    profile = golden_profile("gemm", gv100)
    golden = profile.replay.launches[0].record
    for seed in range(16):
        spy.clear()
        plan = plan_microarch_fault(profile.launches, Structure.SMEM, seed)
        got = run(app, profile, plan)
        if "converged" in kinds(spy):
            break
    else:
        pytest.fail("no SMEM fault converged")
    (_, _, at), = [e for e in spy if e[1] == "converged"]
    start = max([now for _, kind, now in spy if kind == "ff"], default=0)
    assert got["simulated"] == [at - start]
    assert 0 < at - start < golden.cycles
    assert got["stats"] == [golden.stats.snapshot()]


# ---------------------------------------------------------------------- #
# Resume rules at a checkpoint's own cycle and counter
# ---------------------------------------------------------------------- #
def test_uarch_fault_drawn_at_a_checkpoint_cycle(spy, gv100):
    app = get_application("gemm")
    profile = fresh_profile("gemm", gv100)
    slots = populate(app, profile)
    for k in (3, 9):
        checkpoint = slots[k]
        for cycle in (checkpoint.now - 1, checkpoint.now):
            for seed in range(4):
                spy.clear()
                agree(app, profile,
                      lambda: MicroarchFaultPlan(0, cycle, Structure.RF, seed))
                ff = [now for _, kind, now in spy if kind == "ff"]
                # Resumes from the checkpoint at the fault's own cycle,
                # never from one past it.
                assert ff == [checkpoint.now if cycle == checkpoint.now
                              else slots[k - 1].now]


@pytest.mark.parametrize("loads_only", [False, True])
def test_sw_candidate_equal_to_a_checkpoint_counter(loads_only, spy, v100):
    app = get_application("hotspot")
    profile = fresh_profile("hotspot", v100)
    slots = populate(app, profile)
    counter = ("sw_injectable_loads" if loads_only
               else "sw_injectable_instructions")
    k = next(k for k in range(8, len(slots))
             if slots[k].stat(counter) > slots[k - 1].stat(counter))
    checkpoint = slots[k]
    count = checkpoint.stat(counter)
    for candidate in (count - 1, count, count + 1):
        for bit in (0, 13, 31):
            spy.clear()
            on = agree(app, profile, lambda: SoftwareFaultPlan(
                0, candidate, bit, loads_only))
            ff = [now for _, kind, now in spy if kind == "ff"]
            expected = checkpoint if candidate >= count else slots[k - 1]
            assert ff == [expected.now]
            assert on["descriptions"][0]


# ---------------------------------------------------------------------- #
# Persistent plans
# ---------------------------------------------------------------------- #
def test_persistent_plan_fired_earlier_never_fast_forwards(spy, gv100,
                                                           monkeypatch):
    """Later launches of a stuck-at fault that fired in launch 0 can
    repeat their golden entry state, but the defect acts on them from
    cycle 0: they use no checkpoint."""
    app = get_application("pathfinder")
    profile = golden_profile("pathfinder", gv100)
    populate(app, profile, kernel_index=2)
    matched = []
    original = ReplayTrack.find

    def find(track, gpu, index, program, launch):
        golden = original(track, gpu, index, program, launch)
        matched.append(index if golden is not None else None)
        return golden

    monkeypatch.setattr(ReplayTrack, "find", find)
    for seed in range(8):
        spy.clear()
        agree(app, profile, lambda: MicroarchFaultPlan(
            0, 5, Structure.RF, seed, fault_model="stuck1"))
        assert all(index == 0 for index, _, _ in spy)
    assert {1, 2, 3} & set(matched)


def test_active_persistent_plan_never_converges(spy, gv100):
    """A stuck-at fault fast-forwards to its cycle, then is simulated to
    the end of the launch whatever the state: the defect stays active."""
    app = get_application("va")
    profile = golden_profile("va", gv100)
    populate(app, profile)
    seen = set()
    for seed in range(16):
        spy.clear()
        on = agree(app, profile, lambda: plan_microarch_fault(
            profile.launches, Structure.RF, seed, fault_model="stuck0"))
        assert on["simulated"] == [on["cycles"] - max(
            [now for _, kind, now in spy if kind == "ff"], default=0)]
        seen |= kinds(spy)
    assert "ff" in seen and "converged" not in seen


# ---------------------------------------------------------------------- #
# Fallbacks
# ---------------------------------------------------------------------- #
def test_tracer_disables_capture_and_fast_forward(spy, gv100):
    from repro.analysis.reuse import TraceRecorder

    app = get_application("gemm")
    profile = fresh_profile("gemm", gv100)
    plan = MicroarchFaultPlan(0, 4000, Structure.RF, seed=3)
    run(app, profile, plan, tracer=TraceRecorder())
    assert spy == []
    assert profile.replay.launches[0].checkpoints == [None] * (
        CHECKPOINTS_PER_LAUNCH)
    populate(app, profile)
    spy.clear()
    got = run(app, profile, MicroarchFaultPlan(0, 4000, Structure.RF, seed=3),
              tracer=TraceRecorder())
    assert spy == [] and got["simulated"] == [got["cycles"]]


def test_profile_records_no_checkpoints(gv100):
    profile = fresh_profile("sradv1", gv100)
    for golden in profile.replay.launches:
        assert golden.checkpoints == [None] * CHECKPOINTS_PER_LAUNCH


def test_other_inputs_never_use_checkpoints(spy, gv100, v100):
    app = get_application("gemm")
    profile = golden_profile("gemm", gv100)
    populate(app, profile)
    spy.clear()
    make = lambda: MicroarchFaultPlan(0, 3000, Structure.RF, seed=2)
    # Another configuration, and another app seed (other inputs).
    gpu = _gpu_factory(profile, v100)()
    got = run(app, profile, make(), gpu=gpu)
    assert spy == [] and got["simulated"] == [got["cycles"]]
    other = get_application("gemm", seed=7)
    got = run(other, profile, make())
    assert spy == [] and got["simulated"] == [got["cycles"]]
    assert_same(got, run(other, full(profile), make()))


@pytest.mark.parametrize("limit", ["launch", "trial"])
def test_golden_launch_over_budget_uses_no_checkpoints(limit, spy, gv100):
    app = get_application("gemm")
    profile = golden_profile("gemm", gv100)
    populate(app, profile)
    spy.clear()
    cycles = profile.launches[0]["cycles"]

    def trial(prof):
        gpu = _gpu_factory(profile, gv100)()
        if limit == "trial":
            gpu.trial_cycle_budget = cycles - 100
        else:
            gpu.cycle_budget_fn = lambda i, name: cycles - 100
        return run(app, prof, MicroarchFaultPlan(0, cycles // 2,
                                                 Structure.SMEM, 4), gpu=gpu)

    on, off = trial(profile), trial(full(profile))
    assert on["outcome"][0] == "SimTimeout"
    assert_same(on, off)
    assert spy == []


# ---------------------------------------------------------------------- #
# Uid and LRU-clock offsets, revived lanes, stored checkpoints
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("level", ["sw", "control"])
def test_reused_gpu_with_uid_and_lru_offsets(level, spy, gv100, v100):
    """A trial GPU is reused: LRU clocks keep counting across trials,
    while reset returns the uid counters, by which fault descriptions name
    warps, to boot."""
    app = get_application("gemm")
    config = v100 if level == "sw" else gv100
    profile = golden_profile("gemm", config)
    launches = profile.kernel_launches("gemm_tile")

    def make(seed):
        if level == "sw":
            return plan_software_fault(launches, seed)
        return plan_microarch_fault(launches, None, seed, target="control")

    on_gpu = _gpu_factory(profile, config)()
    off_gpu = _gpu_factory(profile, config)()
    populate(app, profile)
    spy.clear()
    for seed in range(10):
        on = run(app, profile, make(seed), gpu=on_gpu)
        off = run(app, full(profile), make(seed), gpu=off_gpu)
        assert_same(on, off)
    assert "ff" in kinds(spy)
    assert on_gpu.l2._lru_clock != off_gpu.l2._lru_clock
    on_gpu.reset()
    assert uid_counters(on_gpu) == uid_counters(GPU(config))


def test_control_fault_reviving_a_finished_lane(spy, gv100, monkeypatch):
    """An alive-mask fault that revives a finished lane of a diverged
    warp, which then reads the lane's stale per-lane PC. Fast-forward
    must restore per-lane PCs even of warps that are uniform at the
    checkpoint."""
    from repro.fi import gpufi

    revived = []
    original = gpufi._AliveMaskBit.pin

    def pin(bit, value):
        if value == 0 and bit.warp.done[bit.lane]:
            revived.append(bit.warp.diverged)
        original(bit, value)

    monkeypatch.setattr(gpufi._AliveMaskBit, "pin", pin)
    app = get_application("nw")
    profile = golden_profile("nw", gv100)
    launches = profile.kernel_launches("nw_k1")
    diverged_hits = 0
    for seed in (37, 56, 101, 255, 256):
        make = lambda: plan_microarch_fault(launches, None, seed,
                                            target="control")
        revived.clear()
        off = run(app, full(profile), make())
        assert revived, seed
        for _ in range(2):  # the first run captures, the second resumes
            spy.clear()
            assert_same(run(app, profile, make()), off)
        assert "ff" in kinds(spy), seed
        diverged_hits += revived[0]
    assert diverged_hits


def deep_equal(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, tuple | list):
        return (isinstance(b, tuple | list) and len(a) == len(b)
                and all(deep_equal(x, y) for x, y in zip(a, b)))
    return a == b


def test_stored_checkpoints_equal_a_fault_free_capture(gv100, tmp_cache):
    app = get_application("sradv1")
    profile = fresh_profile("sradv1", gv100)
    with no_arm_verdict():  # dead-at-arm faults capture checkpoints too
        # One worker: checkpoints forked workers capture never reach profile.
        run_campaign(CampaignSpec(level="uarch", app=app, structure="l2",
                                  trials=24, seed=9, workers=1),
                     profile=profile)
    clean = fresh_profile("sradv1", gv100)
    stored = 0
    for index, golden in enumerate(profile.replay.launches):
        if not any(golden.checkpoints):
            continue
        reference = populate(app, clean, kernel_index=index)
        for mine, theirs in zip(golden.checkpoints, reference):
            if mine is not None:
                stored += 1
                assert mine.now == theirs.now
                assert deep_equal(mine.parts, theirs.parts)
    assert stored > 0


def test_census_checkpoints_equal_a_fault_free_capture(gv100, tmp_cache):
    """A transient RF campaign's fire census clocks each launch that holds
    a plan to its end before the pool forks, so with two workers every
    checkpoint of those launches is on the profile, equal to a fault-free
    capture."""
    app = get_application("hotspot")
    profile = fresh_profile("hotspot", gv100)
    run_campaign(CampaignSpec(level="uarch", app=app, structure="rf",
                              trials=24, seed=9, workers=2),
                 profile=profile)
    clean = fresh_profile("hotspot", gv100)
    filled = 0
    for index, golden in enumerate(profile.replay.launches):
        if not any(golden.checkpoints):
            continue
        filled += 1
        reference = populate(app, clean, kernel_index=index)
        for mine, theirs in zip(golden.checkpoints, reference, strict=True):
            assert mine.now == theirs.now
            assert deep_equal(mine.parts, theirs.parts)
    assert filled == len(profile.replay.launches) == 2


def test_rf_cycles_simulated_do_not_depend_on_the_worker_count(
        gv100, tmp_cache, tmp_path):
    """Trials of a transient RF campaign find every checkpoint the fire
    census captured and capture none, so the cycles they clock
    themselves ("cycles simulated") are the same at one and two
    workers."""
    from repro.telemetry.events import TelemetrySession, read_events
    from repro.telemetry.metrics import summarize_events

    def simulated(workers: int) -> int:
        path = tmp_path / f"workers{workers}.jsonl"
        session = TelemetrySession(path)
        run_campaign(CampaignSpec(
            level="uarch", app="hotspot", structure="rf", config=gv100,
            trials=32, seed=3, use_cache=False, workers=workers),
            profile=fresh_profile("hotspot", gv100),
            telemetry_session=session)
        session.close()
        kernels = summarize_events(read_events(path)).kernels
        return sum(roll["simulated_cycles"] for roll in kernels.values())

    cycles = simulated(1)
    assert cycles > 0
    assert simulated(2) == cycles


# ---------------------------------------------------------------------- #
# Completeness: every component is compared and restored
# ---------------------------------------------------------------------- #
class Perturbation(MicroarchFaultPlan):
    """A transient "fault" that changes exactly one piece of device state
    (``change(gpu)``) after the issue phase of loop top ``cycle`` of
    launch ``launch``."""

    def __init__(self, cycle, change, launch=0):
        super().__init__(launch, cycle, Structure.RF, seed=0)
        self.change = change

    def fire(self, gpu):
        self.fired = True
        self.change(gpu)
        self.description = "perturbed"


class LoopTops(MicroarchFaultPlan):
    """Never fires; records every loop top of launch ``launch`` instead."""

    def __init__(self, launch=0):
        super().__init__(launch, 0, Structure.RF, seed=0)
        self.tops = []

    def fire(self, gpu):
        self.tops.append(gpu.now)
        self.cycle = gpu.now + 1


def _resident_cta(gpu):
    return next(cta for sm in gpu.sms for cta in sm.ctas)


def _uniform_warp(gpu):
    return next(w for sm in gpu.sms for w in sm.warps
                if not w.diverged and not w.finished)


def _valid_l2_line(gpu):
    return int(np.flatnonzero(gpu.l2.valid)[0])


def _busy_sm(gpu):
    return next(sm for sm in gpu.sms if len(sm.warps) > 1)


#: component -> (app, change). Each change leaves every other piece of
#: state at its golden value, so only that component can tell.
PERTURBATIONS = {
    "launch counters": ("gemm", lambda gpu: setattr(
        gpu.stats, "thread_instructions", gpu.stats.thread_instructions + 1)),
    "pending CTAs": ("va-wide", lambda gpu: gpu._pending.pop(0)),
    "scheduler cursor": ("gemm", lambda gpu: setattr(
        _busy_sm(gpu), "scheduler_cursor",
        (_busy_sm(gpu).scheduler_cursor + 1) % len(_busy_sm(gpu).warps))),
    "barrier arrivals": ("gemm", lambda gpu: setattr(
        _resident_cta(gpu), "barrier_arrived",
        _resident_cta(gpu).barrier_arrived + 1)),
    "uniform PC": ("gemm", lambda gpu: setattr(
        _uniform_warp(gpu), "upc", _uniform_warp(gpu).upc + 1)),
    "stale per-lane PC": ("gemm", lambda gpu: _uniform_warp(gpu).pc.__setitem__(
        3, _uniform_warp(gpu).pc[3] + 7)),
    "done mask": ("va-wide", lambda gpu: _uniform_warp(gpu).done.__setitem__(
        0, ~_uniform_warp(gpu).done[0])),
    "registers": ("gemm", lambda gpu: gpu.sms[0].rf.live_banks()[0].regs.__setitem__(
        (0, 0), gpu.sms[0].rf.live_banks()[0].regs[0, 0] ^ 1)),
    "SMEM bytes": ("gemm", lambda gpu: _resident_cta(gpu).smem.data.__setitem__(
        0, _resident_cta(gpu).smem.data[0] ^ 1)),
    "fill_done": ("gemm", lambda gpu: gpu.l2.fill_done.__setitem__(
        _valid_l2_line(gpu), gpu.l2.fill_done[_valid_l2_line(gpu)] + 1)),
    "fills in flight": ("gemm", lambda gpu: gpu.sms[0].l1d._fills_in_flight
                        .append(gpu.now + 10_000)),
    "cache counters": ("gemm", lambda gpu: setattr(
        gpu.sms[0].l1d.stats, "evictions", gpu.sms[0].l1d.stats.evictions + 1)),
    "L2 lines": ("gemm", lambda gpu: gpu.l2.data.__setitem__(
        (_valid_l2_line(gpu), 0), gpu.l2.data[_valid_l2_line(gpu), 0] ^ 1)),
}


def _app(name):
    return VectorAdds(3072) if name == "va-wide" else get_application(name)


def _checkpoint_tops(app, profile, launch):
    """Each distinct stored checkpoint of launch ``launch``, paired with
    the last loop top before it: a change made after that loop top's
    issue phase is what the trial holds at the checkpoint."""
    slots = populate(app, profile, launch)
    probe = LoopTops(launch)
    run(app, full(profile), probe)
    return [(max(t for t in probe.tops if t < checkpoint.now), checkpoint)
            for checkpoint in dict.fromkeys(slots)]


@pytest.mark.parametrize("component", sorted(PERTURBATIONS))
def test_a_single_differing_component_blocks_convergence(component, spy,
                                                         gv100):
    """Change one component at the last loop top before a checkpoint:
    the trial must not converge there, and it must finish exactly as a
    full simulation of the same change does."""
    app_name, change = PERTURBATIONS[component]
    app = _app(app_name)
    profile = fresh_profile(app, gv100) if app_name == "va-wide" else (
        golden_profile(app_name, gv100))
    tops = _checkpoint_tops(app, profile, 0)
    # CTAs wait only early in the wide launch (pop raises once none do).
    for before, checkpoint in (tops[:2] if component == "pending CTAs"
                               else tops[-2:]):
        spy.clear()
        agree(app, profile, lambda: Perturbation(before, change))
        assert (0, "converged", checkpoint.now) not in spy


# ---------------------------------------------------------------------- #
# Liveness: registers compare only the cells live-in at each lane's pc
# ---------------------------------------------------------------------- #
def _flip_first(pick):
    """A change flipping bit 0 of the first register cell that
    ``pick(warp, liveness)`` names as ``(register, lane)``; it sets
    ``change.hit`` to whether any warp had one."""
    def change(gpu):
        result = liveness(gpu.kernel.program)
        change.hit = False
        for warp in (w for sm in gpu.sms for w in sm.warps):
            if not warp.diverged and not warp.finished:
                cell = pick(warp, result)
                if cell is not None:
                    warp.bank.regs[cell] ^= np.uint32(1)
                    change.hit = True
                    return
    return change


def _gprs(variables) -> list[int]:
    return sorted(v for v in variables if not is_pred_var(v))


def _first(lanes) -> int:
    return int(np.flatnonzero(lanes)[0])


def _dead_register(warp, result):
    """A register no lane of the warp reads again, in an alive lane."""
    live = result.live_in[warp.upc]
    dead = [r for r in range(warp.bank.num_regs) if r not in live]
    return (dead[0], _first(warp.alive)) if dead else None


def _done_lane(warp, result):
    """A register the warp's alive lanes still read, in a done lane."""
    live = _gprs(result.live_in[warp.upc])
    return (live[0], _first(warp.done)) if live and warp.done.any() else None


def _last_read(warp, result):
    """A register the instruction at the warp's pc reads for the last
    time (live-in there, not live-out), in an alive lane."""
    pc = warp.upc
    last = _gprs(result.live_in[pc] - result.live_out[pc])
    return (last[0], _first(warp.alive)) if last else None


#: case -> (app, launch, cell picker, whether the flip converges).
LIVENESS_FLIPS = {
    "dead register": ("gemm", 0, _dead_register, True),
    "done lane": ("nw", 4, _done_lane, True),
    "register read last at the pc": ("gemm", 0, _last_read, False),
}


@pytest.mark.parametrize("case", sorted(LIVENESS_FLIPS))
def test_only_live_register_cells_block_convergence(case, spy, gv100):
    """Flip one register cell at the last loop top before a checkpoint:
    a dead cell (or one of a done lane) converges at that checkpoint, a
    live-in cell does not, and either way the trial finishes exactly as
    a full simulation of the same flip does."""
    app_name, launch, pick, converges = LIVENESS_FLIPS[case]
    app = get_application(app_name)
    profile = golden_profile(app_name, gv100)
    hits = 0
    for before, checkpoint in _checkpoint_tops(app, profile, launch)[1::4]:
        change = _flip_first(pick)
        spy.clear()
        on = run(app, profile, Perturbation(before, change, launch))
        if not change.hit:
            continue
        hits += 1
        assert ((launch, "converged", checkpoint.now) in spy) == converges
        assert_same(on, run(app, full(profile),
                            Perturbation(before, change, launch)))
    assert hits >= 2


def _flip_every_dead_cell(checkpoint):
    """A change inverting every register cell ``checkpoint`` does not
    compare; ``change.flipped`` counts them."""
    def change(gpu):
        cells, _ = checkpoint.live_registers(gpu)
        banks = [bank.regs for sm in gpu.sms for bank in sm.rf._banks.values()]
        dead = np.ones(sum(regs.size for regs in banks), dtype=bool)
        dead[cells] = False
        at = 0
        for regs in banks:
            flat = regs.reshape(-1)
            flat[dead[at:at + flat.size]] ^= np.uint32(0xFFFFFFFF)
            at += flat.size
        change.flipped = int(dead.sum())
    return change


@pytest.mark.parametrize("app_name, launch", [
    ("gemm", 0), ("nw", 4), ("bfs", 2), ("pathfinder", 0)])
def test_flipping_every_dead_cell_changes_nothing(app_name, launch, spy,
                                                  gv100):
    """The liveness mask does not take ``instr_uses`` on trust: invert
    every cell it calls dead at a checkpoint, finish the launch by full
    simulation, and outputs, stats and cycles equal the unperturbed
    run's; with checkpoints on, the trial converges right there."""
    app = get_application(app_name)
    profile = golden_profile(app_name, gv100)
    golden = run(app, full(profile), Perturbation(0, lambda gpu: None, launch))
    flipped = 0
    for before, checkpoint in _checkpoint_tops(app, profile, launch)[::3]:
        change = _flip_every_dead_cell(checkpoint)
        assert_same(run(app, full(profile),
                        Perturbation(before, change, launch)), golden)
        flipped += change.flipped
        spy.clear()
        assert_same(run(app, profile, Perturbation(before, change, launch)),
                    golden)
        assert (launch, "converged", checkpoint.now) in spy
    assert flipped


def test_liveness_converges_more_gemm_rf_launches(spy, gv100, monkeypatch):
    """The same gemm RF faults converge, at a checkpoint or dead at the
    fire cycle, in strictly more launches than under a mask that calls
    every cell live (the full compare)."""
    app = get_application("gemm")

    def converged():
        profile = fresh_profile(app, gv100)
        populate(app, profile)
        launches = profile.kernel_launches("gemm_tile")
        spy.clear()
        for seed in range(32):
            run(app, profile,
                plan_microarch_fault(launches, Structure.RF, seed))
        return sum(kind in ("converged", "dead") for _, kind, _ in spy)

    live = converged()
    monkeypatch.setattr(replay_module, "_live_table", lambda program: np.ones(
        (len(program) + 1, max(program.num_regs, 1)), dtype=bool))
    assert live > converged()


@pytest.mark.parametrize("app_name", ["gemm", "nw", "pathfinder", "va-wide"])
def test_restored_checkpoint_equals_its_capture(app_name, gv100,
                                                monkeypatch):
    """A fast-forwarded launch holds exactly the captured state: every
    component round-trips through ``restore``."""
    app = _app(app_name)
    profile = fresh_profile(app, gv100)
    slots = populate(app, profile)
    differs = []
    original = Checkpoint.restore

    def restore(checkpoint, gpu, base, ctas):
        original(checkpoint, gpu, base, ctas)
        differs.append(checkpoint.mismatch(gpu, base))

    monkeypatch.setattr(Checkpoint, "restore", restore)
    distinct = list(dict.fromkeys(slots))
    for checkpoint in distinct:
        agree(app, profile, lambda: MicroarchFaultPlan(
            0, checkpoint.now, Structure.L1T, seed=2))
    assert differs == [None] * len(distinct)


def test_earlier_trials_only_shorten_a_trials_simulation(v100):
    """Checkpoints are captured lazily, by pristine trials, onto the
    profile every trial shares. A trial run again after other trials
    (itself included) may fast-forward to a checkpoint its first run did
    not have: the cycles it clocks itself may only fall, while outcome,
    cycles, outputs and per-launch stats stay. So "cycles simulated" in
    ``campaign report`` depends on trial order and worker sharding."""
    app = get_application("bfs")
    profile = fresh_profile(app, v100)
    launches = profile.kernel_launches("bfs_k1")
    seeds = (1, 5, 6, 7)
    first = {seed: run(app, profile, draw("sw", launches, seed))
             for seed in seeds}
    fell = 0
    for seed in reversed(seeds):
        again = run(app, profile, draw("sw", launches, seed))
        assert_same(again, first[seed])
        before, after = first[seed]["simulated"], again["simulated"]
        assert len(before) == len(after)
        assert all(b <= a for a, b in zip(before, after)), seed
        fell += after != before
    assert fell
