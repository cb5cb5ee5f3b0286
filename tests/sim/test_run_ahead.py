"""SM run-ahead (``SM.run_ahead``) against lock-step issue.

Lock-step issue is ``SM.run_ahead`` monkeypatched to return the SM's next
event, so the clock loop polls the SM again after every issue. Run-ahead
must not change anything a run leaves: outcomes, errors, cycles, every
``LaunchStats`` counter, outputs and the cycles each launch clocked
itself. The spy fixture counts the issues made inside run-ahead spans and
fails a span that starts while the issue order across SMs is visible.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager

import pytest

from repro.analysis.reuse import TraceRecorder
from repro.arch.structures import Structure
from repro.errors import DeadlockError, ExecutionError, IllegalSharedAccess
from repro.fi.campaign import _gpu_factory
from repro.isa import assemble
from repro.kernels import application_names, get_application
from repro.sim import GPU
from repro.sim.sm import SM
from tests.sim.trials import assert_same, draw, full, golden_profile, run


def _lock_step(sm, t, horizon):
    """``SM.run_ahead`` switched off."""
    return sm.next_event()


@contextmanager
def lock_step():
    """Run the body with run-ahead off (and the spy's span check with it)."""
    ahead = SM.run_ahead
    SM.run_ahead = _lock_step
    try:
        yield
    finally:
        SM.run_ahead = ahead


@pytest.fixture
def spy(monkeypatch):
    """``spans`` and ``issues`` inside run-ahead; asserts at each span
    that no tracer, no plan that has not fired or is persistent, and no
    armed software injector is attached to the launch."""
    counts = Counter()
    run_ahead, execute = SM.run_ahead, SM.execute

    def counted_execute(self, warp, now):
        counts["all"] += 1
        return execute(self, warp, now)

    def checked_run_ahead(self, t, horizon):
        gpu = self.gpu
        assert gpu.tracer is None
        assert gpu.sw_injector is None or not gpu.sw_injector.armed
        if gpu.uarch_injector is not None:
            plan = gpu.uarch_injector.plan
            launch = len(gpu.launch_records)
            if plan.persistent:
                assert launch < plan.launch_index
            else:
                assert plan.fired or launch != plan.launch_index
        counts["spans"] += 1
        before = counts["all"]
        try:
            return run_ahead(self, t, horizon)
        finally:
            counts["issues"] += counts["all"] - before

    monkeypatch.setattr(SM, "execute", counted_execute)
    monkeypatch.setattr(SM, "run_ahead", checked_run_ahead)
    return counts


# ---------------------------------------------------------------------- #
# Golden runs
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("config_name", ["gv100", "v100"])
def test_golden_runs_match_lock_step(config_name, gv100, v100, spy):
    """Every app of the suite: every ``LaunchStats`` counter (the
    residency integral and peak included) and the output bytes."""
    config = gv100 if config_name == "gv100" else v100

    def golden(name):
        profile = full(golden_profile(name, config))
        gpu = _gpu_factory(profile, config)()
        got = run(get_application(name), profile, gpu=gpu)
        got["stats"] = [record.stats for record in gpu.launch_records]
        return got

    for name in application_names("all"):
        spy.clear()
        on = golden(name)
        assert spy["issues"] > 0, name
        with lock_step():
            assert_same(on, golden(name), simulated=True)


# ---------------------------------------------------------------------- #
# Faulted trials
# ---------------------------------------------------------------------- #
#: ``(app, kernel, level, plan keywords, seeds)``; the extra seeds are
#: gemm and sradv1 faults that converge at a golden checkpoint after the
#: fire (see tests/sim/test_checkpoint.py).
CELLS = {
    "nw-sw": ("nw", "nw_k2", "sw", {}, range(8)),
    "bfs-sw": ("bfs", "bfs_k1", "sw", {}, range(12)),
    "gemm-rf": ("gemm", "gemm_tile", Structure.RF, {}, (*range(16), 36, 49)),
    "gemm-smem": ("gemm", "gemm_tile", Structure.SMEM, {}, range(16)),
    "sradv1-l2": ("sradv1", "sradv1_k1", Structure.L2, {}, (*range(8), 294)),
    "gemm-control": ("gemm", "gemm_tile", None, {"target": "control"},
                     range(24)),
    "pathfinder-control-intermittent": (
        "pathfinder", "pathfinder_k1", None,
        {"target": "control", "fault_model": "intermittent"}, range(8)),
    "va-rf-stuck1": ("va", "va_k1", Structure.RF, {"fault_model": "stuck1"},
                     range(8)),
}

#: Cells whose trials issue inside run-ahead spans (persistent faults
#: issue in lock-step from their launch on).
ENGAGED = {"nw-sw", "bfs-sw", "gemm-rf", "gemm-smem", "sradv1-l2",
           "gemm-control"}
#: Cells where a launch converges at a golden checkpoint after its fault
#: fired and the SMs ran ahead: the horizon stopped them at the visit.
CONVERGED = {"gemm-rf", "sradv1-l2"}


def _run(app, profile, gpu, *plans):
    """``run`` on ``gpu``, with the counters the last launch left on it:
    an aborted launch's are in no record."""
    got = run(app, profile, *plans, gpu=gpu)
    got["left"] = (gpu.trial_cycles_done, gpu.stats)
    return got


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_faulted_trials_match_lock_step(cell, gv100, v100, spy):
    """Outcome, cycles, outputs, per-launch stats, the cycles each launch
    clocked itself and an aborted launch's counters, with replay and
    checkpoints on. The cells end Masked, SDC, DUE (global, shared and
    pc errors) and Timeout. Each trial runs once first to capture the
    golden checkpoints it can use: a trial captures them while its
    faults have not acted, so a later run of it may start from one
    (fast-forward) and clock fewer cycles."""
    app_name, kernel, level, kw, seeds = CELLS[cell]
    config = v100 if level == "sw" else gv100
    app = get_application(app_name)
    profile = golden_profile(app_name, config)
    launches = profile.kernel_launches(kernel)

    def trial(seed):
        return _run(app, profile, _gpu_factory(profile, config)(),
                    draw(level, launches, seed, **kw))

    spy.clear()
    converged = 0
    for seed in seeds:
        trial(seed)
        on = trial(seed)
        with lock_step():
            off = trial(seed)
        assert_same(on, off, simulated=True)
        assert on["left"] == off["left"]
        converged += any(
            0 < simulated < stats["cycles"] and not dead
            for simulated, stats, dead in zip(on["simulated"], on["stats"],
                                              on["dead_at_fire"]))
    assert (spy["issues"] > 0) == (cell in ENGAGED), dict(spy)
    assert converged or cell not in CONVERGED


def test_run_ahead_stays_off_while_the_order_is_visible(gv100, v100, spy):
    """A tracer, a plan that has not fired, a persistent plan and an
    armed software injector each keep the launch in lock-step (the spy
    fails any span); a fired transient plan lets it run ahead."""
    tracer = TraceRecorder()
    run(get_application("gemm"), full(golden_profile("gemm", gv100)),
        tracer=tracer)
    assert tracer.dynamic_instructions > 0 and spy["spans"] == 0

    profile = golden_profile("gemm", gv100)
    launches = profile.kernel_launches("gemm_tile")
    for kw in ({}, {"fault_model": "stuck0"}):
        spy.clear()
        plan = draw(Structure.RF, launches, 3, **kw)
        run(get_application("gemm"), full(profile), plan)
        assert plan.fired
        assert (spy["spans"] > 0) == (not plan.persistent)

    profile = golden_profile("nw", v100)
    plan = draw("sw", profile.kernel_launches("nw_k2"), 1)
    spy.clear()
    run(get_application("nw"), full(profile), plan)
    assert plan.fired and spy["spans"] > 0


# ---------------------------------------------------------------------- #
# Edge cases
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("limit", ["launch", "trial"])
def test_timeout_inside_a_run_ahead_span(limit, gv100, spy):
    """A budget at every cycle of a stretch of gemm (per-launch budget)
    or of hotspot's second launch (trial watchdog): the timeout cycle,
    and every counter of the aborted launch, are lock-step's."""
    name, launch = ("gemm", 0) if limit == "launch" else ("hotspot", 1)
    profile = full(golden_profile(name, gv100))
    cycles = [record["cycles"] for record in profile.launches]

    def timed_out(budget):
        gpu = _gpu_factory(profile, gv100)()
        if limit == "launch":
            gpu.cycle_budget_fn = lambda i, kernel: budget
        else:
            gpu.trial_cycle_budget = sum(cycles[:launch]) + budget
        return _run(get_application(name), profile, gpu)

    middle = cycles[launch] // 2
    for budget in range(middle, middle + 24):
        spy.clear()
        on = timed_out(budget)
        assert on["outcome"][0] == "SimTimeout" and spy["issues"] > 0
        with lock_step():
            off = timed_out(budget)
        assert_same(on, off, simulated=True)
        assert on["left"] == off["left"]


def _aborted(gpu, launch):
    """The error an aborted launch raised and every counter it left."""
    with pytest.raises(ExecutionError) as error:
        launch()
    return type(error.value), str(error.value), gpu.trial_cycles_done, gpu.stats


#: Each CTA loops over its shared words (``c[0x0][0x0]`` iterations for
#: CTA 0, ``c[0x0][0x4]`` for the others), then loads past its window at
#: an offset naming the CTA.
_SMEM_OVERRUN = """
    S2R R0, SR_CTAID.X
    S2R R1, SR_TID.X
    SHL R2, R1, 0x2
    MOV R3, 0x0
    ISETP.EQ P0, R0, 0x0
    MOV R4, c[0x0][0x0]
    @!P0 MOV R4, c[0x0][0x4]
LOOP:
    STS [R2], R3
    LDS R5, [R2]
    IADD R3, R3, 0x1
    ISETP.LT P1, R3, R4
    @P1 BRA LOOP
    SHL R6, R0, 0x10
    IADD R2, R2, R6
    IADD R2, R2, 0x100000
    LDS R5, [R2]
    EXIT
"""


@pytest.mark.parametrize("iterations", [(40, 10), (10, 40), (12, 12)])
def test_smem_error_inside_a_run_ahead_span(iterations, gv100, spy):
    """Every CTA, one per SM, overruns its window inside a run-ahead
    span: the error raised is the one lock-step issue reaches first, at
    its cycle, also when an SM that ran ahead reached its own first."""
    program = assemble(_SMEM_OVERRUN, name="smem_overrun")

    def overrun():
        gpu = GPU(gv100)
        return _aborted(gpu, lambda: gpu.launch(
            program, (gv100.num_sms, 1), (32, 1), list(iterations),
            smem_bytes=gv100.smem_bytes_per_sm))

    spy.clear()
    on = overrun()
    assert on[0] is IllegalSharedAccess and spy["issues"] > 0
    with lock_step():
        assert on == overrun()


_BARRIER_LOOP = """
    MOV R3, 0x0
LOOP:
    BAR.SYNC
    IADD R3, R3, 0x1
    ISETP.LT P1, R3, 0x40
    @P1 BRA LOOP
    EXIT
"""


class _StuckBarrier:
    """A transient control fault at ``cycle`` in the barrier arrival
    counter of SM 0's CTA: its barrier never releases again."""

    persistent = False
    launch_index = 0

    def __init__(self, cycle: int):
        self.cycle, self.fired = cycle, False

    def fire(self, gpu):
        gpu.sms[0].ctas[0].barrier_arrived -= 1000
        self.fired = True


class _Injector:
    def __init__(self, plan):
        self.plan = plan

    def arm(self, launch_index, kernel_name, gpu):
        return None if self.plan.fired else self.plan


@pytest.mark.parametrize("cycle", [3, 17, 40])
def test_barrier_deadlock_inside_a_run_ahead_span(cycle, gv100, spy):
    """The last warp blocks inside a run-ahead span: the deadlock is
    raised at lock-step's cycle, with its residency integral."""
    program = assemble(_BARRIER_LOOP, name="barrier_loop")

    def deadlock():
        gpu = GPU(gv100)
        gpu.uarch_injector = _Injector(_StuckBarrier(cycle))
        return _aborted(gpu, lambda: gpu.launch(program, (1, 1), (96, 1)))

    spy.clear()
    on = deadlock()
    assert on[0] is DeadlockError and spy["issues"] > 0
    with lock_step():
        assert on == deadlock()
