"""One app run the way a campaign trial runs it, and the exactness oracle.

A campaign trial may end by five shortcuts, each of which must equal full
simulation (:func:`full`): whole-launch replay, checkpoint fast-forward
and convergence, fire-time convergence, the plan-time exit and
trial-level convergence. :func:`trial` takes the campaign's path through
them, :func:`run` the GPU's alone, and :func:`assert_same` compares two
results. :func:`exactness`, the oracle, runs draws of :data:`CELLS`
through :func:`trial` and checks each against full simulation; the matrix
of ``tests/sim/test_exactness.py`` and a few per-mechanism rows run it."""

from __future__ import annotations

import copy
import dataclasses
from collections import Counter
from contextlib import contextmanager
from dataclasses import fields
from unittest.mock import patch

import numpy as np

import repro.sim.gpu as gpu_module
from repro.arch.config import quadro_gv100_like, tesla_v100_like
from repro.arch.structures import Structure
from repro.errors import ExecutionError
from repro.fi.campaign import (_converged, _fire_census, _gpu_factory, _settled_at_plan,
                               profile_app)
from repro.fi.gpufi import MicroarchFaultPlan, MicroarchInjector, plan_microarch_fault
from repro.fi.nvbitfi import SoftwareFaultPlan, SoftwareInjector, plan_software_fault
from repro.fi.outcomes import FaultOutcome
from repro.fi.svf_modes import SourceInjector, plan_source_fault
from repro.kernels import get_application
from repro.kernels.base import DeviceHarness, GPUApplication
from repro.kernels.vectoradd import _VA_K1 as VA_K1
from repro.sim.cache import Cache
from repro.sim.gpu import GPU, TrialConverged
from repro.sim.replay import CheckpointCursor, golden_record
from repro.staticanalysis.dataflow import liveness

_PROFILES: dict = {}


def golden_profile(app, config):
    """The shared profile of ``app`` (or the app of that name) on
    ``config``."""
    if isinstance(app, str):
        app = get_application(app)
    key = (app.name, app.seed, config.name)
    if key not in _PROFILES:
        _PROFILES[key] = profile_app(app, config)
    return _PROFILES[key]


def fresh_profile(app, config):
    """A copy of the shared profile with no checkpoint captured, so no
    other test's trials decide what this one's fast-forward to."""
    profile = golden_profile(app, config)
    track = copy.copy(profile.replay)
    track.launches = [dataclasses.replace(g, checkpoints=[None] * len(
        g.checkpoints)) for g in profile.replay.launches]
    return dataclasses.replace(profile, replay=track)


def full(profile):
    """The same profile with replay, checkpoints and trial-level
    convergence off."""
    return dataclasses.replace(profile, replay=None)


def no_arm_verdict():
    """The dead-at-arm verdict off (``MicroarchFaultPlan.dead_at_arm``
    always False): a campaign trial whose cache fault lies in a line the
    golden launch never fills, or whose RF fault the fire census found
    dead, is simulated to its fire, and its launch ends there (fire-time
    convergence)."""
    return patch.object(MicroarchFaultPlan, "dead_at_arm",
                        lambda plan, gpu, golden, dead_fires=(): False)


@contextmanager
def cursor_spy():
    """Every cursor the GPU makes while the body runs logs ``(launch,
    event, cycle)`` to the yielded list: event ``cursor`` (created),
    ``ff`` (fast-forwarded), ``converged`` (at a checkpoint) or ``dead``
    (at the fire cycle: the fault hit only dead state)."""
    events: list[tuple[int, str, int]] = []

    class Spy(CheckpointCursor):
        def __init__(self, golden, actors, base):
            super().__init__(golden, actors, base)
            self._log(True, "cursor", 0)

        def _log(self, hit, event, now):
            if hit:
                events.append((self.golden.record.index, event, now))
            return hit

        def fast_forward(self):
            checkpoint = super().fast_forward()
            if checkpoint is not None:
                self._log(True, "ff", checkpoint.now)
            return checkpoint

        def visit(self, gpu, now):
            return self._log(super().visit(gpu, now), "converged", now)

        def converged_at_fire(self, gpu, plan, now):
            return self._log(super().converged_at_fire(gpu, plan, now),
                             "dead", now)

    with patch.object(gpu_module, "CheckpointCursor", Spy):
        yield events


def kinds(events) -> set[str]:
    return {kind for _, kind, _ in events}


def draw(level, launches, seed, **kw):
    """A fault plan of ``level`` (a structure, ``sw``, ``sw-ld`` or
    ``src``) drawn over ``launches``."""
    if level == "sw" or level == "sw-ld":
        return plan_software_fault(launches, seed, level == "sw-ld")
    if level == "src":
        return plan_source_fault(launches, seed, sticky=False)
    return plan_microarch_fault(launches, level, seed, **kw)


class VectorAdds(GPUApplication):
    """``va`` ``launches`` times into one buffer the host clears before
    each launch, keeping every sum. With ``n`` = 3072, CTAs wait in the
    pending queue mid-launch; with two launches, a fault in the first
    reaches the output through host memory only, as the second starts
    from golden state."""

    kernel_names = ("va_k1",)

    def __init__(self, n: int, launches: int = 1):
        super().__init__()
        self.n, self.launches, self.name = n, launches, f"va-{n}x{launches}"

    def make_inputs(self, rng):
        return {"a": rng.random(self.n, dtype=np.float32),
                "b": rng.random(self.n, dtype=np.float32)}

    def run(self, gpu, harness=None):
        h = harness or DeviceHarness()
        a, b = h.upload(gpu, self.inputs["a"]), h.upload(gpu, self.inputs["b"])
        c = h.alloc(gpu, 4 * self.n)
        sums = {}
        for i in range(self.launches):
            gpu.memcpy_htod(c, np.zeros(self.n, dtype=np.float32))
            h.launch(gpu, VA_K1, (self.n // 64, 1), (64, 1),
                     [a, b, c, self.n], name="va_k1", outputs=(c,))
            sums[f"c{i}"] = h.download(gpu, c, np.float32, self.n)
        return sums

    def reference(self):
        return {f"c{i}": self.inputs["a"] + self.inputs["b"]
                for i in range(self.launches)}


def run(app, profile, *plans, gpu=None, tracer=None) -> dict:
    """One app run the way a campaign trial runs it, each plan injected
    by its injector; returns everything that must not depend on replay,
    checkpoints or trial-level convergence. A run that ends at
    convergence gets the golden launches it did not run, as replayed
    records, and the golden outputs: what running on would give."""
    if gpu is None:
        config = next(c for c in (quadro_gv100_like(), tesla_v100_like())
                      if c.name == profile.config_name)
        gpu = _gpu_factory(profile, config)()
    gpu.reset()
    gpu.replay = profile.replay
    gpu.tracer = tracer
    for plan in plans:
        if isinstance(plan, MicroarchFaultPlan):
            gpu.uarch_injector = MicroarchInjector(plan)
        elif isinstance(plan, SoftwareFaultPlan):
            gpu.sw_injector = SoftwareInjector(plan)
        else:
            gpu.sw_injector = SourceInjector(plan)
    outputs = converged = None
    try:
        outputs = app.run(gpu, DeviceHarness())
        outcome = "ok"
    except TrialConverged as end:
        converged = len(gpu.launch_records)
        gpu.launch_records += [golden_record(g, 0) for g in end.rest]
        outputs, outcome = profile.golden, "ok"
    except ExecutionError as exc:
        outcome = (type(exc).__name__, getattr(exc, "cycles", None))
    finally:
        gpu.uarch_injector = gpu.sw_injector = gpu.tracer = gpu.replay = None
    return {"outcome": outcome, "outputs": outputs,
            "descriptions": [plan.description for plan in plans],
            **_records(gpu.launch_records),
            # The launches the run ran before it ended at convergence.
            "converged": converged}


def _records(records) -> dict:
    return {"cycles": sum(r.cycles for r in records),
            "stats": [r.stats.snapshot() for r in records],
            "simulated": [r.simulated_cycles for r in records],
            "replayed": [r.replayed for r in records],
            "dead_at_fire": [r.dead_at_fire for r in records]}


def trial(app, profile, plan, gpu) -> dict:
    """``plan``'s trial the way the campaign runs it: settled at plan time
    when :func:`repro.fi.campaign._settled_at_plan` settles it, else
    :func:`run` on ``gpu``. A plan that needs a fire census gets its own
    first (:func:`repro.fi.campaign._fire_census`, on ``gpu``), which
    captures every checkpoint of its launch, as a campaign's does. A
    settled trial (``settled`` True) is the golden run, its armed launch
    dead at fire; its plan never fires, so it has no description."""
    dead_fires = _fire_census(app, profile, None, lambda: gpu, [plan])
    settled = _settled_at_plan(gpu, plan, profile, dead_fires=dead_fires)
    if settled is None:
        return {**run(app, profile, plan, gpu=gpu), "settled": False}
    outcome, cycles, outputs = _converged(profile, *settled)
    assert outcome is FaultOutcome.MASKED
    records, rest = settled
    records = sorted([*records, *(golden_record(g, 0) for g in rest)],
                     key=lambda r: r.index)
    return {"outcome": "ok", "outputs": outputs,
            "descriptions": [plan.description], **_records(records),
            "cycles": cycles, "converged": 0, "settled": True}


def full_run(app, profile, *plans, gpu=None) -> dict:
    """:func:`run` under full simulation, which replays no launch and
    clocks every cycle of each."""
    got = run(app, full(profile), *plans, gpu=gpu)
    assert not any(got["replayed"])
    assert got["simulated"] == [s["cycles"] for s in got["stats"]]
    return got


def agree(app, profile, make, gpu=None) -> dict:
    """``run`` of the plan ``make()`` returns, after asserting that it
    equals a full simulation of a fresh one (plans record that they
    fired)."""
    on = run(app, profile, make(), gpu=gpu)
    assert_same(on, full_run(app, profile, make()))
    return on


def run_on(app, profile, make, gpu=None) -> tuple[dict, dict]:
    """A run of the plans ``make()`` returns, and the same run with
    trial-level convergence off, so that it runs on to the end. Both use
    the checkpoints an earlier run of the plans captured."""
    got = run(app, profile, *make(), gpu=gpu)
    with patch.object(GPU, "_end_converged_trial", lambda gpu: None):
        return got, run(app, profile, *make(), gpu=gpu)


def assert_same(a: dict, b: dict, simulated: bool = False) -> None:
    """Two runs agree in outcome, cycles, fault descriptions, per-launch
    stats and output bytes (a fault can leave NaNs in an output); with
    ``simulated``, also in the cycles each launch clocked itself."""
    for key in ("outcome", "cycles", "descriptions", "stats") + (
            ("simulated",) if simulated else ()):
        assert a[key] == b[key], key
    assert (a["outputs"] is None) == (b["outputs"] is None)
    for name, value in (b["outputs"] or {}).items():
        got = a["outputs"][name]
        assert (got.dtype, got.shape) == (value.dtype, value.shape), name
        assert got.tobytes() == value.tobytes(), name


class Inverted(MicroarchFaultPlan):
    """The drawn plan, but inverting every bit of each register cell or
    cache line its fault hits instead of one: a dead cell stays dead. At
    the fire it notes in ``reasons`` why each register cell could be dead:
    ``"done lane"`` when the lane is done though the register is live-in
    at the lane's pc, ``"dead register"`` when the lane is alive."""

    def fire(self, gpu):
        super().fire(gpu)
        self.reasons, cells = set(), {}
        for bit in self._fire_bits:
            bit.flip()  # undone, so each cell is inverted exactly once
            owner = bit.owner
            if isinstance(owner, Cache):
                at = bit.byte // owner.geo.line_bytes
                cells[id(owner), at] = owner.data, at
                continue
            cells[id(owner), bit.byte // 4] = (owner.regs.reshape(-1),
                                               bit.byte // 4)
            warp = next(w for sm in gpu.sms for w in sm.warps
                        if w.bank is owner)
            reg, lane = divmod(bit.byte // 4, gpu.config.warp_size)
            pc = int(warp.pc[lane]) if warp.diverged else warp.upc
            live_in = liveness(gpu.kernel.program).live_in
            if not warp.done[lane]:
                self.reasons.add("dead register")
            elif 0 <= pc < len(live_in) and reg in live_in[pc]:
                self.reasons.add("done lane")
        for array, at in cells.values():
            array[at] = ~array[at]


def check_dead(app, profile, make, got, want, golden, gpu, full_gpu) -> set[str]:
    """Trial ``got`` of the plan ``make()`` returns, whose fault is dead
    (settled at plan time or ended at the fire; ``want`` is its full
    simulation, ``golden`` the fault-free one): only the planned launch is
    dead at fire, cut there. A settled plan's launch clocks no cycle and
    is not replayed; run through the GPU, it ends that launch dead at fire
    and equals full simulation. With every bit of each cell it hits
    inverted, the full simulation is the golden run. Returns why each
    register cell it hits is dead."""
    at = make().launch_index
    assert got["dead_at_fire"] == [i == at for i in range(len(got["stats"]))]
    assert got["simulated"][at] < got["stats"][at]["cycles"]
    if got["settled"]:
        assert (got["simulated"][at], got["replayed"][at]) == (0, False)
        off = run(app, profile, make(), gpu=gpu)
        assert off["dead_at_fire"][at]
        assert_same(off, want)
    plan = make()
    inverted = Inverted(**{f.name: getattr(plan, f.name)
                           for f in fields(plan) if f.init})
    assert_same(full_run(app, profile, inverted, gpu=full_gpu),
                {**golden, "descriptions": [inverted.description]})
    return inverted.reasons


# ---------------------------------------------------------------------- #
# The exactness oracle
# ---------------------------------------------------------------------- #
SOFTWARE = ("sw", "sw-ld", "src")  # on the V100; the rest on the GV100

#: Storage structures, and control state (None).
TARGETS = {"rf": Structure.RF, "smem": Structure.SMEM, "l1d": Structure.L1D,
           "l1t": Structure.L1T, "l2": Structure.L2, "control": None}


def _cells() -> dict:
    """cell label -> (level, plan keywords): every target with transient
    and stuck-at-1 faults, intermittent RF and control faults, 2-bit RF
    and cache upsets, stuck-at-0 RF faults and ECC-protected 2-bit L1T
    upsets (detected, never corrected)."""
    cells = {level: (level, {}) for level in SOFTWARE}
    for name, level in TARGETS.items():
        kw = {"target": "control"} if level is None else {}
        cells[f"{name}-transient"] = level, kw
        cells[f"{name}-stuck1"] = level, {**kw, "fault_model": "stuck1"}
        if name in ("rf", "control"):
            cells[f"{name}-intermittent"] = level, {
                **kw, "fault_model": "intermittent"}
        if name not in ("smem", "control"):
            cells[f"{name}-2bit"] = level, {"num_bits": 2}
    cells["rf-stuck0"] = Structure.RF, {"fault_model": "stuck0"}
    cells["l1t-ecc-2bit"] = Structure.L1T, {"num_bits": 2,
                                            "ecc_protected": True}
    return cells


CELLS = _cells()

#: The cells whose plans need a fire census, and the cells the plan-time
#: exit may settle, which are also those whose faults may end their
#: launch at the fire cycle.
CENSUS = {"rf-transient", "rf-2bit"}
PLAN_TIME = CENSUS | {f"{name}-{kind}" for name in ("l1d", "l1t", "l2")
                      for kind in ("transient", "2bit")}
PERSISTENT = {label for label in CELLS
              if label.endswith(("stuck0", "stuck1", "intermittent"))}

#: shortcut -> the cursor event that shows it (see ``cursor_spy``).
EVENTS = {"fast-forward": "ff", "checkpoint convergence": "converged",
          "fire-time convergence": "dead"}
SHORTCUTS = ("plan-time exit", "whole-launch replay",
             "trial-level convergence", *EVENTS)


def _shortcuts(got, events) -> set[str]:
    """The shortcuts trial ``got`` took; ``events`` is its cursor log."""
    if got["settled"]:
        return {"plan-time exit"}
    ran = got["converged"]  # None unless it ended at convergence
    taken = {name for name, event in EVENTS.items() if event in kinds(events)}
    if any(got["replayed"][:ran]):
        taken.add("whole-launch replay")
    if ran is not None:
        taken.add("trial-level convergence")
    return taken


def _check_rules(label, taken, got) -> None:
    """No shortcut is taken where it must not be. A fault that finds no
    live target (SMEM in a kernel that allocates none) flips nothing, so
    its launch may end at the fire in any transient cell."""
    if label == "src":
        assert "fast-forward" not in taken  # source faults act at issue
    if label in PERSISTENT:
        assert taken <= {"fast-forward", "whole-launch replay"}, taken
    if "plan-time exit" in taken:
        assert label in PLAN_TIME
    if "fire-time convergence" in taken and got["descriptions"] != [""]:
        assert label in PLAN_TIME


def _check_running_on(app, profile, make, gpu) -> None:
    """Run again (its trial captured the checkpoints), a trial that ends
    at trial-level convergence equals running on to the end, in the
    cycles each launch clocked too; every launch after the convergence is
    a golden copy."""
    got, on = run_on(app, profile, lambda: (make(),), gpu)
    assert_same(got, on, simulated=True)
    assert got["replayed"] == on["replayed"]
    if got["converged"] is not None:
        assert all(on["replayed"][got["converged"]:])


def exactness(app_name, draws) -> Counter:
    """Run the draws ``(cell label, kernel, seed)`` of ``app_name`` (a
    plan drawn over the kernel's launches, or over every launch for
    kernel None), each through :func:`trial` on a GPU reused across them,
    and compare each with full simulation on a second reused GPU. The app
    gets a fresh profile per config, so the result does not depend on
    which tests ran before. Count the trials of each cell, the trials
    that took each shortcut, overall and per ``(cell, shortcut)``, and
    the reasons register cells were dead."""
    app = get_application(app_name)
    tally: Counter = Counter()
    for config in (tesla_v100_like(), quadro_gv100_like()):
        mine = [d for d in draws
                if (d[0] in SOFTWARE) == (config.name == "tesla-v100-like")]
        if not mine:
            continue
        profile = fresh_profile(app, config)
        gpu, full_gpu = (_gpu_factory(profile, config)() for _ in range(2))
        # The fault-free run, as the profile's full simulation left it.
        golden = {"outcome": "ok", "outputs": profile.golden,
                  **_records([g.record for g in profile.replay.launches])}
        for label, kernel, seed in mine:
            level, kw = CELLS[label]
            launches = (profile.launches if kernel is None
                        else profile.kernel_launches(kernel))
            make = lambda: draw(level, launches, seed, **kw)
            try:
                with cursor_spy() as events, patch.object(
                        MicroarchFaultPlan, "dead_at_arm", autospec=True,
                        side_effect=MicroarchFaultPlan.dead_at_arm) as verdict:
                    got = trial(app, profile, make(), gpu)
                # Asked once, by the plan-time exit: never by the GPU.
                assert verdict.call_count == (label not in SOFTWARE)
                want = full_run(app, profile, make(), gpu=full_gpu)
                # A settled plan never fires, so it has no description.
                assert_same(got, {**want, "descriptions": got["descriptions"]}
                            if got["settled"] else want)
                taken = _shortcuts(got, events)
                _check_rules(label, taken, got)
                if taken & {"plan-time exit", "fire-time convergence"}:
                    tally.update(check_dead(app, profile, make, got, want,
                                            golden, gpu, full_gpu))
                if "trial-level convergence" in taken:
                    _check_running_on(app, profile, make, gpu)
            except AssertionError as exc:
                raise AssertionError(
                    f"{app_name} {label} {kernel} seed {seed}: {exc}") from exc
            tally.update([label, *taken])
            tally.update((label, name) for name in taken)
    return tally
