"""One app run the way a campaign trial runs it, and the comparison every
exactness test of :mod:`repro.sim.replay` and trial-level convergence
(:mod:`repro.sim.gpu`) makes between two such runs."""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager

import numpy as np

from repro.arch.config import quadro_gv100_like, tesla_v100_like
from repro.errors import ExecutionError
from repro.fi.campaign import _gpu_factory, profile_app
from repro.fi.gpufi import MicroarchFaultPlan, MicroarchInjector, plan_microarch_fault
from repro.fi.nvbitfi import SoftwareFaultPlan, SoftwareInjector, plan_software_fault
from repro.fi.svf_modes import SourceInjector, plan_source_fault
from repro.kernels import get_application
from repro.kernels.base import DeviceHarness, GPUApplication
from repro.kernels.vectoradd import _VA_K1 as VA_K1
from repro.sim.gpu import TrialConverged
from repro.sim.replay import golden_record

_PROFILES: dict = {}


def golden_profile(app_name, config):
    """The shared profile of ``app_name`` on ``config``."""
    key = (app_name, config.name)
    if key not in _PROFILES:
        _PROFILES[key] = profile_app(get_application(app_name), config)
    return _PROFILES[key]


def fresh_profile(app, config):
    """A profile of its own, so no other test has captured checkpoints."""
    if isinstance(app, str):
        app = get_application(app)
    return profile_app(app, config)


def full(profile):
    """The same profile with replay, checkpoints and trial-level
    convergence off."""
    return dataclasses.replace(profile, replay=None)


@contextmanager
def no_arm_verdict():
    """Run the body with the dead-at-arm verdict off
    (``MicroarchFaultPlan.dead_at_arm`` always False): a campaign trial
    whose cache fault lies in a line the golden launch never fills is
    simulated to its fire, and its launch ends there (fire-time
    convergence)."""
    verdict = MicroarchFaultPlan.dead_at_arm
    MicroarchFaultPlan.dead_at_arm = lambda plan, gpu, golden: False
    try:
        yield
    finally:
        MicroarchFaultPlan.dead_at_arm = verdict


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
    records = gpu.launch_records
    return {"outcome": outcome, "cycles": sum(r.cycles for r in records),
            "outputs": outputs,
            "descriptions": [plan.description for plan in plans],
            "stats": [r.stats.snapshot() for r in records],
            "simulated": [r.simulated_cycles for r in records],
            "replayed": [r.replayed for r in records],
            "dead_at_fire": [r.dead_at_fire for r in records],
            # The launches the run ran before it ended at convergence.
            "converged": converged}


def agree(app, profile, make, gpu=None) -> dict:
    """``run`` of the plan ``make()`` returns, after asserting that it
    equals a full simulation of a fresh one (plans record that they
    fired)."""
    on = run(app, profile, make(), gpu=gpu)
    assert_same(on, run(app, full(profile), make()))
    return on


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
