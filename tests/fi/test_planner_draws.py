"""The planners' launch draw against a copy of their bodies from before
:func:`repro.utils.rng.weighted_index`, which drew it with
``Generator.choice``: over 500 seeds on every kernel of the suite, each
planner picks the same launch and draws the same site after it. A NumPy
change to ``choice`` then fails here by name, not only in a digest."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.config import quadro_gv100_like, tesla_v100_like
from repro.arch.structures import Structure
from repro.fi.gpufi import plan_microarch_fault
from repro.fi.nvbitfi import plan_software_fault
from repro.fi.svf_modes import plan_source_fault
from repro.kernels import application_names, get_application
from repro.utils.rng import derive_rng
from tests.sim.trials import golden_profile

SEEDS = range(500)


def _choice(rng, launches: list[dict], weights: list[int]) -> dict:
    w = np.array(weights, dtype=float)
    return launches[int(rng.choice(len(launches), p=w / w.sum()))]


def _old_uarch(launches: list[dict], seed: int) -> tuple:
    """``plan_microarch_fault``'s draws of an intermittent fault (the
    transient draws are their prefix)."""
    rng = derive_rng(seed, "uarch-plan")
    chosen = _choice(rng, launches,
                     [max(rec["cycles"], 1) for rec in launches])
    cycle = int(rng.integers(max(chosen["cycles"], 1)))
    stuck_value = int(rng.integers(2))
    duty_period = int(2 ** rng.integers(5, 11))
    duty_on = max(1, int(duty_period * rng.uniform(0.1, 0.9)))
    return chosen["index"], cycle, stuck_value, duty_period, duty_on


def _old_software(launches: list[dict], seed: int, tag: str, key: str,
                  window: int) -> tuple | None:
    """``plan_software_fault`` (tag ``sw-plan``) and ``plan_source_fault``
    (``svf-src-plan``, a candidate window twice the count); None where the
    planner has no candidate to draw."""
    rng = derive_rng(seed, tag)
    launches = [rec for rec in launches if rec[key] > 0]
    if not launches:
        return None
    chosen = _choice(rng, launches, [rec[key] for rec in launches])
    return (chosen["index"], int(rng.integers(chosen[key] * window)),
            int(rng.integers(32)))


@pytest.mark.parametrize("app_name", application_names("all"))
def test_planners_draw_what_generator_choice_drew(app_name):
    app = get_application(app_name)
    uarch = golden_profile(app, quadro_gv100_like())
    software = golden_profile(app, tesla_v100_like())
    checked = 0
    for kernel in app.kernel_names:
        on_gv100 = uarch.kernel_launches(kernel)
        on_v100 = software.kernel_launches(kernel)
        levels = {
            "sw": (lambda s: plan_software_fault(on_v100, s),
                   ("sw-plan", "injectable", 1)),
            "sw-ld": (lambda s: plan_software_fault(on_v100, s, True),
                      ("sw-plan", "injectable_loads", 1)),
            "src": (lambda s: plan_source_fault(on_v100, s, False),
                    ("svf-src-plan", "injectable", 2)),
        }
        for seed in SEEDS:
            plan = plan_microarch_fault(on_gv100, Structure.RF, seed,
                                        fault_model="intermittent")
            assert (plan.launch_index, plan.cycle, plan.stuck_value,
                    plan.duty_period, plan.duty_on) == _old_uarch(
                        on_gv100, seed), (kernel, "uarch", seed)
            for level, (planner, old) in levels.items():
                want = _old_software(on_v100, seed, *old)
                if want is None:
                    continue
                plan = planner(seed)
                assert (plan.launch_index, plan.candidate_index,
                        plan.bit) == want, (kernel, level, seed)
                checked += 1
    assert checked
