"""Fault injection: microarchitecture-level (gpuFI-4-style, AVF) and
software-level (NVBitFI-style, SVF) injectors plus campaign orchestration.

This package's public surface is this module: build a frozen
:class:`CampaignSpec`, hand it to :func:`run_campaign`, get a
:class:`CampaignResult` whose :class:`OutcomeCounts` feed the AVF/SVF
math. Adaptive campaigns add :class:`StopRule` (CI-driven early
stopping) and the two-level suite planner (:func:`plan_suite` /
:func:`run_plan`). The submodules (``runner``, ``journal``, ``gpufi``,
``nvbitfi``, ...) are implementation detail — import from ``repro.fi``
unless you are testing their internals.
"""

from repro.fi.outcomes import FaultOutcome, OutcomeCounts
from repro.fi.gpufi import MicroarchFaultPlan, MicroarchInjector
from repro.fi.nvbitfi import SoftwareFaultPlan, SoftwareInjector
from repro.fi.campaign import (
    AppProfile,
    CampaignResult,
    CampaignSpec,
    default_trials,
    profile_app,
    run_campaign,
)
from repro.fi.planner import (
    CellPlan,
    StopRule,
    SuitePlan,
    plan_suite,
    render_plan,
    run_plan,
)
from repro.fi.runner import TrialTally
from repro.fi.avf import (
    VulnBreakdown,
    avf_of_application,
    avf_of_cache_group,
    avf_of_chip,
    avf_of_structure,
    derating_factor,
)
from repro.fi.svf import svf_of_application, svf_of_kernel

__all__ = [
    "FaultOutcome",
    "OutcomeCounts",
    "MicroarchFaultPlan",
    "MicroarchInjector",
    "SoftwareFaultPlan",
    "SoftwareInjector",
    "AppProfile",
    "CampaignResult",
    "CampaignSpec",
    "StopRule",
    "CellPlan",
    "SuitePlan",
    "TrialTally",
    "default_trials",
    "profile_app",
    "run_campaign",
    "plan_suite",
    "render_plan",
    "run_plan",
    "VulnBreakdown",
    "avf_of_application",
    "avf_of_cache_group",
    "avf_of_chip",
    "avf_of_structure",
    "derating_factor",
    "svf_of_application",
    "svf_of_kernel",
]
