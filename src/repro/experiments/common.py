"""Shared campaign orchestration for the experiment drivers.

``collect_suite`` runs (or loads from cache) the campaigns every figure
shares: per kernel, microarchitecture-level FI on all five structures on the
GV100-like configuration and software-level FI (plus the loads-only SVF-LD
variant) on the V100-like configuration — the paper's tool pairing.

Hardened variants run the same applications as ``harden="tmr"`` campaigns
(the TMR scheme of :mod:`repro.hardening.registry`).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Callable

from repro.arch.config import quadro_gv100_like, tesla_v100_like
from repro.arch.structures import Structure
from repro.config import get_settings
from repro.fi import (
    CampaignResult,
    CampaignSpec,
    VulnBreakdown,
    avf_of_application,
    avf_of_cache_group,
    avf_of_chip,
    avf_of_structure,
    default_trials,
    profile_app,
    run_campaign,
    svf_of_application,
    svf_of_kernel,
)
from repro.hardening import hardening_scheme
from repro.kernels import all_applications

#: Paper's figure/application ordering.
APP_ORDER = (
    "sradv1", "sradv2", "kmeans", "hotspot", "lud",
    "scp", "va", "nw", "pathfinder", "backprop", "bfs",
)


def hardened_trials() -> int:
    """Hardened apps simulate ~3.5x slower; default to a smaller n."""
    settings = get_settings()
    if settings.trials_hardened is not None:
        return settings.trials_hardened
    return max(16, settings.trials * 5 // 8)


#: ``progress_factory(campaign label) -> per-trial progress callback``
#: (see :mod:`repro.fi.runner`); lets experiment drivers surface trial
#: progress for every campaign in a suite pass.
ProgressFactory = Callable[[str], Callable]


def stderr_progress_factory(label: str):
    """Default suite progress reporter: one ``\\r``-updated stderr line."""

    def progress(done: int, total: int, outcome) -> None:
        end = "\n" if done == total else "\r"
        print(f"  {label}: {done}/{total} [{outcome.value}]",
              end=end, file=sys.stderr, flush=True)

    return progress


@dataclass
class KernelData:
    """Everything the figures need about one kernel."""

    app_name: str
    kernel: str
    uarch: dict[Structure, CampaignResult]
    sw: CampaignResult
    sw_ld: CampaignResult | None = None

    avf: VulnBreakdown = field(default_factory=VulnBreakdown)
    avf_rf: VulnBreakdown = field(default_factory=VulnBreakdown)
    avf_cache: VulnBreakdown = field(default_factory=VulnBreakdown)
    svf: VulnBreakdown = field(default_factory=VulnBreakdown)
    svf_ld: VulnBreakdown = field(default_factory=VulnBreakdown)

    @property
    def cycles(self) -> int:
        return next(iter(self.uarch.values())).kernel_cycles

    @property
    def instructions(self) -> int:
        return self.sw.kernel_instructions


@dataclass
class SuiteData:
    """All per-kernel campaign data for one (hardened or not) suite pass."""

    kernels: dict[tuple[str, str], KernelData]
    hardened: bool

    def kernel_order(self) -> list[tuple[str, str]]:
        return sorted(self.kernels, key=lambda k: (APP_ORDER.index(k[0]), k[1]))

    def app_avf(self) -> dict[str, VulnBreakdown]:
        out: dict[str, VulnBreakdown] = {}
        for app in APP_ORDER:
            items = {k: d for (a, k), d in self.kernels.items() if a == app}
            if items:
                out[app] = avf_of_application(
                    {k: d.avf for k, d in items.items()},
                    {k: d.cycles for k, d in items.items()},
                )
        return out

    def app_svf(self) -> dict[str, VulnBreakdown]:
        out: dict[str, VulnBreakdown] = {}
        for app in APP_ORDER:
            items = {k: d for (a, k), d in self.kernels.items() if a == app}
            if items:
                out[app] = svf_of_application(
                    {k: d.svf for k, d in items.items()},
                    {k: d.instructions for k, d in items.items()},
                )
        return out

    def app_breakdown(self, which: str) -> dict[str, VulnBreakdown]:
        """App-level aggregation of one sub-metric ('avf_rf', 'avf_cache',
        'svf_ld', ...), weighted as its base metric prescribes."""
        out: dict[str, VulnBreakdown] = {}
        for app in APP_ORDER:
            items = {k: d for (a, k), d in self.kernels.items() if a == app}
            if not items:
                continue
            values = {k: getattr(d, which) for k, d in items.items()}
            if which.startswith("avf"):
                out[app] = avf_of_application(
                    values, {k: d.cycles for k, d in items.items()}
                )
            else:
                out[app] = svf_of_application(
                    values, {k: d.instructions for k, d in items.items()}
                )
        return out


def collect_suite(
    hardened: bool = False,
    trials: int | None = None,
    with_ld: bool = True,
    apps: list[str] | None = None,
    seed: int = 1,
    progress_factory: ProgressFactory | None = None,
    workers: int | None = None,
    sdc_anatomy: bool = False,
) -> SuiteData:
    """Run/load the campaign grid for the whole benchmark suite.

    ``progress_factory`` (e.g. :func:`stderr_progress_factory`) is called
    once per campaign with a ``app/kernel/level`` label and must return a
    per-trial callback, forwarded to the campaign runner. ``workers``
    (default ``REPRO_WORKERS``) sets the trial-execution pool size every
    campaign in the pass runs with. ``sdc_anatomy`` turns on per-SDC
    fingerprints and severity verdicts for every campaign in the pass
    (see :mod:`repro.sdc`; distinct cache entries from an anatomy-off
    pass).
    """
    if trials is None:
        trials = hardened_trials() if hardened else default_trials()
    uarch_config = quadro_gv100_like()
    sw_config = tesla_v100_like()
    harden = "tmr" if hardened else None
    # Profiles must be taken under the harness the campaigns run.
    factory = hardening_scheme(harden) if harden else None
    kernels: dict[tuple[str, str], KernelData] = {}
    for app in all_applications():
        if apps is not None and app.name not in apps:
            continue

        # Profiles are simulated lazily: a fully-cached suite pass never
        # touches the simulator.
        profiles: dict[str, object] = {}

        def supplier(config, _app=app, _profiles=profiles):
            def get():
                if config.name not in _profiles:
                    _profiles[config.name] = profile_app(_app, config, factory)
                return _profiles[config.name]

            return get

        def reporter(label, _app=app):
            if progress_factory is None:
                return None
            return progress_factory(f"{_app.name}/{label}")

        def cell(level, kernel, config, structure=None, label=None):
            return run_campaign(
                CampaignSpec(level=level, app=app, kernel=kernel,
                             structure=structure, config=config,
                             trials=trials, seed=seed, workers=workers,
                             harden=harden, sdc_anatomy=sdc_anatomy),
                profile_supplier=supplier(config),
                progress=reporter(label),
            )

        for kernel in app.kernel_names:
            uarch = {
                s: cell("uarch", kernel, uarch_config, structure=s,
                        label=f"{kernel}/uarch-{s.value}")
                for s in Structure
            }
            sw = cell("sw", kernel, sw_config, label=f"{kernel}/sw")
            sw_ld = None
            if with_ld:
                sw_ld = cell("sw-ld", kernel, sw_config,
                             label=f"{kernel}/sw-ld")
            data = KernelData(app.name, kernel, uarch, sw, sw_ld)
            data.avf = avf_of_chip(uarch, uarch_config)
            data.avf_rf = avf_of_structure(uarch[Structure.RF])
            data.avf_cache = avf_of_cache_group(uarch, uarch_config)
            data.svf = svf_of_kernel(sw)
            if sw_ld is not None:
                data.svf_ld = svf_of_kernel(sw_ld)
            kernels[(app.name, kernel)] = data
    return SuiteData(kernels=kernels, hardened=hardened)


def kernel_label(app: str, kernel: str) -> str:
    """Paper-style label, e.g. ('sradv1', 'sradv1_k4') -> 'SRADv1 K4'."""
    pretty = {
        "sradv1": "SRADv1", "sradv2": "SRADv2", "kmeans": "K-Means",
        "hotspot": "HotSpot", "lud": "LUD", "scp": "SCP", "va": "VA",
        "nw": "NW", "pathfinder": "PathFinder", "backprop": "BackProp",
        "bfs": "BFS",
    }[app]
    suffix = kernel.rsplit("_k", 1)[-1]
    return f"{pretty} K{suffix}"


def app_label(app: str) -> str:
    return kernel_label(app, "x_k").split(" ")[0]
