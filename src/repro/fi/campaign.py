"""Statistical fault-injection campaigns behind one ``run_campaign`` API.

A campaign profiles the application fault-free (golden outputs, per-launch
cycles and dynamic-instruction counts), then runs N injected trials, each on
a reset device with one planned fault, and tallies the outcome classes.

:func:`run_campaign` is the single entry point: a frozen
:class:`CampaignSpec` names the injection ``level`` (``uarch``, ``sw``,
``sw-ld``, ``src``, ``src-sticky``), the application/kernel, the trial
budget, the seed and the worker-pool size; runtime-only collaborators
(profiles, progress callbacks, telemetry sessions) are keyword arguments.
A hardened campaign names its scheme (``CampaignSpec(harden="tmr")``), so
the harness always follows from the spec's identity.

``uarch`` campaigns additionally select a fault model
(``CampaignSpec(fault_model=...)``: ``transient`` — the paper's SEU —
or the persistent ``stuck0``/``stuck1``/``intermittent`` models of
:mod:`repro.fi.gpufi`) and a target family (``target="storage"`` for
RF/SMEM/caches, ``target="control"`` for parallelism-management state:
PCs, active masks, barrier and scheduler registers). Every trial runs
under a cross-launch cycle watchdog (``REPRO_HANG_FACTOR`` × the golden
run's total cycles, floored at :data:`TRIAL_CYCLE_FLOOR`): a persistent
control-state fault that hangs the simulated app — even via a host
convergence loop the per-launch budgets cannot see — aborts as a Timeout
instead of wedging a worker, at any worker count. With both knobs at
their defaults, journals, tallies and cache payloads are byte-identical
to the transient-only pipeline.

``CampaignSpec(sdc_anatomy=True)`` additionally fingerprints every SDC
trial (see :mod:`repro.sdc`): the faulty outputs are diffed against the
golden run into a compact error-pattern record with a TOLERABLE/CRITICAL
severity verdict, journaled with the trial, aggregated on the result
(:attr:`CampaignResult.sdc_anatomy`), and cached. The flag is part of the
cache key; with it off, journals and cache payloads are byte-identical to
an anatomy-unaware build.

Results are cached as JSON under ``.repro_cache/`` keyed by every parameter
that affects the outcome (the identity of :mod:`repro.identity`) — the
worker count deliberately excluded, so serial and parallel runs share
cache entries — and experiments and benchmarks
sharing campaigns (Figs. 1, 2, 4, 5, Table I all reuse the same base
campaigns) never redo simulation work.

Trial loops are delegated to the execution engine in
:mod:`repro.fi.runner`: trials are journaled as they complete (killed
campaigns resume where they stopped), unexpected trial exceptions are
isolated and retried instead of aborting the campaign, cache writes are
atomic (temp file + ``os.replace``), and ``workers > 1`` fans trials out
over a forked worker pool with bit-identical results.

Campaigns can stop early: ``CampaignSpec(stop_rule=StopRule(...))`` (or
``REPRO_CI_HALFWIDTH``) ends the trial loop once the Wilson interval on
the failure rate is at least as tight as requested (never before the
rule's ``min_trials``), and ``CampaignSpec(budget=N)`` plans an adaptive
campaign for up to ``N`` trials instead of the fixed ``trials`` count
(see :mod:`repro.fi.planner`). Both fields enter the cache key only when
set, and per-trial seeds come from the same prefix-stable streams either
way — fixed-budget campaigns stay byte-identical (keys, journals,
tallies), and an adaptive campaign agrees with the fixed one on every
trial it runs.

Campaigns are observable: ``CampaignSpec(telemetry=True)`` (or
``REPRO_TELEMETRY=1``) streams structured events — phase spans for the
golden run, injection, classification, journal commits and cache I/O,
plus per-trial outcomes and per-kernel LaunchStats rollups — to a JSONL
file under ``<cache_dir>/telemetry/`` (see :mod:`repro.telemetry`).
Telemetry never enters cache keys, journals, or tallies.

Environment knobs (see :mod:`repro.config`):

* ``REPRO_TRIALS`` — override the default trials per campaign cell.
* ``REPRO_CACHE_DIR`` — cache location (default ``.repro_cache``).
* ``REPRO_MAX_TRIAL_FAILURES`` — tolerated crash fraction (default 0.1).
* ``REPRO_WORKERS`` — default trial-execution pool size (default 1).
* ``REPRO_HANG_FACTOR`` — trial watchdog headroom (default 25x golden);
  off its default it enters the cache key.
* ``REPRO_TELEMETRY`` — default-enable campaign telemetry.
* ``REPRO_CI_HALFWIDTH`` / ``REPRO_MIN_TRIALS`` — default adaptive stop
  rule for specs that don't carry one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Callable

from repro.arch.config import GPUConfig
from repro.arch.structures import Structure
from repro.config import DEFAULT_HANG_FACTOR, DEFAULT_TRIALS, get_settings
from repro.errors import ConfigError, ExecutionError, PlanningError, SimTimeout
from repro.fi.gpufi import (
    FAULT_MODELS,
    FAULT_TARGETS,
    MicroarchFaultPlan,
    MicroarchInjector,
    plan_microarch_fault,
)
from repro.fi.journal import cache_dir
from repro.fi.nvbitfi import SoftwareInjector, plan_software_fault
from repro.fi.outcomes import FaultOutcome, OutcomeCounts
from repro.fi.planner import StopRule
from repro.fi.runner import ProgressFn, WorkerProgressFn, execute_trials
from repro.identity import (
    FAULT_AXES,
    campaign_identity,
    identity_extras,
    identity_tag,
)
from repro.kernels.base import DeviceHarness, GPUApplication, outputs_equal
from repro.log import get_logger
from repro.sim.gpu import GPU, TrialConverged
from repro.sim.replay import ReplayTrack, golden_record
from repro.telemetry.events import (
    NULL,
    TelemetrySession,
    current_telemetry,
    telemetry_events_path,
)
from repro.utils.rng import (
    SRC_PLAN,
    SW_PLAN,
    UARCH_FIRE,
    UARCH_PLAN,
    StreamTable,
    spawn_seeds,
)

__all__ = [
    "AppProfile", "CampaignResult", "CampaignSpec", "cache_dir",
    "default_trials", "profile_app", "run_campaign", "trial_cycle_budget",
    "CACHE_VERSION", "DEFAULT_TRIALS", "CAMPAIGN_LEVELS",
    "FAULT_MODELS", "FAULT_TARGETS",
]

log = get_logger(__name__)

#: Bump to invalidate every cached campaign result after a model change.
#: v12: permanent/intermittent fault models (``fault_model``/``target`` on
#: the spec, clamped — no longer wrapping — adjacent multi-bit groups, the
#: REPRO_HANG_FACTOR trial watchdog). v13: payloads carry ``num_bits``,
#: ``ecc_protected`` and ``hang_factor`` off their defaults.
CACHE_VERSION = 13

#: The injection levels ``run_campaign`` dispatches on. The ``uarch`` level
#: additionally fans out over ``CampaignSpec.fault_model`` (transient /
#: stuck0 / stuck1 / intermittent) and ``CampaignSpec.target``
#: (storage / control).
CAMPAIGN_LEVELS = ("uarch", "sw", "sw-ld", "src", "src-sticky")

#: Floor for the trial-level watchdog budget: short golden runs still get
#: enough headroom that a slow-but-terminating faulty run is not misread
#: as a hang.
TRIAL_CYCLE_FLOOR = 50_000


def default_trials() -> int:
    """Trials per campaign cell (``REPRO_TRIALS``, default 64)."""
    return get_settings().trials


def _matches_kernel(launch_name: str, kernel: str) -> bool:
    """A launch belongs to a kernel if it is the kernel or its vote step."""
    return launch_name == kernel or launch_name.startswith(kernel + "@")


@dataclass
class AppProfile:
    """Fault-free profile of one application on one configuration."""

    app_name: str
    config_name: str
    launches: list[dict]  # per-launch: index,name,cycles,injectable,...
    golden: dict  # output name -> ndarray
    total_cycles: int
    stats_by_launch: list[dict]
    #: The golden launches injected trials replay from (see
    #: :mod:`repro.sim.replay`); ``None`` simulates every launch. Never
    #: part of a cache key or payload: replay changes no result.
    replay: ReplayTrack | None = dataclasses.field(default=None, repr=False)

    def kernel_launches(self, kernel: str, include_post: bool = True
                        ) -> list[dict]:
        """Launches of a kernel; ``include_post=False`` drops hardening
        post-processing steps (``<kernel>@vote``) — the software-level
        injector only sees the computational kernel (NVBitFI instruments
        the kernel, not the TMR vote), while the cross-layer evaluation
        covers the whole hardened unit."""
        recs = [l for l in self.launches if _matches_kernel(l["name"], kernel)]
        if not include_post:
            recs = [l for l in recs if "@" not in l["name"]]
        return recs

    def kernel_cycles(self, kernel: str) -> int:
        return sum(l["cycles"] for l in self.kernel_launches(kernel))

    def kernel_instructions(self, kernel: str) -> int:
        return sum(l["injectable"] for l in self.kernel_launches(kernel))


def profile_app(
    app: GPUApplication,
    config: GPUConfig,
    harness_factory=None,
) -> AppProfile:
    """Run the application fault-free and collect its profile."""
    gpu = GPU(config)
    gpu.recorder = ReplayTrack(config)
    harness = harness_factory() if harness_factory else DeviceHarness()
    golden = app.run(gpu, harness)
    harness.finalize(gpu)
    launches = []
    stats_by_launch = []
    for rec in gpu.launch_records:
        launches.append(
            {
                "index": rec.index,
                "name": rec.name,
                "cycles": rec.stats.cycles,
                "injectable": rec.stats.sw_injectable_instructions,
                "injectable_loads": rec.stats.sw_injectable_loads,
                "threads": rec.stats.threads_launched,
                "ctas": rec.stats.ctas_launched,
                "regs_per_thread": rec.stats.regs_per_thread,
                "smem_bytes_per_cta": rec.stats.smem_bytes_per_cta,
            }
        )
        stats_by_launch.append(rec.stats.snapshot(config))
    return AppProfile(
        app_name=app.name,
        config_name=config.name,
        launches=launches,
        golden=golden,
        total_cycles=sum(l["cycles"] for l in launches),
        stats_by_launch=stats_by_launch,
        replay=gpu.recorder,
    )


#: :class:`CampaignResult` fields a payload carries only when set.
_OPTIONAL_PAYLOAD = frozenset({"harden", "fault_model", "fault_target",
                               "sdc_anatomy", "planned_trials", "stop_rule",
                               "num_bits", "ecc_protected", "hang_factor"})


@dataclass
class CampaignResult:
    """Outcome tally + the profile-derived weights the AVF/SVF math needs."""

    app_name: str
    kernel: str
    injector: str  # "uarch" | "sw" | "sw-ld" | "sw-src-*"
    structure: str | None
    trials: int  # trials actually run (== planned unless stopped early)
    seed: int
    config_name: str
    counts: OutcomeCounts
    derating_factor: float = 1.0
    kernel_cycles: int = 0
    kernel_instructions: int = 0
    control_path_masked: int = 0  # masked trials whose cycle count changed
    #: Always ``False`` for new results (hardening is the ``harden``
    #: axis); kept in every payload so unhardened payloads stay
    #: byte-identical, and ``True`` only on payloads of older builds.
    hardened: bool = False
    #: Hardening-zoo scheme name when the campaign ran under a registry
    #: scheme (``CampaignSpec.harden``); ``None`` otherwise.
    harden: str | None = None
    #: Fault model / target axes of a uarch campaign (see
    #: :data:`repro.fi.gpufi.FAULT_MODELS`).
    fault_model: str = "transient"
    fault_target: str = "storage"
    #: SDC anatomy aggregate (``sdc_anatomy=True`` campaigns only):
    #: ``{"tolerable": int, "critical": int, "records": [...]}`` with one
    #: record per SDC trial in trial order.
    sdc_anatomy: dict | None = None
    #: Adaptive campaigns only: the trial budget the campaign was planned
    #: for, and the stop rule's identity payload. ``trials`` then records
    #: the count actually run.
    planned_trials: int | None = None
    stop_rule: dict | None = None
    #: Upset width and SECDED protection of a uarch campaign, and the
    #: trial watchdog's headroom (``REPRO_HANG_FACTOR``): identity axes
    #: the ledger's family fingerprint reads back from the payload.
    num_bits: int = 1
    ecc_protected: bool = False
    hang_factor: float = DEFAULT_HANG_FACTOR

    def to_dict(self) -> dict:
        """The cache payload. Like a campaign identity (see
        :mod:`repro.identity`), the fields newer than the payload format
        appear only when off their default, keeping payloads of campaigns
        that do not use them identical to those of older builds."""
        d = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)
             if f.name not in _OPTIONAL_PAYLOAD
             or getattr(self, f.name) != f.default}
        d["counts"] = self.counts.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "CampaignResult":
        d = dict(d)
        d["counts"] = OutcomeCounts.from_dict(d["counts"])
        return cls(**d)


@dataclass(frozen=True)
class CampaignSpec:
    """Everything that *identifies* one campaign, as one frozen value.

    ``app`` and ``config`` accept either registry/alias names (``"va"``,
    ``"gv100"``/``"v100"``) or already-built objects; ``kernel=None``
    means the application's first kernel, ``config=None`` the paper's
    tool pairing for the level (GV100 for ``uarch``, V100 otherwise).
    ``trials=None`` and ``workers=None`` defer to ``REPRO_TRIALS`` /
    ``REPRO_WORKERS``. Runtime-only collaborators (profiles, progress
    callbacks, telemetry sessions) are keyword arguments of
    :func:`run_campaign`, not part of the spec — the spec is exactly the
    identity that determines the result.
    """

    level: str
    app: "GPUApplication | str"
    kernel: str | None = None
    structure: "Structure | str | None" = None  # uarch only
    config: "GPUConfig | str | None" = None
    trials: int | None = None
    seed: int = 1
    workers: int | None = None
    #: Hardening-zoo scheme by name (``tmr``/``dmr``/``abft``/``range``,
    #: see :mod:`repro.hardening.registry`): the campaign resolves its
    #: harness factory from the registry, and the scheme joins the cache
    #: key, seed tag and journal meta. ``None`` (the default) leaves
    #: every unhardened identity byte-for-byte untouched.
    harden: str | None = None
    num_bits: int = 1  # uarch fault model: 1 = single-bit, 2 = adjacent
    ecc_protected: bool = False  # uarch only: SECDED on the target structure
    #: Persistence axis of a uarch fault (``transient`` / ``stuck0`` /
    #: ``stuck1`` / ``intermittent``, see :mod:`repro.fi.gpufi`). The
    #: persistent models pin their bits every cycle for the rest of the
    #: run; defaults keep the legacy transient pipeline byte-identical.
    fault_model: str = "transient"
    #: Site family of a uarch fault: ``storage`` (RF/SMEM/caches, needs a
    #: ``structure``) or ``control`` (parallelism-management state — PCs,
    #: active masks, barrier/scheduler registers; ``structure`` must stay
    #: unset).
    target: str = "storage"
    use_cache: bool = True
    #: Fingerprint every SDC trial (see :mod:`repro.sdc`): the faulty
    #: outputs are diffed against the golden run into an error-pattern
    #: record with a TOLERABLE/CRITICAL severity verdict, journaled with
    #: the trial and aggregated on :attr:`CampaignResult.sdc_anatomy`.
    #: Part of the cache key; off-path journals and payloads are
    #: byte-identical to anatomy-unaware builds.
    sdc_anatomy: bool = False
    #: Collect telemetry events for this campaign (``None`` defers to
    #: ``REPRO_TELEMETRY``). Observability only: deliberately excluded
    #: from cache keys, journals and tallies, which stay bit-identical
    #: with telemetry on or off.
    telemetry: bool | None = None
    #: Adaptive early stopping (see :class:`repro.fi.planner.StopRule`):
    #: end the trial loop once the Wilson CI on the rule's metric is at
    #: least as tight as requested, never before its ``min_trials``.
    #: ``None`` defers to ``REPRO_CI_HALFWIDTH`` (unset → fixed budget).
    #: Enters the cache key only when set, so fixed-budget identities are
    #: untouched.
    stop_rule: "StopRule | None" = None
    #: Adaptive trial budget: plan up to this many trials instead of the
    #: fixed ``trials`` count. Requires a stop rule (an uncapped plan
    #: with no way to stop is a config error, and a budget without a rule
    #: is just ``trials``). Enters the cache key only when set.
    budget: int | None = None

    def derive(self, **overrides) -> "CampaignSpec":
        """A copy of this spec with the given fields replaced.

        The campaign analogue of :func:`dataclasses.replace`: experiments
        that sweep one axis (hardening scheme, fault model, structure,
        trial count) derive the variants from one base spec instead of
        restating every field —
        ``spec.derive(harden="tmr", trials=40)``.
        """
        return dataclasses.replace(self, **overrides)


def _resolve_app(app) -> GPUApplication:
    if isinstance(app, str):
        from repro.kernels import get_application  # local: heavy import

        try:
            return get_application(app)
        except KeyError:
            raise ConfigError(f"unknown application {app!r}") from None
    return app


def _resolve_config(config, level: str) -> GPUConfig:
    from repro.arch.config import quadro_gv100_like, tesla_v100_like

    if config is None:
        # The paper's tool pairing: gpuFI-4 on GV100, NVBitFI on V100.
        return quadro_gv100_like() if level == "uarch" else tesla_v100_like()
    if isinstance(config, str):
        named = {"gv100": quadro_gv100_like, "v100": tesla_v100_like}
        if config not in named:
            raise ConfigError(
                f"unknown config {config!r} (known: {', '.join(named)})")
        return named[config]()
    return config


def run_campaign(
    spec: CampaignSpec,
    *,
    profile: "AppProfile | None" = None,
    profile_supplier=None,
    max_failure_rate: float | None = None,
    progress: ProgressFn | None = None,
    worker_progress: WorkerProgressFn | None = None,
    telemetry_session: "TelemetrySession | None" = None,
) -> CampaignResult:
    """Run (or load from cache) the campaign a :class:`CampaignSpec` names.

    ``profile_supplier`` is an optional zero-arg callable evaluated only on
    a cache miss (keeps cache-hit paths free of simulation work);
    ``max_failure_rate`` overrides ``REPRO_MAX_TRIAL_FAILURES``;
    ``progress(completed, total, outcome)`` fires after every trial and
    ``worker_progress(worker_id, completed)`` as pool results arrive; see
    :mod:`repro.fi.runner` for the resilience and parallelism semantics.

    ``telemetry_session`` lets the caller choose where the telemetry
    event stream lands (and counts as opting in, unless the spec says
    ``telemetry=False``); without it, an enabled campaign writes to
    ``<cache_dir>/telemetry/<cache key>.jsonl``. The caller owns a
    session it passed in; campaign-created sessions are closed here.

    Every level runs the same steps — cache key, cache load, telemetry
    session, golden run, :func:`~repro.fi.runner.execute_trials`, result,
    cache store, ledger; a :class:`_Level` driver supplies what differs.
    """
    if spec.level not in CAMPAIGN_LEVELS:
        raise ConfigError(
            f"unknown campaign level {spec.level!r} "
            f"(known: {', '.join(CAMPAIGN_LEVELS)})")
    app = _resolve_app(spec.app)
    kernel = spec.kernel if spec.kernel is not None else app.kernel_names[0]
    config = _resolve_config(spec.config, spec.level)
    stop_rule = _resolve_stop_rule(spec)
    level = _level_driver(spec, f"{app.name}/{kernel}")
    harness_factory = None
    if spec.harden is not None:
        from repro.hardening.registry import hardening_scheme  # local:
        # the default path must not import kernel/hardening modules.

        harness_factory = hardening_scheme(spec.harden)

    trials_from_env = spec.trials is None and spec.budget is None
    trials = spec.trials if spec.trials is not None else default_trials()
    # An explicit budget caps the adaptive plan regardless of `trials`;
    # the key's "trials" entry is always the planned count, so a
    # budget-100 spec and a trials-100 spec with the same rule (which
    # behave identically) share one cache entry.
    planned = spec.budget if spec.budget is not None else trials
    rule = stop_rule.to_payload() if stop_rule is not None else None
    structure = level.structure
    structure_name = structure.value if structure is not None else None
    hang_factor = get_settings().hang_factor
    identity = campaign_identity(
        level.kind, app.name, kernel, config.name, structure=structure_name,
        num_bits=spec.num_bits, ecc=spec.ecc_protected,
        sdc_anatomy=spec.sdc_anatomy, fault_model=spec.fault_model,
        target=spec.target, harden=spec.harden, stop_rule=rule,
        hang_factor=hang_factor)
    key = _cache_key({"v": CACHE_VERSION, "app_seed": app.seed,
                      "trials": planned, "seed": spec.seed, **identity})
    if spec.use_cache:
        cached = _cache_load(key)
        if cached is not None:
            if telemetry_session is not None:
                telemetry_session.telemetry(key).emit(
                    "cache", op="load", hit=True)
            return CampaignResult.from_dict(cached)

    tel, session, owns_session = _campaign_telemetry(
        key, spec.telemetry, telemetry_session)
    try:
        if tel.enabled and spec.use_cache:
            tel.emit("cache", op="load", hit=False)
        if profile is None:
            with tel.span("golden_run"):
                profile = (profile_supplier() if profile_supplier is not None
                           else profile_app(app, config, harness_factory))
        launches = profile.kernel_launches(kernel, level.include_post)
        if not launches:
            raise PlanningError(
                f"{app.name} has no launches of kernel {kernel!r}")

        tag = identity_tag(identity)
        seeds = spawn_seeds(spec.seed, tag, planned)
        # Every trial's fault streams, derived before the first trial (and
        # before a pool forks); a resumed campaign rebuilds the same table.
        streams = StreamTable(seeds, level.tags)
        tally = execute_trials(
            key=key,
            seeds=seeds,
            trial_fn=_injection_trial_fn(
                app, profile, harness_factory,
                lambda s: level.plan(launches, s, streams),
                level.injector_attr, level.injector_cls,
                sdc_anatomy=spec.sdc_anatomy, site_fn=level.site),
            gpu_factory=_gpu_factory(profile, config),
            baseline_cycles=profile.total_cycles,
            max_failure_rate=max_failure_rate,
            progress=progress,
            journal=spec.use_cache,
            workers=spec.workers,
            worker_progress=worker_progress,
            meta=_journal_meta(level.kind, app, kernel, tag, spec.seed,
                               planned, trials_from_env,
                               identity_extras(identity)),
            telemetry=tel,
            event_tags=identity_extras(identity, FAULT_AXES) or None,
            stop_rule=stop_rule,
        )

        from repro.fi.avf import derating_factor  # local: import cycle

        result = CampaignResult(
            app_name=app.name,
            kernel=kernel,
            injector=level.kind,
            structure=structure_name,
            trials=(tally.counts.total if stop_rule is not None
                    else trials),
            seed=spec.seed,
            config_name=config.name,
            counts=tally.counts,
            # Software-level FI needs no derating (paper II-C).
            derating_factor=(derating_factor(structure, launches, config)
                             if structure is not None else 1.0),
            kernel_cycles=profile.kernel_cycles(kernel),
            kernel_instructions=sum(l[level.count] for l in launches),
            control_path_masked=tally.control_path_masked,
            harden=spec.harden,
            fault_model=spec.fault_model,
            fault_target=spec.target,
            sdc_anatomy=_anatomy_aggregate(tally) if spec.sdc_anatomy else None,
            planned_trials=planned if stop_rule is not None else None,
            stop_rule=rule,
            num_bits=spec.num_bits,
            ecc_protected=spec.ecc_protected,
            hang_factor=hang_factor,
        )
        if spec.use_cache:
            with tel.span("cache.store"):
                _cache_store(key, result.to_dict())
        _record_to_ledger(key, result, session)
        return result
    finally:
        if owns_session:
            session.close()


@dataclass(frozen=True)
class _Level:
    """What one injection level adds to the shared campaign body."""

    #: Injector label: cache-key ``kind``, journal level, payload injector.
    kind: str
    #: ``plan(launches, trial_seed, streams)`` -> the trial's fault plan,
    #: drawn from the campaign's stream table (``None``: from
    #: ``derive_rng``). The planners are looked up as module globals when
    #: a trial runs.
    plan: Callable
    #: The streams a trial draws (see :mod:`repro.utils.rng`): the
    #: campaign's stream table holds these tags for every trial seed.
    tags: tuple[str, ...]
    #: The GPU hook the plan's injector arms, and the injector class.
    injector_attr: str
    injector_cls: type
    #: ``site(plan)`` -> the SDC-anatomy site tag.
    site: Callable
    #: The targeted storage structure (derates the failure rate); ``None``
    #: for control-state and software-level campaigns.
    structure: Structure | None = None
    #: Plan over the hardening post-steps (``<kernel>@vote``) too; the
    #: software level instruments the computational kernel only.
    include_post: bool = True
    #: Launch-record field summed into ``kernel_instructions``.
    count: str = "injectable"


def _level_driver(spec: CampaignSpec, context: str) -> _Level:
    """Validate the level-specific spec fields and build the level's
    driver; ``context`` labels planning errors."""
    if spec.fault_model not in FAULT_MODELS:
        raise ConfigError(
            f"unknown fault model {spec.fault_model!r} "
            f"(known: {', '.join(FAULT_MODELS)})")
    if spec.target not in FAULT_TARGETS:
        raise ConfigError(
            f"unknown fault target {spec.target!r} "
            f"(known: {', '.join(FAULT_TARGETS)})")
    if spec.level != "uarch" and (spec.fault_model != "transient"
                                  or spec.target != "storage"):
        raise ConfigError(
            "fault_model/target select microarchitecture-level fault "
            f"variants; the {spec.level!r} level has no notion of them")
    if spec.level.startswith("src"):
        if spec.harden is not None:
            raise ConfigError(
                "source-level campaigns have no hardened variant")
        from repro.fi.svf_modes import SourceInjector, plan_source_fault

        sticky = spec.level == "src-sticky"
        return _Level(
            kind="sw-src-sticky" if sticky else "sw-src-transient",
            plan=lambda launches, s, streams=None: plan_source_fault(
                launches, s, sticky, context=context, streams=streams),
            tags=(SRC_PLAN,),
            injector_attr="sw_injector", injector_cls=SourceInjector,
            site=lambda plan: "src")
    if spec.level != "uarch":
        loads_only = spec.level == "sw-ld"
        return _Level(
            kind=spec.level,
            plan=lambda launches, s, streams=None: plan_software_fault(
                launches, s, loads_only, context=context, streams=streams),
            tags=(SW_PLAN,),
            injector_attr="sw_injector", injector_cls=SoftwareInjector,
            site=lambda plan: plan.injected_class or spec.level,
            include_post=False,
            count="injectable_loads" if loads_only else "injectable")
    if spec.target == "control":
        if spec.structure is not None:
            raise ConfigError(
                "control-target campaigns inject the parallelism-"
                "management state and pick their own sites; drop the "
                "structure")
        if spec.ecc_protected:
            raise ConfigError(
                "ECC protects storage arrays, not parallelism-"
                "management state; drop ecc_protected for "
                "target='control'")
        structure = None
    elif spec.structure is None:
        raise ConfigError("uarch campaigns need a target structure")
    else:
        structure = Structure(spec.structure)
    return _Level(
        kind="uarch",
        plan=lambda launches, s, streams=None: plan_microarch_fault(
            launches, structure, s, spec.num_bits, spec.ecc_protected,
            spec.fault_model, spec.target, context=context,
            streams=streams),
        tags=(UARCH_PLAN, UARCH_FIRE),
        injector_attr="uarch_injector", injector_cls=MicroarchInjector,
        # Control-target campaigns have no storage structure; "control"
        # stands in wherever a structure name labels things.
        site=lambda plan: structure.value if structure else "control",
        structure=structure)


def _resolve_stop_rule(spec: CampaignSpec) -> "StopRule | None":
    """The effective stop rule: the spec's, else the env default.

    ``REPRO_CI_HALFWIDTH`` opts every spec without an explicit rule into
    adaptive stopping (with ``REPRO_MIN_TRIALS`` as the floor) — and like
    every identity-bearing knob it then enters the cache key, so env-
    adaptive and fixed runs never share cache entries.
    """
    rule = spec.stop_rule
    if rule is not None and not isinstance(rule, StopRule):
        raise ConfigError(
            f"stop_rule must be a repro.fi.planner.StopRule, "
            f"got {type(rule).__name__}")
    if rule is None:
        settings = get_settings()
        if settings.ci_halfwidth is not None:
            rule = StopRule(ci_halfwidth=settings.ci_halfwidth,
                            min_trials=settings.min_trials)
    if spec.budget is not None:
        if not (isinstance(spec.budget, int) and spec.budget >= 1):
            raise ConfigError(
                f"budget must be a positive integer, got {spec.budget!r}")
        if rule is None:
            raise ConfigError(
                "budget plans an adaptive campaign and needs a stop_rule "
                "(or REPRO_CI_HALFWIDTH); for a fixed count use trials")
    return rule


def _cache_key(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def _cache_load(key: str) -> dict | None:
    path = cache_dir() / f"{key}.json"
    try:
        text = path.read_text()
    except FileNotFoundError:
        return None
    except OSError as exc:
        log.warning("campaign cache %s unreadable (%s); re-running the "
                    "campaign", path, exc)
        return None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        # Quarantine rather than silently re-simulating forever: the rename
        # both surfaces the corruption and unblocks the next _cache_store.
        quarantine = path.with_suffix(".json.corrupt")
        try:
            os.replace(path, quarantine)
            log.warning("campaign cache %s is corrupt (%s); quarantined as "
                        "%s and re-running the campaign", path.name, exc,
                        quarantine.name)
        except OSError as rename_exc:
            log.warning("campaign cache %s is corrupt (%s) and could not be "
                        "quarantined (%s)", path.name, exc, rename_exc)
        return None


def _cache_store(key: str, payload: dict) -> None:
    """Atomically persist one campaign result.

    The payload lands in a temp file in the cache directory first and is
    renamed over the final name only once fully written and fsynced, so a
    crash mid-write can never leave a torn ``<key>.json`` and concurrent
    readers always see either nothing or one complete payload.
    """
    d = cache_dir()
    d.mkdir(parents=True, exist_ok=True)
    path = d / f"{key}.json"
    fd, tmp = tempfile.mkstemp(dir=str(d), prefix=f".{key}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(json.dumps(payload, sort_keys=True))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _budget_fn(profile: AppProfile, config: GPUConfig):
    cycles = [l["cycles"] for l in profile.launches]

    def fn(launch_index: int, kernel_name: str) -> int:
        if launch_index < len(cycles):
            return config.timeout_cycles(cycles[launch_index])
        # Extra, unprofiled launches (fault-perturbed host loops) get the
        # budget of the longest profiled launch.
        return config.timeout_cycles(max(cycles) if cycles else 0)

    return fn


def _classify(app, gpu, harness, profile: AppProfile
              ) -> "tuple[FaultOutcome, int, dict | None]":
    """Run once under injection; returns (outcome, total cycles executed,
    outputs). Outputs are only produced by runs that complete (None for
    Timeout/DUE) — the SDC-anatomy path diffs them against the golden
    run. With telemetry on, emits the trial's per-kernel rollup."""
    try:
        outputs = app.run(gpu, harness)
        harness.finalize(gpu)
    except TrialConverged as end:
        return _converged(profile, gpu.launch_records, end.rest)
    except SimTimeout:
        outcome, outputs = FaultOutcome.TIMEOUT, None
    except ExecutionError:
        outcome, outputs = FaultOutcome.DUE, None
    else:
        outcome = (FaultOutcome.MASKED if outputs_equal(outputs, profile.golden)
                   else FaultOutcome.SDC)
    tel = current_telemetry()
    if tel.enabled:
        tel.emit("kernels", kernels=_kernel_rollup(gpu.launch_records))
    return outcome, _total_cycles(gpu), outputs


def _converged(profile: AppProfile, records=(), rest=()
               ) -> "tuple[FaultOutcome, int, dict]":
    """The result of a trial that ended at convergence: its fault died
    (or was settled when planned, :func:`_settled_at_plan`) while every
    launch so far was a golden copy, so the rest of the run is the golden
    run's (see :mod:`repro.sim.gpu`). Its cycles are the golden run's,
    which keeps it out of the control-path tally. ``records`` are the
    launches it ran, ``rest`` the golden launches it did not; telemetry
    counts those as replayed."""
    tel = current_telemetry()
    if tel.enabled:
        tel.emit("kernels", kernels=_kernel_rollup(records, rest),
                 converged=True)
    return FaultOutcome.MASKED, profile.total_cycles, profile.golden


def _total_cycles(gpu: GPU) -> int:
    return sum(rec.stats.cycles for rec in gpu.launch_records)


def trial_cycle_budget(profile: AppProfile) -> int:
    """The cross-launch watchdog budget of one trial.

    ``REPRO_HANG_FACTOR`` times the golden run's total cycles (floored at
    :data:`TRIAL_CYCLE_FLOOR`): per-launch budgets catch a kernel that
    loops, but only this cumulative bound catches a host convergence loop
    that a persistent fault keeps re-launching forever.
    """
    factor = get_settings().hang_factor
    return max(TRIAL_CYCLE_FLOOR,
               int(factor * max(profile.total_cycles, 1)))


def _gpu_factory(profile: AppProfile, config: GPUConfig):
    """Fresh budget-configured GPUs for the runner (start-up, worker
    processes, and post-crash replacement — a trial that blew up may have
    left the device corrupted)."""
    watchdog = trial_cycle_budget(profile)

    def factory() -> GPU:
        gpu = GPU(config)
        gpu.cycle_budget_fn = _budget_fn(profile, config)
        gpu.trial_cycle_budget = watchdog
        return gpu

    return factory


def _kernel_rollup(records, rest=()) -> dict[str, dict[str, int]]:
    """Per-kernel LaunchStats rollup of one trial's launch ``records``
    (small, summable counters only — the full snapshot would dominate the
    event stream). ``replayed`` counts the launches taken whole from the
    golden run, ``simulated_cycles`` the cycles the trial clocked itself,
    and ``dead_at_fire`` the launches whose fault flipped only dead state
    and ended at the fire cycle (see :mod:`repro.sim.replay`). The golden
    launches ``rest`` of a trial that ended at convergence count as
    replayed."""
    rollup: dict[str, dict[str, int]] = {}

    def add(rec, replayed, simulated_cycles, dead_at_fire):
        roll = rollup.setdefault(
            rec.name, {"launches": 0, "replayed": 0, "cycles": 0,
                       "simulated_cycles": 0, "dead_at_fire": 0,
                       "warp_instructions": 0, "thread_instructions": 0})
        roll["launches"] += 1
        roll["replayed"] += replayed
        roll["cycles"] += rec.stats.cycles
        roll["simulated_cycles"] += simulated_cycles
        roll["dead_at_fire"] += dead_at_fire
        roll["warp_instructions"] += rec.stats.warp_instructions
        roll["thread_instructions"] += rec.stats.thread_instructions

    for rec in records:
        add(rec, rec.replayed, rec.simulated_cycles, rec.dead_at_fire)
    for golden in rest:
        add(golden.record, True, 0, False)
    return rollup


class _GoldenFits:
    """Whether the golden run fits a GPU's cycle budgets
    (``GPU.golden_fits`` over the whole replay track), asked once per
    GPU: its budgets are set when it is built, and a campaign's track
    never changes. A campaign's trial body keeps one; the runner builds a
    new GPU only after a crash."""

    def __init__(self):
        self.gpu = None  # held, not its id(), so the id is never reused
        self.fits = False

    def __call__(self, gpu: GPU, launches) -> bool:
        if gpu is not self.gpu:
            self.gpu, self.fits = gpu, gpu.golden_fits(launches, 0)
        return self.fits


def _settled_at_plan(gpu: GPU, plan, profile: AppProfile,
                     fits: _GoldenFits | None = None):
    """``(records, rest)`` for :func:`_converged` when ``plan`` settles
    its trial before it runs, else None: an ECC-corrected plan flips
    nothing, and one dead at arm (``MicroarchFaultPlan.dead_at_arm``)
    dies whenever it fires, after golden launches and host code. So the
    trial is the golden run, if that fits the cycle budgets
    (``GPU.golden_fits``, asked through the campaign's ``fits`` memo
    when given). A dead-at-arm launch is recorded dead at fire."""
    replay = profile.replay
    if replay is None or not isinstance(plan, MicroarchFaultPlan):
        return None
    launches, at = replay.launches, plan.launch_index
    if plan.corrected_by_ecc:
        settled = (), launches
    elif plan.dead_at_arm(gpu, launches[at]):
        settled = ((golden_record(launches[at], 0, dead_at_fire=True),),
                   launches[:at] + launches[at + 1:])
    else:
        return None
    return settled if (fits or _GoldenFits())(gpu, launches) else None


def _injection_trial_fn(app, profile, harness_factory, plan_fn,
                        injector_attr, injector_cls,
                        sdc_anatomy=False, site_fn=None):
    """The one trial body all campaign levels share: plan a fault for the
    trial seed, arm the injector, run the app, classify.

    ``plan_fn(trial_seed)`` produces the fault plan; ``injector_attr`` is
    the GPU hook the plan's injector arms (``uarch_injector`` or
    ``sw_injector``). Telemetry (when the runner installed an emitter for
    this process) gets ``inject.plan`` / ``classify`` phase spans and a
    per-trial per-kernel LaunchStats rollup; the disabled path enters two
    no-op spans.

    With ``sdc_anatomy`` on, SDC trials return a third element — the
    anatomy record of :func:`repro.sdc.analyze_sdc`, tagged with
    ``site_fn(plan)`` (the injected structure / instruction class) — which
    the runner journals and tallies. With it off, trials return the legacy
    two-tuple, keeping journals byte-identical."""
    if sdc_anatomy:
        from repro.sdc import analyze_sdc  # deferred: fi never needs it
                                           # unless a spec opts in
    fits = _GoldenFits()

    def trial_fn(gpu: GPU, trial_seed: int):
        tel = current_telemetry()
        with tel.span("inject.plan"):
            plan = plan_fn(trial_seed)
        settled = _settled_at_plan(gpu, plan, profile, fits)
        if settled is not None:
            return _converged(profile, *settled)[:2]
        gpu.reset()
        gpu.replay = profile.replay
        setattr(gpu, injector_attr, injector_cls(plan))
        harness = harness_factory() if harness_factory else DeviceHarness()
        try:
            with tel.span("classify"):
                outcome, cycles, outputs = _classify(app, gpu, harness,
                                                     profile)
            if not sdc_anatomy:
                return outcome, cycles
            if outcome is not FaultOutcome.SDC:
                return outcome, cycles, None
            site = site_fn(plan) if site_fn is not None else ""
            return outcome, cycles, analyze_sdc(
                app.name, outputs, profile.golden, site)
        finally:
            setattr(gpu, injector_attr, None)
            gpu.replay = None

    return trial_fn


def _anatomy_aggregate(tally) -> dict:
    """Fold the runner's per-trial anatomy records into the
    :attr:`CampaignResult.sdc_anatomy` payload."""
    records = list(tally.sdc_records)
    critical = sum(1 for r in records if r.get("severity") == "critical")
    return {"tolerable": len(records) - critical, "critical": critical,
            "records": records}


def _journal_meta(level: str, app, kernel: str, tag: str, seed: int,
                  trials: int, trials_from_env: bool,
                  extra: dict | None = None) -> dict:
    """Campaign identity written to the journal's leading ``meta`` record,
    so ``campaign status`` can tell resumable journals from stale ones.
    ``extra`` carries non-default identity axes (fault model/target) —
    absent by default so legacy journals keep their exact shape."""
    meta = {
        "level": level, "app": app.name, "kernel": kernel, "tag": tag,
        "root_seed": seed, "trials": trials,
        "trials_from_env": trials_from_env, "cache_version": CACHE_VERSION,
    }
    if extra:
        meta.update(extra)
    return meta


def _campaign_telemetry(key: str, telemetry: bool | None,
                        session: "TelemetrySession | None"):
    """Resolve one campaign's telemetry emitter after a cache miss.

    ``telemetry`` is the spec's tri-state flag (``None`` → the
    ``REPRO_TELEMETRY`` default, except a caller-supplied session counts
    as opting in). Returns ``(tel, session, owns_session)`` — a campaign
    that created its own session (default path keyed by the cache key)
    must close it; caller-owned sessions are left open.
    """
    if telemetry is None:
        enabled = session is not None or get_settings().telemetry
    else:
        enabled = telemetry
    if not enabled:
        return NULL, session, False
    owns = session is None
    if owns:
        session = TelemetrySession(telemetry_events_path(key))
    return session.telemetry(key), session, owns


def _record_to_ledger(key: str, result: CampaignResult,
                      session: "TelemetrySession | None") -> None:
    """Run-ledger completion hook (``REPRO_STORE``, default on).

    Observation-only and off the trial hot path: one upsert per finished
    campaign, plus one perf sample folded from the telemetry stream when
    the campaign kept one. Every failure downgrades to a warning — a
    locked or read-only ledger must never fail a campaign, and the hook
    touches nothing the campaign produced (keys, journals, tallies and
    payloads are identical with the store on or off).
    """
    if not get_settings().store:
        return
    try:
        from repro.store import record_completed_campaign  # late: only
                                                           # recorders pay
                                                           # the import
        events_path = None
        if session is not None and session.events_written:
            session.flush()
            events_path = session.path
        record_completed_campaign(key, result.to_dict(),
                                  events_path=events_path)
    except Exception as exc:
        log.warning("run ledger record failed for campaign %s: %s", key, exc)
