"""Command-line interface: regenerate the paper's artifacts from a shell.

Usage::

    python -m repro.cli list
    python -m repro.cli run table1 fig1 fig8
    python -m repro.cli run all --trials 64
    python -m repro.cli apps
    python -m repro.cli disasm hotspot
    python -m repro.cli lint all
    python -m repro.cli staticvf bfs
    python -m repro.cli campaign run va --level sw --trials 128
    python -m repro.cli campaign run bfs --trials 200 --workers auto
    python -m repro.cli campaign run va --ci-halfwidth 0.05 --budget 512
    python -m repro.cli campaign plan --budget 4000
    python -m repro.cli campaign run va --workers 4 --trace out.json
    python -m repro.cli campaign report .repro_cache/telemetry/<key>.jsonl
    python -m repro.cli campaign status
    python -m repro.cli campaign run kmeans --level uarch --sdc-anatomy
    python -m repro.cli campaign ls --app va --level uarch
    python -m repro.cli campaign history va --structure rf
    python -m repro.cli campaign show <campaign key>
    python -m repro.cli campaign watch <campaign key>
    python -m repro.cli campaign backfill
    python -m repro.cli campaign gc --yes
    python -m repro.cli sdc profile <campaign key> --by site
    python -m repro.cli sdc report

The underlying campaigns cache under ``.repro_cache/``, so repeated
invocations are cheap. ``--workers N`` (or ``REPRO_WORKERS``) fans trials
out over a pool of worker processes with bit-identical results.
Interrupted campaigns journal completed trials under
``.repro_cache/journal/`` and resume automatically when re-run
(``campaign status`` shows what is in flight and flags journals a
configuration change has orphaned).

Adaptive campaigns: ``campaign run --ci-halfwidth H`` stops a campaign
once the Wilson interval on its failure rate is tight enough (never
before ``--min-trials``), with ``--budget`` as the trial ceiling;
``campaign plan`` dry-runs the two-level suite planner, showing how a
global microarch budget would split across (app, kernel, structure)
cells from static-ACE and software-pilot priors.

Campaign observability: ``campaign run --telemetry`` streams structured
events (phase timers, per-trial outcomes, worker utilization) to a JSONL
file; ``--trace out.json`` additionally exports a Chrome ``trace_event``
file loadable in chrome://tracing or https://ui.perfetto.dev. ``campaign
report`` renders an event stream (or the key/journal that names one) as
a throughput / phase / utilization / outcome summary table.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys

#: Experiment id -> module path (each module exposes ``run(...) -> str``).
EXPERIMENTS = {
    "fig1": "repro.experiments.fig1_app_avf_svf",
    "fig2": "repro.experiments.fig2_kernel_avf_svf",
    "fig3": "repro.experiments.fig3_utilization",
    "fig4": "repro.experiments.fig4_avf_rf",
    "fig5": "repro.experiments.fig5_avf_cache_svf_ld",
    "table1": "repro.experiments.table1_trends",
    "fig7": "repro.experiments.fig7_hardened",
    "fig8": "repro.experiments.fig8_sdc_hardening",
    "fig9": "repro.experiments.fig9_timeout_due",
    "fig10": "repro.experiments.fig10_component_breakdown",
    "fig11": "repro.experiments.fig11_control_path",
    "fig12": "repro.experiments.fig12_register_reuse",
    "svf-fix": "repro.experiments.svf_fix",
    "static-vf": "repro.experiments.static_vf",
    "static-structures": "repro.experiments.static_structures",
    "protection": "repro.experiments.protection_study",
    "speed-gap": "repro.experiments.speed_gap",
    "sdc-anatomy": "repro.experiments.sdc_anatomy",
    "permanent-faults": "repro.experiments.permanent_faults",
    "adaptive-campaign": "repro.experiments.adaptive_campaign",
    "hardening-zoo": "repro.experiments.hardening_zoo",
}

#: Experiments whose run() accepts a ``trials`` keyword.
_TRIALS_AWARE = {
    "fig1", "fig2", "fig3", "fig4", "fig5", "table1", "fig7", "fig8",
    "fig9", "fig10", "fig11", "svf-fix", "static-vf", "static-structures",
    "sdc-anatomy", "permanent-faults", "adaptive-campaign", "hardening-zoo",
}


def _cmd_list(_args) -> int:
    width = max(len(name) for name in EXPERIMENTS)
    for name, module_path in EXPERIMENTS.items():
        module = importlib.import_module(module_path)
        doc = (module.__doc__ or "").strip().splitlines()[0]
        print(f"{name:<{width}}  {doc}")
    return 0


def _cmd_run(args) -> int:
    names = list(EXPERIMENTS) if "all" in args.experiment else args.experiment
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    for name in names:
        module = importlib.import_module(EXPERIMENTS[name])
        kwargs = {}
        if args.trials is not None and name in _TRIALS_AWARE:
            kwargs["trials"] = args.trials
        print(module.run(**kwargs))
        print()
    return 0


def _cmd_apps(_args) -> int:
    from repro.kernels import all_applications

    for app in all_applications(suite="all"):
        print(app.describe())
    return 0


def _cmd_disasm(args) -> int:
    from repro.arch.config import quadro_gv100_like
    from repro.kernels import get_application
    from repro.sim import GPU

    app = get_application(args.app)
    gpu = GPU(quadro_gv100_like())
    app.run(gpu)
    seen: set[str] = set()
    import importlib as _imp

    module = _imp.import_module(type(app).__module__)
    for attr in dir(module):
        value = getattr(module, attr)
        if hasattr(value, "disassemble") and hasattr(value, "instructions"):
            if value.name not in seen:
                seen.add(value.name)
                print(value.disassemble())
                print()
    return 0


def _select_programs(selector: str):
    """Resolve a ``lint``/``staticvf`` selector to kernel programs.

    ``all`` means the whole suite; otherwise an application id or a single
    kernel id. Returns ``(app, kernel) -> Program`` or None (+ error printed).
    """
    from repro.kernels import application_names, kernel_programs

    programs = kernel_programs()
    if selector == "all":
        return programs
    if selector in application_names(suite="all"):
        return {k: p for k, p in programs.items() if k[0] == selector}
    by_kernel = {k: p for k, p in programs.items() if k[1] == selector}
    if by_kernel:
        return by_kernel
    known = ", ".join(sorted({a for a, _ in programs}))
    print(f"unknown app/kernel {selector!r} (apps: {known}, or 'all')",
          file=sys.stderr)
    return None


def _cmd_lint(args) -> int:
    import json

    from repro.kernels import lint_waivers
    from repro.staticanalysis import Severity, lint_program

    programs = _select_programs(args.target)
    if programs is None:
        return 2
    launches_by_kernel: dict = {}
    if not args.no_launches:
        from repro.staticanalysis.launches import kernel_launch_contexts

        for app, kernel in programs:
            launches_by_kernel[(app, kernel)] = kernel_launch_contexts(
                app, kernel)
    failed = 0
    waived_total = 0
    records: list[dict] = []
    for (app, kernel), program in programs.items():
        waivers = () if args.no_waivers else lint_waivers(kernel)
        report = lint_program(
            program, waivers,
            launches=launches_by_kernel.get((app, kernel), ()))
        waived_total += len(report.waived)
        if args.format == "json":
            records.extend(
                dict(rule=f.rule, app=app, kernel=kernel, pc=f.instr_index,
                     severity=str(f.severity), message=f.message,
                     waived=waived)
                for f, waived in (
                    [(f, False) for f in report.findings]
                    + [(f, True) for f, _ in report.waived])
            )
        elif report.findings or (args.show_waived and report.waived):
            print(report.render(show_waived=args.show_waived))
        if any(f.severity >= Severity.WARNING for f in report.findings):
            failed += 1
    n = len(programs)
    if args.format == "json":
        print(json.dumps(records, indent=2))
    else:
        status = ("clean" if not failed
                  else f"{failed} kernel(s) with findings")
        print(f"linted {n} kernel(s): {status}"
              + (f", {waived_total} finding(s) waived" if waived_total
                 else ""))
    return 1 if failed else 0


def _cmd_staticvf(args) -> int:
    from repro.staticanalysis import static_vf_report

    programs = _select_programs(args.target)
    if programs is None:
        return 2
    if args.structure == "smem":
        return _staticvf_structures(programs)
    header = (f"{'kernel':<16} {'instrs':>6} {'regs':>5} {'live':>6} "
              f"{'ACE':>7} {'reads/wr':>8} {'dead-wr':>7}")
    print(header)
    print("-" * len(header))
    for (app, kernel), program in programs.items():
        r = static_vf_report(program)
        print(f"{kernel:<16} {r.num_instructions:>6} {r.num_regs:>5} "
              f"{r.mean_live_regs:>6.1f} {r.ace_fraction:>7.1%} "
              f"{r.mean_reads_per_write:>8.2f} {r.dead_write_fraction:>7.1%}")
    print("\nACE = live register-bit-cycles / allocated register-bit-cycles "
          "(static, injection-free).\nSee 'repro.cli run static-vf' for the "
          "comparison against campaign AVF-RF.")
    return 0


def _staticvf_structures(programs) -> int:
    """``staticvf --structure smem``: launch-aware SMEM estimates."""
    from repro.arch.config import quadro_gv100_like
    from repro.staticanalysis import static_structure_report
    from repro.staticanalysis.launches import kernel_launch_contexts

    config = quadro_gv100_like()
    header = (f"{'kernel':<16} {'SMEM ACE':>9} {'SMEM DF':>9} "
              f"{'AVF-SMEM':>10}")
    print(header)
    print("-" * len(header))
    for (app, kernel), program in programs.items():
        contexts = kernel_launch_contexts(app, kernel)
        r = static_structure_report(program, contexts, config)
        print(f"{kernel:<16} {r.smem_ace:>9.1%} {r.smem_derating:>9.4f} "
              f"{r.avf_smem:>10.4%}")
    print("\nSMEM ACE = store-to-last-load live byte-weight over the "
          "shared window (abstract\ninterpretation).\nSee 'repro.cli run "
          "static-structures' for the comparison against campaigns.")
    return 0


class _CampaignProgress:
    """Live campaign progress on stderr: one ``\\r``-updated line with the
    in-order trial count, plus per-worker completion counters when the
    trial pool is active (results arrive out of order, so the per-worker
    tallies can run ahead of the committed ``trial done/total`` count)."""

    def __init__(self, label: str):
        self.label = label
        self.per_worker: dict[int, int] = {}
        self.done = 0
        self.total = 0
        self.outcome = ""

    def _render(self, final: bool) -> None:
        # workers can report before the first in-order commit sets total
        line = f"  {self.label}: trial {self.done}/{self.total or '?'}"
        if self.outcome:
            line += f" [{self.outcome}]"
        if self.per_worker and not final:
            counts = " ".join(f"w{w}:{n}"
                              for w, n in sorted(self.per_worker.items()))
            line += f"  ({counts})"
        end = "\n" if final else "\r"
        print(line, end=end, file=sys.stderr, flush=True)

    def __call__(self, done: int, total: int, outcome) -> None:
        self.done, self.total, self.outcome = done, total, outcome.value
        self._render(final=done == total)

    def worker_update(self, worker_id: int, completed: int) -> None:
        self.per_worker[worker_id] = completed
        self._render(final=False)


def _parse_workers_arg(value: str) -> int:
    if value.strip().lower() == "auto":
        from repro.config import auto_workers

        return auto_workers()
    try:
        workers = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"workers must be a positive integer or 'auto', got {value!r}"
        ) from None
    if workers < 1:
        raise argparse.ArgumentTypeError(
            f"workers must be a positive integer or 'auto', got {workers}")
    return workers


def _cmd_campaign_run(args) -> int:
    from repro.analysis.report import rate_with_ci
    from repro.errors import ReproError
    from repro.fi import CampaignSpec, FaultOutcome, StopRule, run_campaign
    from repro.fi.runner import resolve_workers
    from repro.kernels import get_application
    from repro.telemetry import (TelemetrySession, read_events, telemetry_dir,
                                 write_trace)

    try:
        app = get_application(args.app)
    except KeyError:
        print(f"unknown application: {args.app}", file=sys.stderr)
        return 2
    kernel = args.kernel or app.kernel_names[0]
    if kernel not in app.kernel_names:
        print(f"{args.app} has no kernel {kernel!r} "
              f"(has: {', '.join(app.kernel_names)})", file=sys.stderr)
        return 2
    label = f"{args.app}/{kernel}/{args.level}"
    if args.fault_model != "transient" or args.target != "storage":
        label += f"/{args.fault_model}/{args.target}"
    if args.harden:
        label += f"/{args.harden}"
    reporter = None if args.quiet else _CampaignProgress(label)
    telemetry_on = bool(args.telemetry or args.trace or args.events)
    session = None
    if telemetry_on:
        events_path = args.events or (
            telemetry_dir()
            / f"{args.app}-{kernel}-{args.level}-s{args.seed}.jsonl")
        session = TelemetrySession(events_path)
    # Control-target campaigns pick their own parallelism-management
    # sites; --structure only applies to uarch storage campaigns.
    structure = (args.structure
                 if args.level == "uarch" and args.target == "storage"
                 else None)
    stop_rule = None
    if args.ci_halfwidth is not None:
        from repro.config import get_settings

        min_trials = (args.min_trials if args.min_trials is not None
                      else get_settings().min_trials)
        try:
            stop_rule = StopRule(ci_halfwidth=args.ci_halfwidth,
                                 min_trials=min_trials)
        except ReproError as exc:
            print(f"bad stop rule: {exc}", file=sys.stderr)
            return 2
    elif args.budget is not None:
        print("--budget needs --ci-halfwidth (a budget without a stop "
              "rule is just --trials)", file=sys.stderr)
        return 2
    spec = CampaignSpec(
        level=args.level,
        app=app,
        kernel=kernel,
        structure=structure,
        config=args.config,  # None -> the level's paper pairing
        trials=args.trials,
        seed=args.seed,
        workers=args.workers,
        harden=args.harden,
        fault_model=args.fault_model,
        target=args.target,
        use_cache=not args.no_cache,
        sdc_anatomy=args.sdc_anatomy,
        telemetry=True if telemetry_on else None,
        stop_rule=stop_rule,
        budget=args.budget,
    )
    try:
        result = run_campaign(
            spec,
            progress=reporter,
            worker_progress=(reporter.worker_update
                             if reporter is not None
                             and resolve_workers(args.workers) > 1 else None),
            telemetry_session=session,
        )
    except ReproError as exc:
        print(f"campaign failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if session is not None:
            session.close()
    counts = result.counts
    planned = (f" of {result.planned_trials} planned"
               if result.planned_trials is not None
               and result.planned_trials != result.trials else "")
    print(f"{label} on {result.config_name}: "
          f"{result.trials} trials{planned}, seed {result.seed}")
    if stop_rule is not None:
        achieved = stop_rule.achieved(counts)
        reached = achieved if achieved is not None else float("inf")
        status = "reached" if reached <= stop_rule.ci_halfwidth else "missed"
        print(f"  stop rule: {stop_rule.confidence:.0%} CI half-width "
              f"{achieved if achieved is not None else float('nan'):.3f} "
              f"({status} target {stop_rule.ci_halfwidth})")
    for outcome in FaultOutcome:
        n = getattr(counts, outcome.value)
        if outcome is not FaultOutcome.CRASH or n:
            print(f"  {outcome.value:<8} {n:>6}  ({counts.rate(outcome):.1%})")
    failures = counts.sdc + counts.timeout + counts.due
    print(f"  failure rate {rate_with_ci(failures, counts.classified)}")
    if result.sdc_anatomy is not None:
        anatomy = result.sdc_anatomy
        print(f"  sdc severity: {anatomy['critical']} critical, "
              f"{anatomy['tolerable']} tolerable "
              f"(see 'repro.cli sdc profile')")
    if session is not None:
        if session.events_written > 1:
            print(f"  telemetry: {session.events_written} event(s) "
                  f"-> {session.path}")
            if args.trace:
                trace_path = write_trace(read_events(session.path), args.trace)
                print(f"  trace: {trace_path} "
                      f"(open in chrome://tracing or ui.perfetto.dev)")
        else:
            # 0 or 1 events = the result came straight from the cache (at
            # most the cache-hit marker was recorded); nothing to trace.
            print("  telemetry: result served from the cache — re-run "
                  "with --no-cache to trace a live campaign")
    return 0


def _cmd_campaign_plan(args) -> int:
    from repro.errors import ReproError
    from repro.fi import default_trials, plan_suite, render_plan
    from repro.kernels import application_names, kernel_programs

    apps = None
    if args.apps:
        apps = [a.strip() for a in args.apps.split(",") if a.strip()]
        known = set(application_names())
        unknown = [a for a in apps if a not in known]
        if unknown:
            print(f"unknown application(s): {', '.join(unknown)} "
                  f"(known: {', '.join(sorted(known))})", file=sys.stderr)
            return 2
    budget = args.budget
    if budget is None:
        # Match the fixed path's spend: default_trials() per suite cell
        # (5 structures per kernel), so the table shows where the same
        # budget *should* have gone.
        kernels = [k for k in kernel_programs()
                   if apps is None or k[0] in apps]
        budget = default_trials() * 5 * len(kernels)
    try:
        plan = plan_suite(budget=budget, apps=apps,
                          pilot_trials=args.pilot_trials,
                          seed=args.seed, workers=args.workers)
    except ReproError as exc:
        print(f"planning failed: {exc}", file=sys.stderr)
        return 1
    print(render_plan(plan))
    return 0


def _resolve_report_events(target: str):
    """Map a ``campaign report`` target to its telemetry event stream.

    Accepts the events ``.jsonl`` itself, a campaign journal path (the
    sibling telemetry file is derived from its key), or a bare campaign
    key looked up under ``<cache_dir>/telemetry/``. Returns a Path or
    None (with the error printed).
    """
    from pathlib import Path

    from repro.telemetry import telemetry_dir, telemetry_events_path

    path = Path(target)
    if path.is_file():
        if path.parent.name == "journal":
            sibling = telemetry_events_path(path.stem)
            if sibling.is_file():
                return sibling
            print(f"{target} is a journal and {sibling} does not exist; "
                  f"re-run the campaign with telemetry enabled",
                  file=sys.stderr)
            return None
        return path
    by_key = telemetry_events_path(path.stem)
    if by_key.is_file():
        return by_key
    print(f"no telemetry event stream at {target} (or "
          f"{by_key}); run 'campaign run --telemetry' first — streams "
          f"live under {telemetry_dir()}", file=sys.stderr)
    return None


def _cmd_campaign_report(args) -> int:
    from repro.telemetry import read_events, render_summary, summarize_events
    from repro.telemetry import write_trace

    events_path = _resolve_report_events(args.target)
    if events_path is None:
        return 2
    events = read_events(events_path)
    if not events:
        print(f"{events_path} holds no events", file=sys.stderr)
        return 1
    print(render_summary(summarize_events(events)))
    if args.trace:
        trace_path = write_trace(events, args.trace)
        print(f"\n  trace: {trace_path} "
              f"(open in chrome://tracing or ui.perfetto.dev)")
    return 0


def _cmd_campaign_status(_args) -> int:
    from repro.fi import default_trials
    from repro.fi.campaign import CACHE_VERSION
    from repro.fi.journal import cache_dir, journal_dir, list_journals
    from repro.fi.runner import journal_validity

    entries = list_journals()
    if entries:
        print(f"in-flight campaign journals under {journal_dir()}:")
        current_trials = default_trials()
        for info in entries:
            resumable, reason = journal_validity(
                info.meta, info.records, current_trials, CACHE_VERSION)
            name = info.key
            if info.meta is not None:
                name += (f" ({info.meta.get('app')}/{info.meta.get('kernel')}"
                         f"/{info.meta.get('level')})")
            if not resumable:
                print(f"  {name}: invalid — will restart ({reason})")
                continue
            note = f", {info.crashes} crash event(s)" if info.crashes else ""
            planned = (f"/{info.meta['trials']}"
                       if info.meta and "trials" in info.meta else "")
            print(f"  {name}: {info.trials}{planned} trial(s) "
                  f"completed{note}")
    else:
        print("no in-flight campaign journals")
    d = cache_dir()
    cached = len(list(d.glob("*.json"))) if d.is_dir() else 0
    corrupt = len(list(d.glob("*.corrupt"))) if d.is_dir() else 0
    print(f"{cached} cached campaign result(s) in {d}")
    if corrupt:
        print(f"warning: {corrupt} quarantined corrupt cache file(s) "
              f"(*.corrupt) in {d}")
    return 0


def _open_ledger():
    """The run ledger, or None (error printed) when none exists yet.

    Opening creates the database, so query commands check for the file
    first — a pointless empty ledger in the cache dir would be this CLI's
    only side effect.
    """
    from repro.store import RunLedger, store_path

    path = store_path()
    if not path.exists():
        print(f"no run ledger at {path}; run a campaign (REPRO_STORE=1 is "
              f"the default) or 'campaign backfill' to index the cache",
              file=sys.stderr)
        return None
    return RunLedger(path)


def _run_table(rows) -> None:
    header = (f"{'key':<14} {'level':<8} {'tag':<44} {'trials':>6} "
              f"{'fail%':>7} {'vf':>8} {'src':<8}")
    print(header)
    print("-" * len(header))
    for r in rows:
        print(f"{r['cache_key'][:12]:<14} {r['level']:<8} "
              f"{r['tag'][:44]:<44} {r['trials']:>6} "
              f"{r['failure_rate']:>7.1%} {r['vf']:>8.4f} {r['source']:<8}")


def _cmd_campaign_ls(args) -> int:
    ledger = _open_ledger()
    if ledger is None:
        return 2
    with ledger:
        rows = ledger.runs(app=args.app, kernel=args.kernel,
                           level=args.level, structure=args.structure,
                           fault_model=args.fault_model, tag=args.tag,
                           harden=args.harden)
    if not rows:
        print("no recorded campaigns match")
        return 0
    _run_table(rows)
    print(f"{len(rows)} recorded campaign(s)")
    return 0


def _cmd_campaign_history(args) -> int:
    ledger = _open_ledger()
    if ledger is None:
        return 2
    with ledger:
        rows = ledger.history(args.app, kernel=args.kernel,
                              level=args.level, structure=args.structure,
                              harden=args.harden)
    if not rows:
        print(f"no recorded campaigns for {args.app}")
        return 0
    # One trend block per spec family (same cell, any seed/budget),
    # oldest first — the cross-campaign AVF/SVF trend, no payloads read.
    by_family: dict[str, list] = {}
    for r in rows:
        by_family.setdefault(r["spec_fingerprint"], []).append(r)
    for family in by_family.values():
        print(f"{family[0]['tag']}  ({len(family)} run(s))")
        print(f"  {'key':<14} {'seed':>5} {'trials':>6} {'masked':>6} "
              f"{'sdc':>5} {'fail%':>7} {'vf':>8}")
        for r in family:
            print(f"  {r['cache_key'][:12]:<14} {r['seed']:>5} "
                  f"{r['trials']:>6} {r['masked']:>6} {r['sdc']:>5} "
                  f"{r['failure_rate']:>7.1%} {r['vf']:>8.4f}")
        vfs = [r["vf"] for r in family]
        if len(vfs) > 1:
            print(f"  vf range {min(vfs):.4f} .. {max(vfs):.4f} "
                  f"(last {vfs[-1]:.4f})")
        print()
    return 0


def _cmd_campaign_show(args) -> int:
    ledger = _open_ledger()
    if ledger is None:
        return 2
    with ledger:
        row = ledger.get(args.key)
        if row is None:
            matches = [r for r in ledger.runs()
                       if r["cache_key"].startswith(args.key)]
            if len(matches) == 1:
                row = matches[0]
            elif matches:
                print(f"{args.key!r} is ambiguous: "
                      + ", ".join(m["cache_key"][:16] for m in matches),
                      file=sys.stderr)
                return 2
        if row is None:
            print(f"no recorded campaign {args.key!r}", file=sys.stderr)
            return 1
        perf = ledger.perf_samples(row["cache_key"])
    import datetime

    for name in ("cache_key", "tag", "spec_fingerprint", "level", "app",
                 "kernel", "structure", "config", "fault_model", "target",
                 "hardened", "harden", "sdc_anatomy", "seed", "trials",
                 "planned_trials", "stopped_early", "masked", "sdc",
                 "timeout", "due", "crash", "failure_rate", "derating",
                 "vf", "kernel_cycles", "kernel_instructions",
                 "control_path_masked", "source", "observations"):
        print(f"  {name:<20} {row[name]}")
    when = datetime.datetime.fromtimestamp(row["recorded_at"])
    print(f"  {'recorded_at':<20} {when:%Y-%m-%d %H:%M:%S}")
    if perf:
        print(f"  perf samples ({len(perf)}):")
        for p in perf:
            print(f"    {p['trials']:>5} trial(s) w{p['workers']}: "
                  f"{p['trials_per_sec']:.2f} trials/s, "
                  f"p99 {p['latency_p99'] * 1e3:.1f} ms "
                  f"[{p['source']}]")
    return 0


def _cmd_campaign_watch(args) -> int:
    from pathlib import Path

    from repro.store import watch

    key = Path(args.target).stem  # bare key, journal path, events path all
                                  # reduce to the campaign key
    snap = watch(key, interval=args.interval, once=args.once)
    if not snap.committed and not snap.running:
        print(f"nothing to watch for {key!r}: no journal, no cached "
              f"result", file=sys.stderr)
        return 1
    return 0


def _cmd_campaign_backfill(args) -> int:
    from repro.fi.journal import cache_dir
    from repro.store import RunLedger, store_path

    with RunLedger(store_path()) as ledger:
        imported, skipped = ledger.backfill(args.cache_dir or cache_dir())
    print(f"backfilled {imported} cached campaign(s) into {store_path()}"
          + (f" ({skipped} unreadable payload(s) skipped)" if skipped
             else ""))
    return 0


def _cmd_campaign_gc(args) -> int:
    from repro.fi import default_trials
    from repro.fi.campaign import CACHE_VERSION
    from repro.fi.journal import cache_dir, list_journals
    from repro.fi.runner import journal_validity

    doomed: list = []  # (path, why)
    d = cache_dir()
    for path in sorted(d.glob("*.corrupt")) if d.is_dir() else []:
        doomed.append((path, "quarantined corrupt cache entry"))
    current_trials = default_trials()
    for info in list_journals():
        resumable, reason = journal_validity(
            info.meta, info.records, current_trials, CACHE_VERSION)
        if not resumable:
            doomed.append((d / "journal" / f"{info.key}.jsonl",
                           f"stale journal ({reason})"))
    if not doomed:
        print("nothing to prune")
        return 0
    total = 0
    for path, why in doomed:
        try:
            size = path.stat().st_size
        except OSError:
            size = 0
        total += size
        verb = "deleting" if args.yes else "would delete"
        print(f"  {verb} {path} ({size} bytes): {why}")
        if args.yes:
            try:
                path.unlink()
            except OSError as exc:
                print(f"    could not delete: {exc}", file=sys.stderr)
    action = "reclaimed" if args.yes else "reclaimable (re-run with --yes)"
    print(f"{len(doomed)} file(s), {total} bytes {action}")
    return 0


def _resolve_sdc_records(target: str):
    """Map a ``sdc profile`` target to its anatomy records.

    Accepts a campaign journal ``.jsonl``, a cached result ``.json``
    payload, or a bare campaign key (looked up as a cached result first,
    then as an in-flight journal). Returns ``(records, label)`` or
    ``(None, None)`` with the error printed.
    """
    import json
    from pathlib import Path

    from repro.fi.journal import cache_dir, journal_dir
    from repro.sdc import (load_journal_records, records_from_journal,
                           records_from_result)

    path = Path(target)
    if not path.is_file():
        for candidate in (cache_dir() / f"{path.stem}.json",
                          journal_dir() / f"{path.stem}.jsonl"):
            if candidate.is_file():
                path = candidate
                break
        else:
            print(f"no cached result or journal for {target!r} under "
                  f"{cache_dir()}", file=sys.stderr)
            return None, None
    if path.suffix == ".jsonl":
        records = records_from_journal(load_journal_records(path))
    else:
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read {path}: {exc}", file=sys.stderr)
            return None, None
        records = records_from_result(payload)
    return records, path.stem


def _cmd_sdc_profile(args) -> int:
    from repro.sdc import build_profiles, render_profiles

    records, label = _resolve_sdc_records(args.target)
    if records is None:
        return 2
    if not records:
        print(f"{args.target} holds no SDC anatomy records — run the "
              f"campaign with --sdc-anatomy", file=sys.stderr)
        return 1
    profiles = build_profiles(records, by=args.by)
    print(render_profiles(profiles, title=f"corruption profiles: {label}",
                          by=args.by))
    return 0


def _cmd_sdc_report(args) -> int:
    import json

    from repro.fi.journal import cache_dir
    from repro.sdc import build_profiles, records_from_result, render_profiles

    d = cache_dir()
    found = 0
    for path in sorted(d.glob("*.json")) if d.is_dir() else []:
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        records = records_from_result(payload)
        if not records:
            continue
        found += 1
        label = (f"{payload.get('app_name')}/{payload.get('kernel')}/"
                 f"{payload.get('injector')} [{path.stem}]")
        print(render_profiles(build_profiles(records, by=args.by),
                              title=f"corruption profiles: {label}",
                              by=args.by))
        print()
    if not found:
        print(f"no cached campaign with SDC anatomy records under {d}; "
              f"run one with --sdc-anatomy (or the sdc-anatomy experiment)",
              file=sys.stderr)
        return 1
    print(f"{found} campaign(s) with SDC anatomy records")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="Cross-layer GPU reliability assessment"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments").set_defaults(
        func=_cmd_list
    )
    run_parser = sub.add_parser("run", help="run experiment(s)")
    run_parser.add_argument("experiment", nargs="+",
                            help="experiment ids, or 'all'")
    run_parser.add_argument("--trials", type=int, default=None,
                            help="injections per campaign cell")
    run_parser.set_defaults(func=_cmd_run)

    sub.add_parser("apps", help="list benchmark applications").set_defaults(
        func=_cmd_apps
    )
    disasm_parser = sub.add_parser("disasm", help="disassemble an app's kernels")
    disasm_parser.add_argument("app")
    disasm_parser.set_defaults(func=_cmd_disasm)

    lint_parser = sub.add_parser(
        "lint", help="run the static kernel linter (CI gate)")
    lint_parser.add_argument("target",
                             help="application id, kernel id, or 'all'")
    lint_parser.add_argument("--no-waivers", action="store_true",
                             help="ignore per-kernel waivers "
                                  "(repro.kernels.waivers)")
    lint_parser.add_argument("--show-waived", action="store_true",
                             help="also print waived findings")
    lint_parser.add_argument("--format", default="table",
                             choices=["table", "json"],
                             help="output format: human table (default) or "
                                  "a JSON record per finding")
    lint_parser.add_argument("--no-launches", action="store_true",
                             help="skip the launch-aware value-set rules "
                                  "(race, oob-shared, oob-global, "
                                  "redundant-barrier); these need one "
                                  "fault-free run per app to capture "
                                  "launch geometry")
    lint_parser.set_defaults(func=_cmd_lint)

    staticvf_parser = sub.add_parser(
        "staticvf", help="static (injection-free) vulnerability estimates")
    staticvf_parser.add_argument("target", nargs="?", default="all",
                                 help="application id, kernel id, or 'all'")
    staticvf_parser.add_argument("--structure", default="rf",
                                 choices=["rf", "smem"],
                                 help="estimate family: RF liveness table "
                                      "(default) or the launch-aware "
                                      "SMEM estimates")
    staticvf_parser.set_defaults(func=_cmd_staticvf)

    campaign_parser = sub.add_parser(
        "campaign", help="run/resume/inspect individual FI campaigns")
    campaign_sub = campaign_parser.add_subparsers(
        dest="campaign_command", required=True)
    crun = campaign_sub.add_parser(
        "run", help="run one campaign (resumes from its journal if killed)")
    crun.add_argument("app", help="application id (see 'apps')")
    crun.add_argument("kernel", nargs="?", default=None,
                      help="kernel id (default: the app's first kernel)")
    crun.add_argument("--level", default="sw",
                      choices=["uarch", "sw", "sw-ld", "src", "src-sticky"],
                      help="injection level / fault model")
    crun.add_argument("--structure", default="rf",
                      choices=["rf", "smem", "l1d", "l1t", "l2"],
                      help="target structure (uarch level only)")
    crun.add_argument("--fault-model", default="transient",
                      choices=["transient", "stuck0", "stuck1",
                               "intermittent"],
                      help="uarch fault model: one-shot transient flip "
                           "(default), permanent stuck-at-0/1, or "
                           "duty-cycled intermittent stuck-at")
    crun.add_argument("--target", default="storage",
                      choices=["storage", "control"],
                      help="uarch fault site class: storage arrays "
                           "(--structure) or parallelism-management state "
                           "(per-lane PCs, active masks, barriers, warp "
                           "scheduler; ignores --structure)")
    crun.add_argument("--config", default=None, choices=["gv100", "v100"],
                      help="GPU configuration (default: the level's "
                           "paper pairing — gv100 for uarch, v100 for sw)")
    crun.add_argument("--trials", type=int, default=None)
    crun.add_argument("--ci-halfwidth", type=float, default=None,
                      metavar="H",
                      help="stop early once the Wilson CI on the failure "
                           "rate has half-width <= H (also via "
                           "REPRO_CI_HALFWIDTH)")
    crun.add_argument("--min-trials", type=int, default=None,
                      metavar="N",
                      help="never stop before N classified trials "
                           "(default: REPRO_MIN_TRIALS or 16)")
    crun.add_argument("--budget", type=int, default=None, metavar="N",
                      help="trial ceiling for an adaptive campaign "
                           "(requires --ci-halfwidth; replaces --trials)")
    crun.add_argument("--seed", type=int, default=1)
    crun.add_argument("--workers", type=_parse_workers_arg, default=None,
                      metavar="N|auto",
                      help="trial-execution pool size (default: "
                           "REPRO_WORKERS; 'auto' = all cores but one)")
    crun.add_argument("--harden", default=None,
                      choices=["tmr", "dmr", "abft", "range"],
                      help="run under a hardening-zoo scheme (named "
                           "DeviceHarness registry; distinct cache "
                           "entries per scheme)")
    crun.add_argument("--sdc-anatomy", action="store_true",
                      help="fingerprint every SDC trial and classify its "
                           "severity (see 'sdc profile'; distinct cache "
                           "entries from anatomy-off runs)")
    crun.add_argument("--no-cache", action="store_true",
                      help="ignore cache and journal; run from scratch")
    crun.add_argument("--quiet", action="store_true",
                      help="suppress per-trial progress on stderr")
    crun.add_argument("--telemetry", action="store_true",
                      help="record structured telemetry events (JSONL)")
    crun.add_argument("--events", default=None, metavar="PATH",
                      help="telemetry event stream destination (implies "
                           "--telemetry; default: .repro_cache/telemetry/)")
    crun.add_argument("--trace", default=None, metavar="PATH",
                      help="export a Chrome trace_event JSON after the run "
                           "(implies --telemetry; open in chrome://tracing "
                           "or ui.perfetto.dev)")
    crun.set_defaults(func=_cmd_campaign_run)
    cplan = campaign_sub.add_parser(
        "plan", help="dry-run the two-level suite planner: show how a "
                     "global microarch budget splits across cells")
    cplan.add_argument("--budget", type=int, default=None, metavar="N",
                       help="global microarch trial budget (default: "
                            "the fixed path's spend, default_trials() "
                            "per cell)")
    cplan.add_argument("--apps", default=None, metavar="A,B,...",
                       help="comma-separated application ids "
                            "(default: the whole suite)")
    cplan.add_argument("--pilot-trials", type=int, default=8, metavar="N",
                       help="software-level pilot trials per kernel "
                            "for the priors (default: 8)")
    cplan.add_argument("--seed", type=int, default=1)
    cplan.add_argument("--workers", type=_parse_workers_arg, default=None,
                       metavar="N|auto",
                       help="pool size for the pilot campaigns")
    cplan.set_defaults(func=_cmd_campaign_plan)
    creport = campaign_sub.add_parser(
        "report", help="summarize a campaign's telemetry event stream")
    creport.add_argument("target",
                         help="events .jsonl, campaign journal path, or "
                              "campaign key")
    creport.add_argument("--trace", default=None, metavar="PATH",
                         help="also export the Chrome trace_event JSON")
    creport.set_defaults(func=_cmd_campaign_report)
    cstatus = campaign_sub.add_parser(
        "status", help="list in-flight journals and cached results")
    cstatus.set_defaults(func=_cmd_campaign_status)
    cls_ = campaign_sub.add_parser(
        "ls", help="list recorded campaigns from the run ledger")
    cls_.add_argument("--app", default=None)
    cls_.add_argument("--kernel", default=None)
    cls_.add_argument("--level", default=None,
                      choices=["uarch", "sw", "sw-ld", "sw-src-transient",
                               "sw-src-sticky"])
    cls_.add_argument("--structure", default=None,
                      choices=["rf", "smem", "l1d", "l1t", "l2"])
    cls_.add_argument("--fault-model", default=None,
                      choices=["transient", "stuck0", "stuck1",
                               "intermittent"])
    cls_.add_argument("--harden", default=None,
                      choices=["tmr", "dmr", "abft", "range", "none"],
                      help="filter by hardening-zoo scheme "
                           "('none' = unhardened rows)")
    cls_.add_argument("--tag", default=None, metavar="SUBSTR",
                      help="substring match on the campaign tag")
    cls_.set_defaults(func=_cmd_campaign_ls)
    chistory = campaign_sub.add_parser(
        "history", help="cross-campaign trend tables for one app "
                        "(per spec family, oldest run first)")
    chistory.add_argument("app", help="application id")
    chistory.add_argument("--kernel", default=None)
    chistory.add_argument("--level", default=None,
                          choices=["uarch", "sw", "sw-ld",
                                   "sw-src-transient", "sw-src-sticky"])
    chistory.add_argument("--structure", default=None,
                          choices=["rf", "smem", "l1d", "l1t", "l2"])
    chistory.add_argument("--harden", default=None,
                          choices=["tmr", "dmr", "abft", "range", "none"],
                          help="filter by hardening-zoo scheme "
                               "('none' = unhardened rows)")
    chistory.set_defaults(func=_cmd_campaign_history)
    cshow = campaign_sub.add_parser(
        "show", help="every recorded field of one campaign")
    cshow.add_argument("key", help="campaign cache key (prefix ok)")
    cshow.set_defaults(func=_cmd_campaign_show)
    cwatch = campaign_sub.add_parser(
        "watch", help="live dashboard over an in-flight campaign "
                      "(journal + telemetry tail; also renders a "
                      "completed campaign's final frame)")
    cwatch.add_argument("target",
                        help="campaign key, journal path, or events path")
    cwatch.add_argument("--interval", type=float, default=1.0, metavar="S",
                        help="refresh interval in seconds (default 1)")
    cwatch.add_argument("--once", action="store_true",
                        help="render one frame and exit")
    cwatch.set_defaults(func=_cmd_campaign_watch)
    cbackfill = campaign_sub.add_parser(
        "backfill", help="index existing cached campaign payloads into "
                         "the run ledger")
    cbackfill.add_argument("--cache-dir", default=None, metavar="DIR",
                           help="cache directory to scan "
                                "(default: REPRO_CACHE_DIR)")
    cbackfill.set_defaults(func=_cmd_campaign_backfill)
    cgc = campaign_sub.add_parser(
        "gc", help="prune quarantined .corrupt cache entries and stale "
                   "journals (dry-run by default)")
    cgc.add_argument("--yes", action="store_true",
                     help="actually delete (default: report only)")
    cgc.set_defaults(func=_cmd_campaign_gc)

    sdc_parser = sub.add_parser(
        "sdc", help="inspect SDC anatomy (fingerprints, severity, profiles)")
    sdc_sub = sdc_parser.add_subparsers(dest="sdc_command", required=True)
    sprofile = sdc_sub.add_parser(
        "profile", help="render corruption profiles from one campaign")
    sprofile.add_argument("target",
                          help="campaign journal .jsonl, cached result "
                               ".json, or bare campaign key")
    sprofile.add_argument("--by", default="site",
                          choices=["site", "severity", "metric"],
                          help="grouping field (default: injection site)")
    sprofile.set_defaults(func=_cmd_sdc_profile)
    sreport = sdc_sub.add_parser(
        "report", help="corruption profiles for every cached campaign "
                       "that carries anatomy records")
    sreport.add_argument("--by", default="site",
                         choices=["site", "severity", "metric"],
                         help="grouping field (default: injection site)")
    sreport.set_defaults(func=_cmd_sdc_report)

    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (``repro list | head -1``): stop
        # quietly. Point stdout at devnull so the interpreter's final
        # flush of what is still buffered cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    return status


if __name__ == "__main__":
    raise SystemExit(main())
