"""Campaign metrics: event aggregation.

* :class:`Histogram`, an exact-quantile distribution of observed values.
* :func:`summarize_events`, which folds a campaign's event stream (see
  :mod:`repro.telemetry.events`) into a
  :class:`CampaignSummary`: trial-latency distribution, throughput,
  per-worker utilization and shard imbalance, outcome mix, cache
  hit/miss counts, and per-kernel LaunchStats rollups.

:func:`render_summary` turns a summary into the human-readable table the
``repro.cli campaign report`` subcommand prints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.log import get_logger

__all__ = [
    "CampaignSummary", "Histogram", "render_summary", "summarize_events",
]

log = get_logger(__name__)


class Histogram:
    """Distribution of observed values (stores the samples; campaigns emit
    a few thousand trial latencies at most, so exact quantiles beat bucket
    bookkeeping)."""

    __slots__ = ("_values", "_sorted")

    def __init__(self):
        self._values: list[float] = []
        self._sorted = True

    def observe(self, value: float) -> None:
        self._values.append(float(value))
        self._sorted = False

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def total(self) -> float:
        return sum(self._values)

    @property
    def mean(self) -> float:
        return self.total / len(self._values) if self._values else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile, ``p`` in [0, 100]."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self._values:
            return 0.0
        if not self._sorted:
            self._values.sort()
            self._sorted = True
        rank = max(1, math.ceil(p / 100.0 * len(self._values)))
        return self._values[rank - 1]

    @property
    def min(self) -> float:
        return self.percentile(0.0)

    @property
    def max(self) -> float:
        return self.percentile(100.0)

    def snapshot(self) -> dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "max": self.max,
        }


# --------------------------------------------------------- event aggregation

def _worker_label(worker) -> str:
    return "main" if worker is None else f"w{worker}"


@dataclass
class CampaignSummary:
    """Everything ``campaign report`` prints, computed from one event
    stream."""

    campaign: str = ""
    meta: dict = field(default_factory=dict)  # campaign/begin extra fields
    wall_time: float = 0.0  # first event ts .. last event end
    trials: int = 0  # committed this run (resumed replays excluded)
    resumed: int = 0
    trials_per_sec: float = 0.0
    trial_latency: Histogram = field(default_factory=Histogram)
    phases: dict[str, Histogram] = field(default_factory=dict)
    outcome_counts: dict[str, int] = field(default_factory=dict)
    #: SDC severity split ("critical"/"tolerable"), anatomy campaigns only.
    sdc_severity: dict[str, int] = field(default_factory=dict)
    worker_trials: dict[str, int] = field(default_factory=dict)
    worker_busy: dict[str, float] = field(default_factory=dict)
    worker_utilization: dict[str, float] = field(default_factory=dict)
    shard_imbalance: float = 0.0  # max/min trials across pool workers
    cache_hits: int = 0
    cache_misses: int = 0
    kernels: dict[str, dict[str, int]] = field(default_factory=dict)
    #: Trials that ended at convergence (the rest of the run golden).
    trials_converged: int = 0
    #: Adaptive campaigns only: chunked scheduling rounds submitted, the
    #: planned trial budget, and how many of those trials the stop rule
    #: made unnecessary.
    planning_rounds: int = 0
    trials_planned: int = 0
    trials_saved: int = 0


def summarize_events(events: list[dict]) -> CampaignSummary:
    """Fold an event stream into a :class:`CampaignSummary`.

    Robust to damaged streams: an empty event list (telemetry file
    created but no events survived a crash) returns the explicitly-empty
    summary — all counts zero, empty histograms — and malformed events
    (non-dict entries, unparseable ``ts``/``dur``, e.g. from a torn JSONL
    tail that still parsed as JSON) are skipped with one logged warning
    instead of raising out of ``campaign report``.
    """
    s = CampaignSummary()
    if not events:
        return s
    trials: dict[str, int] = {}
    busy: dict[str, float] = {}
    t_min = math.inf
    t_max = 0.0
    malformed = 0

    for e in events:
        try:
            ts = float(e.get("ts", 0.0))
            dur = float(e.get("dur", 0.0))
        except (AttributeError, TypeError, ValueError):
            malformed += 1
            continue
        t_min = min(t_min, ts)
        t_max = max(t_max, ts + dur)
        kind = e.get("kind")
        if kind == "campaign":
            s.campaign = e.get("campaign", s.campaign)
            if e.get("phase") == "begin":
                s.meta = {k: v for k, v in e.items()
                          if k not in ("ts", "kind", "name", "phase")}
                s.resumed = int(e.get("resumed", 0))
            elif e.get("phase") == "end" and "planned" in e:
                s.trials_planned = int(e.get("planned", 0))
                s.trials_saved = int(e.get("saved", 0))
        elif kind == "plan":
            s.planning_rounds += 1
        elif kind == "span":
            name = e.get("name", "")
            s.phases.setdefault(name, Histogram()).observe(dur)
            if name == "trial":
                s.trial_latency.observe(dur)
                label = _worker_label(e.get("worker"))
                trials[label] = trials.get(label, 0) + 1
                busy[label] = busy.get(label, 0.0) + dur
        elif kind == "commit":
            s.trials += 1
            outcome = str(e.get("outcome"))
            s.outcome_counts[outcome] = s.outcome_counts.get(outcome, 0) + 1
            severity = e.get("severity")
            if severity is not None:
                severity = str(severity)
                s.sdc_severity[severity] = s.sdc_severity.get(severity, 0) + 1
        elif kind == "cache":
            if e.get("hit"):
                s.cache_hits += 1
            else:
                s.cache_misses += 1
        elif kind == "kernels":
            s.trials_converged += bool(e.get("converged"))
            for kernel, counters in (e.get("kernels") or {}).items():
                roll = s.kernels.setdefault(kernel, {})
                for counter, value in counters.items():
                    roll[counter] = roll.get(counter, 0) + int(value)

    if malformed:
        log.warning("skipped %d malformed event(s) while summarizing "
                    "(damaged stream?)", malformed)
    s.wall_time = max(0.0, t_max - t_min)
    if s.wall_time > 0:
        s.trials_per_sec = s.trials / s.wall_time

    s.worker_trials = dict(sorted(trials.items()))
    s.worker_busy = dict(sorted(busy.items()))
    for label, busy in s.worker_busy.items():
        s.worker_utilization[label] = (busy / s.wall_time
                                       if s.wall_time > 0 else 0.0)
    pool = [n for label, n in s.worker_trials.items() if label != "main"]
    if pool:
        s.shard_imbalance = max(pool) / min(pool) if min(pool) else math.inf
    return s


def render_summary(s: CampaignSummary) -> str:
    """The ``campaign report`` table."""
    lines: list[str] = []
    ident = s.campaign or "<unknown>"
    if s.meta:
        app = s.meta.get("app")
        kernel = s.meta.get("kernel")
        level = s.meta.get("level")
        if app:
            ident += f" ({app}/{kernel}/{level})"
    lines.append(f"campaign {ident}")
    lines.append(f"  trials committed   {s.trials}"
                 + (f"  (+{s.resumed} replayed from journal)" if s.resumed
                    else ""))
    if s.trials_planned:
        lines.append(
            f"  adaptive stop      saved {s.trials_saved} of "
            f"{s.trials_planned} planned trial(s) "
            f"({s.trials_saved / s.trials_planned:.0%}) over "
            f"{s.planning_rounds} planning round(s)")
    lines.append(f"  wall time          {s.wall_time:.3f} s")
    lines.append(f"  throughput         {s.trials_per_sec:.2f} trials/s")
    if s.trial_latency.count:
        lines.append(
            f"  trial latency      mean {s.trial_latency.mean * 1e3:.1f} ms, "
            f"p50 {s.trial_latency.percentile(50) * 1e3:.1f} ms, "
            f"p90 {s.trial_latency.percentile(90) * 1e3:.1f} ms, "
            f"max {s.trial_latency.max * 1e3:.1f} ms")

    if s.phases:
        lines.append("")
        lines.append(f"  {'phase':<16} {'count':>6} {'total':>10} {'mean':>10}")
        for name in sorted(s.phases,
                           key=lambda n: -s.phases[n].total):
            h = s.phases[name]
            lines.append(f"  {name:<16} {h.count:>6} {h.total:>9.3f}s "
                         f"{h.mean * 1e3:>8.1f}ms")

    if s.worker_trials:
        lines.append("")
        lines.append("  worker utilization (busy / wall):")
        for label in sorted(s.worker_trials):
            busy = s.worker_busy.get(label, 0.0)
            util = s.worker_utilization.get(label, 0.0)
            lines.append(f"    {label:<5} {util:>6.1%}  "
                         f"({s.worker_trials[label]} trial(s), "
                         f"{busy:.3f} s busy)")
        pool = {k: v for k, v in s.worker_trials.items() if k != "main"}
        if pool:
            lines.append(f"    shard imbalance: max/min trials "
                         f"{max(pool.values())}/{min(pool.values())} "
                         f"({s.shard_imbalance:.2f}x)")

    if s.outcome_counts:
        lines.append("")
        lines.append("  outcome mix:")
        total = sum(s.outcome_counts.values())
        for outcome in sorted(s.outcome_counts,
                              key=lambda o: -s.outcome_counts[o]):
            n = s.outcome_counts[outcome]
            lines.append(f"    {outcome:<8} {n:>6}  ({n / total:.1%})")
        if s.sdc_severity:
            split = ", ".join(f"{sev} {s.sdc_severity[sev]}"
                              for sev in sorted(s.sdc_severity))
            lines.append(f"    sdc severity: {split}")

    lines.append("")
    lines.append(f"  result cache       {s.cache_hits} hit(s), "
                 f"{s.cache_misses} miss(es)")
    if s.kernels:
        replayed = sum(r.get("replayed", 0) for r in s.kernels.values())
        launches = sum(r.get("launches", 0) for r in s.kernels.values())
        lines.append(f"  launches replayed  {replayed} of {launches}")
        if any("simulated_cycles" in r for r in s.kernels.values()):
            simulated = sum(r.get("simulated_cycles", 0)
                            for r in s.kernels.values())
            cycles = sum(r.get("cycles", 0) for r in s.kernels.values())
            share = simulated / cycles if cycles else 0.0
            # Depends on trial order and worker sharding, except in a
            # transient RF campaign: checkpoints are captured lazily, so a
            # later trial may fast-forward further, while an RF campaign's
            # fire census captures them all first (see repro.sim.replay).
            # Outcomes and cycles do not.
            lines.append(f"  cycles simulated   {simulated} of {cycles} "
                         f"({share:.1%})")
        if any("dead_at_fire" in r for r in s.kernels.values()):
            dead = sum(r.get("dead_at_fire", 0) for r in s.kernels.values())
            lines.append(f"  faults dead at fire {dead} of {s.trials} trials")
        lines.append(f"  trials ended at convergence {s.trials_converged} "
                     f"of {s.trials} trials")
        lines.append("  per-kernel rollup (summed over injected trials):")
        for kernel in sorted(s.kernels):
            roll = s.kernels[kernel]
            detail = ", ".join(f"{k} {v}" for k, v in sorted(roll.items()))
            lines.append(f"    {kernel:<16} {detail}")
    return "\n".join(lines)
