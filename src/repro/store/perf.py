"""Performance facts of one campaign execution, folded from its telemetry.

:class:`PerfMetrics` (trials/sec, trial-latency p50/p95/p99, worker
utilization, cache hit rate) is what the ledger's ``perf_samples`` table
stores for every telemetry-enabled campaign (see
:meth:`repro.store.ledger.RunLedger.record_perf`) and ``campaign show``
prints. Regression gating lives in the campaign benchmark,
``benchmarks/perf``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.telemetry.metrics import CampaignSummary

__all__ = ["PerfMetrics"]


@dataclass(frozen=True)
class PerfMetrics:
    """One campaign execution's performance facts."""

    trials: int
    workers: int
    wall_time: float
    trials_per_sec: float
    latency_p50: float
    latency_p95: float
    latency_p99: float
    worker_utilization: float  # mean across the workers that ran trials
    cache_hit_rate: float

    @classmethod
    def from_summary(cls, s: CampaignSummary) -> "PerfMetrics":
        utils = list(s.worker_utilization.values())
        pool = [label for label in s.worker_trials if label != "main"]
        lookups = s.cache_hits + s.cache_misses
        return cls(
            trials=s.trials,
            workers=len(pool) if pool else 1,
            wall_time=s.wall_time,
            trials_per_sec=s.trials_per_sec,
            latency_p50=s.trial_latency.percentile(50),
            latency_p95=s.trial_latency.percentile(95),
            latency_p99=s.trial_latency.percentile(99),
            worker_utilization=(sum(utils) / len(utils)) if utils else 0.0,
            cache_hit_rate=s.cache_hits / lookups if lookups else 0.0,
        )
