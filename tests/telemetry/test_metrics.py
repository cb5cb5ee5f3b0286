"""Metric primitives and event-stream aggregation into CampaignSummary."""

import math

import pytest

from repro.telemetry.metrics import (
    Histogram,
    render_summary,
    summarize_events,
)


# ------------------------------------------------------------- primitives

def test_histogram_stats_and_percentiles():
    h = Histogram()
    for v in (5, 1, 3, 2, 4):
        h.observe(v)
    assert h.count == 5
    assert h.total == 15
    assert h.mean == 3.0
    assert h.min == 1 and h.max == 5
    assert h.percentile(50) == 3
    assert h.percentile(90) == 5
    snap = h.snapshot()
    assert snap["count"] == 5 and snap["p50"] == 3


def test_histogram_empty_and_bad_percentile():
    h = Histogram()
    assert h.mean == 0.0 and h.percentile(50) == 0.0
    with pytest.raises(ValueError, match=r"\[0, 100\]"):
        h.percentile(101)


# ------------------------------------------------------------ aggregation

def _stream():
    """A synthetic two-worker campaign stream: 4 trials over 1 second."""
    events = [
        {"ts": 0.0, "kind": "campaign", "name": "", "campaign": "k1",
         "worker": None, "phase": "begin", "app": "va", "kernel": "va_k1",
         "level": "sw", "total": 4, "resumed": 1, "workers": 2},
        {"ts": 0.0, "kind": "cache", "name": "", "campaign": "k1",
         "worker": None, "op": "load", "hit": False},
        {"ts": 0.01, "kind": "span", "name": "golden_run", "campaign": "k1",
         "worker": None, "dur": 0.09},
    ]
    for i, (worker, outcome) in enumerate(
            [(0, "MASKED"), (1, "SDC"), (0, "MASKED"), (1, "DUE")]):
        ts = 0.1 + 0.2 * i
        events.append({"ts": ts, "kind": "span", "name": "trial",
                       "campaign": "k1", "worker": worker,
                       "dur": 0.2, "trial": i})
        events.append({"ts": ts + 0.2, "kind": "commit", "name": "",
                       "campaign": "k1", "worker": None,
                       "trial": i, "outcome": outcome, "cycles": 100 + i})
        events.append({"ts": ts + 0.2, "kind": "kernels", "name": "",
                       "campaign": "k1", "worker": worker,
                       "kernels": {"va_k1": {"launches": 1, "cycles": 50}}})
    return events


def test_summarize_synthetic_stream():
    s = summarize_events(_stream())
    assert s.campaign == "k1"
    assert s.meta["app"] == "va" and s.meta["workers"] == 2
    assert s.trials == 4
    assert s.resumed == 1
    assert s.wall_time == pytest.approx(0.9)  # 0.0 .. 0.7 + 0.2
    assert s.trials_per_sec == pytest.approx(4 / 0.9)
    assert s.trial_latency.count == 4
    assert s.trial_latency.mean == pytest.approx(0.2)
    assert s.outcome_counts == {"MASKED": 2, "SDC": 1, "DUE": 1}
    assert s.worker_trials == {"w0": 2, "w1": 2}
    assert s.worker_busy["w0"] == pytest.approx(0.4)
    assert s.worker_utilization["w0"] == pytest.approx(0.4 / 0.9)
    assert s.shard_imbalance == 1.0
    assert s.cache_hits == 0 and s.cache_misses == 1
    assert s.kernels == {"va_k1": {"launches": 4, "cycles": 200}}
    assert set(s.phases) == {"golden_run", "trial"}


def test_summarize_empty_stream():
    s = summarize_events([])
    assert s.trials == 0
    assert s.wall_time == 0.0
    assert s.trials_per_sec == 0.0
    assert s.shard_imbalance == 0.0


def test_shard_imbalance_with_starved_worker():
    events = [{"ts": 0.0, "kind": "span", "name": "trial", "worker": 0,
               "dur": 0.1},
              {"ts": 0.1, "kind": "span", "name": "trial", "worker": 0,
               "dur": 0.1}]
    assert summarize_events(events).shard_imbalance == 1.0  # single worker
    events.append({"ts": 0.2, "kind": "span", "name": "trial", "worker": 1,
                   "dur": 0.0})
    # worker 1 has trials but zero duration is fine; zero *trials* is inf
    assert summarize_events(events).shard_imbalance == 2.0
    zero = summarize_events(
        events[:2] + [{"ts": 0.0, "kind": "span", "name": "trial",
                       "worker": 1, "dur": 0.1, "trial": 9}])
    assert math.isfinite(zero.shard_imbalance)


def test_render_summary_prints_every_section():
    text = render_summary(summarize_events(_stream()))
    assert "campaign k1 (va/va_k1/sw)" in text
    assert "trials committed   4  (+1 replayed from journal)" in text
    assert "throughput" in text
    assert "trial latency" in text
    assert "golden_run" in text
    assert "worker utilization" in text
    assert "w0" in text and "w1" in text
    assert "shard imbalance" in text
    assert "outcome mix" in text and "MASKED" in text
    assert "1 miss(es)" in text
    assert "per-kernel rollup" in text and "va_k1" in text
    assert "launches replayed  0 of 4" in text  # a stream without replay
    assert "trials ended at convergence 0 of 4 trials" in text
    assert "cycles simulated" not in text  # ...nor simulated-cycle counts


def test_render_summary_reports_simulated_cycles():
    events = _stream()
    for e in events:
        if e["kind"] == "kernels":
            e["kernels"]["va_k1"]["simulated_cycles"] = 20
    text = render_summary(summarize_events(events))
    assert "cycles simulated   80 of 200 (40.0%)" in text
    assert "faults dead at fire" not in text


def test_render_summary_reports_faults_dead_at_fire():
    events = _stream()
    kernels = [e for e in events if e["kind"] == "kernels"]
    for e, dead in zip(kernels, (1, 0, 1, 0)):
        e["kernels"]["va_k1"]["dead_at_fire"] = dead
        e["converged"] = bool(dead)
    text = render_summary(summarize_events(events))
    assert "faults dead at fire 2 of 4 trials" in text
    assert "trials ended at convergence 2 of 4 trials" in text


def test_severity_counters_from_commit_events():
    events = _stream()
    for e in events:
        if e["kind"] == "commit" and e["outcome"] == "SDC":
            e["severity"] = "tolerable"
    events.append({"ts": 0.9, "kind": "commit", "name": "", "campaign": "k1",
                   "worker": None, "trial": 4, "outcome": "SDC",
                   "cycles": 104, "severity": "critical"})
    s = summarize_events(events)
    assert s.sdc_severity == {"tolerable": 1, "critical": 1}
    text = render_summary(s)
    assert "sdc severity: critical 1, tolerable 1" in text


def test_severity_counters_absent_without_anatomy():
    s = summarize_events(_stream())
    assert s.sdc_severity == {}
    assert "sdc severity" not in render_summary(s)


def test_adaptive_planning_rounds_and_savings():
    events = _stream()
    events.append({"ts": 0.8, "kind": "plan", "name": "", "campaign": "k1",
                   "worker": None, "round": 1, "submitted": 4, "horizon": 0})
    events.append({"ts": 0.9, "kind": "campaign", "name": "", "campaign": "k1",
                   "worker": None, "phase": "end", "key": "k1",
                   "committed": 4, "planned": 16, "saved": 12, "rounds": 1})
    s = summarize_events(events)
    assert s.planning_rounds == 1
    assert s.trials_planned == 16
    assert s.trials_saved == 12
    text = render_summary(s)
    assert "saved 12 of 16 planned trial(s) (75%)" in text
    assert "1 planning round(s)" in text


def test_no_adaptive_line_without_stop_rule():
    s = summarize_events(_stream())
    assert s.trials_planned == 0
    assert "adaptive stop" not in render_summary(s)


# ------------------------------------------ damaged-stream hardening

def test_empty_stream_is_explicitly_empty_summary():
    s = summarize_events([])
    assert s.trials == 0
    assert s.outcome_counts == {}
    assert s.trial_latency.count == 0
    assert s.wall_time == 0.0
    assert "trials committed   0" in render_summary(s)


def test_malformed_events_skipped_with_warning(caplog):
    events = _stream()
    events.append({"ts": "not-a-number", "kind": "commit",
                   "outcome": "masked"})
    events.append("not even a dict")
    with caplog.at_level("WARNING", logger="repro.telemetry.metrics"):
        s = summarize_events(events)
    assert s.trials == 4  # the well-formed prefix still folds
    assert "skipped 2 malformed event(s)" in caplog.text


def test_wall_time_survives_malformed_events():
    events = _stream()
    events.insert(0, {"ts": None, "kind": "span", "name": "trial",
                      "dur": 99.0})
    s = summarize_events(events)
    assert s.wall_time < 10.0  # bogus 99 s span did not stretch the clock
