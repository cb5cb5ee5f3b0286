"""Record/query semantics of the run ledger: idempotent upserts, filtered
queries, backfill-vs-live identity, concurrent writers, and perf samples
folded from telemetry."""

import json
import multiprocessing as mp
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

from repro.store import (
    PerfMetrics,
    RunLedger,
    row_from_payload,
    spec_fingerprint,
    tag_from_payload,
)
from repro.store.ledger import ROW_FIELDS
from repro.telemetry.metrics import summarize_events

IDENTITY_FIXTURE = (Path(__file__).resolve().parents[2] / "benchmarks"
                    / "baselines" / "identity-digest.json")


def _payload(**overrides):
    base = {
        "app_name": "va", "kernel": "va_k1", "injector": "uarch",
        "structure": "rf", "trials": 64, "seed": 1,
        "config_name": "quadro-gv100-like",
        "counts": {"masked": 40, "sdc": 12, "timeout": 5, "due": 5,
                   "crash": 2},
        "derating_factor": 0.25, "kernel_cycles": 1000,
        "kernel_instructions": 2000, "control_path_masked": 3,
        "hardened": False,
    }
    base.update(overrides)
    return base


def test_tag_matches_campaign_formats():
    """The ledger rebuilds every campaign's seed tag from its payload: for
    each cell of the identity fixture, the tag equals the one the
    campaign journaled."""
    cells = json.loads(IDENTITY_FIXTURE.read_text())["cells"]
    for name, cell in cells.items():
        assert tag_from_payload(cell["result"]) == cell["meta"]["tag"], name
    # Payloads of builds that had the legacy ``hardened`` flag keep the
    # tag their journals carry.
    assert tag_from_payload(_payload(injector="sw", structure=None,
                                     hardened=True,
                                     config_name="tesla-v100-like")) == \
        "va/va_k1/sw/tesla-v100-like/True"


def test_store_import_loads_no_simulator():
    """The ledger shares the campaign identity rule without importing the
    fault-injection or simulator packages."""
    code = ("import sys, repro.store; print(' '.join(m for m in sys.modules "
            "if m.startswith(('repro.sim', 'repro.fi'))))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == ""


def test_fingerprint_ignores_seed_and_trials():
    a = spec_fingerprint(_payload(seed=1, trials=64))
    b = spec_fingerprint(_payload(seed=9, trials=512))
    c = spec_fingerprint(_payload(structure="smem"))
    assert a == b
    assert a != c


def test_fingerprint_tells_width_ecc_and_hang_factor_apart(tmp_cache,
                                                          monkeypatch):
    """Campaigns that differ only in upset width, ECC protection or the
    trial watchdog's headroom are different families: each payload
    carries its axis, so ``campaign history`` charts four lines."""
    from repro.fi import CampaignSpec, run_campaign

    def fingerprint(**axes):
        return spec_fingerprint(run_campaign(CampaignSpec(
            level="uarch", app="va", structure="rf", trials=2,
            **axes)).to_dict())

    prints = [fingerprint(), fingerprint(num_bits=2),
              fingerprint(ecc_protected=True)]
    monkeypatch.setenv("REPRO_HANG_FACTOR", "0.5")
    prints.append(fingerprint())
    assert len(set(prints)) == 4


def test_row_from_payload_metrics():
    row = row_from_payload("k1", _payload())
    classified = 40 + 12 + 5 + 5
    assert row["failure_rate"] == (12 + 5 + 5) / classified
    assert row["vf"] == row["failure_rate"] * 0.25
    assert row["crash"] == 2
    assert row["stopped_early"] == 0
    assert set(row) == set(ROW_FIELDS)


def test_stopped_early_flag():
    row = row_from_payload("k", _payload(planned_trials=128, trials=64))
    assert row["stopped_early"] == 1
    row = row_from_payload("k", _payload(planned_trials=64, trials=64))
    assert row["stopped_early"] == 0


def test_upsert_is_idempotent(tmp_path):
    with RunLedger(tmp_path / "l.db") as ledger:
        ledger.record_result("k1", _payload(), now=100.0)
        ledger.record_result("k1", _payload(), now=200.0)
        rows = ledger.runs()
        assert len(rows) == 1
        row = rows[0]
        assert row["observations"] == 2
        assert row["recorded_at"] == 100.0  # first sighting preserved
        assert row["updated_at"] == 200.0


def test_upsert_updates_data_fields(tmp_path):
    with RunLedger(tmp_path / "l.db") as ledger:
        ledger.record_result("k1", _payload())
        richer = _payload()
        richer["counts"] = {"masked": 30, "sdc": 22, "timeout": 5,
                            "due": 5, "crash": 2}
        ledger.record_result("k1", richer)
        row = ledger.get("k1")
        assert row["sdc"] == 22


def test_backfill_and_live_rows_field_identical(tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    payload = _payload()
    (cache / "backkey.json").write_text(json.dumps(payload))
    with RunLedger(tmp_path / "l.db") as ledger:
        ledger.record_result("livekey", payload, source="live")
        imported, skipped = ledger.backfill(cache)
        assert (imported, skipped) == (1, 0)
        live = ledger.get("livekey")
        back = ledger.get("backkey")
        assert back["source"] == "backfill"
        bookkeeping = {"cache_key", "recorded_at", "updated_at", "source",
                       "observations"}
        live_fields = {k: v for k, v in live.items() if k not in bookkeeping}
        back_fields = {k: v for k, v in back.items() if k not in bookkeeping}
        assert live_fields == back_fields


def test_backfill_skips_unreadable_payloads(tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "good.json").write_text(json.dumps(_payload()))
    (cache / "torn.json").write_text('{"app_name": "va", ')
    (cache / "foreign.json").write_text('{"not": "a campaign"}')
    with RunLedger(tmp_path / "l.db") as ledger:
        imported, skipped = ledger.backfill(cache)
        assert (imported, skipped) == (1, 2)
        assert ledger.get("good") is not None
    # strictly read-only on the cache: nothing quarantined or removed
    assert sorted(p.name for p in cache.iterdir()) == \
        ["foreign.json", "good.json", "torn.json"]


def test_runs_filters(tmp_path):
    with RunLedger(tmp_path / "l.db") as ledger:
        ledger.record_result("k1", _payload(), now=1.0)
        ledger.record_result("k2", _payload(structure="smem"), now=2.0)
        ledger.record_result(
            "k3", _payload(app_name="bfs", kernel="bfs_k1", injector="sw",
                           structure=None, config_name="tesla-v100-like"),
            now=3.0)
        assert {r["cache_key"] for r in ledger.runs(app="va")} == {"k1", "k2"}
        assert [r["cache_key"] for r in ledger.runs(structure="smem")] == \
            ["k2"]
        assert [r["cache_key"] for r in ledger.runs(level="sw")] == ["k3"]
        assert [r["cache_key"] for r in ledger.runs(tag="bfs/")] == ["k3"]
        assert [r["cache_key"] for r in ledger.runs()][0] == "k3"  # newest


def test_history_orders_families_oldest_first(tmp_path):
    with RunLedger(tmp_path / "l.db") as ledger:
        ledger.record_result("k2", _payload(seed=2), now=20.0)
        ledger.record_result("k1", _payload(seed=1), now=10.0)
        ledger.record_result("k3", _payload(structure="smem"), now=15.0)
        rows = ledger.history("va", structure="rf")
        assert [r["cache_key"] for r in rows] == ["k1", "k2"]


def _record_many(db_path: str, prefix: str, n: int) -> None:
    with RunLedger(db_path) as ledger:
        for i in range(n):
            ledger.record_result(f"{prefix}{i}", _payload(seed=i))


def test_concurrent_writers_share_one_ledger(tmp_path):
    """Two processes recording into the same WAL-mode ledger: every row
    lands, no 'database is locked' escapes."""
    db = tmp_path / "l.db"
    RunLedger(db).close()  # create + migrate before the writers race
    ctx = mp.get_context("fork")
    procs = [ctx.Process(target=_record_many, args=(str(db), prefix, 25))
             for prefix in ("a", "b")]
    for p in procs:
        p.start()
    for p in procs:
        p.join()
        assert p.exitcode == 0
    with RunLedger(db) as ledger:
        assert len(ledger.runs()) == 50


def test_ledger_context_manager_closes(tmp_path):
    ledger = RunLedger(tmp_path / "l.db")
    with ledger:
        pass
    try:
        ledger.conn.execute("SELECT 1")
        closed = False
    except sqlite3.ProgrammingError:
        closed = True
    assert closed


# ------------------------------------------------------------ perf samples

def _metrics(**overrides):
    base = dict(trials=200, workers=2, wall_time=10.0, trials_per_sec=20.0,
                latency_p50=0.010, latency_p95=0.020, latency_p99=0.030,
                worker_utilization=0.9, cache_hit_rate=0.0)
    base.update(overrides)
    return PerfMetrics(**base)


def _trial_events(latencies, workers=2):
    events = [{"ts": 0.0, "kind": "campaign", "phase": "begin",
               "campaign": "k", "worker": None}]
    t = 0.0
    for i, dur in enumerate(latencies):
        worker = i % workers
        events.append({"ts": t, "kind": "span", "name": "trial",
                       "dur": dur, "worker": worker})
        events.append({"ts": t + dur, "kind": "commit", "outcome": "masked",
                       "worker": None})
        t += dur
    return events


def test_from_summary_folds_percentiles_and_workers():
    latencies = [0.01] * 98 + [0.05, 0.10]
    m = PerfMetrics.from_summary(summarize_events(_trial_events(latencies)))
    assert m.trials == 100
    assert m.workers == 2
    assert m.latency_p50 == 0.01
    assert m.latency_p99 == pytest.approx(0.05)
    assert m.trials_per_sec > 0


def test_from_summary_serial_counts_one_worker():
    events = _trial_events([0.01] * 4, workers=1)
    for e in events:
        if e["kind"] == "span":
            e["worker"] = None  # serial path: parent runs the trials
    m = PerfMetrics.from_summary(summarize_events(events))
    assert m.workers == 1


def test_perf_samples_accumulate(tmp_path):
    with RunLedger(tmp_path / "l.db") as ledger:
        ledger.record_perf("k", _metrics(), now=1.0)
        ledger.record_perf("k", _metrics(trials_per_sec=30.0), now=2.0)
        samples = ledger.perf_samples("k")
        assert len(samples) == 2  # append-only: a trajectory, not an upsert
        assert samples[0]["recorded_at"] == 1.0
        assert samples[1]["trials_per_sec"] == 30.0
