"""Record/query API of the campaign run ledger.

Everything a ``runs`` row contains is derived from ``(cache_key, cached
payload)`` by one function — :func:`row_from_payload` — which both the
live completion hook (handing it ``CampaignResult.to_dict()``) and the
backfill importer (handing it the parsed ``.repro_cache/<key>.json``)
call. Live and backfilled rows are therefore field-identical by
construction; only ``source`` and the timestamps can differ.

:class:`RunLedger` wraps one SQLite connection (see
:mod:`repro.store.db`) with the operations the CLI and the campaign
completion hook need: idempotent :meth:`~RunLedger.record_result`
upserts keyed on cache key, filtered :meth:`~RunLedger.runs` /
:meth:`~RunLedger.history` queries that answer cross-campaign questions
(AVF trend for one app across recorded runs) without decoding a single
flat-file payload, append-only :meth:`~RunLedger.record_perf` samples,
and a :meth:`~RunLedger.backfill` importer over an existing cache
directory.

:func:`record_completed_campaign` is the one-call entry point
``run_campaign`` uses: open ledger, upsert the run row, fold the
campaign's telemetry stream (when one exists) into a perf sample, close.
It is observation-only — errors are the caller's to swallow; the
campaign code wraps it in a log-and-continue guard so a locked or
read-only ledger can never fail a campaign.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import time
from pathlib import Path

from repro.identity import campaign_identity, identity_tag
from repro.log import get_logger
from repro.store.db import connect, store_path
from repro.store.perf import PerfMetrics

__all__ = [
    "RunLedger", "record_completed_campaign", "row_from_payload",
    "spec_fingerprint", "tag_from_payload",
]

log = get_logger(__name__)

#: ``runs`` columns that :func:`row_from_payload` computes (everything but
#: the bookkeeping columns owned by the upsert).
ROW_FIELDS = (
    "cache_key", "spec_fingerprint", "tag", "level", "app", "kernel",
    "structure", "config", "fault_model", "target", "hardened", "harden",
    "sdc_anatomy", "seed", "trials", "planned_trials", "stopped_early",
    "masked", "sdc", "timeout", "due", "crash", "failure_rate", "derating",
    "vf", "kernel_cycles", "kernel_instructions", "control_path_masked",
)


def _payload_identity(payload: dict) -> dict:
    """The campaign identity (:mod:`repro.identity`) a cached payload
    records, less the trial budget (stop rule). ``num_bits``,
    ``ecc_protected`` and ``hang_factor`` appear in a payload only off
    their defaults; the seed tag holds none of them."""
    return campaign_identity(
        payload["injector"], payload["app_name"], payload["kernel"],
        payload["config_name"], structure=payload.get("structure"),
        hardened=bool(payload.get("hardened", False)),
        num_bits=payload.get("num_bits", 1),
        ecc=payload.get("ecc_protected", False),
        hang_factor=payload.get("hang_factor"),
        fault_model=payload.get("fault_model"),
        target=payload.get("fault_target"), harden=payload.get("harden"),
        sdc_anatomy=payload.get("sdc_anatomy") is not None)


def spec_fingerprint(payload: dict) -> str:
    """Stable identity of a campaign *family*: every identity axis except
    the seed and the trial budget (the stop rule included), so re-runs of
    the same cell at different seeds/budgets share a fingerprint and
    ``campaign history`` can chart them as one trend line."""
    blob = json.dumps(_payload_identity(payload), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:24]


def tag_from_payload(payload: dict) -> str:
    """The journal/seed-stream tag of a cached campaign, built by the same
    identity rule as the campaign's own, so ledger rows join against
    journal metadata and telemetry labels."""
    return identity_tag(_payload_identity(payload))


def row_from_payload(key: str, payload: dict) -> dict:
    """Fold one cached ``CampaignResult`` payload into a ``runs`` row.

    The single source of truth for row contents: the live completion hook
    and the backfill importer both call this, which is what guarantees
    their rows are field-identical.
    """
    counts = payload["counts"]
    masked = int(counts["masked"])
    sdc = int(counts["sdc"])
    timeout = int(counts["timeout"])
    due = int(counts["due"])
    crash = int(counts.get("crash", 0))
    classified = masked + sdc + timeout + due
    failure_rate = (sdc + timeout + due) / classified if classified else 0.0
    derating = float(payload.get("derating_factor", 1.0))
    planned = payload.get("planned_trials")
    trials = int(payload["trials"])
    return {
        "cache_key": key,
        "spec_fingerprint": spec_fingerprint(payload),
        "tag": tag_from_payload(payload),
        "level": payload["injector"],
        "app": payload["app_name"],
        "kernel": payload["kernel"],
        "structure": payload.get("structure"),
        "config": payload["config_name"],
        "fault_model": payload.get("fault_model", "transient"),
        "target": payload.get("fault_target", "storage"),
        "hardened": int(bool(payload.get("hardened", False))),
        "harden": payload.get("harden"),
        "sdc_anatomy": int(payload.get("sdc_anatomy") is not None),
        "seed": int(payload["seed"]),
        "trials": trials,
        "planned_trials": int(planned) if planned is not None else None,
        "stopped_early": int(planned is not None and trials < int(planned)),
        "masked": masked,
        "sdc": sdc,
        "timeout": timeout,
        "due": due,
        "crash": crash,
        "failure_rate": failure_rate,
        "derating": derating,
        # The level-appropriate vulnerability factor: failure rate derated
        # by architectural occupancy for uarch (AVF), raw for sw/src (SVF,
        # derating 1.0 on those payloads).
        "vf": failure_rate * derating,
        "kernel_cycles": int(payload.get("kernel_cycles", 0)),
        "kernel_instructions": int(payload.get("kernel_instructions", 0)),
        "control_path_masked": int(payload.get("control_path_masked", 0)),
    }


class RunLedger:
    """The record/query surface over one ledger database."""

    def __init__(self, path: Path | str | None = None, *,
                 conn: sqlite3.Connection | None = None):
        self._conn = conn if conn is not None else connect(path)

    @property
    def conn(self) -> sqlite3.Connection:
        return self._conn

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------ record

    def record_result(self, key: str, payload: dict, *,
                      source: str = "live",
                      now: float | None = None) -> dict:
        """Idempotently upsert one campaign result row.

        Re-recording an existing cache key updates the data columns in
        place, bumps ``observations`` and ``updated_at``, and preserves
        the original ``recorded_at``/``source`` — the row keeps saying
        when the result was *first* seen and how.
        """
        row = row_from_payload(key, payload)
        now = time.time() if now is None else now
        row.update(recorded_at=now, updated_at=now, source=source)
        columns = ", ".join(row)
        placeholders = ", ".join(f":{c}" for c in row)
        updates = ", ".join(
            f"{c} = excluded.{c}" for c in ROW_FIELDS if c != "cache_key")
        with self._conn:
            self._conn.execute(
                f"INSERT INTO runs ({columns}) VALUES ({placeholders}) "
                f"ON CONFLICT(cache_key) DO UPDATE SET {updates}, "
                f"updated_at = excluded.updated_at, "
                f"observations = observations + 1",
                row)
        return row

    def record_perf(self, key: str, metrics: PerfMetrics, *,
                    source: str = "live", now: float | None = None) -> None:
        """Append one performance observation (never upserted: the same
        campaign re-executed accumulates a trajectory)."""
        now = time.time() if now is None else now
        with self._conn:
            self._conn.execute(
                "INSERT INTO perf_samples (cache_key, recorded_at, source,"
                " trials, workers, wall_time, trials_per_sec, latency_p50,"
                " latency_p95, latency_p99, worker_utilization,"
                " cache_hit_rate) VALUES (?,?,?,?,?,?,?,?,?,?,?,?)",
                (key, now, source, metrics.trials, metrics.workers,
                 metrics.wall_time, metrics.trials_per_sec,
                 metrics.latency_p50, metrics.latency_p95,
                 metrics.latency_p99, metrics.worker_utilization,
                 metrics.cache_hit_rate))

    # ------------------------------------------------------------- query

    def get(self, key: str) -> dict | None:
        row = self._conn.execute(
            "SELECT * FROM runs WHERE cache_key = ?", (key,)).fetchone()
        return dict(row) if row is not None else None

    def runs(self, *, app: str | None = None, kernel: str | None = None,
             level: str | None = None, structure: str | None = None,
             fault_model: str | None = None, tag: str | None = None,
             harden: str | None = None) -> list[dict]:
        """Filtered run rows, newest first. ``tag`` matches substrings so
        ``--tag va/`` finds every campaign of one app. ``harden`` filters
        by hardening-zoo scheme name (``"none"`` selects unhardened
        rows)."""
        clauses: list[str] = []
        params: list[object] = []
        if harden is not None:
            if harden == "none":
                clauses.append("harden IS NULL")
            else:
                clauses.append("harden = ?")
                params.append(harden)
        for column, value in (("app", app), ("kernel", kernel),
                              ("level", level), ("structure", structure),
                              ("fault_model", fault_model)):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        if tag is not None:
            clauses.append("tag LIKE ?")
            params.append(f"%{tag}%")
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        rows = self._conn.execute(
            f"SELECT * FROM runs{where} ORDER BY recorded_at DESC, "
            f"cache_key", params).fetchall()
        return [dict(r) for r in rows]

    def history(self, app: str, *, kernel: str | None = None,
                level: str | None = None, structure: str | None = None,
                harden: str | None = None) -> list[dict]:
        """One app's recorded runs oldest-first — the trend table behind
        ``campaign history``: how AVF/SVF moved across recorded runs of
        each spec family, straight off the ledger."""
        rows = self.runs(app=app, kernel=kernel, level=level,
                         structure=structure, harden=harden)
        return sorted(rows, key=lambda r: (r["spec_fingerprint"],
                                           r["recorded_at"],
                                           r["cache_key"]))

    def perf_samples(self, key: str | None = None) -> list[dict]:
        if key is None:
            rows = self._conn.execute(
                "SELECT * FROM perf_samples ORDER BY recorded_at, id")
        else:
            rows = self._conn.execute(
                "SELECT * FROM perf_samples WHERE cache_key = ? "
                "ORDER BY recorded_at, id", (key,))
        return [dict(r) for r in rows.fetchall()]

    # ---------------------------------------------------------- backfill

    def backfill(self, cache: Path | str | None = None) -> tuple[int, int]:
        """Index every readable ``<key>.json`` payload in a cache directory.

        Returns ``(imported, skipped)`` — corrupt/foreign JSON files are
        skipped with a logged warning, never quarantined or modified (the
        importer is strictly read-only on the cache).
        """
        if cache is None:
            from repro.fi.journal import cache_dir  # late: fi is heavier
            cache = cache_dir()
        cache = Path(cache)
        imported = skipped = 0
        for path in sorted(cache.glob("*.json")):
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
                self.record_result(path.stem, payload, source="backfill")
            except (json.JSONDecodeError, KeyError, TypeError,
                    ValueError, OSError) as exc:
                log.warning("backfill skipped %s: %s", path.name, exc)
                skipped += 1
                continue
            imported += 1
        return imported, skipped


def record_completed_campaign(key: str, payload: dict, *,
                              events_path: Path | str | None = None,
                              ledger_path: Path | str | None = None) -> None:
    """The ``run_campaign`` completion hook: one upsert (plus one perf
    sample when the campaign streamed telemetry), never on the trial hot
    path. Opens and closes its own connection; raises on failure — the
    campaign-side caller downgrades errors to a warning."""
    with RunLedger(ledger_path if ledger_path is not None
                   else store_path()) as ledger:
        ledger.record_result(key, payload, source="live")
        if events_path is None:
            return
        events_path = Path(events_path)
        if not events_path.exists():
            return
        from repro.telemetry.events import read_events
        from repro.telemetry.metrics import summarize_events
        events = read_events(events_path)
        if not events:
            return
        metrics = PerfMetrics.from_summary(summarize_events(events))
        ledger.record_perf(key, metrics, source="live")
