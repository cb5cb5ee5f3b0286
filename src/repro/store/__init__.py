"""Persistent campaign observability: the SQLite-backed run ledger.

Cached ``CampaignResult`` payloads are opaque-hash flat files; answering
a cross-campaign question ("how did va's AVF move across the last five
recorded runs?") used to mean decoding every payload. ``repro.store``
keeps a queryable ledger next to the cache instead — the DrSEUs model,
which runs its whole campaign lifecycle through one SQLite database:

* :mod:`repro.store.db` — schema, ``PRAGMA user_version`` migrations,
  WAL-mode connections.
* :mod:`repro.store.ledger` — record/query API; ``run_campaign``
  completions upsert one row each (see ``REPRO_STORE``), and
  :meth:`RunLedger.backfill` indexes pre-existing cache payloads.
* :mod:`repro.store.watch` — live dashboard tailing an in-flight
  campaign's journal + telemetry (``campaign watch``).
* :mod:`repro.store.perf` — :class:`PerfMetrics`, the performance facts
  a telemetry-enabled campaign records as a ``perf_samples`` row.

The store is observation-only by contract: recording happens once per
campaign at completion (never on the trial hot path), affects no cache
key, journal, tally, or payload, and any ledger failure is downgraded to
a logged warning — campaigns run identically with ``REPRO_STORE=0``.
"""

from repro.store.db import SCHEMA_VERSION, connect, store_path
from repro.store.ledger import (
    RunLedger,
    record_completed_campaign,
    row_from_payload,
    spec_fingerprint,
    tag_from_payload,
)
from repro.store.perf import PerfMetrics
from repro.store.watch import (
    WatchSnapshot,
    read_journal_prefix,
    render_watch_frame,
    snapshot,
    watch,
)

__all__ = [
    "SCHEMA_VERSION", "connect", "store_path",
    "RunLedger", "record_completed_campaign", "row_from_payload",
    "spec_fingerprint", "tag_from_payload",
    "PerfMetrics",
    "WatchSnapshot", "read_journal_prefix", "render_watch_frame",
    "snapshot", "watch",
]
