"""SQLite backing for the campaign run ledger: schema, migrations, WAL.

One database file (default ``<cache_dir>/ledger.sqlite3``, overridable via
``REPRO_STORE_PATH``) holds every recorded campaign — the model is DrSEUs,
which runs its entire campaign lifecycle through one SQLite database. Three
tables:

* ``runs`` — one row per campaign *result*, keyed by the campaign cache
  key. Every column is derivable from the cached ``CampaignResult``
  payload alone, so a row recorded live at campaign completion and a row
  backfilled later from ``.repro_cache/<key>.json`` are field-identical
  (only ``source`` and the timestamps differ). Upserts are idempotent:
  re-recording a key updates in place and bumps ``observations``.
* ``perf_samples`` — append-only performance observations (one per
  telemetry-enabled completion, or per explicit ``perf record``): wall
  time, trials/sec, trial-latency p50/p95/p99, worker utilization, cache
  hit rate. Unlike ``runs`` these are *per execution*, so the same cache
  key accumulates a trajectory over time.
* ``baselines`` — named performance baselines for the ``perf check``
  regression gates (see :mod:`repro.store.perf`).

Connections run in WAL mode with a generous busy timeout, so the parent
processes of several concurrently-finishing campaigns can all record into
one ledger without serializing their trial loops (writes happen only at
campaign completion — never on the trial hot path).

Schema migrations are plain SQL scripts applied in order and tracked via
``PRAGMA user_version``; opening a ledger always migrates it to the
current :data:`SCHEMA_VERSION` first.
"""

from __future__ import annotations

import sqlite3
import time
from pathlib import Path

from repro.config import get_settings
from repro.log import get_logger

__all__ = ["SCHEMA_VERSION", "connect", "ensure_schema", "store_path"]

log = get_logger(__name__)

#: Applied migrations == ``PRAGMA user_version``. Append a new script to
#: :data:`MIGRATIONS` (never edit an existing one) to evolve the schema.
SCHEMA_VERSION = 2

#: ``MIGRATIONS[i]`` upgrades a database at ``user_version == i`` to
#: ``i + 1``. Scripts must be pure SQL (executescript) and idempotent
#: *per version* — they run exactly once, inside one transaction each.
MIGRATIONS: list[str] = [
    # v0 -> v1: the initial ledger schema.
    """
    CREATE TABLE runs (
        cache_key           TEXT PRIMARY KEY,
        recorded_at         REAL NOT NULL,
        updated_at          REAL NOT NULL,
        source              TEXT NOT NULL,   -- 'live' | 'backfill'
        observations        INTEGER NOT NULL DEFAULT 1,
        spec_fingerprint    TEXT NOT NULL,   -- spec family (seed/trials-free)
        tag                 TEXT NOT NULL,   -- journal-style campaign tag
        level               TEXT NOT NULL,   -- injector kind
        app                 TEXT NOT NULL,
        kernel              TEXT NOT NULL,
        structure           TEXT,            -- NULL for sw/src/control
        config              TEXT NOT NULL,
        fault_model         TEXT NOT NULL,
        target              TEXT NOT NULL,
        hardened            INTEGER NOT NULL,
        sdc_anatomy         INTEGER NOT NULL,
        seed                INTEGER NOT NULL,
        trials              INTEGER NOT NULL,
        planned_trials      INTEGER,         -- adaptive campaigns only
        stopped_early       INTEGER NOT NULL,
        masked              INTEGER NOT NULL,
        sdc                 INTEGER NOT NULL,
        timeout             INTEGER NOT NULL,
        due                 INTEGER NOT NULL,
        crash               INTEGER NOT NULL,
        failure_rate        REAL NOT NULL,   -- over classified trials
        derating            REAL NOT NULL,
        vf                  REAL NOT NULL,   -- failure_rate * derating
        kernel_cycles       INTEGER NOT NULL,
        kernel_instructions INTEGER NOT NULL,
        control_path_masked INTEGER NOT NULL
    );
    CREATE INDEX idx_runs_identity ON runs (app, kernel, level, structure);
    CREATE INDEX idx_runs_fingerprint ON runs (spec_fingerprint);

    CREATE TABLE perf_samples (
        id                 INTEGER PRIMARY KEY AUTOINCREMENT,
        cache_key          TEXT NOT NULL,
        recorded_at        REAL NOT NULL,
        source             TEXT NOT NULL,    -- 'live' | 'perf-record'
        trials             INTEGER NOT NULL,
        workers            INTEGER NOT NULL,
        wall_time          REAL NOT NULL,
        trials_per_sec     REAL NOT NULL,
        latency_p50        REAL NOT NULL,
        latency_p95        REAL NOT NULL,
        latency_p99        REAL NOT NULL,
        worker_utilization REAL NOT NULL,
        cache_hit_rate     REAL NOT NULL
    );
    CREATE INDEX idx_perf_key ON perf_samples (cache_key, recorded_at);

    CREATE TABLE baselines (
        name               TEXT PRIMARY KEY,
        cache_key          TEXT,
        created_at         REAL NOT NULL,
        updated_at         REAL NOT NULL,
        trials             INTEGER NOT NULL,
        workers            INTEGER NOT NULL,
        wall_time          REAL NOT NULL,
        trials_per_sec     REAL NOT NULL,
        latency_p50        REAL NOT NULL,
        latency_p95        REAL NOT NULL,
        latency_p99        REAL NOT NULL,
        worker_utilization REAL NOT NULL,
        cache_hit_rate     REAL NOT NULL,
        note               TEXT
    );
    """,
    # v1 -> v2: the hardening-zoo scheme axis (CampaignSpec.harden).
    # Nullable: every pre-zoo row (and every defaults-off campaign)
    # carries NULL, exactly like the payload omits the field.
    """
    ALTER TABLE runs ADD COLUMN harden TEXT
    """,
]


def store_path() -> Path:
    """The ledger database location.

    ``REPRO_STORE_PATH`` when set, else ``<cache_dir>/ledger.sqlite3`` so
    the ledger lives (and is wiped) with the cache it indexes.
    """
    settings = get_settings()
    if settings.store_path is not None:
        return settings.store_path
    return settings.cache_dir / "ledger.sqlite3"


def ensure_schema(conn: sqlite3.Connection) -> None:
    """Migrate the database to :data:`SCHEMA_VERSION` (no-op when current).

    Each pending migration runs in its own ``BEGIN IMMEDIATE`` transaction
    together with the ``user_version`` bump, and the version is re-read
    *inside* the write lock: two processes racing to create a fresh ledger
    both take the lock in turn, and the loser sees the winner's version
    instead of re-running the script ("table runs already exists"). A
    crash mid-migration leaves a consistent database at the previous
    version.
    """
    (version,) = conn.execute("PRAGMA user_version").fetchone()
    if version > SCHEMA_VERSION:
        raise sqlite3.OperationalError(
            f"ledger schema version {version} is newer than this build "
            f"supports ({SCHEMA_VERSION}); refusing to touch it")
    if version >= SCHEMA_VERSION:
        return
    old_isolation = conn.isolation_level
    conn.isolation_level = None  # manual transactions for BEGIN IMMEDIATE
    try:
        while True:
            conn.execute("BEGIN IMMEDIATE")
            try:
                (version,) = conn.execute("PRAGMA user_version").fetchone()
                if version >= SCHEMA_VERSION:
                    conn.execute("COMMIT")
                    return
                # statements hold no literal ';' — plain split is enough
                for stmt in MIGRATIONS[version].split(";"):
                    if stmt.strip():
                        conn.execute(stmt)
                conn.execute(f"PRAGMA user_version = {version + 1}")
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise
            log.info("ledger migrated to schema version %d", version + 1)
    finally:
        conn.isolation_level = old_isolation


#: How long a connection waits on another process's lock (seconds).
BUSY_TIMEOUT_S = 10.0


def _enable_wal(conn: sqlite3.Connection) -> None:
    """Put the database in WAL mode, tolerating concurrent first opens.

    Switching the journal mode takes an exclusive lock without consulting
    the busy handler, so processes first-opening a fresh ledger together
    get ``database is locked`` at once. The mode is persistent: read it
    and switch only when it is not WAL yet, retrying a locked switch
    within the busy timeout.
    """
    deadline = time.monotonic() + BUSY_TIMEOUT_S
    while True:
        try:
            (mode,) = conn.execute("PRAGMA journal_mode").fetchone()
            if mode.lower() != "wal":
                conn.execute("PRAGMA journal_mode=WAL")
            return
        except sqlite3.OperationalError as exc:
            if "locked" not in str(exc) or time.monotonic() >= deadline:
                raise
        time.sleep(0.005)


def connect(path: Path | str | None = None) -> sqlite3.Connection:
    """Open (creating and migrating if needed) the run ledger.

    WAL journal mode + a 10 s busy timeout let the completion hooks of
    concurrently-running campaigns write to one ledger file; rows come
    back as :class:`sqlite3.Row` so callers can address columns by name.
    """
    db = Path(path) if path is not None else store_path()
    db.parent.mkdir(parents=True, exist_ok=True)
    conn = sqlite3.connect(str(db), timeout=BUSY_TIMEOUT_S)
    conn.row_factory = sqlite3.Row
    _enable_wal(conn)
    conn.execute("PRAGMA synchronous=NORMAL")
    conn.execute(f"PRAGMA busy_timeout={int(BUSY_TIMEOUT_S * 1000)}")
    ensure_schema(conn)
    return conn
