"""Schema, migrations, and connection policy of the ledger database."""

import os
import sqlite3

import pytest

from repro.store.db import SCHEMA_VERSION, connect, ensure_schema, store_path


def test_connect_creates_and_migrates(tmp_path):
    db = tmp_path / "ledger.sqlite3"
    conn = connect(db)
    try:
        (version,) = conn.execute("PRAGMA user_version").fetchone()
        assert version == SCHEMA_VERSION
        tables = {r[0] for r in conn.execute(
            "SELECT name FROM sqlite_master WHERE type='table'")}
        assert {"runs", "perf_samples", "baselines"} <= tables
    finally:
        conn.close()
    assert db.exists()


def test_wal_mode_and_row_factory(tmp_path):
    conn = connect(tmp_path / "ledger.sqlite3")
    try:
        (mode,) = conn.execute("PRAGMA journal_mode").fetchone()
        assert mode == "wal"
        conn.execute(
            "INSERT INTO perf_samples (cache_key, recorded_at, source,"
            " trials, workers, wall_time, trials_per_sec, latency_p50,"
            " latency_p95, latency_p99, worker_utilization, cache_hit_rate)"
            " VALUES ('k', 0, 'live', 1, 1, 1, 1, 0, 0, 0, 0, 0)")
        row = conn.execute("SELECT * FROM perf_samples").fetchone()
        assert row["cache_key"] == "k"  # sqlite3.Row: named access
    finally:
        conn.close()


def test_reopen_is_idempotent(tmp_path):
    db = tmp_path / "ledger.sqlite3"
    connect(db).close()
    conn = connect(db)  # second open must not re-run migrations
    try:
        (version,) = conn.execute("PRAGMA user_version").fetchone()
        assert version == SCHEMA_VERSION
    finally:
        conn.close()


def test_newer_schema_is_refused(tmp_path):
    db = tmp_path / "ledger.sqlite3"
    raw = sqlite3.connect(db)
    raw.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1}")
    raw.close()
    with pytest.raises(sqlite3.OperationalError, match="newer"):
        connect(db)


def test_ensure_schema_from_scratch(tmp_path):
    conn = sqlite3.connect(tmp_path / "fresh.sqlite3")
    try:
        ensure_schema(conn)
        (version,) = conn.execute("PRAGMA user_version").fetchone()
        assert version == SCHEMA_VERSION
    finally:
        conn.close()


def test_store_path_defaults_to_cache_dir(tmp_cache, monkeypatch):
    assert store_path() == tmp_cache / "ledger.sqlite3"
    override = tmp_cache / "elsewhere" / "runs.db"
    monkeypatch.setenv("REPRO_STORE_PATH", str(override))
    assert store_path() == override


def _connect_and_close(db_path: str, barrier) -> None:
    barrier.wait()  # maximize the chance both processes migrate at once
    connect(db_path).close()


def test_concurrent_first_connect_migrates_once(tmp_path):
    """Two processes racing to create a fresh ledger must not trip over
    each other's CREATE TABLE (regression: 'table runs already exists')."""
    import multiprocessing as mp

    db = tmp_path / "fresh.sqlite3"
    ctx = mp.get_context("fork")
    barrier = ctx.Barrier(2)
    procs = [ctx.Process(target=_connect_and_close,
                         args=(str(db), barrier)) for _ in range(2)]
    for p in procs:
        p.start()
    for p in procs:
        p.join()
        assert p.exitcode == 0
    conn = connect(db)
    try:
        (version,) = conn.execute("PRAGMA user_version").fetchone()
        assert version == SCHEMA_VERSION
    finally:
        conn.close()


def _open_or_fail(db_path: str, barrier) -> None:
    barrier.wait()
    try:
        connect(db_path).close()
    except sqlite3.OperationalError:
        os._exit(1)
    os._exit(0)


def test_many_concurrent_first_opens_never_fail(tmp_path):
    """Forked processes first-opening one fresh ledger all succeed.

    Switching to WAL takes an exclusive lock that the busy timeout does
    not cover, so unguarded openers fail with 'database is locked'."""
    import multiprocessing as mp

    ctx = mp.get_context("fork")
    openers, rounds = 8, 24
    errors = 0
    for r in range(rounds):
        db = str(tmp_path / f"fresh{r}.sqlite3")
        barrier = ctx.Barrier(openers, timeout=30)
        procs = [ctx.Process(target=_open_or_fail, args=(db, barrier))
                 for _ in range(openers)]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert not p.is_alive()
            errors += p.exitcode != 0
    assert errors == 0
