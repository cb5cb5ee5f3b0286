"""Append-only trial journal: checkpoint/resume for FI campaigns.

Real FI harnesses journal every injection result before moving to the next
one (DrSEUs logs each trial to a database; DAVOS checkpoints every SBFI
phase), so a crashed or preempted campaign never redoes completed work.
This module provides the same guarantee for ``repro`` campaigns:

* Each completed trial is appended as one JSON line to
  ``.repro_cache/journal/<key>.jsonl`` and flushed to the OS before the
  next trial starts, so a SIGKILL, OOM kill or preemption loses at most
  the in-flight trial.
* A campaign holds one handle on its journal: the first append makes the
  directory and opens the file, later appends write through the same
  handle, and :meth:`CampaignJournal.close` (also run by ``discard``, and
  by a compaction, which replaces the file) gives it up. Holding it
  changes nothing above: every append still writes whole lines and
  flushes them before it returns.
* Appends are group-committed: the file is fsynced on the first append,
  then at most once per :data:`SYNC_INTERVAL_S`, and by :meth:`sync`
  when a campaign stops abnormally. An OS crash or power loss therefore
  loses at most about one second of committed trials; they re-run
  deterministically on resume.
* ``load()`` is crash-tolerant: a SIGKILL mid-append, or an OS crash,
  leaves a torn (or NUL-filled) final line, which is detected and dropped
  (the journal file is compacted back to its valid prefix so later
  appends stay well-formed).
* Completed campaigns delete their journal; the final tally lives in the
  regular result cache instead.

Journal records are dicts with an ``event`` field:

* ``{"event": "meta", "tag": t, "root_seed": s, "trials": n, ...}`` —
  written once when the journal is created; identifies the campaign the
  journal belongs to so ``repro.cli campaign status`` can tell a resumable
  journal from a stale one (changed ``REPRO_TRIALS``, seed, or cache
  version) without knowing the campaign's cache key preimage.
* ``{"event": "trial", "trial": i, "seed": s, "outcome": o, "cycles": c}``
  — trial ``i`` completed with outcome ``o`` (a :class:`FaultOutcome`
  value string).
* ``{"event": "crash", "trial": i, "seed": s, "error": r, "traceback": t,
  "retry": bool}`` — an attempt at trial ``i`` raised an unexpected
  exception; written in one append with trial ``i``'s record, just
  before it, when the trial commits. Diagnostic only, never replayed
  into tallies.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

from repro.config import get_settings
from repro.log import get_logger

log = get_logger(__name__)

#: Longest time committed records wait for an fsync (group commit).
SYNC_INTERVAL_S = 1.0

#: The group-commit clock (a module attribute so tests can drive it).
_clock = time.monotonic


def cache_dir() -> Path:
    """Campaign cache location (``REPRO_CACHE_DIR``, default ``.repro_cache``)."""
    return get_settings().cache_dir


def journal_dir() -> Path:
    return cache_dir() / "journal"


class CampaignJournal:
    """One campaign's append-only JSONL trial log, keyed by its cache key."""

    def __init__(self, key: str, directory: Path | None = None):
        self.key = key
        self.path = (directory if directory is not None else journal_dir()) \
            / f"{key}.jsonl"
        self._synced_at: float | None = None  # clock at the last fsync
        self._unsynced = False  # records appended since the last fsync
        self._file = None  # the append handle, opened by the first append

    def exists(self) -> bool:
        return self.path.exists()

    def load(self) -> list[dict]:
        """Return all valid records, dropping a torn tail if the writer died
        mid-append (the file is compacted so future appends stay valid)."""
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            return []
        except OSError as exc:
            log.warning("journal %s unreadable (%s); starting fresh",
                        self.path, exc)
            return []
        records: list[dict] = []
        valid_bytes = 0
        for line in raw.splitlines(keepends=True):
            try:
                # A record counts once its newline is written too: an OS
                # crash can cut the file anywhere, even just before it.
                record = json.loads(line) if line.endswith(b"\n") else None
            except json.JSONDecodeError:
                record = None
            if record is None:
                log.warning(
                    "journal %s has a torn record after %d entries "
                    "(interrupted append); dropping the tail",
                    self.path.name, len(records))
                break
            if not isinstance(record, dict):
                log.warning("journal %s entry %d is not an object; "
                            "dropping the tail", self.path.name, len(records))
                break
            records.append(record)
            valid_bytes += len(line)
        if valid_bytes != len(raw):
            self._compact(raw[:valid_bytes])
        return records

    def _compact(self, valid_prefix: bytes) -> None:
        """Atomically rewrite the journal to its valid prefix. The handle
        held on the replaced file is closed, so the next append opens the
        compacted one."""
        self.close()
        try:
            fd, tmp = tempfile.mkstemp(dir=str(self.path.parent),
                                       prefix=f".{self.key}.", suffix=".tmp")
            with os.fdopen(fd, "wb") as f:
                f.write(valid_prefix)
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, self.path)
        except OSError as exc:
            log.warning("could not compact journal %s: %s", self.path, exc)

    def append(self, record: dict) -> None:
        """Append one record (see :meth:`append_many`)."""
        self.append_many([record])

    def append_many(self, records: list[dict]) -> None:
        """Append several records as whole lines, in order, and flush them
        to the OS before returning.

        The runner's commit uses this to write a trial's crash records
        and its trial record together. Once this returns, the records
        survive a SIGKILL of this process, and ``campaign watch`` sees
        them. They survive an OS crash once fsynced: on the first
        append, then at most once per :data:`SYNC_INTERVAL_S`, or by
        :meth:`sync`. The file remains a valid prefix at every instant.
        """
        if not records:
            return
        f = self._file
        if f is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            f = self._file = open(self.path, "a", encoding="utf-8")
        for record in records:
            f.write(json.dumps(record, sort_keys=True) + "\n")
        f.flush()
        now = _clock()
        if self._synced_at is None or now - self._synced_at >= SYNC_INTERVAL_S:
            os.fsync(f.fileno())
            self._synced_at = now
            self._unsynced = False
        else:
            self._unsynced = True

    def sync(self) -> None:
        """Force every appended record to disk (a campaign that stops
        abnormally leaves its journal behind for resume)."""
        if not self._unsynced:
            return
        try:
            if self._file is not None:
                os.fsync(self._file.fileno())
            else:
                with open(self.path, "ab") as f:
                    os.fsync(f.fileno())
        except OSError as exc:
            # Runs while another exception propagates: do not replace it.
            log.warning("could not sync journal %s: %s", self.path, exc)
            return
        self._synced_at = _clock()
        self._unsynced = False

    def close(self) -> None:
        """Give up the append handle; the next append opens the file again."""
        f, self._file = self._file, None
        if f is not None:
            f.close()

    def discard(self) -> None:
        """Delete the journal (campaign finished, or its log is stale)."""
        self.close()
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
        except OSError as exc:
            log.warning("could not delete journal %s: %s", self.path, exc)


class JournalInfo(NamedTuple):
    """One in-flight campaign journal, as reported by :func:`list_journals`."""

    key: str
    trials: int  # completed trial records
    crashes: int  # crash events (diagnostic)
    meta: dict | None  # the journal's "meta" record, if it has one
    records: list[dict]  # the trial records, for validity checks


def list_journals(directory: Path | None = None) -> list[JournalInfo]:
    """Inspect in-flight campaigns: one :class:`JournalInfo` per journal
    file, sorted by key. (Tuple-compatible with the historical
    ``(key, trials, crashes)`` shape.)"""
    d = directory if directory is not None else journal_dir()
    out: list[JournalInfo] = []
    if not d.is_dir():
        return out
    for path in sorted(d.glob("*.jsonl")):
        records = CampaignJournal(path.stem, d).load()
        trials = [r for r in records if r.get("event") == "trial"]
        crashes = sum(1 for r in records if r.get("event") == "crash")
        meta = next((r for r in records if r.get("event") == "meta"), None)
        out.append(JournalInfo(path.stem, len(trials), crashes, meta, trials))
    return out
