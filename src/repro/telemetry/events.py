"""Structured campaign telemetry events: emitters, spans, JSONL sessions.

The fault-injection stack emits *events* — small dicts with a monotonic
timestamp and campaign/worker identity — while a campaign runs. One
:class:`TelemetrySession` per campaign owns the JSONL event file; the
parent process is its **single writer** (mirroring the journal contract),
and worker processes buffer their events and stream them to the parent
alongside trial results.

Event schema (one JSON object per line)::

    {"ts": 0.001834,          # seconds since the session epoch (monotonic)
     "kind": "span",          # span | commit | cache | kernels | campaign
     "name": "trial",         # span/phase name, or "" for plain events
     "campaign": "3fb2...",   # campaign cache key (or caller-chosen label)
     "worker": 0,             # worker id; null = the parent process
     "dur": 0.0421,           # span events only: duration in seconds
     ...}                     # kind-specific extra fields

The span/phase vocabulary emitted by the stack:

* ``golden_run`` — fault-free profiling run (parent, once per campaign).
* ``sim.setup`` — fresh-GPU construction (once per worker/serial run).
* ``trial`` — one whole injection trial (carries ``trial`` index).
* ``inject.plan`` — fault planning + injector arming inside a trial.
* ``classify`` — injected run + output classification inside a trial.
* ``journal.commit`` — journal append batches, flushed to the OS
  (parent; fsyncs are group-committed, see :mod:`repro.fi.journal`).
* ``cache.store`` — campaign result cache write (parent).

Plus the plain events ``campaign`` (``phase=begin/end`` with campaign
meta), ``commit`` (one per committed trial, in trial order, with outcome
and cycles), ``cache`` (``op=load`` with ``hit``), and ``kernels``
(per-trial per-kernel LaunchStats rollup).

Telemetry is **zero-overhead when off**: the module-level :data:`NULL`
emitter is disabled, its :meth:`Telemetry.span` returns a shared no-op
context manager, and hot call sites guard on :attr:`Telemetry.enabled`
before building event payloads.

Timestamps come from ``time.monotonic()`` relative to the session epoch.
Worker processes are forked, so they inherit the epoch and (Linux
``CLOCK_MONOTONIC`` being system-wide) their timestamps land on the same
timeline as the parent's — that is what lets the Chrome-trace export lay
all workers out on one synchronized track set.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable

from repro.config import get_settings
from repro.log import get_logger

log = get_logger(__name__)

__all__ = [
    "NULL", "Telemetry", "TelemetrySession", "current_telemetry",
    "read_events", "set_current_telemetry", "telemetry_dir",
    "telemetry_events_path",
]


def telemetry_dir() -> Path:
    """Where campaign event streams live (``<cache_dir>/telemetry``).

    Resolved through :mod:`repro.config` directly (not
    ``repro.fi.journal``) so the telemetry package never imports the
    fault-injection stack — the dependency points the other way.
    """
    return get_settings().cache_dir / "telemetry"


def telemetry_events_path(key: str) -> Path:
    """Default event-stream location for a campaign cache key."""
    return telemetry_dir() / f"{key}.jsonl"


class _NullSpan:
    """Reusable no-op context manager for disabled telemetry."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """Times a phase and emits one ``span`` event when it closes."""

    __slots__ = ("_tel", "_name", "_fields", "_start")

    def __init__(self, tel: "Telemetry", name: str, fields: dict):
        self._tel = tel
        self._name = name
        self._fields = fields
        self._start = 0.0

    def __enter__(self):
        self._start = time.monotonic()
        return self

    def __exit__(self, *exc):
        end = time.monotonic()
        self._tel.emit("span", self._name,
                       ts=self._start - self._tel.t0,
                       dur=end - self._start, **self._fields)
        return False


class Telemetry:
    """One process's event emitter for one campaign.

    ``sink`` is any callable taking an event dict — a
    :meth:`TelemetrySession.write` in the parent, a ``list.append`` in a
    forked worker (whose buffer is streamed to the parent). ``worker`` is
    ``None`` in the parent and the worker id in pool workers.
    """

    __slots__ = ("enabled", "campaign", "worker", "t0", "_sink")

    def __init__(self, sink: Callable[[dict], None] | None, *,
                 campaign: str = "", worker: int | None = None,
                 t0: float | None = None, enabled: bool = True):
        self.enabled = enabled and sink is not None
        self.campaign = campaign
        self.worker = worker
        self.t0 = time.monotonic() if t0 is None else t0
        self._sink = sink

    def emit(self, kind: str, name: str = "", *, ts: float | None = None,
             **fields) -> None:
        """Emit one event (no-op when disabled)."""
        if not self.enabled:
            return
        event = {
            "ts": round(time.monotonic() - self.t0 if ts is None else ts, 6),
            "kind": kind,
            "name": name,
            "campaign": self.campaign,
            "worker": self.worker,
        }
        if "dur" in fields:
            fields["dur"] = round(fields["dur"], 6)
        event.update(fields)
        self._sink(event)

    def span(self, name: str, **fields):
        """Context manager timing one phase; emits a ``span`` on exit."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, fields)

    def child(self, worker: int, sink: Callable[[dict], None]) -> "Telemetry":
        """A worker-side emitter on the same campaign timeline."""
        return Telemetry(sink, campaign=self.campaign, worker=worker,
                         t0=self.t0, enabled=self.enabled)

    def ingest(self, events: list[dict]) -> None:
        """Forward already-built events (a worker's buffer) to the sink."""
        if not self.enabled:
            return
        for event in events:
            self._sink(event)


#: The disabled emitter: what :func:`current_telemetry` returns when no
#: campaign has installed one.
NULL = Telemetry(None, enabled=False)

_current: Telemetry = NULL


def current_telemetry() -> Telemetry:
    """This process's active emitter (:data:`NULL` when telemetry is off).

    Campaign internals that have no natural way to receive the emitter as
    an argument (trial bodies built long before the runner picks a worker)
    fetch it here; the runner installs the right emitter around trial
    execution with :func:`set_current_telemetry`. The binding is
    per-process — pool workers are forked, install their own buffered
    emitter, and never touch the parent's.
    """
    return _current


def set_current_telemetry(tel: Telemetry | None) -> Telemetry:
    """Install the process-wide emitter; returns the previous one."""
    global _current
    previous = _current
    _current = tel if tel is not None else NULL
    return previous


class TelemetrySession:
    """Owns one campaign's JSONL event file (parent process, single writer).

    The file is created lazily on the first event and truncated per
    session: one session == one ``campaign run`` invocation, so the stream
    always describes a single run (a resumed campaign notes how many
    trials it replayed in its ``campaign``/``begin`` event instead of
    re-emitting their spans).
    """

    def __init__(self, path: Path | str):
        self.path = Path(path)
        self.events_written = 0
        self._file = None

    def write(self, event: dict) -> None:
        if self._file is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = open(self.path, "w", encoding="utf-8")
        self._file.write(json.dumps(event, sort_keys=True) + "\n")
        self.events_written += 1

    def telemetry(self, campaign: str) -> Telemetry:
        """The parent-process emitter writing into this session."""
        return Telemetry(self.write, campaign=campaign)

    def flush(self) -> None:
        """Push buffered events to disk without ending the session, so a
        reader (the run-ledger completion hook, ``campaign watch``) sees
        every event emitted so far."""
        if self._file is not None:
            self._file.flush()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def read_events(path: Path | str) -> list[dict]:
    """Load an event stream back; tolerates a torn final line.

    A campaign killed mid-write (or still writing) leaves a partial last
    line; the valid prefix is kept and the tear is reported as a logged
    warning rather than an exception — event streams are observability
    data, never worth failing a reader over.
    """
    events: list[dict] = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                log.warning(
                    "event stream %s has a torn record after %d event(s) "
                    "(interrupted write); dropping the tail",
                    Path(path).name, len(events))
                break
            if isinstance(event, dict):
                events.append(event)
    return events
