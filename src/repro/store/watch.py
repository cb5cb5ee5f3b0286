"""``campaign watch``: a live dashboard over an in-flight campaign.

A running campaign leaves two observable streams on disk: its journal
(``<cache_dir>/journal/<key>.jsonl`` — one line per *committed* trial,
in trial order, flushed to the OS as it is committed) and, when telemetry is on, its event stream
(``<cache_dir>/telemetry/<key>.jsonl`` — spans with worker identity).
This module tails both read-only and renders a refresh-in-place frame:

* overall progress bar + committed/planned counts from the journal,
* ETA extrapolated from the committed prefix's recent commit rate,
* outcome mix over the committed trials,
* per-worker lanes (trials done, busy seconds, last phase seen) from
  the telemetry spans — absent when the campaign runs without telemetry.

Reading is strictly non-intrusive. The writer side appends whole lines, so
a concurrently-growing journal is always a valid prefix plus at most one
torn tail; :func:`read_journal_prefix` keeps the prefix and — unlike
:meth:`repro.fi.journal.CampaignJournal.load` — never compacts the file
(compaction is a *write*, and the watcher must not race the single
journal writer).

A campaign that completes deletes its journal and caches its result;
:func:`watch` treats journal-gone as completion, renders one final frame
from the result cache / remaining telemetry, and exits. The loop takes an
injectable clock and sleep so tests drive it deterministically.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.config import get_settings
from repro.log import get_logger

__all__ = ["WatchSnapshot", "read_journal_prefix", "render_watch_frame",
           "snapshot", "watch"]

log = get_logger(__name__)

#: Outcome display order (mirrors the FaultOutcome declaration order).
_OUTCOMES = ("masked", "sdc", "timeout", "due", "crash")


def read_journal_prefix(path: Path | str) -> list[dict]:
    """All valid records of a (possibly still growing) journal.

    Read-only: a torn tail — the writer mid-append, or a crash — is
    dropped from the returned records but never compacted away on disk.
    """
    try:
        raw = Path(path).read_bytes()
    except (FileNotFoundError, OSError):
        return []
    records: list[dict] = []
    for line in raw.splitlines():
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            break  # torn tail: the committed prefix is everything before it
        if not isinstance(record, dict):
            break
        records.append(record)
    return records


@dataclass
class WatchSnapshot:
    """One observed instant of a campaign."""

    key: str
    when: float  # observer clock at sampling time
    running: bool  # journal still on disk?
    tag: str = ""
    planned: int = 0
    committed: int = 0
    crashes: int = 0
    outcome_counts: dict[str, int] = field(default_factory=dict)
    #: label -> {"trials": int, "busy": float, "phase": str}
    workers: dict[str, dict] = field(default_factory=dict)
    #: Commit throughput over the window since ``prev`` (trials/sec).
    rate: float = 0.0
    eta: float | None = None  # seconds to completion at `rate`


def snapshot(key: str, *, prev: WatchSnapshot | None = None,
             clock: Callable[[], float] = time.monotonic) -> WatchSnapshot:
    """Sample journal + telemetry into one :class:`WatchSnapshot`.

    ``prev`` (the previous sample of the same campaign) turns the
    committed-prefix delta into a rate and an ETA; without it the frame
    shows progress but no extrapolation.
    """
    settings = get_settings()
    journal_path = settings.cache_dir / "journal" / f"{key}.jsonl"
    snap = WatchSnapshot(key=key, when=clock(),
                         running=journal_path.exists())
    records = read_journal_prefix(journal_path)
    for record in records:
        event = record.get("event")
        if event == "meta":
            snap.tag = str(record.get("tag", ""))
            snap.planned = int(record.get("trials", 0))
        elif event == "trial":
            snap.committed += 1
            outcome = str(record.get("outcome"))
            snap.outcome_counts[outcome] = \
                snap.outcome_counts.get(outcome, 0) + 1
        elif event == "crash":
            snap.crashes += 1

    if not snap.running:
        # Completed (or never journaled): the cached result, if one
        # exists, still gives the final outcome mix.
        cached = settings.cache_dir / f"{key}.json"
        try:
            payload = json.loads(cached.read_text(encoding="utf-8"))
            counts = payload.get("counts", {})
            snap.outcome_counts = {k: int(v) for k, v in counts.items() if v}
            snap.committed = sum(int(v) for v in counts.values())
            snap.planned = int(payload.get("planned_trials")
                               or payload.get("trials", snap.committed))
        except (OSError, ValueError):
            pass

    for event in _read_events_prefix(_find_events(key)):
        if event.get("kind") != "span":
            continue
        worker = event.get("worker")
        label = "main" if worker is None else f"w{worker}"
        lane = snap.workers.setdefault(
            label, {"trials": 0, "busy": 0.0, "phase": ""})
        lane["phase"] = str(event.get("name", ""))
        if event.get("name") == "trial":
            lane["trials"] += 1
            lane["busy"] += float(event.get("dur", 0.0))

    if prev is not None and snap.when > prev.when:
        delta = snap.committed - prev.committed
        if delta > 0:
            snap.rate = delta / (snap.when - prev.when)
    if snap.running and snap.rate > 0 and snap.planned > snap.committed:
        snap.eta = (snap.planned - snap.committed) / snap.rate
    return snap


def _find_events(key: str) -> Path:
    """The campaign's telemetry stream: ``<cache_dir>/telemetry/
    <key>.jsonl`` when the campaign owned its session, else the first
    caller-named stream whose events carry this campaign key (``campaign
    run --events out.jsonl`` picks the filename; the events still
    identify the campaign)."""
    d = get_settings().cache_dir / "telemetry"
    default = d / f"{key}.jsonl"
    if default.exists() or not d.is_dir():
        return default
    for candidate in sorted(d.glob("*.jsonl")):
        try:
            with open(candidate, encoding="utf-8") as f:
                first = f.readline()
            if json.loads(first).get("campaign") == key:
                return candidate
        except (OSError, ValueError, AttributeError):
            continue
    return default


def _read_events_prefix(path: Path) -> list[dict]:
    """Telemetry events with torn-tail tolerance (file may be mid-write)."""
    try:
        raw = path.read_text(encoding="utf-8")
    except (FileNotFoundError, OSError):
        return []
    events: list[dict] = []
    for line in raw.splitlines():
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            break
        if isinstance(event, dict):
            events.append(event)
    return events


def _bar(done: int, total: int, width: int = 30) -> str:
    if total <= 0:
        return "-" * width
    filled = min(width, int(width * done / total))
    return "#" * filled + "-" * (width - filled)


def render_watch_frame(snap: WatchSnapshot) -> str:
    """One dashboard frame as plain text (no cursor control — the caller
    owns screen refresh)."""
    lines: list[str] = []
    state = "running" if snap.running else "completed"
    ident = snap.tag or snap.key
    lines.append(f"watch {ident}  [{state}]")
    planned = max(snap.planned, snap.committed)
    pct = f"{snap.committed / planned:.0%}" if planned else "--"
    lines.append(f"  [{_bar(snap.committed, planned)}] "
                 f"{snap.committed}/{planned or '?'} trials ({pct})")
    status = []
    if snap.rate > 0:
        status.append(f"{snap.rate:.2f} trials/s")
    if snap.eta is not None:
        status.append(f"ETA {snap.eta:.0f}s")
    if snap.crashes:
        status.append(f"{snap.crashes} crash record(s)")
    if status:
        lines.append("  " + "  ".join(status))
    if snap.outcome_counts:
        total = sum(snap.outcome_counts.values())
        mix = "  ".join(
            f"{name} {snap.outcome_counts[name]} "
            f"({snap.outcome_counts[name] / total:.0%})"
            for name in _OUTCOMES if name in snap.outcome_counts)
        lines.append(f"  outcomes: {mix}")
    if snap.workers:
        lines.append("  workers:")
        for label in sorted(snap.workers):
            lane = snap.workers[label]
            lines.append(
                f"    {label:<5} {lane['trials']:>5} trial(s)  "
                f"{lane['busy']:>8.3f}s busy  last: {lane['phase']}")
    return "\n".join(lines)


def watch(key: str, *, interval: float = 1.0, once: bool = False,
          out=None, clock: Callable[[], float] = time.monotonic,
          sleep: Callable[[float], None] = time.sleep,
          max_frames: int | None = None) -> WatchSnapshot:
    """Follow a campaign until its journal disappears (== completion).

    On a TTY, frames redraw in place (ANSI home+clear); elsewhere they
    print sequentially. ``once`` renders a single frame and returns; the
    injectable ``clock``/``sleep``/``max_frames`` exist for deterministic
    tests. Returns the last snapshot taken.
    """
    out = sys.stdout if out is None else out
    is_tty = getattr(out, "isatty", lambda: False)()
    prev: WatchSnapshot | None = None
    frames = 0
    while True:
        snap = snapshot(key, prev=prev, clock=clock)
        frame = render_watch_frame(snap)
        if is_tty:
            out.write("\x1b[H\x1b[2J" + frame + "\n")
        else:
            out.write(frame + "\n")
        out.flush()
        frames += 1
        if once or not snap.running:
            return snap
        if max_frames is not None and frames >= max_frames:
            return snap
        prev = snap
        sleep(interval)
