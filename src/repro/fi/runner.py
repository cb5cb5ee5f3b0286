"""Resilient campaign execution engine with an optional worker pool.

All statistical FI campaigns (dispatched through
:func:`repro.fi.campaign.run_campaign`) delegate their trial loops here.
The engine owns everything that is about *executing N trials reliably and
fast* rather than about *which fault to inject*:

* **One trial loop** — every trial, at any worker count, runs the same
  per-trial step (:func:`_attempt_trial`) and reaches the same in-order
  commit inside :func:`execute_trials`, which journals, tallies, reports
  and checks the crash threshold and stop rule. One worker runs both
  in-process; a pool runs the step in its workers and the commit in the
  parent.

* **Per-trial fault isolation** — an unexpected exception from one trial
  (anything but :class:`ExecutionError`/:class:`SimTimeout`, which the
  classifier already maps to DUE/Timeout) is caught, recorded with its
  traceback and trial seed, and retried once on a fresh :class:`GPU`. If
  the retry also fails the trial is tallied as the infrastructure outcome
  :attr:`FaultOutcome.CRASH` and the campaign moves on. The crash records
  are journaled together with their trial's record, when it commits. A
  campaign whose crash fraction exceeds ``REPRO_MAX_TRIAL_FAILURES``
  (default 10 %) raises :class:`CampaignError` instead of producing
  garbage statistics.

* **Journaled checkpoint/resume** — every completed trial is appended to
  ``.repro_cache/journal/<key>.jsonl`` and flushed to the OS before it is
  counted, so a SIGKILL loses at most the in-flight trial; fsyncs are
  group-committed, so an OS crash loses at most about one second of
  trials (see :mod:`repro.fi.journal`). The campaign opens its journal
  once, at its first append, and closes it on every way out of
  :func:`execute_trials`. A killed campaign resumes from
  the last journaled trial on the next invocation; per-trial seeds from
  :func:`spawn_seeds` are deterministic, so the resumed run's final
  tallies are bit-for-bit identical to an uninterrupted run. Completed
  campaigns delete their journal (the result lives in the regular cache).

* **Parallel execution** — ``workers > 1`` fans the remaining trials out
  over a pool of forked worker processes (``REPRO_WORKERS``, ``auto`` =
  ``os.cpu_count() - 1``). The parent submits trial indices to the pool
  in *rounds* (each round strided across the workers in the same
  deterministic order as the historical static shards) and drains results
  as they arrive; it stays the **single writer** of the journal and
  commits results strictly in trial order, buffering out-of-order
  arrivals. A fixed-budget campaign submits everything in one round, so
  serial and parallel runs produce bit-identical journals, tallies, and
  cache payloads, and kill/resume works the same regardless of completion
  order. Platforms without the ``fork`` start method fall back to one
  worker with a warning.

* **Adaptive early stopping** — an optional ``stop_rule`` (duck-typed;
  see :class:`repro.fi.planner.StopRule`) is evaluated against the
  committed in-order prefix after every commit (including journal
  replay). Once it is satisfied the campaign is *complete*: the journal
  is discarded, later-arriving pool results are dropped unjournaled, and
  the tally reports ``stopped_early``. Because the decision only ever
  looks at the committed prefix — which is identical at any worker count
  and across kill/resume — adaptive campaigns inherit every determinism
  guarantee of the fixed path. With a stop rule the parallel scheduler
  submits bounded chunks per round instead of one block, keeping at most
  a couple of rounds in flight so a satisfied rule wastes little work.

* **Progress reporting** — an optional ``progress`` callback fires after
  every committed trial (including trials replayed from the journal), in
  trial order; an optional ``worker_progress(worker_id, completed)``
  callback fires as results arrive from the pool, so the CLI can show
  live per-worker progress.

* **Per-trial extras** — a trial function may return a third element: a
  JSON-serializable dict (e.g. the SDC anatomy record of
  :func:`repro.sdc.analyze_sdc`). Extras ride along the whole pipeline —
  journaled as the trial record's ``"sdc"`` field, shipped from pool
  workers with the trial result, replayed on resume — and are collected
  in trial order on :attr:`TrialTally.sdc_records`. Trials without an
  extra journal exactly the legacy record, byte for byte.

* **Telemetry** — when a :class:`~repro.telemetry.events.Telemetry`
  emitter is passed in, the engine emits structured events (campaign
  begin/end, per-trial ``trial`` spans, ``journal.commit`` spans, one
  ``commit`` event per trial in order) on top of whatever the trial body
  emits through :func:`~repro.telemetry.events.current_telemetry`. Pool
  workers buffer their events and stream them to the parent alongside
  results — the parent stays the single writer of both the journal and
  the event file, and telemetry never touches journal records, tallies,
  or cache payloads.

Environment knobs (see :mod:`repro.config`):

* ``REPRO_MAX_TRIAL_FAILURES`` — max tolerated crash fraction (default 0.1).
* ``REPRO_WORKERS`` — default pool size (default 1 = serial).
* ``REPRO_TELEMETRY`` — default-enable campaign telemetry.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue as queue_mod
import traceback
from dataclasses import dataclass, field
from typing import Callable

from repro.config import DEFAULT_MAX_TRIAL_FAILURES, get_settings
from repro.errors import CampaignError, ConfigError, ExecutionError
from repro.fi.journal import CampaignJournal
from repro.fi.outcomes import FaultOutcome, OutcomeCounts
from repro.log import get_logger
from repro.telemetry.events import NULL, Telemetry, set_current_telemetry
from repro.utils.rng import spawn_seeds

__all__ = [
    "DEFAULT_MAX_TRIAL_FAILURES", "ProgressFn", "WorkerProgressFn",
    "TrialFn", "TrialTally", "execute_trials", "max_trial_failure_rate",
    "resolve_workers", "journal_validity",
]

log = get_logger(__name__)

#: ``progress(completed, total, outcome)`` — fired after every trial.
ProgressFn = Callable[[int, int, FaultOutcome], None]

#: ``worker_progress(worker_id, trials completed by that worker)`` —
#: fired in arrival order while the pool runs.
WorkerProgressFn = Callable[[int, int], None]

#: ``trial_fn(gpu, trial_seed) -> (outcome, total cycles executed)`` or
#: ``(outcome, cycles, extra)`` — ``extra`` is an optional JSON-serializable
#: dict of per-trial data (e.g. an SDC anatomy record) the engine journals
#: alongside the outcome (``"sdc"`` field) and collects on the tally.
TrialFn = Callable[[object, int], "tuple[FaultOutcome, int]"]


def max_trial_failure_rate() -> float:
    """The configured crash-fraction ceiling (``REPRO_MAX_TRIAL_FAILURES``)."""
    return get_settings().max_trial_failures


def resolve_workers(workers: int | None = None) -> int:
    """Effective pool size: explicit argument, else ``REPRO_WORKERS``."""
    if workers is None:
        return get_settings().workers
    if not isinstance(workers, int) or workers < 1:
        raise ConfigError(f"workers must be a positive integer, got {workers!r}")
    return workers


@dataclass
class TrialTally:
    """What the execution engine hands back to the campaign builders."""

    counts: OutcomeCounts = field(default_factory=OutcomeCounts)
    control_path_masked: int = 0  # masked trials whose cycle count changed
    resumed: int = 0  # trials replayed from the journal, not simulated
    crash_events: int = 0  # journaled crash *attempts* (>= counts.crash)
    workers: int = 1  # pool size the live trials actually ran with
    planned: int = 0  # trials the campaign was planned for (len(seeds))
    stopped_early: bool = False  # a stop rule fired before the plan ran dry
    rounds: int = 0  # chunked scheduling rounds submitted (pool path only)
    #: Per-trial extra records (``{"trial": i, **extra}``) in trial order —
    #: populated only by trial functions that return a third element.
    sdc_records: list[dict] = field(default_factory=list)

    @property
    def saved(self) -> int:
        """Planned trials an early stop made unnecessary."""
        return max(0, self.planned - self.counts.total)

    def _record(self, outcome: FaultOutcome, cycles: int,
                baseline_cycles: int) -> None:
        self.counts.add(outcome)
        if outcome is FaultOutcome.MASKED and cycles != baseline_cycles:
            self.control_path_masked += 1


def _stop_satisfied(stop_rule, tally: TrialTally) -> bool:
    """Evaluate the (duck-typed) stop rule on the committed prefix."""
    return stop_rule is not None and stop_rule.satisfied(tally.counts)


def _journal_prefix_valid(records: list[dict], seeds: list[int]) -> bool:
    """Trial records must be exactly trials 0..k-1 with the planned seeds."""
    for i, rec in enumerate(records):
        if i >= len(seeds):
            return False
        if rec.get("trial") != i or rec.get("seed") != seeds[i]:
            return False
        try:
            FaultOutcome(rec.get("outcome"))
            int(rec.get("cycles"))
        except (ValueError, TypeError):
            return False
    return True


def journal_validity(meta: dict | None, trial_records: list[dict],
                     current_trials: int,
                     current_cache_version: int) -> tuple[bool, str]:
    """Would this journal actually be resumed by a re-run today?

    Cross-checks a journal's ``meta`` record against the current
    configuration: a journal planned under a different ``REPRO_TRIALS``,
    an older cache version, or whose recorded trial seeds no longer match
    the seed sequence its meta record promises is orphaned — the re-run
    computes a different cache key (or discards the journal) and restarts
    from trial 0. Returns ``(resumable, reason)``.
    """
    if meta is None:
        return True, ""  # legacy journal without a meta record: unknown
    if meta.get("cache_version") != current_cache_version:
        return False, (f"cache version changed "
                       f"({meta.get('cache_version')} -> "
                       f"{current_cache_version})")
    if meta.get("trials_from_env") and meta.get("trials") != current_trials:
        return False, (f"REPRO_TRIALS changed (journal planned "
                       f"{meta.get('trials')}, now {current_trials})")
    try:
        planned = spawn_seeds(int(meta["root_seed"]), str(meta["tag"]),
                              int(meta["trials"]))
    except (KeyError, TypeError, ValueError):
        return False, "meta record is malformed"
    if not _journal_prefix_valid(trial_records, planned):
        return False, "recorded trial seeds no longer match the planned seeds"
    return True, ""


def _crash_record(trial: int, trial_seed: int, exc: BaseException,
                  tb: str, retry: bool) -> dict:
    return {"event": "crash", "trial": trial, "seed": trial_seed,
            "error": repr(exc), "traceback": tb, "retry": retry}


def _attempt_trial(trial_fn: TrialFn, gpu, gpu_factory, trial_index: int,
                   trial_seed: int, tel: Telemetry):
    """One trial under its ``trial`` span, with the isolation contract:
    an unexpected exception gets one retry on a fresh GPU, a second
    failure becomes CRASH. Returns ``((outcome, cycles, extra,
    crash_records), gpu)`` — the GPU is replaced after any failure, since
    the blown-up trial may have corrupted its state, and each failed
    attempt leaves a crash record for the commit to journal."""
    crash_records: list[dict] = []
    with tel.span("trial", trial=trial_index):
        try:
            result = trial_fn(gpu, trial_seed)
        except ExecutionError:
            # SimTimeout/ExecutionError are fault effects the classifier
            # already maps to Timeout/DUE; one escaping the trial is a
            # harness bug the campaign must not paper over.
            raise
        except Exception as exc:
            log.warning("trial %d (seed %d) raised %r; retrying on a fresh "
                        "GPU", trial_index, trial_seed, exc)
            crash_records.append(_crash_record(
                trial_index, trial_seed, exc, traceback.format_exc(), False))
            gpu = gpu_factory()
            try:
                result = trial_fn(gpu, trial_seed)
            except ExecutionError:
                raise
            except Exception as exc2:
                log.error("trial %d (seed %d) raised %r again on retry; "
                          "tallying as CRASH", trial_index, trial_seed, exc2)
                crash_records.append(_crash_record(
                    trial_index, trial_seed, exc2, traceback.format_exc(),
                    True))
                return ((FaultOutcome.CRASH, 0, None, crash_records),
                        gpu_factory())
    extra = result[2] if len(result) > 2 else None
    return (result[0], result[1], extra, crash_records), gpu


def execute_trials(
    *,
    key: str,
    seeds: list[int],
    trial_fn: TrialFn,
    gpu_factory: Callable[[], object],
    baseline_cycles: int,
    max_failure_rate: float | None = None,
    progress: ProgressFn | None = None,
    journal: bool = True,
    workers: int | None = None,
    worker_progress: WorkerProgressFn | None = None,
    meta: dict | None = None,
    telemetry: Telemetry | None = None,
    event_tags: dict | None = None,
    stop_rule=None,
) -> TrialTally:
    """Run one trial per seed with isolation, journaling and resume.

    ``trial_fn(gpu, trial_seed)`` plans and injects one fault, runs the
    application and returns ``(outcome, cycles)``; it must leave the GPU
    reusable (reset happens inside the trial). ``gpu_factory`` builds a
    fresh, budget-configured GPU — used at start-up and to replace a GPU
    whose state an unexpected exception may have corrupted.

    ``workers`` (default ``REPRO_WORKERS``) selects the trial-execution
    pool size; ``1`` runs the trials in-process. ``meta`` is an optional
    dict of campaign identity fields written to the journal's leading
    ``meta`` record (used by ``campaign status`` to detect stale journals).

    ``journal=False`` disables checkpointing (used by ``use_cache=False``
    campaigns, whose callers asked for a from-scratch run).

    ``telemetry`` is an optional event emitter (parent-process sink);
    when enabled the engine emits phase spans and per-trial events, and
    pool workers stream their events back through the parent. Results
    are unaffected either way. ``event_tags`` is an optional dict of
    campaign-identity fields (e.g. ``fault_model``/``target``) merged
    into the campaign-begin and per-trial ``commit`` events so event
    streams from different fault models stay distinguishable.

    ``stop_rule`` enables adaptive early stopping: any object exposing
    ``satisfied(counts) -> bool`` (and optionally ``min_trials`` /
    ``chunk`` for chunk sizing), evaluated on the committed in-order
    prefix after every commit. ``len(seeds)`` is then the trial *budget*
    rather than an exact count.
    """
    total = len(seeds)
    threshold = (max_failure_rate if max_failure_rate is not None
                 else max_trial_failure_rate())
    workers = resolve_workers(workers)
    tally = TrialTally()
    tally.planned = total
    jr = CampaignJournal(key) if journal else None
    tel = telemetry if telemetry is not None else NULL

    done = 0
    if jr is not None:
        records = jr.load()
        completed = [r for r in records if r.get("event") == "trial"]
        tally.crash_events = sum(
            1 for r in records if r.get("event") == "crash")
        if completed and not _journal_prefix_valid(completed, seeds):
            log.warning(
                "journal %s does not match the planned trial seeds "
                "(stale or foreign); discarding it and restarting", key)
            jr.discard()
            records = []
            completed = []
            tally.crash_events = 0
        if not records and meta is not None:
            jr.append({"event": "meta", **meta})
        for rec in completed:
            outcome = FaultOutcome(rec["outcome"])
            tally._record(outcome, int(rec["cycles"]), baseline_cycles)
            if isinstance(rec.get("sdc"), dict):
                tally.sdc_records.append({"trial": rec["trial"],
                                          **rec["sdc"]})
            done += 1
            if progress is not None:
                progress(done, total, outcome)
            if _stop_satisfied(stop_rule, tally):
                # The rule fires at the same committed prefix whether the
                # trials ran live or were replayed, so a resumed adaptive
                # campaign stops at the identical trial count (any journal
                # records past this point are discarded with the journal).
                tally.stopped_early = True
                break
        tally.resumed = done
        if done:
            log.info("campaign %s: resumed %d/%d trials from journal",
                     key, done, total)
            if tally.counts.crash / total > threshold:
                raise CampaignError(
                    f"campaign {key}: journal already records "
                    f"{tally.counts.crash}/{total} crashed trials, exceeding "
                    f"REPRO_MAX_TRIAL_FAILURES={threshold:.0%}"
                )

    remaining = total - done
    if remaining <= 0 or tally.stopped_early:
        if jr is not None:
            jr.discard()
        return tally

    tel.emit("campaign", phase="begin", key=key, total=total, resumed=done,
             workers=workers, **(event_tags or {}))

    def commit(i: int, outcome: FaultOutcome, cycles: int,
               extra: dict | None, crash_records: list[dict]) -> None:
        """Journal, tally and report trial ``i`` — called strictly in
        trial order, whichever process ran the trial."""
        tally.crash_events += len(crash_records)
        if jr is not None:
            record = {"event": "trial", "trial": i, "seed": seeds[i],
                      "outcome": outcome.value, "cycles": cycles}
            if extra is not None:
                record["sdc"] = extra
            with tel.span("journal.commit", trial=i):
                if crash_records:
                    jr.append_many([*crash_records, record])
                else:
                    # The common case goes through the one-record entry
                    # point, which benchmarks/perf/layers.py traces.
                    jr.append(record)
        tally._record(outcome, cycles, baseline_cycles)
        if extra is not None:
            tally.sdc_records.append({"trial": i, **extra})
        if tel.enabled:
            event_fields = dict(event_tags or {})
            if extra is not None:
                event_fields["severity"] = extra.get("severity")
            tel.emit("commit", trial=i, outcome=outcome.value,
                     cycles=cycles, **event_fields)
        if progress is not None:
            progress(i + 1, total, outcome)
        if tally.counts.crash / total > threshold:
            where = (f"; see the journal ({jr.path}) for tracebacks"
                     if jr is not None else "")
            raise CampaignError(
                f"campaign {key}: {tally.counts.crash}/{total} trials "
                f"crashed with unexpected exceptions, exceeding "
                f"REPRO_MAX_TRIAL_FAILURES={threshold:.0%}{where}")
        if _stop_satisfied(stop_rule, tally):
            tally.stopped_early = True
            log.info("campaign %s: stop rule satisfied after %d/%d trials",
                     key, i + 1, total)

    if (workers > 1 and remaining > 1
            and "fork" not in multiprocessing.get_all_start_methods()):
        log.warning("REPRO_WORKERS=%d requested but the 'fork' start method "
                    "is unavailable on this platform; running serially",
                    workers)
        workers = 1
    prev_tel = set_current_telemetry(tel)
    try:
        if workers > 1 and remaining > 1:
            tally.workers = min(workers, remaining)
            _execute_parallel(
                key=key, seeds=seeds, trial_fn=trial_fn,
                gpu_factory=gpu_factory, commit=commit,
                worker_progress=worker_progress, tally=tally, done=done,
                total=total, workers=tally.workers, tel=tel,
                stop_rule=stop_rule)
        else:
            with tel.span("sim.setup"):
                gpu = gpu_factory()
            for i in range(done, total):
                result, gpu = _attempt_trial(trial_fn, gpu, gpu_factory, i,
                                             seeds[i], tel)
                commit(i, *result)
                if tally.stopped_early:
                    break
    except BaseException:
        # The journal stays behind for resume: put its group-committed
        # tail on disk.
        if jr is not None:
            jr.sync()
        raise
    finally:
        set_current_telemetry(prev_tel)
        if jr is not None:
            jr.close()
    if jr is not None:
        jr.discard()
    _emit_end(tel, key, tally, stop_rule)
    return tally


def _emit_end(tel: Telemetry, key: str, tally: TrialTally,
              stop_rule) -> None:
    if not tel.enabled:
        return
    extra = ({"planned": tally.planned, "saved": tally.saved,
              "rounds": tally.rounds} if stop_rule is not None else {})
    tel.emit("campaign", phase="end", key=key,
             committed=tally.counts.total, **extra)


# ------------------------------------------------------------- parallel path

def _shippable(exc: BaseException):
    """The exception itself if it survives a pickle round-trip (so the
    parent can re-raise the genuine type), else None."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return None


def _worker_main(worker_id: int, task_q, seeds: list[int],
                 trial_fn: TrialFn, gpu_factory, out_q,
                 tel_args: "tuple[str, float] | None" = None) -> None:
    """Worker-process body (reached via fork: closures need no pickling).

    Blocks on its private ``task_q`` for lists of trial indices (one list
    per scheduling round), runs each with :func:`_attempt_trial` — the
    same per-trial step as a one-worker campaign — and streams
    ``("trial", worker_id, index, (outcome, cycles, extra,
    crash_records))`` messages to the parent, which owns all journal
    writes. The worker's GPU state persists across rounds exactly as it
    persists across trials (each trial resets it). Any exception that
    must abort the campaign (an escaped :class:`ExecutionError`,
    KeyboardInterrupt, ...) is shipped as a ``("fatal", ...)`` message
    for the parent to re-raise; otherwise the worker runs until the
    parent terminates the pool.

    ``tel_args`` (``(campaign, t0)``, or None for telemetry off) wires a
    buffered event emitter: events accumulate locally and are flushed as
    ``("events", worker_id, [event, ...])`` messages — each flush queued
    *before* the trial result it belongs to, so the parent has written a
    trial's events by the time it commits the trial. The parent stays the
    single writer; journal records never interleave with event traffic.
    """
    buffer: list[dict] = []
    if tel_args is not None:
        campaign, t0 = tel_args
        tel = Telemetry(buffer.append, campaign=campaign, worker=worker_id,
                        t0=t0)
    else:
        tel = NULL
    set_current_telemetry(tel)
    try:
        with tel.span("sim.setup"):
            gpu = gpu_factory()
        while (indices := task_q.get()) is not None:
            for i in indices:
                result, gpu = _attempt_trial(trial_fn, gpu, gpu_factory, i,
                                             seeds[i], tel)
                if buffer:
                    out_q.put(("events", worker_id, buffer[:]))
                    buffer.clear()
                out_q.put(("trial", worker_id, i, result))
    except BaseException as exc:  # noqa: BLE001 — shipped to the parent
        out_q.put(("fatal", worker_id, _shippable(exc), repr(exc),
                   traceback.format_exc()))


def _round_chunk(stop_rule, workers: int) -> int:
    """Trials per adaptive scheduling round: enough to keep every worker
    busy between refills without racing far past the stopping point."""
    chunk = getattr(stop_rule, "chunk", None)
    return chunk if chunk else max(2 * workers, 8)


def _execute_parallel(*, key, seeds, trial_fn, gpu_factory, commit,
                      worker_progress, tally, done, total, workers,
                      tel=NULL, stop_rule=None) -> None:
    """Submit trials to a persistent forked pool in rounds; commit in order.

    Each round covers a contiguous index range strided across the workers
    (worker ``w`` gets indices ``start+w, start+w+workers, ...``) — for a
    fixed-budget campaign there is exactly one round covering everything,
    which reproduces the historical static shards index for index. The
    parent buffers out-of-order results in ``pending`` and hands them to
    ``commit`` strictly by trial index, so the journal is byte-identical
    to a one-worker run's and kill/resume semantics are unchanged.

    With a ``stop_rule`` the rounds are bounded chunks: the first reaches
    the rule's ``min_trials`` floor, later ones keep roughly two chunks in
    flight, and a new round is submitted only while the committed prefix
    leaves the rule unsatisfied. Once it is satisfied the scheduler stops
    submitting and drops any still-in-flight results — they were never
    journaled, so the committed prefix (and hence the tally) is identical
    at any worker count.
    """
    ctx = multiprocessing.get_context("fork")
    result_q = ctx.Queue()
    tel_args = (tel.campaign, tel.t0) if tel.enabled else None
    task_qs = [ctx.Queue() for _ in range(workers)]
    procs: list[tuple[int, multiprocessing.Process]] = []
    for w in range(workers):
        proc = ctx.Process(
            target=_worker_main,
            args=(w, task_qs[w], seeds, trial_fn, gpu_factory, result_q,
                  tel_args),
            daemon=True, name=f"repro-trial-worker-{w}")
        proc.start()
        procs.append((w, proc))

    next_to_submit = done

    def submit_round(count: int) -> None:
        nonlocal next_to_submit
        chunk = range(next_to_submit, min(total, next_to_submit + count))
        if not chunk:
            return
        for w in range(workers):
            shard = list(chunk)[w::workers]
            if shard:
                task_qs[w].put(shard)
        next_to_submit = chunk.stop
        tally.rounds += 1
        if stop_rule is not None:
            tel.emit("plan", round=tally.rounds, submitted=len(chunk),
                     horizon=next_to_submit)

    if stop_rule is None:
        chunk_size = total - done  # everything in one round, as ever
        submit_round(chunk_size)
    else:
        chunk_size = _round_chunk(stop_rule, workers)
        floor = getattr(stop_rule, "min_trials", 1)
        submit_round(max(chunk_size, floor - done))
    log.info("campaign %s: running up to %d remaining trials on %d workers",
             key, total - done, workers)

    pending: dict[int, tuple] = {}
    per_worker: dict[int, int] = {w: 0 for w, _ in procs}
    running = {w for w, _ in procs}
    next_index = done
    try:
        while next_index < total and not tally.stopped_early:
            try:
                msg = result_q.get(timeout=0.5)
            except queue_mod.Empty:
                dead = sorted(w for w, proc in procs
                              if w in running and not proc.is_alive())
                if dead:
                    raise CampaignError(
                        f"campaign {key}: worker(s) "
                        f"{', '.join(map(str, dead))} died without reporting "
                        f"a result (killed?); the journal retains "
                        f"{next_index}/{total} completed trials — re-run to "
                        f"resume")
                continue
            kind = msg[0]
            if kind == "events":
                tel.ingest(msg[2])
                continue
            if kind == "fatal":
                _, worker_id, exc, text, tb = msg
                running.discard(worker_id)
                if exc is not None:
                    raise exc
                raise CampaignError(
                    f"campaign {key}: worker {worker_id} failed with an "
                    f"unpicklable error {text}; worker traceback:\n{tb}")
            _, worker_id, i, result = msg
            pending[i] = result
            per_worker[worker_id] += 1
            if worker_progress is not None:
                worker_progress(worker_id, per_worker[worker_id])

            while next_index in pending and not tally.stopped_early:
                commit(next_index, *pending.pop(next_index))
                next_index += 1

            # Refill the pool while the rule is undecided: keep at most
            # ~two chunks in flight so satisfaction wastes little work.
            if (stop_rule is not None and not tally.stopped_early
                    and next_to_submit < total
                    and next_to_submit - next_index <= chunk_size):
                submit_round(chunk_size)
    finally:
        for _, proc in procs:
            if proc.is_alive():
                proc.terminate()
        for _, proc in procs:
            proc.join(timeout=5)
        result_q.close()
        for q in task_qs:
            q.close()
            q.cancel_join_thread()
