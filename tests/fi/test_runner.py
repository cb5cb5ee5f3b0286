"""Resilient execution engine: trial isolation, journaled checkpoint/resume,
crash-safe caching (repro.fi.runner + repro.fi.journal)."""

import functools
import logging
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.errors import CampaignError, ConfigError, ExecutionError
from repro.fi import campaign as campaign_mod
from repro.fi import journal as journal_mod
from repro.fi.campaign import (
    CampaignSpec,
    default_trials,
    profile_app,
    run_campaign,
)
from repro.fi.journal import CampaignJournal, list_journals
from repro.fi.outcomes import FaultOutcome
from repro.fi.runner import (
    _journal_prefix_valid,
    execute_trials,
    max_trial_failure_rate,
)
from repro.kernels import get_application
from repro.telemetry.events import Telemetry


def _sw_campaign(app, kernel, config, *, trials, seed=1, use_cache=True,
                 profile=None, max_failure_rate=None, progress=None):
    return run_campaign(
        CampaignSpec(level="sw", app=app, kernel=kernel, config=config,
                     trials=trials, seed=seed, use_cache=use_cache),
        profile=profile, max_failure_rate=max_failure_rate,
        progress=progress)


@pytest.fixture(autouse=True)
def _serial_engine(monkeypatch):
    """This module pins the *serial* engine contract — call-order-sensitive
    FlakyApp counters and exact journal lengths at kill time — so force
    workers=1 even when the environment (e.g. the CI pool matrix) sets
    REPRO_WORKERS. The pool path is covered by test_parallel.py."""
    monkeypatch.setenv("REPRO_WORKERS", "1")


class FlakyApp:
    """Wraps a real application; ``run()`` raises on chosen call numbers.

    Calls are numbered from 1 and count every ``run()`` invocation,
    including the campaign runner's retries — so ``fail_calls={3}`` makes
    trial 3's first attempt fail (its retry, call 4, succeeds), while
    ``fail_calls={3, 4}`` fails the attempt *and* the retry."""

    def __init__(self, inner, fail_calls=(), fail_all=False,
                 exc=RuntimeError):
        self.inner = inner
        self.fail_calls = set(fail_calls)
        self.fail_all = fail_all
        self.exc = exc
        self.calls = 0

    @property
    def name(self):
        return self.inner.name

    @property
    def seed(self):
        return self.inner.seed

    @property
    def kernel_names(self):
        return self.inner.kernel_names

    def run(self, gpu, harness=None):
        self.calls += 1
        if self.fail_all or self.calls in self.fail_calls:
            raise self.exc(f"flaky failure on call {self.calls}")
        return self.inner.run(gpu, harness)


class KillSwitchApp(FlakyApp):
    """Raises KeyboardInterrupt from call ``explode_at`` on — a stand-in
    for SIGKILL/preemption: a BaseException the runner must NOT isolate."""

    def __init__(self, inner, explode_at):
        super().__init__(inner)
        self.explode_at = explode_at

    def run(self, gpu, harness=None):
        self.calls += 1
        if self.calls >= self.explode_at:
            raise KeyboardInterrupt()
        return self.inner.run(gpu, harness)


@pytest.fixture()
def va_profile(v100):
    return profile_app(get_application("va"), v100)


# ---------------------------------------------------------------- isolation

def test_flaky_trial_retried_without_aborting(tmp_cache, v100, va_profile):
    ref = _sw_campaign(get_application("va"), "va_k1", v100,
                       trials=10, seed=5, use_cache=False,
                       profile=va_profile)
    flaky = FlakyApp(get_application("va"), fail_calls={3})
    result = _sw_campaign(flaky, "va_k1", v100, trials=10, seed=5,
                          profile=va_profile)
    # 10 trials + 1 retry; the retry reruns the same seed, so tallies match
    # an unperturbed campaign exactly and no crash is recorded.
    assert flaky.calls == 11
    assert result.counts == ref.counts
    assert result.counts.crash == 0
    assert not list_journals()  # journal deleted on completion


def test_persistent_failure_tallied_as_crash(tmp_cache, v100, va_profile):
    flaky = FlakyApp(get_application("va"), fail_calls={2, 3})
    result = _sw_campaign(flaky, "va_k1", v100, trials=30, seed=5,
                          profile=va_profile)
    assert result.counts.crash == 1
    assert result.counts.total == 30
    assert result.counts.classified == 29
    # crash is infrastructure, not a fault effect: excluded from FR
    assert 0.0 <= result.counts.failure_rate <= 1.0
    assert not list_journals()
    assert len(list(tmp_cache.glob("*.json"))) == 1  # result still cached


def test_failure_threshold_raises_campaign_error(tmp_cache, v100, va_profile):
    bad = FlakyApp(get_application("va"), fail_all=True)
    with pytest.raises(CampaignError, match="REPRO_MAX_TRIAL_FAILURES"):
        _sw_campaign(bad, "va_k1", v100, trials=10, seed=3,
                     profile=va_profile)
    # the journal survives a threshold abort (it holds the tracebacks)
    assert list_journals()


def test_uncached_threshold_error_names_no_journal(tmp_cache, v100,
                                                  va_profile):
    """A ``use_cache=False`` campaign keeps no journal, so its
    threshold error must not send the user to one."""
    bad = FlakyApp(get_application("va"), fail_all=True)
    with pytest.raises(CampaignError, match="REPRO_MAX_TRIAL_FAILURES") as err:
        _sw_campaign(bad, "va_k1", v100, trials=10, seed=3,
                     use_cache=False, profile=va_profile)
    assert "journal" not in str(err.value)
    assert ".jsonl" not in str(err.value)
    assert not list_journals()


def test_threshold_override_allows_flaky_minority(tmp_cache, v100,
                                                  va_profile):
    flaky = FlakyApp(get_application("va"), fail_calls={2, 3})
    with pytest.raises(CampaignError):
        _sw_campaign(flaky, "va_k1", v100, trials=30, seed=5,
                     profile=va_profile, use_cache=False,
                     max_failure_rate=0.0)


# ---------------------------------------------------------- resume/journal

def test_kill_mid_campaign_resumes_bit_for_bit(tmp_cache, v100, va_profile):
    trials, seed = 12, 7
    ref = _sw_campaign(get_application("va"), "va_k1", v100,
                       trials=trials, seed=seed, use_cache=False,
                       profile=va_profile)

    bomb = KillSwitchApp(get_application("va"), explode_at=6)
    with pytest.raises(KeyboardInterrupt):
        _sw_campaign(bomb, "va_k1", v100, trials=trials, seed=seed,
                     profile=va_profile)
    journals = list_journals()
    assert len(journals) == 1
    assert journals[0][1] == 5  # five trials completed before the "kill"

    progressed = []
    healthy = FlakyApp(get_application("va"))
    resumed = _sw_campaign(
        healthy, "va_k1", v100, trials=trials, seed=seed,
        profile=va_profile,
        progress=lambda done, total, outcome: progressed.append(done))
    # only the remaining 7 trials were simulated...
    assert healthy.calls == trials - 5
    # ...but progress covered replayed + live trials, and the tallies are
    # identical to the uninterrupted run.
    assert progressed == list(range(1, trials + 1))
    assert resumed.counts == ref.counts
    assert resumed.control_path_masked == ref.control_path_masked
    assert not list_journals()


def test_journal_torn_tail_dropped_and_compacted(tmp_path):
    j = CampaignJournal("k1", tmp_path)
    r0 = {"event": "trial", "trial": 0, "seed": 11, "outcome": "masked",
          "cycles": 5}
    r1 = {"event": "trial", "trial": 1, "seed": 12, "outcome": "sdc",
          "cycles": 6}
    j.append(r0)
    j.append(r1)
    with open(j.path, "a", encoding="utf-8") as f:
        f.write('{"event": "tri')  # SIGKILL mid-append
    assert j.load() == [r0, r1]
    # the file was compacted back to its valid prefix: appends stay valid
    r2 = {"event": "trial", "trial": 2, "seed": 13, "outcome": "due",
          "cycles": 7}
    j.append(r2)
    assert j.load() == [r0, r1, r2]
    j.discard()
    assert not j.exists()


def test_journal_prefix_validation():
    recs = [{"trial": 0, "seed": 11, "outcome": "masked", "cycles": 1},
            {"trial": 1, "seed": 12, "outcome": "due", "cycles": 2}]
    assert _journal_prefix_valid(recs, [11, 12, 13])
    assert not _journal_prefix_valid(recs, [99, 12])  # foreign seeds
    assert not _journal_prefix_valid(recs, [11])  # more records than trials
    assert not _journal_prefix_valid(
        [{"trial": 0, "seed": 11, "outcome": "nope", "cycles": 1}], [11])


# ---------------------------------------------------- journal durability

#: A va campaign in a child process (argv: trials, seed). Each app run
#: sleeps first, so a SIGKILL sent after a few trials lands mid-campaign.
_CHILD_CAMPAIGN = """
import sys, time
from repro.arch.config import tesla_v100_like
from repro.fi.campaign import CampaignSpec, run_campaign
from repro.kernels import get_application

class Slow:
    def __init__(self, inner):
        self.inner = inner
        self.name, self.seed = inner.name, inner.seed
        self.kernel_names = inner.kernel_names

    def run(self, gpu, harness=None):
        time.sleep(0.05)
        return self.inner.run(gpu, harness)

run_campaign(CampaignSpec(level="sw", app=Slow(get_application("va")),
                          kernel="va_k1", config=tesla_v100_like(),
                          trials=int(sys.argv[1]), seed=int(sys.argv[2])))
"""


@pytest.fixture()
def discarded(monkeypatch):
    """The records of each journal as a campaign discards it, in order."""
    seen = []
    real_discard = CampaignJournal.discard

    def discard(self):
        seen.append(self.load())
        real_discard(self)

    monkeypatch.setattr(CampaignJournal, "discard", discard)
    return seen


def _va_campaign(v100, va_profile, trials, seed, app=None):
    return _sw_campaign(app or get_application("va"), "va_k1", v100,
                        trials=trials, seed=seed, profile=va_profile)


def _journaled_trials(directory: Path) -> int:
    return sum(path.read_bytes().count(b'"event": "trial"')
               for path in directory.glob("*.jsonl"))


def test_sigkilled_campaign_resumes_bit_for_bit(tmp_path, monkeypatch, v100,
                                                va_profile, discarded):
    """A real SIGKILL mid-campaign: the journal keeps every trial flushed
    before the kill, and the resumed campaign's tally, cached payload and
    per-trial records equal an uninterrupted run's."""
    trials, seed, k = 40, 11, 5
    child_cache, ref_cache = tmp_path / "child", tmp_path / "ref"
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "REPRO_CACHE_DIR": str(child_cache),
           "REPRO_WORKERS": "1",
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.Popen(
        [sys.executable, "-c", _CHILD_CAMPAIGN, str(trials), str(seed)],
        env=env)
    deadline = time.monotonic() + 120
    try:
        while _journaled_trials(child_cache / "journal") < k:
            assert child.poll() is None, "campaign ended before the kill"
            assert time.monotonic() < deadline, "no trials journaled"
            time.sleep(0.005)
    finally:
        child.kill()
        child.wait()
    assert child.returncode == -signal.SIGKILL

    monkeypatch.setenv("REPRO_CACHE_DIR", str(ref_cache))
    ref = _va_campaign(v100, va_profile, trials, seed)
    ref_records = discarded[-1]

    monkeypatch.setenv("REPRO_CACHE_DIR", str(child_cache))
    [journal] = list_journals()
    assert k <= journal.trials < trials
    app = FlakyApp(get_application("va"))
    resumed = _va_campaign(v100, va_profile, trials, seed, app)
    assert app.calls == trials - journal.trials
    assert resumed.counts == ref.counts
    assert discarded[-1] == ref_records
    assert not list_journals()
    [payload] = child_cache.glob("*.json")
    [ref_payload] = ref_cache.glob("*.json")
    assert payload.read_bytes() == ref_payload.read_bytes()


def _seeded_trial_fn():
    """A trial function driven by its seed alone, so it behaves the same
    in any process: seeds ``≡ 1 (mod 5)`` fail their first attempt,
    ``≡ 2`` fail both attempts (CRASH), ``≡ 3`` return an SDC extra."""
    attempts: dict[int, int] = {}

    def trial_fn(gpu, seed):
        attempts[seed] = attempts.get(seed, 0) + 1
        if seed % 5 == 2 or (seed % 5 == 1 and attempts[seed] == 1):
            raise RuntimeError(f"seed {seed} attempt {attempts[seed]}")
        if seed % 5 == 3:
            return (FaultOutcome.SDC, 7 * seed,
                    {"severity": "tolerable", "seed": seed})
        return FaultOutcome.MASKED, 100 + seed % 2

    return trial_fn


def test_serial_and_pool_commit_the_same_records(tmp_cache, discarded):
    """One worker and a pool journal the same crash, trial and ``sdc``
    records and emit the same ``commit`` events, in the same order."""
    runs = []
    for workers in (1, 2):
        events = []
        tally = execute_trials(
            key="same-commit", seeds=list(range(100, 130)),
            trial_fn=_seeded_trial_fn(), gpu_factory=object,
            baseline_cycles=100, max_failure_rate=0.5, workers=workers,
            telemetry=Telemetry(events.append, campaign="same-commit"))
        commits = [(e["trial"], e["outcome"], e["cycles"])
                   for e in events if e["kind"] == "commit"]
        runs.append((discarded[-1], commits, tally.crash_events,
                     tally.counts, tally.sdc_records))
    assert runs[0] == runs[1]
    records, commits, crash_events, counts, sdc_records = runs[0]
    assert len(commits) == 30
    assert counts.crash == 6 and counts.sdc == 6
    assert crash_events == 6 + 2 * 6
    assert [r["event"] for r in records[:4]] == [
        "trial", "crash", "trial", "crash"]
    assert [r["retry"] for r in records if r["event"] == "crash"][:3] == [
        False, False, True]
    assert [r["trial"] for r in sdc_records] == list(range(3, 30, 5))
    assert all(r["sdc"]["seed"] == r["seed"]
               for r in records if "sdc" in r)


def _trial_record(i: int) -> dict:
    return {"event": "trial", "trial": i, "seed": i, "outcome": "masked",
            "cycles": 1}


def test_group_commit_fsyncs_once_per_interval(tmp_path, monkeypatch):
    synced = []
    monkeypatch.setattr(journal_mod.os, "fsync", synced.append)
    now = [100.0]
    monkeypatch.setattr(journal_mod, "_clock", lambda: now[0])
    j = CampaignJournal("k", tmp_path)
    j.append({"event": "meta"})
    for i in range(39):
        j.append(_trial_record(i))
    assert len(synced) == 1  # the meta record's
    assert len(j.load()) == 40  # every record reached the OS
    now[0] += journal_mod.SYNC_INTERVAL_S
    j.append(_trial_record(39))
    assert len(synced) == 2
    j.sync()  # nothing appended since the last fsync
    assert len(synced) == 2
    j.append(_trial_record(40))
    j.sync()
    assert len(synced) == 3


@pytest.mark.parametrize("app, error", [
    (lambda: FlakyApp(get_application("va"), fail_all=True), CampaignError),
    (lambda: KillSwitchApp(get_application("va"), explode_at=6),
     KeyboardInterrupt),
], ids=["crash-threshold", "interrupt"])
def test_abnormal_exit_syncs_the_journal(tmp_cache, monkeypatch, v100,
                                         va_profile, app, error):
    synced_sizes = []
    monkeypatch.setattr(journal_mod.os, "fsync",
                        lambda fd: synced_sizes.append(os.fstat(fd).st_size))
    monkeypatch.setattr(journal_mod, "_clock", lambda: 0.0)
    with pytest.raises(error):
        _va_campaign(v100, va_profile, 10, 3, app())
    [journal] = list_journals()
    # The meta record's fsync, then the exit's, which covers the whole file.
    assert len(synced_sizes) == 2
    assert synced_sizes[-1] == CampaignJournal(journal.key).path.stat().st_size


@pytest.mark.parametrize("fill", ["truncated", "nul-filled"])
@pytest.mark.parametrize("cut", [
    lambda synced, size: synced,
    lambda synced, size: synced + 1,
    lambda synced, size: (synced + size) // 2,
    lambda synced, size: size - 1,  # a whole record but for its newline
], ids=["at-sync", "sync+1", "mid-tail", "before-last-newline"])
def test_os_crash_after_last_sync_resumes_identically(
        tmp_path, monkeypatch, v100, va_profile, discarded, cut, fill):
    """An OS crash keeps the synced prefix and an arbitrary part of the
    unsynced tail (cut short, or its lost pages read back as NULs); the
    lost trials re-run and the tally and records come out identical."""
    trials, seed = 12, 7
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "ref"))
    ref = _va_campaign(v100, va_profile, trials, seed)
    ref_records = discarded[-1]

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "crash"))
    synced_sizes = []
    with monkeypatch.context() as m:
        m.setattr(journal_mod.os, "fsync",
                  lambda fd: synced_sizes.append(os.fstat(fd).st_size))
        m.setattr(journal_mod, "_clock", lambda: 0.0)
        m.setattr(CampaignJournal, "sync", lambda self: None)  # OS died
        with pytest.raises(KeyboardInterrupt):
            _va_campaign(v100, va_profile, trials, seed,
                         KillSwitchApp(get_application("va"), explode_at=6))
    [journal] = list_journals()
    path = CampaignJournal(journal.key).path
    raw = path.read_bytes()
    assert synced_sizes == [raw.index(b"\n") + 1]  # the meta record only
    at = cut(synced_sizes[-1], len(raw))
    tail = b"\0" * (len(raw) - at) if fill == "nul-filled" else b""
    path.write_bytes(raw[:at] + tail)

    resumed = _va_campaign(v100, va_profile, trials, seed)
    assert resumed.counts == ref.counts
    assert discarded[-1] == ref_records
    assert not list_journals()


# ------------------------------------------------ one journal handle


@pytest.fixture()
def journal_files(monkeypatch):
    """Every file ``repro.fi.journal`` opens, and every directory it
    makes, as ``(opened, made)`` lists."""
    opened, made = [], []
    real_open, real_mkdir = open, Path.mkdir

    def counting_open(*args, **kwargs):
        f = real_open(*args, **kwargs)
        opened.append(f)
        return f

    def counting_mkdir(self, *args, **kwargs):
        if self.name == "journal":
            made.append(self)
        return real_mkdir(self, *args, **kwargs)

    monkeypatch.setattr(journal_mod, "open", counting_open, raising=False)
    monkeypatch.setattr(Path, "mkdir", counting_mkdir)
    return opened, made


def test_a_campaign_opens_its_journal_once(tmp_cache, v100, va_profile,
                                           journal_files, discarded):
    opened, made = journal_files
    tmp_cache.mkdir()  # else mkdir(parents=True) recurses into itself
    _va_campaign(v100, va_profile, 12, 5)
    assert len(discarded[-1]) == 13  # the meta record and 12 trials
    [payload] = tmp_cache.glob("*.json")
    journal = tmp_cache / "journal" / f"{payload.stem}.jsonl"
    assert [f.name for f in opened] == [str(journal)]
    assert made == [journal.parent]
    assert all(f.closed for f in opened)


def test_append_after_compaction_lands_in_the_compacted_file(tmp_path):
    j = CampaignJournal("k", tmp_path)
    j.append(_trial_record(0))
    with open(j.path, "a", encoding="utf-8") as f:
        f.write('{"event": "tri')  # SIGKILL mid-append
    replaced = os.stat(j.path).st_ino
    assert j.load() == [_trial_record(0)]
    assert os.stat(j.path).st_ino != replaced
    j.append(_trial_record(1))
    assert j.load() == [_trial_record(0), _trial_record(1)]
    j.close()


def test_discard_then_append_recreates_the_journal(tmp_path):
    j = CampaignJournal("k", tmp_path)
    j.append(_trial_record(0))
    j.discard()
    assert not j.exists()
    j.append(_trial_record(1))
    assert j.load() == [_trial_record(1)]
    j.discard()
    assert not j.exists()


def _escaping_trial_fn(fail_at: int):
    """A trial function whose trial ``fail_at`` raises an error the
    isolation contract does not catch (``None``: no trial does)."""
    def trial_fn(gpu, seed):
        if seed == fail_at:
            raise ExecutionError(f"trial {seed} escaped")
        return FaultOutcome.MASKED, 100

    return trial_fn


@pytest.mark.filterwarnings("error::ResourceWarning")
@pytest.mark.parametrize("fail_at", [None, 4], ids=["normal", "raises"])
def test_execute_trials_closes_the_journal(tmp_cache, journal_files,
                                           fail_at):
    opened, _ = journal_files
    run = functools.partial(
        execute_trials, key="closes", seeds=list(range(8)),
        trial_fn=_escaping_trial_fn(fail_at), gpu_factory=object,
        baseline_cycles=100, meta={"tag": "closes"})
    if fail_at is None:
        assert run().counts.total == 8
        assert not list_journals()
    else:
        with pytest.raises(ExecutionError):
            run()
        [journal] = list_journals()
        assert journal.trials == fail_at
    assert len(opened) == 1 and opened[0].closed


# ------------------------------------------------------- crash-safe cache

def test_cache_store_atomic_when_rename_fails(tmp_cache, monkeypatch):
    campaign_mod._cache_store("key", {"a": 1})

    def boom(src, dst):
        raise OSError("disk full")

    real_replace = campaign_mod.os.replace
    monkeypatch.setattr(campaign_mod.os, "replace", boom)
    with pytest.raises(OSError):
        campaign_mod._cache_store("key", {"a": 2})
    monkeypatch.setattr(campaign_mod.os, "replace", real_replace)
    assert campaign_mod._cache_load("key") == {"a": 1}  # old value intact
    assert not list(tmp_cache.glob("*.tmp"))  # temp file cleaned up


def test_cache_load_quarantines_corrupt_file(tmp_cache, caplog):
    tmp_cache.mkdir(parents=True, exist_ok=True)
    (tmp_cache / "bad.json").write_text("{not json")
    with caplog.at_level(logging.WARNING, logger="repro.fi.campaign"):
        assert campaign_mod._cache_load("bad") is None
    assert not (tmp_cache / "bad.json").exists()
    assert (tmp_cache / "bad.json.corrupt").exists()
    assert "quarantined" in caplog.text
    # quarantine unblocks the slot: a fresh store+load round-trips
    campaign_mod._cache_store("bad", {"ok": 1})
    assert campaign_mod._cache_load("bad") == {"ok": 1}


def test_concurrent_cache_stores_never_torn(tmp_cache):
    key = "shared"
    payloads = [{"v": i, "pad": "x" * 4096} for i in range(4)]
    stop = threading.Event()

    def writer(payload):
        while not stop.is_set():
            campaign_mod._cache_store(key, payload)

    threads = [threading.Thread(target=writer, args=(p,)) for p in payloads]
    for t in threads:
        t.start()
    reads = 0
    try:
        for _ in range(5000):
            loaded = campaign_mod._cache_load(key)
            if loaded is not None:
                assert loaded in payloads  # complete payload, never torn
                reads += 1
            if reads >= 200:
                break
    finally:
        stop.set()
        for t in threads:
            t.join()
    assert reads > 0
    # a torn read would have been quarantined: prove none happened
    assert not list(tmp_cache.glob("*.corrupt"))


# ------------------------------------------------------------- env knobs

def test_default_trials_validation(monkeypatch):
    monkeypatch.setenv("REPRO_TRIALS", "24")
    assert default_trials() == 24
    for bad in ("abc", "0", "-3", "1.5"):
        monkeypatch.setenv("REPRO_TRIALS", bad)
        with pytest.raises(ConfigError, match="REPRO_TRIALS"):
            default_trials()
    monkeypatch.delenv("REPRO_TRIALS")
    assert default_trials() == campaign_mod.DEFAULT_TRIALS


def test_max_trial_failure_rate_validation(monkeypatch):
    monkeypatch.setenv("REPRO_MAX_TRIAL_FAILURES", "0.25")
    assert max_trial_failure_rate() == 0.25
    for bad in ("nope", "-0.1", "1.5"):
        monkeypatch.setenv("REPRO_MAX_TRIAL_FAILURES", bad)
        with pytest.raises(ConfigError, match="REPRO_MAX_TRIAL_FAILURES"):
            max_trial_failure_rate()
    monkeypatch.delenv("REPRO_MAX_TRIAL_FAILURES")
    assert max_trial_failure_rate() == 0.10
