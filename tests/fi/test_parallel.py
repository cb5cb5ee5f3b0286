"""Parallel trial-execution pool: serial/parallel equivalence, single-writer
journaling, kill/resume and crash isolation under ``workers > 1``."""

import json

import pytest

from repro.errors import CampaignError
from repro.fi import CampaignSpec, FaultOutcome, profile_app, run_campaign
from repro.fi.journal import CampaignJournal, list_journals
from repro.fi.runner import execute_trials, resolve_workers
from repro.kernels import get_application
from tests.fi.test_runner import FlakyApp


@pytest.fixture()
def va_profile(v100):
    return profile_app(get_application("va"), v100)


def _spec(workers, trials=24, seed=11, use_cache=True):
    return CampaignSpec(level="sw", app="va", kernel="va_k1", config="v100",
                        trials=trials, seed=seed, workers=workers,
                        use_cache=use_cache)


def _cache_payloads(cache):
    return {p.name: json.loads(p.read_text())
            for p in sorted(cache.glob("*.json"))}


# ------------------------------------------------------------- equivalence

def test_parallel_matches_serial_bit_for_bit(tmp_path, monkeypatch,
                                             v100, va_profile):
    """Same seed, workers=1 vs workers=4: identical CampaignResult tallies
    and byte-identical cache payloads under the same cache key."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
    serial = run_campaign(_spec(workers=1), profile=va_profile)
    serial_cache = _cache_payloads(tmp_path / "serial")

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "parallel"))
    parallel = run_campaign(_spec(workers=4), profile=va_profile)
    parallel_cache = _cache_payloads(tmp_path / "parallel")

    assert parallel.to_dict() == serial.to_dict()
    assert parallel_cache == serial_cache  # same keys AND same payloads
    assert not list_journals()  # both journals discarded on completion


def test_parallel_progress_fires_in_trial_order(tmp_cache, va_profile):
    progressed = []
    arrivals = []
    run_campaign(_spec(workers=4),
                 profile=va_profile,
                 progress=lambda done, total, outcome:
                     progressed.append((done, total)),
                 worker_progress=lambda wid, n: arrivals.append((wid, n)))
    assert progressed == [(i, 24) for i in range(1, 25)]
    # all four workers reported live per-worker progress
    assert {wid for wid, _ in arrivals} == {0, 1, 2, 3}
    assert sum(1 for _ in arrivals) == 24


def test_pool_larger_than_trials(tmp_cache, va_profile):
    result = run_campaign(_spec(workers=16, trials=5), profile=va_profile)
    assert result.counts.total == 5


# ------------------------------------------------------------ kill/resume

def test_kill_and_resume_under_parallelism(tmp_path, monkeypatch,
                                           v100, va_profile):
    trials, seed = 20, 7
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "ref"))
    ref = run_campaign(_spec(workers=1, trials=trials, seed=seed),
                       profile=va_profile)

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "live"))

    def killer(done, total, outcome):
        # The parent commits results in trial order; simulate a Ctrl-C
        # after the 5th committed trial, with workers mid-flight.
        if done == 5:
            raise KeyboardInterrupt()

    with pytest.raises(KeyboardInterrupt):
        run_campaign(_spec(workers=4, trials=trials, seed=seed),
                     profile=va_profile, progress=killer)
    journals = list_journals()
    assert len(journals) == 1
    assert journals[0].trials == 5  # exactly the committed, in-order prefix

    progressed = []
    resumed = run_campaign(
        _spec(workers=4, trials=trials, seed=seed), profile=va_profile,
        progress=lambda done, total, outcome: progressed.append(done))
    assert progressed == list(range(1, trials + 1))
    assert resumed.to_dict() == ref.to_dict()
    assert not list_journals()


@pytest.fixture()
def journal_bytes(monkeypatch):
    """The bytes of each journal as a campaign discards it, in order."""
    seen = []
    real_discard = CampaignJournal.discard

    def discard(self):
        seen.append(self.path.read_bytes())
        real_discard(self)

    monkeypatch.setattr(CampaignJournal, "discard", discard)
    return seen


#: uarch campaigns whose trials draw from the campaign's stream table,
#: which a resumed pool rebuilds before it forks: transient L2 plans
#: (most settle at plan time) and stuck-at RF plans rebound at every
#: later launch.
_UARCH_RESUMES = {
    "sradv1-l2": dict(level="uarch", app="sradv1", structure="l2"),
    "sradv1-rf-stuck1": dict(level="uarch", app="sradv1", structure="rf",
                             fault_model="stuck1"),
}


@pytest.mark.parametrize("killed_workers", [1, 2])
@pytest.mark.parametrize("name", list(_UARCH_RESUMES))
def test_uarch_kill_and_resume_under_parallelism(tmp_path, monkeypatch,
                                                 journal_bytes, name,
                                                 killed_workers):
    """Killed after 5 committed trials (serially or in a pool) and resumed
    by a pool: the result, payload and journal bytes equal an
    uninterrupted serial run's."""
    spec = CampaignSpec(trials=16, seed=7, **_UARCH_RESUMES[name])
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "ref"))
    ref = run_campaign(spec.derive(workers=1))
    [ref_journal] = journal_bytes

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "live"))

    def killer(done, total, outcome):
        if done == 5:
            raise KeyboardInterrupt()

    with pytest.raises(KeyboardInterrupt):
        run_campaign(spec.derive(workers=killed_workers), progress=killer)
    [journal] = list_journals()
    assert journal.trials == 5

    resumed = run_campaign(spec.derive(workers=2))
    assert resumed.to_dict() == ref.to_dict()
    assert journal_bytes[-1] == ref_journal
    assert not list_journals()
    assert (_cache_payloads(tmp_path / "live")
            == _cache_payloads(tmp_path / "ref"))


# -------------------------------------------------------- crash isolation

def test_parallel_crash_isolation_and_retry(tmp_cache, v100, va_profile):
    ref = run_campaign(_spec(workers=1, trials=16, seed=5, use_cache=False),
                       profile=va_profile)
    # Each forked worker gets its own copy of the call counter, so call 2
    # fails once per worker; every retry succeeds, tallies stay identical.
    flaky = FlakyApp(get_application("va"), fail_calls={2})
    result = run_campaign(
        CampaignSpec(level="sw", app=flaky, kernel="va_k1", config="v100",
                     trials=16, seed=5, workers=4, use_cache=False),
        profile=va_profile)
    assert result.counts == ref.counts
    assert result.counts.crash == 0


def test_parallel_failure_threshold_aborts(tmp_cache, v100, va_profile):
    bad = FlakyApp(get_application("va"), fail_all=True)
    with pytest.raises(CampaignError, match="REPRO_MAX_TRIAL_FAILURES"):
        run_campaign(
            CampaignSpec(level="sw", app=bad, kernel="va_k1", config="v100",
                         trials=12, seed=3, workers=4),
            profile=va_profile)
    # the journal survives a threshold abort (it holds the tracebacks)
    assert list_journals()


def test_parallel_escaped_keyboardinterrupt_propagates(tmp_cache, v100,
                                                       va_profile):
    """A BaseException inside a *worker* (stand-in for preemption) is
    shipped to the parent and re-raised with its genuine type."""
    from tests.fi.test_runner import KillSwitchApp

    bomb = KillSwitchApp(get_application("va"), explode_at=2)
    with pytest.raises(KeyboardInterrupt):
        run_campaign(
            CampaignSpec(level="sw", app=bomb, kernel="va_k1", config="v100",
                         trials=12, seed=3, workers=2),
            profile=va_profile)


# ----------------------------------------------------------------- plumbing

def test_resolve_workers(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    assert resolve_workers() == 1
    assert resolve_workers(6) == 6
    monkeypatch.setenv("REPRO_WORKERS", "3")
    assert resolve_workers() == 3
    assert resolve_workers(2) == 2  # explicit argument wins


def test_execute_trials_parallel_without_journal(tmp_cache):
    """The raw engine API: journal=False still supports the pool."""
    def trial_fn(gpu, trial_seed):
        return (FaultOutcome.MASKED if trial_seed % 2 else FaultOutcome.SDC,
                100)

    tally = execute_trials(
        key="raw", seeds=list(range(1, 21)), trial_fn=trial_fn,
        gpu_factory=lambda: object(), baseline_cycles=100,
        journal=False, workers=4)
    assert tally.counts.total == 20
    assert tally.counts.masked == 10
    assert tally.counts.sdc == 10
    assert tally.workers == 4
