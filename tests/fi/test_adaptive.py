"""Adaptive campaigns end to end: CI-driven early stop through
``run_campaign``, identity guarantees (worker count, chunk size,
kill/resume), cache-key discipline, env-driven defaults, and the
``repro.fi`` public surface."""

import json

import pytest

from repro.errors import ConfigError
from repro.fi import CampaignSpec, StopRule, profile_app, run_campaign
from repro.fi.journal import list_journals
from repro.kernels import get_application


@pytest.fixture()
def va_profile(v100):
    return profile_app(get_application("va"), v100)


def _spec(**kw):
    kw.setdefault("level", "sw")
    kw.setdefault("app", "va")
    kw.setdefault("kernel", "va_k1")
    kw.setdefault("config", "v100")
    kw.setdefault("seed", 11)
    return CampaignSpec(**kw)


def _cache_payloads(cache):
    return {p.name: json.loads(p.read_text())
            for p in sorted(cache.glob("*.json"))}


# ------------------------------------------------------------- early stop

def test_adaptive_campaign_stops_early_and_caches(tmp_cache, va_profile):
    rule = StopRule(ci_halfwidth=0.45, min_trials=8)
    result = run_campaign(_spec(trials=64, stop_rule=rule),
                          profile=va_profile)
    # VA's sw failure rate is high and stable: 8 classified trials put the
    # 99% Wilson interval inside +/-0.45, so the floor is the stop point.
    assert result.trials == 8
    assert result.counts.total == 8
    assert result.planned_trials == 64
    assert result.stop_rule == rule.to_payload()
    assert not list_journals()  # journal discarded like any finished run

    cached = run_campaign(_spec(trials=64, stop_rule=rule),
                          profile=va_profile)
    assert cached.to_dict() == result.to_dict()


def test_adaptive_same_result_at_any_worker_count(tmp_path, monkeypatch,
                                                  v100, va_profile):
    rule = StopRule(ci_halfwidth=0.30, min_trials=8)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
    serial = run_campaign(_spec(trials=64, workers=1, stop_rule=rule),
                          profile=va_profile)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "pool"))
    pool = run_campaign(_spec(trials=64, workers=4, stop_rule=rule),
                        profile=va_profile)
    assert pool.to_dict() == serial.to_dict()
    assert (_cache_payloads(tmp_path / "pool")
            == _cache_payloads(tmp_path / "serial"))


def test_chunk_size_never_moves_the_stopping_point(tmp_path, monkeypatch,
                                                   v100, va_profile):
    """``chunk`` tunes speculation, not identity: any round size stops at
    the same trial with the same cache payload under the same key."""
    results = {}
    for chunk in (2, 7, 50):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / f"c{chunk}"))
        rule = StopRule(ci_halfwidth=0.30, min_trials=8, chunk=chunk)
        results[chunk] = run_campaign(
            _spec(trials=64, workers=3, stop_rule=rule), profile=va_profile)
    ref = _cache_payloads(tmp_path / "c2")
    assert results[7].to_dict() == results[2].to_dict()
    assert results[50].to_dict() == results[2].to_dict()
    assert _cache_payloads(tmp_path / "c7") == ref
    assert _cache_payloads(tmp_path / "c50") == ref


def test_adaptive_kill_and_resume_bit_identical(tmp_path, monkeypatch,
                                                v100, va_profile):
    rule = StopRule(ci_halfwidth=0.30, min_trials=12)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "ref"))
    ref = run_campaign(_spec(trials=64, workers=1, stop_rule=rule),
                       profile=va_profile)
    assert ref.trials < 64  # the scenario needs a genuine early stop

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "live"))

    def killer(done, total, outcome):
        if done == 5:  # Ctrl-C mid-flight, workers still busy
            raise KeyboardInterrupt()

    with pytest.raises(KeyboardInterrupt):
        run_campaign(_spec(trials=64, workers=4, stop_rule=rule),
                     profile=va_profile, progress=killer)
    journals = list_journals()
    assert len(journals) == 1
    assert journals[0].trials == 5

    resumed = run_campaign(_spec(trials=64, workers=4, stop_rule=rule),
                           profile=va_profile)
    assert resumed.to_dict() == ref.to_dict()
    assert not list_journals()


def test_resume_of_already_satisfied_journal_stops_in_replay(
        tmp_path, monkeypatch, v100, va_profile):
    """Killed *after* the stop point would have fired serially: the replay
    alone satisfies the rule and no new trial runs."""
    rule = StopRule(ci_halfwidth=0.45, min_trials=8)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "ref"))
    ref = run_campaign(_spec(trials=64, workers=1, stop_rule=rule),
                       profile=va_profile)

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "live"))

    def killer(done, total, outcome):
        if done == ref.trials:  # die on the exact committing trial
            raise KeyboardInterrupt()

    with pytest.raises(KeyboardInterrupt):
        run_campaign(_spec(trials=64, workers=1, stop_rule=rule),
                     profile=va_profile, progress=killer)
    resumed = run_campaign(_spec(trials=64, workers=1, stop_rule=rule),
                           profile=va_profile)
    assert resumed.to_dict() == ref.to_dict()


# --------------------------------------------------------- cache identity

def test_stop_rule_and_trials_share_nothing_without_opting_in(tmp_cache,
                                                              va_profile):
    """Defaults-off campaigns keep their historical payload shape: no
    stop_rule / planned_trials keys, and an adaptive run of the same cell
    lands under a different cache key."""
    run_campaign(_spec(trials=16), profile=va_profile)
    fixed_files = set(tmp_cache.glob("*.json"))
    payload = json.loads(next(iter(fixed_files)).read_text())
    assert "stop_rule" not in payload
    assert "planned_trials" not in payload

    rule = StopRule(ci_halfwidth=0.45, min_trials=8)
    run_campaign(_spec(trials=16, stop_rule=rule), profile=va_profile)
    adaptive_files = set(tmp_cache.glob("*.json")) - fixed_files
    assert len(adaptive_files) == 1  # distinct key, fixed entry untouched


def test_budget_is_planned_trials(tmp_path, monkeypatch, v100, va_profile):
    """``budget=N`` with a stop rule is identical to ``trials=N`` with the
    same rule — same cache key, same payload."""
    rule = StopRule(ci_halfwidth=0.45, min_trials=8)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "budget"))
    by_budget = run_campaign(_spec(trials=None, budget=48, stop_rule=rule),
                             profile=va_profile)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "trials"))
    by_trials = run_campaign(_spec(trials=48, stop_rule=rule),
                             profile=va_profile)
    assert by_budget.planned_trials == 48
    assert by_budget.to_dict() == by_trials.to_dict()
    assert (_cache_payloads(tmp_path / "budget")
            == _cache_payloads(tmp_path / "trials"))


def test_budget_without_stop_rule_rejected(tmp_cache):
    with pytest.raises(ConfigError, match="budget"):
        run_campaign(_spec(budget=100))
    with pytest.raises(ConfigError, match="stop_rule"):
        run_campaign(_spec(trials=8, stop_rule={"ci_halfwidth": 0.1}))


# ------------------------------------------------------------ env-driven

def test_env_halfwidth_drives_adaptivity(tmp_cache, monkeypatch, va_profile):
    monkeypatch.setenv("REPRO_CI_HALFWIDTH", "0.45")
    monkeypatch.setenv("REPRO_MIN_TRIALS", "8")
    result = run_campaign(_spec(trials=64), profile=va_profile)
    assert result.trials == 8
    assert result.planned_trials == 64
    assert result.stop_rule["ci_halfwidth"] == 0.45
    assert result.stop_rule["min_trials"] == 8


def test_explicit_rule_beats_env(tmp_cache, monkeypatch, va_profile):
    monkeypatch.setenv("REPRO_CI_HALFWIDTH", "0.45")
    rule = StopRule(ci_halfwidth=0.30, min_trials=10)
    result = run_campaign(_spec(trials=64, stop_rule=rule),
                          profile=va_profile)
    assert result.stop_rule == rule.to_payload()


# ------------------------------------------------- public surface + derive

def test_fi_public_surface_resolves():
    import repro.fi

    for name in repro.fi.__all__:
        assert getattr(repro.fi, name) is not None


def test_spec_derive_overrides_one_field():
    spec = _spec(trials=16)
    hardened = spec.derive(harden="tmr")
    assert hardened.harden == "tmr" and spec.harden is None
    assert hardened.trials == spec.trials == 16
    assert hardened.derive(harden=None) == spec
    with pytest.raises(TypeError):
        spec.derive(not_a_field=1)
