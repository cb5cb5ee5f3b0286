"""The central Settings resolution: env parsing, validation, memoization."""

import os
from pathlib import Path

import pytest

from repro.config import (
    _ENV_VARS,
    DEFAULT_HANG_FACTOR,
    DEFAULT_MAX_TRIAL_FAILURES,
    DEFAULT_MIN_TRIALS,
    DEFAULT_TRIALS,
    DEFAULT_WORKERS,
    Settings,
    auto_workers,
    get_settings,
)
from repro.errors import ConfigError, ReproError

#: Every knob Settings reads, from its one source of truth.
_KNOBS = _ENV_VARS


@pytest.fixture()
def clean_env(monkeypatch):
    for name in _KNOBS:
        monkeypatch.delenv(name, raising=False)
    return monkeypatch


def test_defaults(clean_env):
    settings = get_settings()
    assert settings.trials == DEFAULT_TRIALS == 64
    assert settings.trials_hardened is None
    assert settings.cache_dir == Path(".repro_cache")
    assert settings.max_trial_failures == DEFAULT_MAX_TRIAL_FAILURES == 0.10
    assert settings.workers == DEFAULT_WORKERS == 1
    assert settings.telemetry is False
    assert settings.log_level is None
    assert settings.hang_factor == DEFAULT_HANG_FACTOR == 25.0
    assert settings.ci_halfwidth is None
    assert settings.min_trials == DEFAULT_MIN_TRIALS == 16


def test_env_overrides(clean_env):
    clean_env.setenv("REPRO_TRIALS", "128")
    clean_env.setenv("REPRO_TRIALS_HARDENED", "40")
    clean_env.setenv("REPRO_CACHE_DIR", "/tmp/repro-test-cache")
    clean_env.setenv("REPRO_MAX_TRIAL_FAILURES", "0.25")
    clean_env.setenv("REPRO_WORKERS", "3")
    clean_env.setenv("REPRO_TELEMETRY", "1")
    clean_env.setenv("REPRO_LOG_LEVEL", "debug")
    clean_env.setenv("REPRO_HANG_FACTOR", "4.5")
    clean_env.setenv("REPRO_CI_HALFWIDTH", "0.05")
    clean_env.setenv("REPRO_MIN_TRIALS", "24")
    settings = get_settings()
    assert settings.trials == 128
    assert settings.trials_hardened == 40
    assert settings.cache_dir == Path("/tmp/repro-test-cache")
    assert settings.max_trial_failures == 0.25
    assert settings.workers == 3
    assert settings.telemetry is True
    assert settings.log_level == "DEBUG"  # normalized to stdlib names
    assert settings.hang_factor == 4.5
    assert settings.ci_halfwidth == 0.05
    assert settings.min_trials == 24


@pytest.mark.parametrize("raw,expected", [
    ("1", True), ("true", True), ("YES", True), ("on", True),
    ("0", False), ("false", False), ("No", False), ("off", False),
])
def test_telemetry_boolean_spellings(clean_env, raw, expected):
    clean_env.setenv("REPRO_TELEMETRY", raw)
    assert get_settings().telemetry is expected


def test_empty_values_count_as_unset(clean_env):
    for name in _KNOBS:
        clean_env.setenv(name, "")
    assert get_settings() == Settings()


def test_workers_auto(clean_env):
    clean_env.setenv("REPRO_WORKERS", "auto")
    expected = max(1, (os.cpu_count() or 1) - 1)
    assert auto_workers() == expected
    assert get_settings().workers == expected


@pytest.mark.parametrize("name,value,match", [
    ("REPRO_TRIALS", "lots", "REPRO_TRIALS must be a positive integer"),
    ("REPRO_TRIALS", "0", "REPRO_TRIALS must be a positive integer"),
    ("REPRO_TRIALS", "-4", "REPRO_TRIALS must be a positive integer"),
    ("REPRO_TRIALS_HARDENED", "x",
     "REPRO_TRIALS_HARDENED must be a positive integer"),
    ("REPRO_MAX_TRIAL_FAILURES", "nope",
     "REPRO_MAX_TRIAL_FAILURES must be a fraction"),
    ("REPRO_MAX_TRIAL_FAILURES", "1.5",
     "REPRO_MAX_TRIAL_FAILURES must be within"),
    ("REPRO_WORKERS", "many",
     "REPRO_WORKERS must be a positive integer or 'auto'"),
    ("REPRO_WORKERS", "0",
     "REPRO_WORKERS must be a positive integer or 'auto'"),
    ("REPRO_TELEMETRY", "maybe", "REPRO_TELEMETRY must be a boolean"),
    ("REPRO_LOG_LEVEL", "VERBOSE", "REPRO_LOG_LEVEL must be one of"),
    ("REPRO_HANG_FACTOR", "soon",
     "REPRO_HANG_FACTOR must be a positive number"),
    ("REPRO_HANG_FACTOR", "0",
     "REPRO_HANG_FACTOR must be a positive number"),
    ("REPRO_HANG_FACTOR", "-2",
     "REPRO_HANG_FACTOR must be a positive number"),
    ("REPRO_CI_HALFWIDTH", "wide",
     "REPRO_CI_HALFWIDTH must be a fraction"),
    ("REPRO_CI_HALFWIDTH", "0", "REPRO_CI_HALFWIDTH must be within"),
    ("REPRO_CI_HALFWIDTH", "1.0", "REPRO_CI_HALFWIDTH must be within"),
    ("REPRO_MIN_TRIALS", "few",
     "REPRO_MIN_TRIALS must be a positive integer"),
    ("REPRO_MIN_TRIALS", "0",
     "REPRO_MIN_TRIALS must be a positive integer"),
])
def test_invalid_values_raise_config_error(clean_env, name, value, match):
    clean_env.setenv(name, value)
    with pytest.raises(ConfigError, match=match):
        get_settings()


def test_config_error_is_a_repro_error():
    assert issubclass(ConfigError, ReproError)


def test_settings_frozen(clean_env):
    with pytest.raises(AttributeError):
        get_settings().trials = 1


def test_memoized_until_environment_changes(clean_env):
    first = get_settings()
    assert get_settings() is first  # same env -> cached object
    clean_env.setenv("REPRO_TRIALS", "32")
    second = get_settings()
    assert second is not first
    assert second.trials == 32
    clean_env.delenv("REPRO_TRIALS")
    assert get_settings().trials == DEFAULT_TRIALS
