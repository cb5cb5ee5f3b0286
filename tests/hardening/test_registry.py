"""Hardening registry + the CampaignSpec.harden axis.

The load-bearing property: campaigns that do not opt into a scheme are
byte-identical to pre-zoo campaigns — same cache keys, same payloads,
serial or parallel — so the zoo's introduction invalidates nothing.
"""

import json

import pytest

from repro.errors import ConfigError
from repro.fi import CampaignSpec, run_campaign
from repro.hardening import (
    ABFTHarness,
    DMRHarness,
    HARDENING_SCHEMES,
    RangeHarness,
    TMRHarness,
    hardening_names,
    hardening_scheme,
    tmr_harness_factory,
)
from repro.kernels import get_application


def test_registry_contents():
    assert hardening_names() == ("tmr", "dmr", "abft", "range")
    expected = {"tmr": TMRHarness, "dmr": DMRHarness, "abft": ABFTHarness,
                "range": RangeHarness}
    for name, cls in expected.items():
        assert isinstance(hardening_scheme(name)(), cls)


def test_unknown_scheme_rejected():
    with pytest.raises(ConfigError, match="unknown hardening scheme"):
        hardening_scheme("ecc")


def test_registry_is_the_import_surface():
    assert HARDENING_SCHEMES["tmr"] is tmr_harness_factory


# ------------------------------------------------- campaign harden axis

def _spec(**kw):
    app = get_application("va")
    return CampaignSpec(level="sw", app=app, kernel="va_k1",
                        config=kw.pop("config"), trials=kw.pop("trials", 12),
                        seed=7, **kw)


def test_unhardened_path_byte_identical_serial_vs_parallel(tmp_cache, v100):
    """A defaults-off campaign must hit the exact same cache entry (same
    key, same payload bytes) whether run serially or with a worker pool."""
    result = run_campaign(_spec(config=v100))
    (path,) = [p for p in tmp_cache.glob("*.json")]
    payload = path.read_bytes()
    path.unlink()
    parallel = run_campaign(_spec(config=v100, workers=4))
    (path2,) = [p for p in tmp_cache.glob("*.json")]
    assert path2.name == path.name
    assert path2.read_bytes() == payload
    assert parallel.to_dict() == result.to_dict()


def test_unhardened_payload_has_no_harden_field(tmp_cache, v100):
    result = run_campaign(_spec(config=v100))
    assert result.harden is None
    assert "harden" not in result.to_dict()


def test_harden_resolves_scheme_and_tags_result(tmp_cache, v100):
    result = run_campaign(_spec(config=v100, harden="range"))
    assert result.harden == "range"
    assert result.to_dict()["harden"] == "range"
    (path,) = list(tmp_cache.glob("*.json"))
    assert json.loads(path.read_text())["harden"] == "range"


def test_harden_and_plain_use_distinct_cache_keys(tmp_cache, v100):
    run_campaign(_spec(config=v100))
    run_campaign(_spec(config=v100, harden="range"))
    assert len(list(tmp_cache.glob("*.json"))) == 2


def test_harden_tmr_runs_the_tmr_harness(tmp_cache, v100):
    """Resolving "tmr" by name runs the TMR harness factory."""
    assert hardening_scheme("tmr") is tmr_harness_factory
    by_name = run_campaign(_spec(config=v100, harden="tmr",
                                 use_cache=False))
    assert by_name.counts.total == 12
    assert by_name.harden == "tmr"


def test_unknown_harden_scheme_rejected(tmp_cache, v100):
    with pytest.raises(ConfigError, match="unknown hardening scheme"):
        run_campaign(_spec(config=v100, harden="ecc"))


def test_src_level_harden_rejected(tmp_cache, v100):
    app = get_application("va")
    spec = CampaignSpec(level="src", app=app, kernel="va_k1", config=v100,
                        trials=4, seed=7, harden="tmr")
    with pytest.raises(ConfigError, match="no hardened variant"):
        run_campaign(spec)
