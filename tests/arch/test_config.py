import pytest

from repro.arch import (
    CacheGeometry,
    GPUConfig,
    quadro_gv100_like,
    tesla_v100_like,
)
from repro.errors import ConfigError


def test_presets_match_on_structure_sizes():
    """The paper's two GPUs have 'highly similar configurations for the
    considered structures' — our presets match sizes exactly."""
    a, b = quadro_gv100_like(), tesla_v100_like()
    assert a.rf_bytes_per_sm == b.rf_bytes_per_sm
    assert a.smem_bytes_per_sm == b.smem_bytes_per_sm
    assert a.l1d.size_bytes == b.l1d.size_bytes
    assert a.l1t.size_bytes == b.l1t.size_bytes
    assert a.l2.size_bytes == b.l2.size_bytes
    assert a.name != b.name
    # ... but are distinct devices (cache organisation differs).
    assert a.l1d.assoc != b.l1d.assoc


def test_cache_geometry_derived():
    geo = CacheGeometry(4096, 32, 4)
    assert geo.num_lines == 128
    assert geo.num_sets == 32


def test_cache_geometry_validation():
    with pytest.raises(ConfigError):
        CacheGeometry(4096, 24, 4)  # not power of two
    with pytest.raises(ConfigError):
        CacheGeometry(4000, 32, 4)  # not divisible


def test_gpu_config_validation():
    with pytest.raises(ConfigError):
        GPUConfig(name="bad", warp_size=64)
    with pytest.raises(ConfigError):
        GPUConfig(name="bad", num_sms=0)


def test_gpu_config_rejects_mixed_line_sizes():
    """Each L1 fills whole lines from the L2, so a config whose caches
    differ in line size must fail at construction, not mid-launch."""
    for cache in ("l1d", "l1t", "l2"):
        with pytest.raises(ConfigError, match="line size"):
            GPUConfig(name="bad", **{cache: CacheGeometry(4096, 64, 4)})
    GPUConfig(name="ok", l1d=CacheGeometry(4096, 64, 4),
              l1t=CacheGeometry(2048, 64, 2), l2=CacheGeometry(32768, 64, 8))


def test_timeout_budget():
    cfg = quadro_gv100_like()
    assert cfg.timeout_cycles(10) == cfg.timeout_floor_cycles
    assert cfg.timeout_cycles(1_000_000) == 10_000_000


def test_rf_regs():
    assert quadro_gv100_like().rf_regs_per_sm == 4096
