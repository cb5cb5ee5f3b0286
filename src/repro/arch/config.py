"""GPU configuration.

Two presets mirror the paper's experimental setup: the microarchitecture-level
injector targets a Quadro GV100-like configuration (GPGPU-Sim side) and the
software-level injector a Tesla V100-like configuration (NVBitFI side). Both
are Volta-class and "exhibit highly similar configurations for the considered
structures" — we reproduce that similarity, scaled down uniformly so that a
full statistical campaign of thousands of simulations runs on one CPU core.
The scale-down keeps the *ratios* between structure sizes (RF largest, then
L2, SMEM, L1D, L1T) so the size-weighted chip AVF preserves the paper's
dominance of the register file.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError


@dataclass(frozen=True)
class CacheGeometry:
    """Geometry of one cache level."""

    size_bytes: int
    line_bytes: int
    assoc: int
    mshr_entries: int = 8

    def __post_init__(self) -> None:
        if self.size_bytes % (self.line_bytes * self.assoc):
            raise ConfigError(
                f"cache size {self.size_bytes} not divisible by "
                f"line*assoc = {self.line_bytes * self.assoc}"
            )
        if self.line_bytes % 4 or self.line_bytes & (self.line_bytes - 1):
            raise ConfigError("line size must be a word-aligned power of two")

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.assoc


@dataclass(frozen=True)
class Latencies:
    """Fixed latencies (cycles) of the timing model."""

    alu: int = 4
    fma: int = 6
    sfu: int = 12
    smem: int = 22
    l1_hit: int = 28
    l2_hit: int = 90
    dram: int = 220
    ctrl: int = 1


@dataclass(frozen=True)
class GPUConfig:
    """Top-level configuration of the simulated GPU."""

    name: str
    num_sms: int = 4
    warp_size: int = 32
    max_warps_per_sm: int = 16
    max_ctas_per_sm: int = 4
    rf_bytes_per_sm: int = 16 * 1024  # 4096 32-bit registers per SM
    smem_bytes_per_sm: int = 8 * 1024
    l1d: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(4096, 32, 4)
    )
    l1t: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(2048, 32, 2)
    )
    l2: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(32768, 32, 8)
    )
    dram_bytes: int = 8 * 1024 * 1024
    latencies: Latencies = field(default_factory=Latencies)
    # Timeout model: fault-free cycles * multiplier, but at least the floor.
    timeout_multiplier: float = 10.0
    timeout_floor_cycles: int = 20_000

    def __post_init__(self) -> None:
        if self.warp_size != 32:
            raise ConfigError("the executor is specialised for warp_size == 32")
        if self.num_sms < 1:
            raise ConfigError("need at least one SM")
        if self.rf_bytes_per_sm % 4:
            raise ConfigError("register file size must be a multiple of 4 bytes")
        if not self.l1d.line_bytes == self.l1t.line_bytes == self.l2.line_bytes:
            # An L1 miss fills a whole line from the L2, and a store patches
            # the L1 with lines computed at the L2's size.
            raise ConfigError(
                "L1D, L1T and L2 must share one line size, got "
                f"{self.l1d.line_bytes}/{self.l1t.line_bytes}/{self.l2.line_bytes}"
            )

    @property
    def rf_regs_per_sm(self) -> int:
        """Number of 32-bit registers in one SM's register file."""
        return self.rf_bytes_per_sm // 4

    def timeout_cycles(self, fault_free_cycles: int) -> int:
        """Cycle budget for an injected run given the fault-free duration."""
        return max(
            self.timeout_floor_cycles,
            int(fault_free_cycles * self.timeout_multiplier),
        )


def quadro_gv100_like() -> GPUConfig:
    """Scaled-down Quadro GV100 (the gpuFI-4 / GPGPU-Sim 4.0 target)."""
    return GPUConfig(name="quadro-gv100-like")


def tesla_v100_like() -> GPUConfig:
    """Scaled-down Tesla V100 (the NVBitFI target).

    Matches the GV100-like preset in every structure the paper considers
    (RF, SMEM, L1D, L1T, L2 sizes) while differing in cache associativity
    and MSHR provisioning — "similar but distinct", as in the paper.
    """
    return GPUConfig(
        name="tesla-v100-like",
        l1d=CacheGeometry(4096, 32, 2, mshr_entries=16),
        l1t=CacheGeometry(2048, 32, 4, mshr_entries=16),
        l2=CacheGeometry(32768, 32, 16, mshr_entries=16),
    )
