"""Per-launch performance counters.

These are the metrics Figure 3 of the paper correlates with vulnerability
trends: occupancy, derating factors, cache accesses/misses/miss rates, L2
pending hits and reservation fails, dynamic load/store/shared instruction
counts, and DRAM read/write traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


@dataclass
class CacheStats:
    """Counters of one cache instance (or the merged view of a level).

    Invariant: every access resolves to exactly one of *hit*, *miss*, or
    *pending hit*, so ``accesses == hits + misses + pending_hits`` at all
    times. A pending hit (the line is present but its fill is still in
    flight) is deliberately **neither** a hit nor a miss — it found the
    tag but paid most of the miss latency — which is why ``miss_rate``
    divides by ``accesses`` rather than ``hits + misses``: it is the
    fraction of all accesses that went below this level, matching how
    the profilers the paper compares against report it.
    ``reservation_fails`` is a sub-count of ``misses`` (a miss that also
    found every MSHR occupied), not a fourth resolution class.
    :meth:`merge` preserves the invariant (it sums every counter), and
    :meth:`snapshot` asserts it so a hand-built or corrupted tally fails
    loudly instead of exporting inconsistent rates.
    """

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    pending_hits: int = 0  # access to a line whose fill is still in flight
    reservation_fails: int = 0  # miss that found no free MSHR entry
    evictions: int = 0
    writebacks: int = 0

    @property
    def miss_rate(self) -> float:
        """Misses over *all* accesses (pending hits count as accesses that
        were neither hit nor miss — see the class invariant)."""
        return self.misses / self.accesses if self.accesses else 0.0

    def check(self) -> None:
        """Assert the access-resolution invariant (see class docstring)."""
        assert self.accesses == self.hits + self.misses + self.pending_hits, (
            f"CacheStats invariant violated: accesses={self.accesses} != "
            f"hits={self.hits} + misses={self.misses} + "
            f"pending_hits={self.pending_hits}")
        assert self.reservation_fails <= self.misses, (
            f"CacheStats invariant violated: reservation_fails="
            f"{self.reservation_fails} > misses={self.misses} "
            f"(reservation fails are a subset of misses)")

    def copy(self) -> "CacheStats":
        out = object.__new__(CacheStats)
        out.__dict__.update(self.__dict__)
        return out

    def merge(self, other: "CacheStats") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def snapshot(self) -> dict[str, float]:
        self.check()
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["miss_rate"] = self.miss_rate
        return d


@dataclass
class LaunchStats:
    """All counters gathered during one kernel launch."""

    cycles: int = 0
    warp_instructions: int = 0
    thread_instructions: int = 0
    load_instructions: int = 0  # thread-level global/texture loads
    store_instructions: int = 0
    shared_instructions: int = 0  # thread-level LDS+STS
    sw_injectable_instructions: int = 0  # NVBitFI candidate count
    sw_injectable_loads: int = 0  # SVF-LD candidate count
    memory_read_bytes: int = 0  # DRAM traffic
    memory_write_bytes: int = 0
    threads_launched: int = 0
    ctas_launched: int = 0
    regs_per_thread: int = 0
    smem_bytes_per_cta: int = 0
    warp_cycles_resident: int = 0  # integral of resident warps over time
    max_warps_observed: int = 0
    l1d: CacheStats = field(default_factory=CacheStats)
    l1t: CacheStats = field(default_factory=CacheStats)
    l2: CacheStats = field(default_factory=CacheStats)

    def copy(self) -> "LaunchStats":
        """An independent copy: the counters, and a new instance of each
        cache's :class:`CacheStats`."""
        out = object.__new__(LaunchStats)
        out.__dict__.update(self.__dict__)
        out.l1d, out.l1t, out.l2 = self.l1d.copy(), self.l1t.copy(), self.l2.copy()
        return out

    def occupancy(self, max_warps_per_sm: int, num_sms: int) -> float:
        """Time-weighted resident-warp occupancy in [0, 1]."""
        if self.cycles == 0:
            return 0.0
        capacity = max_warps_per_sm * num_sms * self.cycles
        return min(1.0, self.warp_cycles_resident / capacity)

    def snapshot(self, config=None) -> dict[str, float]:
        """Flatten to a plain dict (used by the utilization analysis)."""
        out: dict[str, float] = {
            "cycles": self.cycles,
            "warp_instructions": self.warp_instructions,
            "thread_instructions": self.thread_instructions,
            "load_instructions": self.load_instructions,
            "store_instructions": self.store_instructions,
            "shared_instructions": self.shared_instructions,
            "memory_read_bytes": self.memory_read_bytes,
            "memory_write_bytes": self.memory_write_bytes,
            "threads_launched": self.threads_launched,
            "ctas_launched": self.ctas_launched,
            "regs_per_thread": self.regs_per_thread,
            "smem_bytes_per_cta": self.smem_bytes_per_cta,
        }
        for level in ("l1d", "l1t", "l2"):
            cs: CacheStats = getattr(self, level)
            for key, value in cs.snapshot().items():
                out[f"{level}_{key}"] = value
        if config is not None:
            out["occupancy"] = self.occupancy(config.max_warps_per_sm, config.num_sms)
        return out
