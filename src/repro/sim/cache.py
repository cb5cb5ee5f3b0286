"""Set-associative cache model with real data storage.

Every line stores its actual data bytes, so microarchitecture-level fault
injection can flip any bit of the data array — valid or not — and the flip
propagates to subsequent loads, is silently discarded when a clean line is
evicted (hardware masking, Section V-B of the paper), or reaches DRAM when a
dirty line is written back (the paper's software-invisible SDC mechanism).

Only this module writes ``tags`` and ``valid``: fault injection flips
``data`` alone. A lookup goes through a dict from line address to way
that holds exactly the valid lines; the arrays stay authoritative (launch
boundaries, checkpoints and fault sites read and restore them), and a
restore marks the dict stale, to be rebuilt by the next lookup.

The timing side models fills in flight: an access to a line whose fill has
not yet completed is a *pending hit*; a miss that finds all MSHR entries
occupied is a *reservation fail* — both are counters Figure 3 correlates
with vulnerability trends.
"""

from __future__ import annotations

from dataclasses import fields
from operator import attrgetter

import numpy as np

from repro.arch.config import CacheGeometry
from repro.sim.stats import CacheStats

#: Every :class:`CacheStats` counter, in field order, as one tuple.
_counters = attrgetter(*(f.name for f in fields(CacheStats)))


class DRAMInterface:
    """Adapter between the last-level cache and :class:`GlobalMemory`."""

    def __init__(self, memory, latency: int, stats_ref):
        self.memory = memory
        self.latency = latency
        self.stats = stats_ref  # LaunchStats; swapped per launch

    def read_line(self, line_addr: int, line_bytes: int, now: int):
        if self.stats is not None:
            self.stats.memory_read_bytes += line_bytes
        return self.memory.read_line(line_addr, line_bytes), self.latency

    def write_line(self, line_addr: int, payload: np.ndarray) -> None:
        if self.stats is not None:
            self.stats.memory_write_bytes += payload.size
        self.memory.write_line(line_addr, payload)

    def write_lines(self, line_addrs: np.ndarray, payloads: np.ndarray) -> None:
        if self.stats is not None:
            self.stats.memory_write_bytes += payloads.size
        self.memory.write_lines(line_addrs, payloads)


class Cache:
    """One cache instance (an SM's L1D/L1T, or the chip-shared L2)."""

    def __init__(
        self,
        name: str,
        geometry: CacheGeometry,
        hit_latency: int,
        below,
        write_back: bool,
    ):
        self.name = name
        self.geo = geometry
        self.hit_latency = hit_latency
        self.below = below  # Cache or DRAMInterface
        self.write_back = write_back
        self.stats = CacheStats()

        n, lb = geometry.num_lines, geometry.line_bytes
        self.data = np.zeros((n, lb), dtype=np.uint8)
        # ``data`` as little-endian words: the word stores write through
        # it. ``data`` is only ever written in place, so the view stays on.
        self._words = self.data.view("<u4")
        self.tags = np.full(n, -1, dtype=np.int64)
        self.valid = np.zeros(n, dtype=bool)
        self.dirty = np.zeros(n, dtype=bool)
        self.lru = np.zeros(n, dtype=np.int64)
        self.fill_done = np.zeros(n, dtype=np.int64)
        self._lru_clock = 0
        self._fills_in_flight: list[int] = []
        # Line address -> way of every valid line; ``None`` when stale.
        self._way_of: dict[int, int] | None = {}
        # Hot-path copies of the geometry (avoid property lookups).
        self._line_bytes = geometry.line_bytes
        self._num_sets = geometry.num_sets
        self._assoc = geometry.assoc
        self._num_lines = n

    # ------------------------------------------------------------------ #
    # Lookup helpers
    # ------------------------------------------------------------------ #
    def _find(self, line_addr: int) -> int | None:
        way_of = self._way_of
        if way_of is None:
            ways = np.flatnonzero(self.valid)
            way_of = self._way_of = dict(
                zip(self.tags[ways].tolist(), ways.tolist()))
        return way_of.get(line_addr)

    def _touch(self, way: int) -> None:
        self._lru_clock += 1
        self.lru[way] = self._lru_clock

    def _victim(self, line_addr: int) -> int:
        """The first invalid way of the set, else its least recent one.
        Called after a lookup, so the way index is current: while it
        holds every line, no way is invalid."""
        start = (line_addr // self._line_bytes) % self._num_sets * self._assoc
        end = start + self._assoc
        if len(self._way_of) < self._num_lines:
            valid = self.valid[start:end]
            way = valid.argmin()
            if not valid[way]:
                return start + int(way)
        return start + int(self.lru[start:end].argmin())

    def _fill(self, line_addr: int, payload: np.ndarray, done: int) -> int:
        """Place a missed line in its set's victim way, clean and filling
        until cycle ``done``; returns the way. A valid victim is evicted
        first (written back if dirty); an invalid way is never dirty
        (eviction and ``invalidate_all`` clear the bit with ``valid``),
        so it is filled as it is."""
        way = self._victim(line_addr)
        if self.valid[way]:
            tag = int(self.tags[way])
            del self._way_of[tag]
            self.stats.evictions += 1
            if self.dirty[way]:
                self.dirty[way] = False
                if self.write_back:
                    self.stats.writebacks += 1
                    self.below.write_line(tag, self.data[way].copy())
        else:
            self.valid[way] = True
        self.data[way] = payload
        self.tags[way] = line_addr
        self._way_of[line_addr] = way
        self.fill_done[way] = done
        return way

    # ------------------------------------------------------------------ #
    # Read path
    # ------------------------------------------------------------------ #
    def read_line(self, line_addr: int, line_bytes: int, now: int):
        """Return ``(line_bytes_view, latency)`` for one line-sized request.

        ``line_bytes`` must equal this cache's line size; the parameter keeps
        the interface uniform with :class:`DRAMInterface`.
        """
        assert line_bytes == self._line_bytes
        self.stats.accesses += 1
        way_of = self._way_of
        way = self._find(line_addr) if way_of is None else way_of.get(line_addr)
        if way is not None:
            self._lru_clock = clock = self._lru_clock + 1
            self.lru[way] = clock
            done = int(self.fill_done[way])
            if done > now:
                # Fill still in flight: pending (secondary) hit.
                self.stats.pending_hits += 1
                return self.data[way], done - now + 1
            self.stats.hits += 1
            return self.data[way], self.hit_latency

        # Miss.
        self.stats.misses += 1
        fills = self._fills_in_flight
        extra = 0
        if fills:
            fills = self._fills_in_flight = [c for c in fills if c > now]
            if len(fills) >= self.geo.mshr_entries:
                # No MSHR available: the request stalls until the oldest
                # outstanding fill retires, then is replayed.
                self.stats.reservation_fails += 1
                extra = max(0, min(fills) - now)
        payload, below_latency = self.below.read_line(line_addr, line_bytes, now)
        latency = self.hit_latency + below_latency + extra
        done = now + latency
        way = self._fill(line_addr, payload, done)
        self._lru_clock = clock = self._lru_clock + 1
        self.lru[way] = clock
        fills.append(done)
        return self.data[way], latency

    # ------------------------------------------------------------------ #
    # Write path
    # ------------------------------------------------------------------ #
    def write_word(self, addr: int, word: int, now: int) -> int:
        """Write one 32-bit word; returns the latency charged to the warp.

        Write-back caches allocate on write; write-through caches update a
        present line (keeping it coherent) and forward the word below.
        """
        line_addr = addr - addr % self.geo.line_bytes
        offset = addr - line_addr
        self.stats.accesses += 1
        way = self._find(line_addr)
        if self.write_back:
            if way is None:
                self.stats.misses += 1
                payload, below_latency = self.below.read_line(
                    line_addr, self.geo.line_bytes, now
                )
                way = self._fill(line_addr, payload, now + below_latency)
                latency = self.hit_latency + below_latency
            else:
                self.stats.hits += 1
                latency = self.hit_latency
            self._touch(way)
            self.data[way, offset : offset + 4] = np.frombuffer(
                int(word & 0xFFFFFFFF).to_bytes(4, "little"), dtype=np.uint8
            )
            self.dirty[way] = True
            return latency

        # Write-through (L1): update in place if present, always forward.
        if way is not None:
            self.stats.hits += 1
            self._touch(way)
            self.data[way, offset : offset + 4] = np.frombuffer(
                int(word & 0xFFFFFFFF).to_bytes(4, "little"), dtype=np.uint8
            )
        else:
            self.stats.misses += 1
        below_latency = self.below.write_word(addr, word, now)
        return self.hit_latency + below_latency

    def write_words_line(
        self, line_addr: int, offsets: np.ndarray, values: np.ndarray, now: int
    ) -> int:
        """Coalesced store of several words into one line (write-back caches).

        ``offsets`` are byte offsets within the line; later entries win on
        conflicts (deterministic lane ordering). Counts one cache access per
        line request, like coalesced hardware transactions.
        """
        assert self.write_back
        self.stats.accesses += 1
        way = self._find(line_addr)
        if way is None:
            self.stats.misses += 1
            payload, below_latency = self.below.read_line(
                line_addr, self._line_bytes, now
            )
            way = self._fill(line_addr, payload, now + below_latency)
            latency = self.hit_latency + below_latency
        else:
            self.stats.hits += 1
            latency = self.hit_latency
        self._touch(way)
        self._words[way][offsets >> 2] = values
        self.dirty[way] = True
        return latency

    def update_words_if_present(
        self, line_addr: int, offsets: np.ndarray, values: np.ndarray
    ) -> None:
        """Write-through coherence update (L1): patch the line if resident.

        Counts an access (hit or miss) but never allocates — the L1s are
        write-through/no-write-allocate, as on Volta.
        """
        assert not self.write_back
        self.stats.accesses += 1
        way = self._find(line_addr)
        if way is None:
            self.stats.misses += 1
            return
        self.stats.hits += 1
        self._touch(way)
        self._words[way][offsets >> 2] = values

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def flush(self) -> None:
        """Write every dirty line below in one batch (keeps lines valid).
        Valid tags are distinct aligned lines, so the writes never overlap
        and their order does not matter."""
        if self.write_back:
            ways = np.flatnonzero(self.valid & self.dirty)
            if ways.size:
                self.below.write_lines(self.tags[ways], self.data[ways])
                self.stats.writebacks += ways.size
                self.dirty[ways] = False

    def invalidate_all(self) -> None:
        """Drop every line without writeback (caller flushes first if needed).

        A cache whose way index is current and empty, with no fill in
        flight, holds no valid line, so there is nothing to drop: an
        invalid line is never dirty and its tag is -1 (only this module
        clears ``valid``, and always with both). Its ``fill_done`` may
        be stale after a restore, but a fill sets it before any read."""
        if self._way_of == {} and not self._fills_in_flight:
            return
        self.valid[:] = False
        self.dirty[:] = False
        self.tags[:] = -1
        self._way_of = {}
        self.fill_done[:] = 0
        self._fills_in_flight.clear()

    def reset_stats(self) -> None:
        self.stats = CacheStats()

    def new_clock_epoch(self) -> None:
        """Forget in-flight fill timing (the launch clock restarts at 0).

        Without this, ``fill_done`` timestamps from a previous launch would
        read as fills still in flight under the new launch's clock and turn
        warm hits into huge pending-hit latencies.
        """
        self.fill_done[:] = 0
        self._fills_in_flight.clear()

    # ------------------------------------------------------------------ #
    # Launch-boundary state (golden launch replay, see repro.sim.replay)
    # ------------------------------------------------------------------ #
    def boundary_state(self) -> tuple[np.ndarray, ...]:
        """What a later access can observe: valid/dirty bits, and the tag,
        data and LRU stamp of each valid line. Invalid lines are never
        read (a fill overwrites the whole line) and only the order of
        valid lines' stamps picks a victim, so stamps are kept relative
        to the LRU clock, which keeps counting across app runs."""
        valid = self.valid.copy()
        return (valid, self.dirty.copy(), self.tags[valid],
                self.lru[valid] - self._lru_clock, self.data[valid])

    def matches_boundary(self, state) -> bool:
        valid, dirty, tags, lru, lines = state
        return (np.array_equal(self.valid, valid)
                and np.array_equal(self.dirty, dirty)
                and np.array_equal(self.tags[valid], tags)
                and np.array_equal(self.lru[valid] - self._lru_clock, lru)
                and np.array_equal(self.data[valid], lines))

    def restore_boundary(self, state) -> None:
        valid, dirty, tags, lru, lines = state
        self.valid[:] = valid
        self.dirty[:] = dirty
        self.tags[:] = -1
        self.tags[valid] = tags
        self._way_of = None  # rebuilt by the next lookup
        self.lru[valid] = lru + self._lru_clock
        self.data[valid] = lines

    # ------------------------------------------------------------------ #
    # Mid-launch state (golden checkpoints, see repro.sim.replay)
    # ------------------------------------------------------------------ #
    def checkpoint_state(self) -> tuple:
        """The boundary state plus what a launch in flight adds: the
        counters, the fills in flight (MSHR occupancy) and the fill
        completion cycle of each valid line."""
        return (_counters(self.stats), tuple(self._fills_in_flight),
                self.fill_done[self.valid], *self.boundary_state())

    def matches_checkpoint(self, state) -> bool:
        counters, fills, fill_done, *boundary = state
        return (_counters(self.stats) == counters
                and tuple(self._fills_in_flight) == fills
                and self.matches_boundary(boundary)
                and np.array_equal(self.fill_done[self.valid], fill_done))

    def restore_checkpoint(self, state) -> None:
        counters, fills, fill_done, *boundary = state
        self.stats = CacheStats(*counters)
        self._fills_in_flight = list(fills)
        self.restore_boundary(boundary)
        self.fill_done[self.valid] = fill_done

    # ------------------------------------------------------------------ #
    # Fault injection
    # ------------------------------------------------------------------ #
    @property
    def total_bits(self) -> int:
        return self.geo.size_bytes * 8

    def flip_bit(self, bit_index: int) -> None:
        """Flip one bit of the data array (any line, valid or not)."""
        from repro.utils.bitops import flip_bit_in_bytes

        flip_bit_in_bytes(self.data, bit_index)
