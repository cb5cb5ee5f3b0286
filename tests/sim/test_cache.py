import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.config import CacheGeometry
from repro.sim.cache import Cache, DRAMInterface
from repro.sim.memory import GlobalMemory
from repro.sim.stats import LaunchStats


def make_hierarchy(l1_assoc=2, l2_assoc=4, line=32):
    mem = GlobalMemory(1 << 16)
    stats = LaunchStats()
    dram = DRAMInterface(mem, latency=200, stats_ref=stats)
    l2 = Cache("l2", CacheGeometry(2048, line, l2_assoc), 90, dram, write_back=True)
    l1 = Cache("l1", CacheGeometry(512, line, l1_assoc), 20, l2, write_back=False)
    return mem, l1, l2, stats


def test_miss_then_hit():
    mem, l1, l2, _ = make_hierarchy()
    addr = mem.alloc(256)
    mem.write_bytes(addr, np.arange(64, dtype=np.uint32))
    data, lat_miss = l1.read_line(addr, 32, now=0)
    assert np.array_equal(data.view("<u4")[:4], [0, 1, 2, 3])
    _, lat_hit = l1.read_line(addr, 32, now=1000)
    assert lat_hit < lat_miss
    assert l1.stats.misses == 1 and l1.stats.hits == 1


def test_pending_hit_counted():
    mem, l1, l2, _ = make_hierarchy()
    addr = mem.alloc(256)
    l1.read_line(addr, 32, now=0)  # fill in flight until ~310
    l1.read_line(addr, 32, now=5)
    assert l1.stats.pending_hits == 1


def test_reservation_fail_when_mshrs_full():
    mem = GlobalMemory(1 << 16)
    dram = DRAMInterface(mem, latency=200, stats_ref=None)
    geo = CacheGeometry(2048, 32, 4, mshr_entries=2)
    cache = Cache("c", geo, 10, dram, write_back=True)
    base = mem.alloc(4096)
    cache.read_line(base, 32, now=0)
    cache.read_line(base + 32, 32, now=1)
    cache.read_line(base + 64, 32, now=2)  # MSHRs exhausted
    assert cache.stats.reservation_fails == 1


def test_write_back_dirty_line_reaches_dram_on_eviction():
    mem, l1, l2, _ = make_hierarchy()
    addr = mem.alloc(8192)
    l2.write_word(addr, 0xDEADBEEF, now=0)
    assert int(mem.data[addr]) != 0xEF  # not yet written back
    # Evict by filling the set: same set repeats every num_sets*line bytes.
    stride = l2.geo.num_sets * l2.geo.line_bytes
    for i in range(1, l2.geo.assoc + 1):
        l2.read_line(addr + i * stride, 32, now=10 * i)
    assert mem.data[addr : addr + 4].view("<u4")[0] == 0xDEADBEEF
    assert l2.stats.writebacks == 1


def test_clean_eviction_discards_corruption():
    """The paper's hardware-masking case: a corrupted clean line that is
    evicted is silently re-fetched correct from below."""
    mem, l1, l2, _ = make_hierarchy()
    addr = mem.alloc(8192)
    mem.write_bytes(addr, np.full(4, 0x55, dtype=np.uint8))
    l1.read_line(addr, 32, now=0)
    # Corrupt the resident line, then force eviction (L1 is write-through,
    # so the line is clean and the corruption must vanish).
    way = l1._find(addr)
    l1.data[way, 0] ^= 0xFF
    stride = l1.geo.num_sets * l1.geo.line_bytes
    for i in range(1, l1.geo.assoc + 1):
        l1.read_line(addr + i * stride, 32, now=100 * i)
    data, _ = l1.read_line(addr, 32, now=10_000)
    assert data[0] == 0x55


def test_write_through_updates_both_levels():
    mem, l1, l2, _ = make_hierarchy()
    addr = mem.alloc(256)
    l1.read_line(addr, 32, now=0)  # make the line L1-resident
    offs = np.array([0], dtype=np.int64)
    vals = np.array([0x12345678], dtype=np.uint32)
    l1.update_words_if_present(addr, offs, vals)
    l2.write_words_line(addr, offs, vals, now=10)
    l1_data, _ = l1.read_line(addr, 32, now=20)
    l2_data, _ = l2.read_line(addr, 32, now=20)
    assert l1_data.view("<u4")[0] == 0x12345678
    assert l2_data.view("<u4")[0] == 0x12345678
    assert l2.dirty.any()


def test_flip_bit_changes_subsequent_reads():
    mem, l1, l2, _ = make_hierarchy()
    addr = mem.alloc(256)
    l1.read_line(addr, 32, now=0)
    way = l1._find(addr)
    bit_index = int(way) * 32 * 8  # first bit of that line
    l1.flip_bit(bit_index)
    data, _ = l1.read_line(addr, 32, now=5000)
    assert data[0] == 1


def test_invalidate_all():
    mem, l1, l2, _ = make_hierarchy()
    addr = mem.alloc(256)
    l1.read_line(addr, 32, now=0)
    l1.invalidate_all()
    assert not l1.valid.any()


def test_flush_keeps_lines_valid():
    mem, l1, l2, _ = make_hierarchy()
    addr = mem.alloc(256)
    l2.write_word(addr, 7, now=0)
    l2.flush()
    assert not l2.dirty.any()
    assert l2.valid.any()
    assert mem.data[addr : addr + 4].view("<u4")[0] == 7


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=60))
def test_cache_data_coherent_with_memory(line_indices):
    """Property: without faults or stores, every cached line mirrors DRAM."""
    mem, l1, l2, _ = make_hierarchy()
    base = mem.alloc(64 * 32)
    payload = np.arange(64 * 8, dtype=np.uint32)
    mem.write_bytes(base, payload)
    now = 0
    for idx in line_indices:
        now += 500
        data, _ = l1.read_line(base + idx * 32, 32, now)
        expected = payload[idx * 8 : idx * 8 + 8]
        assert np.array_equal(data.view("<u4"), expected)
    # Every valid line's tag content matches DRAM.
    for cache in (l1, l2):
        for way in np.nonzero(cache.valid)[0]:
            tag = int(cache.tags[way])
            assert np.array_equal(
                cache.data[way], mem.data[tag : tag + 32]
            )


def _reference_flush(cache):
    """The per-line write-back loop the batched ``Cache.flush`` replaces."""
    for way in np.nonzero(cache.valid & cache.dirty)[0]:
        cache.stats.writebacks += 1
        cache.below.write_line(int(cache.tags[way]), cache.data[way].copy())
        cache.dirty[way] = False


#: DRAM ends 20 bytes into a 32-byte line, so write-backs of the last line
#: take the clip path.
_CLIPPED_SIZE = 8192 + 20
_WORDS = (_CLIPPED_SIZE + 12 - 4096) // 4  # word slots of lines from 4096

_cache_ops = st.lists(st.one_of(
    st.tuples(st.just("write"), st.integers(0, _WORDS - 1),
              st.integers(0, 0xFFFFFFFF)),
    st.tuples(st.just("read"), st.integers(0, _WORDS // 8 - 1)),
    st.tuples(st.just("flip"), st.integers(0, 512 * 8 - 1)),
    st.tuples(st.just("flush")),
), min_size=1, max_size=80)


@settings(max_examples=60, deadline=None)
@given(_cache_ops, st.booleans())
def test_batched_flush_equals_per_line_write_back(ops, attached):
    """Property: the batched flush leaves DRAM, the written end, the
    counters and the valid/dirty bits exactly as the per-line loop does,
    with bit flips in dirty, clean and invalid lines."""
    sides = []
    for flush in (Cache.flush, _reference_flush):
        mem = GlobalMemory(_CLIPPED_SIZE)
        base = mem.alloc(4096)
        stats = LaunchStats() if attached else None
        dram = DRAMInterface(mem, latency=200, stats_ref=stats)
        l2 = Cache("l2", CacheGeometry(512, 32, 2), 90, dram, write_back=True)
        now = 0
        for op in ops:
            now += 500
            if op[0] == "write":
                l2.write_word(base + 4 * op[1], op[2], now)
            elif op[0] == "read":
                l2.read_line(base + 32 * op[1], 32, now)
            elif op[0] == "flip":
                l2.flip_bit(op[1])
            else:
                flush(l2)
        flush(l2)
        sides.append((mem, l2, stats))
    (mem, l2, stats), (ref_mem, ref_l2, ref_stats) = sides
    assert np.array_equal(mem.data, ref_mem.data)
    assert mem._written_end == ref_mem._written_end
    assert l2.stats == ref_l2.stats
    assert np.array_equal(l2.valid, ref_l2.valid)
    assert np.array_equal(l2.dirty, ref_l2.dirty)
    if attached:
        assert stats.memory_write_bytes == ref_stats.memory_write_bytes


def _scan(cache, line):
    """The way holding ``line`` by a scan of the tag and valid arrays."""
    ways = np.flatnonzero(cache.valid & (cache.tags == line))
    assert ways.size <= 1
    return int(ways[0]) if ways.size else None


#: Lines the way-index test touches (64 lines over 8 L1 and 16 L2 sets),
#: plus lines it never touches.
_INDEX_LINES = 64
_ABSENT_LINES = (-1, _INDEX_LINES, _INDEX_LINES + 7, 1 << 20)

_level = st.sampled_from(("l1", "l2"))
_line = st.integers(0, _INDEX_LINES - 1)
_offsets = st.lists(st.integers(0, 7), min_size=1, max_size=8)
_index_ops = st.lists(st.one_of(
    st.tuples(st.just("read_line"), _level, _line),
    st.tuples(st.just("write_word"), _level, _line, st.integers(0, 7)),
    st.tuples(st.just("write_words_line"), _line, _offsets),
    st.tuples(st.just("update_words_if_present"), _line, _offsets),
    st.tuples(st.just("flush")),
    st.tuples(st.just("invalidate_all"), _level),
    st.tuples(st.just("new_clock_epoch"), _level),
    st.tuples(st.just("save")),
    st.tuples(st.just("restore_boundary"), _level),
    st.tuples(st.just("restore_checkpoint"), _level),
    st.tuples(st.just("flip_bit"), _level, st.integers(0, 512 * 8 - 1)),
), min_size=1, max_size=60)


@settings(max_examples=80, deadline=None)
@given(_index_ops)
def test_way_index_matches_tag_scan(ops):
    """Property: after any sequence of cache operations, ``_find`` (the
    line -> way dict, rebuilt after a restore) returns what a scan of
    ``valid & (tags == line)`` returns, for every line touched and for
    lines never touched."""
    mem, l1, l2, _ = make_hierarchy()
    base = mem.alloc(_INDEX_LINES * 32)
    caches = {"l1": l1, "l2": l2}
    saved = {}
    now = 0
    for op in ops:
        now += 150
        name, args = op[0], op[1:]
        if name == "read_line":
            caches[args[0]].read_line(base + 32 * args[1], 32, now)
        elif name == "write_word":
            addr = base + 32 * args[1] + 4 * args[2]
            caches[args[0]].write_word(addr, now, now)
        elif name in ("write_words_line", "update_words_if_present"):
            offs = 4 * np.array(args[1], dtype=np.int64)
            vals = np.arange(offs.size, dtype=np.uint32) + now
            if name == "write_words_line":
                l2.write_words_line(base + 32 * args[0], offs, vals, now)
            else:
                l1.update_words_if_present(base + 32 * args[0], offs, vals)
        elif name == "flush":
            l2.flush()
        elif name in ("invalidate_all", "new_clock_epoch"):
            getattr(caches[args[0]], name)()
        elif name == "save":
            saved = {level: (c.boundary_state(), c.checkpoint_state())
                     for level, c in caches.items()}
        elif name.startswith("restore_") and saved:
            boundary, checkpoint = saved[args[0]]
            if name == "restore_boundary":
                caches[args[0]].restore_boundary(boundary)
            else:
                caches[args[0]].restore_checkpoint(checkpoint)
        elif name == "flip_bit":
            caches[args[0]].flip_bit(args[1])
        for cache in caches.values():
            for line in [*range(_INDEX_LINES), *_ABSENT_LINES]:
                addr = base + 32 * line
                assert cache._find(addr) == _scan(cache, addr), (op, line)


class _ReferenceCache(Cache):
    """The miss walk as it was: a victim from the set's ``valid``/``lru``
    lists, an ``_evict`` call on every fill (a no-op past the bookkeeping
    for an invalid way), the MSHR list pruned through a method and word
    stores through a fresh ``<u4`` view of the line."""

    def _set_range(self, line_addr):
        set_idx = (line_addr // self._line_bytes) % self._num_sets
        start = set_idx * self._assoc
        return start, start + self._assoc

    def _prune_fills(self, now):
        if self._fills_in_flight:
            self._fills_in_flight = [c for c in self._fills_in_flight if c > now]

    def _victim(self, line_addr):
        start, end = self._set_range(line_addr)
        valid = self.valid[start:end].tolist()
        if not all(valid):
            return start + valid.index(False)
        lru = self.lru[start:end].tolist()
        return start + lru.index(min(lru))

    def _evict(self, way):
        if self.valid[way]:
            del self._way_of[int(self.tags[way])]
            self.stats.evictions += 1
            if self.write_back and self.dirty[way]:
                self.stats.writebacks += 1
                self.below.write_line(int(self.tags[way]), self.data[way].copy())
        self.valid[way] = False
        self.dirty[way] = False
        self.tags[way] = -1

    def _allocate(self, line_addr, payload, done):
        way = self._victim(line_addr)
        self._evict(way)
        self.data[way] = payload
        self.tags[way] = line_addr
        self.valid[way] = True
        self._way_of[line_addr] = way
        self.fill_done[way] = done
        return way

    def read_line(self, line_addr, line_bytes, now):
        self.stats.accesses += 1
        way = self._find(line_addr)
        if way is not None:
            self._touch(way)
            if self.fill_done[way] > now:
                self.stats.pending_hits += 1
                return self.data[way], int(self.fill_done[way] - now) + 1
            self.stats.hits += 1
            return self.data[way], self.hit_latency
        self.stats.misses += 1
        self._prune_fills(now)
        extra = 0
        if len(self._fills_in_flight) >= self.geo.mshr_entries:
            self.stats.reservation_fails += 1
            oldest = min(self._fills_in_flight)
            extra = max(0, oldest - now)
        payload, below_latency = self.below.read_line(line_addr, line_bytes, now)
        latency = self.hit_latency + below_latency + extra
        way = self._allocate(line_addr, payload, now + latency)
        self.dirty[way] = False
        self._touch(way)
        self._fills_in_flight.append(now + latency)
        return self.data[way], latency

    def write_word(self, addr, word, now):
        line_addr = addr - addr % self.geo.line_bytes
        offset = addr - line_addr
        self.stats.accesses += 1
        way = self._find(line_addr)
        as_bytes = np.frombuffer(int(word & 0xFFFFFFFF).to_bytes(4, "little"),
                                 dtype=np.uint8)
        if self.write_back:
            if way is None:
                self.stats.misses += 1
                payload, below_latency = self.below.read_line(
                    line_addr, self.geo.line_bytes, now)
                way = self._allocate(line_addr, payload, now + below_latency)
                latency = self.hit_latency + below_latency
            else:
                self.stats.hits += 1
                latency = self.hit_latency
            self._touch(way)
            self.data[way, offset:offset + 4] = as_bytes
            self.dirty[way] = True
            return latency
        if way is not None:
            self.stats.hits += 1
            self._touch(way)
            self.data[way, offset:offset + 4] = as_bytes
        else:
            self.stats.misses += 1
        return self.hit_latency + self.below.write_word(addr, word, now)

    def write_words_line(self, line_addr, offsets, values, now):
        self.stats.accesses += 1
        way = self._find(line_addr)
        if way is None:
            self.stats.misses += 1
            payload, below_latency = self.below.read_line(
                line_addr, self.geo.line_bytes, now)
            way = self._allocate(line_addr, payload, now + below_latency)
            latency = self.hit_latency + below_latency
        else:
            self.stats.hits += 1
            latency = self.hit_latency
        self._touch(way)
        self.data[way].view("<u4")[offsets >> 2] = values
        self.dirty[way] = True
        return latency

    def update_words_if_present(self, line_addr, offsets, values):
        self.stats.accesses += 1
        way = self._find(line_addr)
        if way is None:
            self.stats.misses += 1
            return
        self.stats.hits += 1
        self._touch(way)
        self.data[way].view("<u4")[offsets >> 2] = values


#: The walk test's lines: ``(k, s)`` is line ``8 * k + s``, in set ``s``
#: (modulo the set count) of every level, so six lines share each set and
#: the 48 lines overflow both caches (4 L1 and 16 L2 lines).
_WALK_SETS = 8
_walk_line = st.tuples(st.integers(0, 5), st.integers(0, _WALK_SETS - 1))
_walk_ops = st.lists(st.tuples(st.integers(0, 120), st.one_of(
    st.tuples(st.just("read_line"), _level, _walk_line),
    st.tuples(st.just("read_line"), _level, _walk_line),
    st.tuples(st.just("write_word"), _level, _walk_line, st.integers(0, 7)),
    st.tuples(st.just("write_words_line"), _walk_line, _offsets),
    st.tuples(st.just("update_words_if_present"), _walk_line, _offsets),
    st.tuples(st.just("flush")),
    st.tuples(st.just("invalidate_all"), _level),
    st.tuples(st.just("new_clock_epoch"), _level),
    st.tuples(st.just("save")),
    st.tuples(st.just("restore_checkpoint"), _level),
    st.tuples(st.just("flip_bit"), _level, st.integers(0, 128 * 8 - 1)),
)), min_size=1, max_size=60)


def _walk_hierarchy(cls, l1_assoc, l2_assoc, mshrs):
    mem = GlobalMemory(1 << 16)
    base = mem.alloc(6 * _WALK_SETS * 32)
    mem.write_bytes(base, np.arange(6 * _WALK_SETS * 8, dtype=np.uint32))
    stats = LaunchStats()
    dram = DRAMInterface(mem, latency=200, stats_ref=stats)
    l2 = cls("l2", CacheGeometry(512, 32, l2_assoc, mshrs), 90, dram,
             write_back=True)
    l1 = cls("l1", CacheGeometry(128, 32, l1_assoc, mshrs), 20, l2,
             write_back=False)
    return mem, {"l1": l1, "l2": l2}, stats, base


def _walk_state(cache):
    return (cache.data.tobytes(), cache.tags.tolist(), cache.valid.tolist(),
            cache.dirty.tolist(), cache.lru.tolist(), cache.fill_done.tolist(),
            list(cache._fills_in_flight), cache.stats, cache._lru_clock)


def _walk(l1_assoc, l2_assoc, mshrs, ops, ref=_ReferenceCache,
          state=_walk_state):
    """Run ``ops`` on a hierarchy of :class:`Cache` and one of ``ref``,
    comparing every result and the ``state`` of each cache after each
    step; returns the first side's caches."""
    sides = [_walk_hierarchy(cls, l1_assoc, l2_assoc, mshrs)
             for cls in (Cache, ref)]
    saved = [None, None]
    now = 0
    for step, op in ops:
        now += step
        name, args = op[0], op[1:]
        results = []
        for i, (mem, caches, _, base) in enumerate(sides):
            def addr(line):
                return base + 32 * (line[0] * _WALK_SETS + line[1])
            result = None
            if name == "read_line":
                data, latency = caches[args[0]].read_line(addr(args[1]), 32, now)
                result = data.tobytes(), latency
            elif name == "write_word":
                result = caches[args[0]].write_word(
                    addr(args[1]) + 4 * args[2], now * 7 + step, now)
            elif name in ("write_words_line", "update_words_if_present"):
                offs = 4 * np.array(args[1], dtype=np.int64)
                vals = np.arange(offs.size, dtype=np.uint32) + now
                if name == "write_words_line":
                    result = caches["l2"].write_words_line(addr(args[0]), offs,
                                                           vals, now)
                else:
                    caches["l1"].update_words_if_present(addr(args[0]), offs,
                                                         vals)
            elif name == "flush":
                caches["l2"].flush()
            elif name in ("invalidate_all", "new_clock_epoch"):
                getattr(caches[args[0]], name)()
            elif name == "save":
                saved[i] = {lv: c.checkpoint_state() for lv, c in caches.items()}
            elif name == "restore_checkpoint" and saved[i]:
                caches[args[0]].restore_checkpoint(saved[i][args[0]])
            elif name == "restore_boundary" and saved[i]:
                caches[args[0]].restore_boundary(saved[i][args[0]][3:])
            elif name == "flip_bit":
                caches[args[0]].flip_bit(args[1])
            results.append(result)
        assert results[0] == results[1], op
        (mem, caches, stats, _), (ref_mem, ref_caches, ref_stats, _) = sides
        for level in caches:
            assert (state(caches[level])
                    == state(ref_caches[level])), (op, level)
        assert np.array_equal(mem.data, ref_mem.data)
        assert stats == ref_stats
    return sides[0][1]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((1, 2, 4)), st.sampled_from((2, 4, 8)),
       st.sampled_from((1, 2, 3, 8)), _walk_ops)
def test_miss_walk_matches_reference(l1_assoc, l2_assoc, mshrs, ops):
    """Property: the miss walk (victim by ``argmin``, the valid bits
    skipped while every line is valid, no eviction bookkeeping for an
    invalid way, MSHR pruning only with fills in flight, word stores
    through one view of ``data``) leaves every latency, byte, tag, valid,
    dirty and LRU bit, fill time, MSHR list and counter as the reference
    does, after every step of a random sequence over lines that crowd
    every set, with fills in flight overlapping."""
    _walk(l1_assoc, l2_assoc, mshrs, ops)


def test_miss_walk_matches_reference_through_full_caches():
    """Every line read, stored and read again in a scrambled order: both
    caches run full (the victim comes from the LRU stamps alone) with
    dirty L2 lines written back on eviction."""
    order = np.random.default_rng(3).permutation(6 * _WALK_SETS).tolist()
    lines = [divmod(line, _WALK_SETS) for line in order]
    ops = [(40, ("read_line", "l1", line)) for line in lines]
    ops += [(40, ("write_words_line", line, [0, 3])) for line in lines[::2]]
    ops += [(40, ("read_line", level, line)) for line in lines[::-1]
            for level in ("l2", "l1")]
    caches = _walk(2, 4, 2, ops)
    for cache in caches.values():
        assert len(cache._way_of) == cache._num_lines
        assert cache.stats.evictions
    assert caches["l2"].stats.writebacks


def test_miss_walk_takes_the_invalid_way_after_a_restore():
    """One way invalid and the rest valid, the invalid way stamped more
    recently than a valid one (a restore re-stamps the valid lines
    relative to the clock and leaves the invalid way's stamp): the miss
    must still take the invalid way, not the least recent valid one."""
    lines = [(0, s) for s in range(5)]  # one set of the 4-way, 4-line L1
    ops = [(10, ("read_line", "l1", line)) for line in lines[:3]]
    ops += [(10, ("save",)), (10, ("read_line", "l1", lines[3])),
            (10, ("read_line", "l1", lines[3])),
            (10, ("restore_checkpoint", "l1")),
            (10, ("read_line", "l1", lines[4]))]
    l1 = _walk(4, 4, 8, ops)["l1"]
    assert l1.stats.evictions == 0


class _FullInvalidateCache(_ReferenceCache):
    """The reference with ``invalidate_all`` as it was: every array reset,
    whatever the cache holds."""

    def invalidate_all(self):
        self.valid[:] = False
        self.dirty[:] = False
        self.tags[:] = -1
        self._way_of = {}
        self.fill_done[:] = 0
        self._fills_in_flight.clear()


def _observable_state(cache):
    """What a later read, compare or restore can observe: the checkpoint
    state (the boundary state, the counters, the fills in flight and the
    fill time of each valid line). Invalid lines' fill times are not in
    it: a fill sets a line's time before any read of it."""
    counters, fills, fill_done, valid, dirty, tags, lru, lines = (
        cache.checkpoint_state())
    return (counters, fills, fill_done.tolist(), valid.tolist(),
            dirty.tolist(), tags.tolist(), lru.tolist(), lines.tobytes(),
            cache.stats)


#: Cache operations around frequent invalidations, with restores to
#: states saved while a cache was empty or not.
_invalidate_ops = st.lists(st.tuples(st.integers(0, 120), st.one_of(
    st.tuples(st.just("read_line"), _level, _walk_line),
    st.tuples(st.just("write_word"), _level, _walk_line, st.integers(0, 7)),
    st.tuples(st.just("write_words_line"), _walk_line, _offsets),
    st.tuples(st.just("update_words_if_present"), _walk_line, _offsets),
    st.tuples(st.just("flush")),
    st.tuples(st.just("invalidate_all"), _level),
    st.tuples(st.just("invalidate_all"), _level),
    st.tuples(st.just("new_clock_epoch"), _level),
    st.tuples(st.just("save")),
    st.tuples(st.just("restore_boundary"), _level),
    st.tuples(st.just("restore_checkpoint"), _level),
    st.tuples(st.just("flip_bit"), _level, st.integers(0, 128 * 8 - 1)),
)), min_size=1, max_size=40)

#: Every line read at both levels, one cycle apart: after any sequence,
#: each later read must return the same data with the same latency.
_READ_BACK = [(1, ("read_line", level, (k, s))) for k in range(6)
              for s in range(_WALK_SETS) for level in ("l1", "l2")]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((1, 2, 4)), st.sampled_from((2, 4, 8)),
       st.sampled_from((1, 2, 8)), _invalidate_ops)
def test_fast_invalidate_equals_a_full_one(l1_assoc, l2_assoc, mshrs, ops):
    """Property: ``invalidate_all`` returning at once on a cache whose way
    index is current and empty, with no fill in flight, leaves what a full
    invalidate leaves: after any sequence of operations and restores, the
    boundary and checkpoint states, the counters and every later read's
    data and latency are equal."""
    _walk(l1_assoc, l2_assoc, mshrs, ops + _READ_BACK,
          ref=_FullInvalidateCache, state=_observable_state)


def test_invalidating_an_empty_cache_writes_no_array():
    """The fast path: a fresh or just-invalidated cache is left alone
    (its arrays are read-only here), while one holding a line (its index
    current or stale), or with no valid line but a fill in flight, is
    reset in full."""
    _, l1, l2, _ = make_hierarchy()
    arrays = ("valid", "dirty", "tags", "fill_done")

    def frozen(cache, writeable):
        for name in arrays:
            getattr(cache, name).flags.writeable = writeable

    for cache in (l1, l2):
        frozen(cache, False)
        cache.invalidate_all()
        cache.invalidate_all()
        frozen(cache, True)
    empty = l1.boundary_state()
    l1.read_line(0, 32, now=0)
    l1.invalidate_all()  # holds a line
    assert l1._way_of == {} and not l1.valid.any()
    assert not l1._fills_in_flight
    l1.read_line(0, 32, now=0)
    l1.new_clock_epoch()
    holding = l1.boundary_state()
    l1.invalidate_all()
    l1.restore_boundary(holding)  # a line, a stale index, no fill
    l1.invalidate_all()
    assert l1._way_of == {} and not l1.valid.any()
    l1.read_line(0, 32, now=0)
    l1.restore_boundary(empty)
    l1.update_words_if_present(0, np.zeros(1, np.int64),
                               np.zeros(1, np.uint32))  # rebuilds the index
    assert l1._way_of == {} and l1._fills_in_flight
    l1.invalidate_all()  # a fill in flight
    assert not l1._fills_in_flight and not l1.fill_done.any()
