"""Differential test of the global memory path against the per-line loop.

A warp's ``LD``/``LDT`` reads each distinct line once, in ascending order,
and writes the destination row with one gather; ``ST`` sorts its lanes by
line once and stores each line's slice. The per-line loop they replace is
kept here as the reference: one select, read and register write per line
for loads, one select and L1-then-L2 store per line for stores.

Hypothesis draws lane addresses with duplicates, lines that share a set in
every cache (so a fill can evict a line read earlier by the same
instruction), partial guard masks, scalar bases (``RZ`` and a constant),
and both configs' cache geometries. Both sides run the same instruction
sequence on separate GPUs; every destination row, latency, DRAM byte
count, cache array, counter and MSHR list must match after each step.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.config import quadro_gv100_like, tesla_v100_like
from repro.isa.instruction import RZ, Instruction, Operand
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.sim import GPU
from repro.sim.executor import CompiledKernel, _fetch_u
from repro.sim.stats import LaunchStats

#: Every cache's set index repeats with this byte stride (the largest
#: ``num_sets * line_bytes`` of both configs), so lines this far apart
#: share a set in the L1D, the L1T and the L2.
SET_STRIDE = 4096
#: Lines per set the heap spans: more than any cache's associativity.
SET_LINES = 18
HEAP_BYTES = SET_STRIDE * SET_LINES
BASE_REG, DATA_REG, DST_REG = 1, 3, 2
#: Constant-bank byte offset holding a base address.
CONST_OFS = 8


def _reference_load(instr, const_bank):
    """The per-line ``LD``/``LDT`` loop (one select, read and write each)."""
    offset = instr.mem_offset
    base_fetch = _fetch_u(instr.src_a, const_bank)
    dst = instr.dst
    is_tex = instr.opcode == Opcode.LDT

    def load(sm, w, gm):
        addrs_all = np.asarray(base_fetch(w), dtype=np.int64) + offset
        lanes = np.nonzero(gm)[0]
        addrs = (addrs_all[lanes] if addrs_all.ndim
                 else np.full(len(lanes), addrs_all, dtype=np.int64))
        sm.gpu.mem.check_word_addresses(addrs)
        cache = sm.l1t if is_tex else sm.l1d
        lb = cache.geo.line_bytes
        lines = addrs & ~np.int64(lb - 1)
        now = sm.gpu.now
        row = w.bank.regs[dst] if dst != RZ else None
        latency = 0
        for la in np.unique(lines):
            sel = lines == la
            data, line_lat = cache.read_line(int(la), lb, now)
            if row is not None:
                words = data.view("<u4")
                row[lanes[sel]] = words[(addrs[sel] - la) >> 2]
            latency = max(latency, line_lat)
        return latency

    return load


def _reference_store(instr, const_bank, l1_hit):
    """The per-line ``ST`` loop (one select and L1-then-L2 store each)."""
    offset = instr.mem_offset
    base_fetch = _fetch_u(instr.src_a, const_bank)
    data_fetch = _fetch_u(instr.src_b, const_bank)

    def store(sm, w, gm):
        addrs_all = np.asarray(base_fetch(w), dtype=np.int64) + offset
        lanes = np.nonzero(gm)[0]
        addrs = (addrs_all[lanes] if addrs_all.ndim
                 else np.full(len(lanes), addrs_all, dtype=np.int64))
        sm.gpu.mem.check_word_addresses(addrs)
        vals_full = np.asarray(data_fetch(w), dtype=np.uint32)
        vals = vals_full[lanes] if vals_full.ndim else np.full(
            len(lanes), vals_full, dtype=np.uint32)
        lb = sm.gpu.l2.geo.line_bytes
        lines = addrs & ~np.int64(lb - 1)
        now = sm.gpu.now
        for la in np.unique(lines):
            sel = lines == la
            offs = (addrs[sel] - la).astype(np.int64)
            sm.l1d.update_words_if_present(int(la), offs, vals[sel])
            sm.gpu.l2.write_words_line(int(la), offs, vals[sel], now)
        return l1_hit

    return store


class _Bank:
    def __init__(self, regs):
        self.regs = regs


class _Warp:
    """The part of a warp the memory closures read: its register bank."""

    def __init__(self, regs):
        self.bank = _Bank(regs)


@st.composite
def _accesses(draw):
    """Warp accesses ``(opcode, base, addrs, guard, dst)`` over one pool
    of lines, so later accesses re-read lines earlier ones evicted.

    ``base`` is ``"reg"`` (per-lane addresses in ``R1``), ``"rz"`` or
    ``"const"`` (every lane at one address). The pool's lines fall in one
    to four sets of every cache; each access spreads its lanes over a
    window of the pool, so duplicate addresses and more same-set lines
    than ways are common. Lanes the guard masks off get out-of-heap
    addresses, which a closure that touched them would fault on.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_sets = draw(st.integers(1, 4))
    lines = [(k, s) for k in range(SET_LINES) for s in range(n_sets)]
    pool = [lines[i] for i in rng.permutation(len(lines))]
    pool = pool[:draw(st.integers(1, 24))]
    accesses = []
    for _ in range(draw(st.integers(1, 6))):
        opcode = draw(st.sampled_from((Opcode.LD, Opcode.LDT, Opcode.ST)))
        base = draw(st.sampled_from(("reg", "reg", "reg", "rz", "const")))
        lo = draw(st.integers(0, len(pool) - 1))
        hi = draw(st.integers(lo, len(pool) - 1))
        addrs = [pool[i][0] * SET_STRIDE + pool[i][1] * 32 + 4 * word
                 for i, word in zip(rng.integers(lo, hi + 1, 32).tolist(),
                                    rng.integers(0, 8, 32).tolist())]
        guard = rng.random(32) < draw(st.sampled_from((1.0, 0.6, 0.15)))
        guard[rng.integers(32)] = True
        dst = draw(st.sampled_from((DST_REG, DST_REG, RZ)))
        accesses.append((opcode, base, addrs, guard.tolist(), dst))
    return accesses


def _instruction(opcode, base, dst, offset):
    src_a = {"reg": Operand.reg(BASE_REG), "rz": Operand.reg(RZ),
             "const": Operand.const(CONST_OFS)}[base]
    if opcode == Opcode.ST:
        return Instruction(opcode, src_a=src_a, src_b=Operand.reg(DATA_REG),
                           mem_offset=offset)
    return Instruction(opcode, dst=dst, src_a=src_a, mem_offset=offset)


def _compile(instr, const_bank, config):
    """The compiled closure of ``instr`` (the closure under test)."""
    program = Program("t", (instr, Instruction(Opcode.EXIT)))
    return CompiledKernel(program, const_bank, config).entries[0][2]


def _cache_state(cache):
    return (cache.data.copy(), cache.tags.copy(), cache.valid.copy(),
            cache.dirty.copy(), cache.lru.copy(), cache.fill_done.copy(),
            cache.stats, list(cache._fills_in_flight), cache._lru_clock)


def _assert_same_caches(gpu, ref):
    for cache, ref_cache in ((gpu.l2, ref.l2),
                             (gpu.sms[0].l1d, ref.sms[0].l1d),
                             (gpu.sms[0].l1t, ref.sms[0].l1t)):
        got, want = _cache_state(cache), _cache_state(ref_cache)
        for name, a, b in zip(("data", "tags", "valid", "dirty", "lru",
                               "fill_done"), got, want):
            assert np.array_equal(a, b), f"{cache.name}.{name}"
        assert got[6:] == want[6:], cache.name


def _device(config, seed):
    gpu = GPU(config)
    heap = gpu.mem.alloc(HEAP_BYTES)
    rng = np.random.default_rng(seed)
    gpu.mem.write_bytes(heap, rng.integers(0, 2**32, HEAP_BYTES // 4,
                                           dtype=np.uint32))
    gpu._dram_if.stats = LaunchStats()
    return gpu, heap


@settings(max_examples=120, deadline=None)
@given(st.sampled_from((quadro_gv100_like, tesla_v100_like)),
       _accesses(), st.integers(0, 2**32 - 1))
def test_line_batched_path_matches_per_line_loop(make_config, accesses, seed):
    config = make_config()
    (gpu, heap), (ref, _) = _device(config, seed), _device(config, seed)
    rng = np.random.default_rng(seed)
    regs = rng.integers(0, 2**32, (8, 32), dtype=np.uint32)
    warps = _Warp(regs.copy()), _Warp(regs.copy())
    now = 0
    for opcode, base, addrs, guard, dst in accesses:
        now += int(rng.integers(0, 400))
        gpu.now = ref.now = now
        gm = np.array(guard)
        lane_addrs = heap + np.array(addrs, dtype=np.int64)
        # Masked-off lanes point below the heap: touching one would fault.
        lane_addrs[~gm] = 4
        # Every form reaches its addresses as base + offset.
        const_bank = np.zeros(8, dtype=np.uint32)
        first = int(lane_addrs[gm][0])
        offset = {"reg": 64, "rz": first, "const": first & 0xFF}[base]
        const_bank[CONST_OFS // 4] = first - offset
        values = rng.integers(0, 2**32, 32, dtype=np.uint32)
        for w in warps:
            w.bank.regs[BASE_REG] = (lane_addrs - 64).astype(np.uint32)
            w.bank.regs[DATA_REG] = values
        instr = _instruction(opcode, base, dst, offset)
        fn = _compile(instr, const_bank, config)
        if opcode == Opcode.ST:
            ref_fn = _reference_store(instr, const_bank,
                                      config.latencies.l1_hit)
        else:
            ref_fn = _reference_load(instr, const_bank)
        latency = fn(gpu.sms[0], warps[0], gm)
        ref_latency = ref_fn(ref.sms[0], warps[1], gm)
        assert latency == ref_latency
        assert np.array_equal(warps[0].bank.regs, warps[1].bank.regs)
        assert gpu._dram_if.stats == ref._dram_if.stats
        _assert_same_caches(gpu, ref)
    gpu.l2.flush()
    ref.l2.flush()
    assert np.array_equal(gpu.mem.data[: heap + HEAP_BYTES],
                          ref.mem.data[: heap + HEAP_BYTES])
    assert gpu._dram_if.stats == ref._dram_if.stats


def test_same_set_lines_evict_within_one_load():
    """More lines of one set than the L1D has ways, in one warp load: the
    gather must still see every line's data, including lines whose way a
    later fill of the same instruction took over."""
    config = tesla_v100_like()  # 2-way L1D
    gpu, heap = _device(config, 7)
    lane_addrs = heap + SET_STRIDE * (np.arange(32, dtype=np.int64) % 5)
    lane_addrs += 4 * (np.arange(32) // 5)
    regs = np.zeros((8, 32), dtype=np.uint32)
    regs[BASE_REG] = (lane_addrs - 64).astype(np.uint32)
    fn = _compile(_instruction(Opcode.LD, "reg", DST_REG, 64),
                  np.zeros(8, np.uint32), config)
    warp = _Warp(regs)
    fn(gpu.sms[0], warp, np.ones(32, dtype=bool))
    words = gpu.mem.data[: heap + HEAP_BYTES].view("<u4")
    assert np.array_equal(warp.bank.regs[DST_REG], words[lane_addrs >> 2])
    assert gpu.sms[0].l1d.stats.evictions >= 3

