"""Differential test of the memory closures against the closures they
replaced.

A warp's ``LD``/``LDT`` reads each distinct line once, in ascending order,
and writes the destination row with one gather; ``ST`` sorts its lanes by
line once and stores each line's slice; ``LDS``/``STS`` read and write
the CTA's window. Each closure resolves its base (and store-data) operand
at compile time to a register row or a constant, and groups lines from
the lane address list the bounds check returns.

The reference is the older code, kept here because ``repro.sim`` no
longer has it: operands fetched at issue through ``_fetch_u`` lambdas and
``np.asarray``, the per-line loop for global memory (one select, read and
register write per line for loads; one select and L1-then-L2 store per
line for stores) and the fetch-based ``LDS``/``STS`` closures.

Hypothesis draws every memory opcode with the base (and the store data)
as a register, ``RZ``, an immediate or a constant; lane addresses with
duplicates; lines that share a set in every cache (so a fill can evict a
line read earlier by the same instruction); full and partial guard
masks; both configs' cache geometries; and out-of-bounds or misaligned
lanes, where both sides must raise the same exception with the same
message. Both sides run the same instruction sequence on separate GPUs;
every destination row, latency, DRAM byte count, SMEM byte, cache array,
counter and MSHR list must match after each step.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.config import quadro_gv100_like, tesla_v100_like
from repro.errors import IllegalInstruction
from repro.isa.instruction import RZ, Instruction, Operand, OperandKind, SpecialReg
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.sim import GPU
from repro.sim.executor import CompiledKernel
from repro.sim.memory import HEAP_BASE
from repro.sim.shared_memory import SharedWindow
from repro.sim.stats import LaunchStats

#: Every cache's set index repeats with this byte stride (the largest
#: ``num_sets * line_bytes`` of both configs), so lines this far apart
#: share a set in the L1D, the L1T and the L2.
SET_STRIDE = 4096
#: Lines per set the heap spans: more than any cache's associativity.
SET_LINES = 18
HEAP_BYTES = SET_STRIDE * SET_LINES
#: The CTA's shared-memory window.
SMEM_BYTES = 512
BASE_REG, DATA_REG, DST_REG = 1, 3, 2
#: Constant-bank byte offsets holding a base address and a store value.
CONST_OFS, DATA_CONST_OFS = 8, 12
#: Shared opcodes.
SHARED = (Opcode.LDS, Opcode.STS)
STORES = (Opcode.ST, Opcode.STS)


# ---------------------------------------------------------------------- #
# The reference closures
# ---------------------------------------------------------------------- #
def _fetch_u(op, const_bank):
    """A fetcher returning the operand as a uint32 row or a scalar int."""
    kind = op.kind
    if kind == OperandKind.REG:
        if op.value == RZ:
            return lambda w: 0
        idx = op.value
        return lambda w: w.bank.regs[idx]
    if kind == OperandKind.IMM:
        val = op.value
        return lambda w: val
    if kind == OperandKind.CONST:
        val = int(const_bank[op.value >> 2])
        return lambda w: val
    raise AssertionError(f"no reference fetch for operand kind {kind}")


def _lane_values(fetch, w, lanes, dtype):
    """The guarded lanes' values of a fetched operand."""
    full = np.asarray(fetch(w), dtype=dtype)
    return full[lanes] if full.ndim else np.full(len(lanes), full, dtype=dtype)


def _lane_addresses(fetch, offset, w, gm):
    lanes = np.nonzero(gm)[0]
    return lanes, _lane_values(fetch, w, lanes, np.int64) + offset


def _reference_load(instr, const_bank):
    """The per-line ``LD``/``LDT`` loop (one select, read and write each)."""
    offset = instr.mem_offset
    base_fetch = _fetch_u(instr.src_a, const_bank)
    dst = instr.dst
    is_tex = instr.opcode == Opcode.LDT

    def load(sm, w, gm):
        lanes, addrs = _lane_addresses(base_fetch, offset, w, gm)
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
        lanes, addrs = _lane_addresses(base_fetch, offset, w, gm)
        sm.gpu.mem.check_word_addresses(addrs)
        vals = _lane_values(data_fetch, w, lanes, np.uint32)
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


def _reference_lds(instr, const_bank, smem):
    offset = instr.mem_offset
    base_fetch = _fetch_u(instr.src_a, const_bank)
    dst = instr.dst

    def lds(sm, w, gm):
        lanes, offs = _lane_addresses(base_fetch, offset, w, gm)
        vals = w.cta.smem.read_words(offs)
        if dst != RZ:
            w.bank.regs[dst][lanes] = vals
        return smem

    return lds


def _reference_sts(instr, const_bank, smem):
    offset = instr.mem_offset
    base_fetch = _fetch_u(instr.src_a, const_bank)
    data_fetch = _fetch_u(instr.src_b, const_bank)

    def sts(sm, w, gm):
        lanes, offs = _lane_addresses(base_fetch, offset, w, gm)
        vals = _lane_values(data_fetch, w, lanes, np.uint32)
        w.cta.smem.write_words(offs, vals)
        return smem

    return sts


def _reference(instr, const_bank, config):
    op, lat = instr.opcode, config.latencies
    if op == Opcode.ST:
        return _reference_store(instr, const_bank, lat.l1_hit)
    if op == Opcode.LDS:
        return _reference_lds(instr, const_bank, lat.smem)
    if op == Opcode.STS:
        return _reference_sts(instr, const_bank, lat.smem)
    return _reference_load(instr, const_bank)


# ---------------------------------------------------------------------- #
# Harness
# ---------------------------------------------------------------------- #
class _Bank:
    def __init__(self, regs):
        self.regs = regs


class _CTA:
    def __init__(self, window):
        self.smem = window


class _Warp:
    """The part of a warp the memory closures read: its register bank and
    its CTA's shared-memory window."""

    def __init__(self, regs, smem=None):
        self.bank = _Bank(regs)
        window = SharedWindow(SMEM_BYTES)
        if smem is not None:
            window.data[:] = smem
        self.cta = _CTA(window)


_forms = st.sampled_from(("reg", "reg", "reg", "rz", "imm", "const"))


@st.composite
def _accesses(draw):
    """Warp accesses ``(opcode, base, data, addrs, guard, dst, fault)``
    over one pool of lines, so later accesses re-read lines earlier ones
    evicted.

    ``base`` and ``data`` are ``"reg"`` (per-lane values in ``R1``/``R3``),
    ``"rz"``, ``"imm"`` or ``"const"`` (one value for every lane). The
    pool's lines fall in one to four sets of every cache; each global
    access spreads its lanes over a window of the pool, so duplicate
    addresses and more same-set lines than ways are common; a shared
    access spreads its lanes over a window of SMEM words. Lanes the guard
    masks off get invalid addresses, which a closure that touched them
    would fault on. ``fault`` makes one guarded lane (every lane, for a
    uniform base) out of bounds below or past the end, or misaligned.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_sets = draw(st.integers(1, 4))
    lines = [(k, s) for k in range(SET_LINES) for s in range(n_sets)]
    pool = [lines[i] for i in rng.permutation(len(lines))]
    pool = pool[:draw(st.integers(1, 24))]
    accesses = []
    for _ in range(draw(st.integers(1, 6))):
        opcode = draw(st.sampled_from(
            (Opcode.LD, Opcode.LDT, Opcode.ST, Opcode.LDS, Opcode.STS)))
        base, data = draw(_forms), draw(_forms)
        if opcode in SHARED:
            lo = draw(st.integers(0, SMEM_BYTES // 4 - 1))
            hi = draw(st.integers(lo, min(lo + 40, SMEM_BYTES // 4 - 1)))
            addrs = (4 * rng.integers(lo, hi + 1, 32)).tolist()
        else:
            lo = draw(st.integers(0, len(pool) - 1))
            hi = draw(st.integers(lo, len(pool) - 1))
            addrs = [pool[i][0] * SET_STRIDE + pool[i][1] * 32 + 4 * word
                     for i, word in zip(rng.integers(lo, hi + 1, 32).tolist(),
                                        rng.integers(0, 8, 32).tolist())]
        guard = rng.random(32) < draw(st.sampled_from((1.0, 0.6, 0.15)))
        guard[rng.integers(32)] = True
        dst = draw(st.sampled_from((DST_REG, DST_REG, RZ)))
        fault = draw(st.sampled_from(
            (None, None, None, None, "below", "past", "misaligned")))
        accesses.append((opcode, base, data, addrs, guard.tolist(), dst,
                         fault))
    return accesses


def _instruction(opcode, base, data, dst, offset, base_value, data_value):
    """``opcode`` with its base reading ``base_value`` (a non-register
    form) and its store data reading ``data_value``."""
    def operand(form, reg, const_ofs, value):
        return {"reg": lambda: Operand.reg(reg), "rz": lambda: Operand.reg(RZ),
                "imm": lambda: Operand.imm(value),
                "const": lambda: Operand.const(const_ofs)}[form]()

    src_a = operand(base, BASE_REG, CONST_OFS, base_value)
    if opcode in STORES:
        return Instruction(opcode, src_a=src_a, mem_offset=offset,
                           src_b=operand(data, DATA_REG, DATA_CONST_OFS,
                                         data_value))
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


def _issue(fn, sm, warp, gm):
    """``fn``'s latency, or the type and message of what it raised."""
    try:
        return fn(sm, warp, gm)
    except Exception as exc:
        return type(exc), str(exc)


def _faulted(addrs, gm, fault, shared, heap_end, uniform, rng):
    """``addrs`` with the fault applied to one guarded lane: the first
    one, whose address a uniform base takes, or any."""
    guarded = np.flatnonzero(gm)
    lane = int(guarded[0] if uniform else rng.choice(guarded))
    bad = {"below": -4 if shared else HEAP_BASE - 4,
           "past": SMEM_BYTES if shared else heap_end,
           "misaligned": int(addrs[lane]) + int(rng.integers(1, 4))}[fault]
    addrs = addrs.copy()
    addrs[lane] = bad
    return addrs


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((quadro_gv100_like, tesla_v100_like)),
       _accesses(), st.integers(0, 2**32 - 1))
def test_line_batched_path_matches_per_line_loop(make_config, accesses, seed):
    """Every memory opcode and operand form against the reference closures
    (for global memory, the per-line loop): same registers, SMEM, latency
    or exception, DRAM bytes and cache state after each access."""
    config = make_config()
    (gpu, heap), (ref, _) = _device(config, seed), _device(config, seed)
    rng = np.random.default_rng(seed)
    regs = rng.integers(0, 2**32, (8, 32), dtype=np.uint32)
    smem = rng.integers(0, 256, SMEM_BYTES, dtype=np.uint8)
    warps = _Warp(regs.copy(), smem), _Warp(regs.copy(), smem)
    now = 0
    for opcode, base, data, addrs, guard, dst, fault in accesses:
        now += int(rng.integers(0, 400))
        gpu.now = ref.now = now
        gm = np.array(guard)
        shared = opcode in SHARED
        lane_addrs = np.array(addrs, dtype=np.int64) + (0 if shared else heap)
        if fault is not None:
            lane_addrs = _faulted(lane_addrs, gm, fault, shared,
                                  gpu.mem.heap_end, base != "reg", rng)
        # Masked-off lanes hold invalid addresses: touching one would fault.
        lane_addrs[~gm] = 2 if shared else 4
        # Every form reaches its addresses as base + offset; a uniform
        # base gives every lane the first guarded lane's address.
        first = int(lane_addrs[gm][0])
        offset = {"reg": -16 if shared else 64, "rz": first,
                  "imm": first & 0xFF, "const": first & 0xFF}[base]
        const_bank = np.zeros(8, dtype=np.uint32)
        const_bank[CONST_OFS // 4] = (first - offset) & 0xFFFFFFFF
        data_value = int(rng.integers(0, 2**32))
        const_bank[DATA_CONST_OFS // 4] = data_value
        values = rng.integers(0, 2**32, 32, dtype=np.uint32)
        for w in warps:
            w.bank.regs[BASE_REG] = (lane_addrs - offset).astype(np.uint32)
            w.bank.regs[DATA_REG] = values
        instr = _instruction(opcode, base, data, dst, offset,
                             first - offset, data_value)
        fn = _compile(instr, const_bank, config)
        ref_fn = _reference(instr, const_bank, config)
        got = _issue(fn, gpu.sms[0], warps[0], gm)
        want = _issue(ref_fn, ref.sms[0], warps[1], gm)
        assert got == want
        assert np.array_equal(warps[0].bank.regs, warps[1].bank.regs)
        assert np.array_equal(warps[0].cta.smem.data, warps[1].cta.smem.data)
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
    fn = _compile(_instruction(Opcode.LD, "reg", None, DST_REG, 64, 0, 0),
                  np.zeros(8, np.uint32), tesla_v100_like())
    warp = _Warp(regs)
    fn(gpu.sms[0], warp, np.ones(32, dtype=bool))
    words = gpu.mem.data[: heap + HEAP_BYTES].view("<u4")
    assert np.array_equal(warp.bank.regs[DST_REG], words[lane_addrs >> 2])
    assert gpu.sms[0].l1d.stats.evictions >= 3


@pytest.mark.parametrize("opcode, operand", [
    (Opcode.LD, "base"), (Opcode.LDT, "base"), (Opcode.LDS, "base"),
    (Opcode.ST, "base"), (Opcode.ST, "data"),
    (Opcode.STS, "base"), (Opcode.STS, "data")])
def test_special_register_operand_is_rejected_at_compile_time(opcode,
                                                              operand):
    """No kernel addresses through (or stores) a special register; the
    compiler refuses it instead of building a closure for it."""
    sr = Operand.special(SpecialReg.TID_X)
    base = sr if operand == "base" else Operand.reg(BASE_REG)
    if opcode in STORES:
        data = sr if operand == "data" else Operand.reg(DATA_REG)
        instr = Instruction(opcode, src_a=base, src_b=data)
    else:
        instr = Instruction(opcode, dst=DST_REG, src_a=base)
    with pytest.raises(IllegalInstruction):
        _compile(instr, np.zeros(8, np.uint32), quadro_gv100_like())
