"""Kernel compilation: instruction semantics specialised into closures.

``CompiledKernel`` turns each static instruction into a tuple of
``(instr, kind, fn, latency, flags, dst)`` so the per-issue hot path does no
dict lookups or opcode branching. Semantics are lane-vectorised: a closure
computes a full-width (32-lane) result with NumPy and writes it under the
guard mask.

All arithmetic follows hardware conventions: 32-bit wraparound integers,
IEEE-754 binary32 floats (via views, so bit flips are exact), shift counts
masked to 5 bits, NaN-safe float-to-int conversion.
"""

from __future__ import annotations

import numpy as np

from repro.errors import IllegalInstruction
from repro.isa.instruction import RZ, Instruction, Operand, OperandKind
from repro.isa.opcodes import LatencyClass, Opcode
from repro.isa.program import Program
from repro.utils.bitops import bitcast_u2f

# Simulated hardware wraps silently; NumPy's warnings are noise here.
np.seterr(over="ignore", invalid="ignore", divide="ignore", under="ignore")

# Entry kinds (dispatch tags used by the SM issue loop).
K_ALU = 0
K_MEM = 1
K_BRA = 2
K_EXIT = 3
K_BAR = 4
K_NOP = 5


def _fetch_u(op: Operand, const_bank: np.ndarray):
    """Build a fetcher returning the operand as uint32 array or scalar int."""
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
    if kind == OperandKind.SPECIAL:
        sid = op.value
        return lambda w: w.specials[sid]
    raise IllegalInstruction(f"cannot fetch operand kind {kind}")


def _fetch_s(op: Operand, const_bank: np.ndarray):
    """Signed view of an operand (int32 array or signed scalar int)."""
    kind = op.kind
    if kind == OperandKind.REG:
        if op.value == RZ:
            return lambda w: 0
        idx = op.value
        return lambda w: w.bank.regs[idx].view(np.int32)
    if kind in (OperandKind.IMM, OperandKind.CONST):
        raw = op.value if kind == OperandKind.IMM else int(const_bank[op.value >> 2])
        val = raw - 0x100000000 if raw >= 0x80000000 else raw
        return lambda w: val
    if kind == OperandKind.SPECIAL:
        sid = op.value
        return lambda w: w.specials[sid].view(np.int32)
    raise IllegalInstruction(f"cannot fetch operand kind {kind}")


def _fetch_f(op: Operand, const_bank: np.ndarray):
    """Float32 view of an operand (float32 array or scalar float)."""
    kind = op.kind
    if kind == OperandKind.REG:
        if op.value == RZ:
            return lambda w: 0.0
        idx = op.value
        return lambda w: w.bank.regs[idx].view(np.float32)
    if kind in (OperandKind.IMM, OperandKind.CONST):
        raw = op.value if kind == OperandKind.IMM else int(const_bank[op.value >> 2])
        val = bitcast_u2f(raw)
        return lambda w: val
    raise IllegalInstruction(f"cannot fetch float operand kind {kind}")


def _write_u(warp, dst: int, gm: np.ndarray, result) -> None:
    """Write a uint32 result under the guard mask (RZ writes are dropped)."""
    if dst == RZ:
        return
    row = warp.bank.regs[dst]
    if isinstance(result, np.ndarray) and result.ndim:
        row[gm] = result[gm].astype(np.uint32, copy=False)
    else:
        row[gm] = np.uint32(int(result) & 0xFFFFFFFF)


def _write_f(warp, dst: int, gm: np.ndarray, result) -> None:
    """Write a float result as its IEEE-754 bits under the guard mask."""
    if dst == RZ:
        return
    row = warp.bank.regs[dst]
    res = np.asarray(result, dtype=np.float32)
    if res.ndim:
        row[gm] = res.view(np.uint32)[gm]
    else:
        row[gm] = res.view(np.uint32)


_CMP_FNS = {
    "LT": lambda a, b: a < b,
    "LE": lambda a, b: a <= b,
    "GT": lambda a, b: a > b,
    "GE": lambda a, b: a >= b,
    "EQ": lambda a, b: a == b,
    "NE": lambda a, b: a != b,
}


class CompiledKernel:
    """A program specialised against a constant bank and a GPU config."""

    def __init__(self, program: Program, const_bank: np.ndarray, config):
        self.program = program
        self.const_bank = const_bank
        self.config = config
        lat = config.latencies
        self._latency = {
            LatencyClass.ALU: lat.alu,
            LatencyClass.FMA: lat.fma,
            LatencyClass.SFU: lat.sfu,
            LatencyClass.MEM: lat.l1_hit,  # placeholder; MEM fns return real
            LatencyClass.CTRL: lat.ctrl,
        }
        self.entries = [self._compile(i) for i in range(len(program))]

    # ------------------------------------------------------------------ #
    def _compile(self, index: int):
        instr = self.program[index]
        info = instr.info
        op = instr.opcode
        latency = self._latency[info.latency_class]
        flags = (
            info.sw_injectable and instr.dst is not None and instr.dst != RZ,
            info.is_load,
            info.is_store,
            info.is_shared,
        )

        if op == Opcode.NOP:
            return (instr, K_NOP, None, latency, flags, None)
        if op == Opcode.BRA:
            return (instr, K_BRA, None, latency, flags, None)
        if op == Opcode.EXIT:
            return (instr, K_EXIT, None, latency, flags, None)
        if op == Opcode.BAR:
            return (instr, K_BAR, None, latency, flags, None)
        if info.is_memory:
            fn = self._compile_memory(instr)
            return (instr, K_MEM, fn, latency, flags, instr.dst)
        fn = self._compile_alu(instr)
        return (instr, K_ALU, fn, latency, flags, instr.dst)

    # ------------------------------------------------------------------ #
    # ALU semantics
    # ------------------------------------------------------------------ #
    def _compile_alu(self, instr: Instruction):
        op = instr.opcode
        cb = self.const_bank
        dst = instr.dst if instr.dst is not None else RZ
        mod = instr.modifier

        if op in (Opcode.MOV, Opcode.S2R):
            a = _fetch_u(instr.src_a, cb)
            return lambda sm, w, gm: _write_u(w, dst, gm, a(w))

        if op == Opcode.SEL:
            a = _fetch_u(instr.src_a, cb)
            b = _fetch_u(instr.src_b, cb)
            p, pneg = instr.src_pred, instr.src_pred_neg

            def sel(sm, w, gm):
                cond = ~w.preds[p] if pneg else w.preds[p]
                _write_u(w, dst, gm, np.where(cond, a(w), b(w)).astype(np.uint32))

            return sel

        if op in (Opcode.IADD, Opcode.ISUB, Opcode.IMUL, Opcode.AND, Opcode.OR,
                  Opcode.XOR, Opcode.SHL):
            a = _fetch_u(instr.src_a, cb)
            b = _fetch_u(instr.src_b, cb)
            fn = {
                Opcode.IADD: lambda x, y: x + y,
                Opcode.ISUB: lambda x, y: x - y,
                Opcode.IMUL: lambda x, y: x * y,
                Opcode.AND: lambda x, y: x & y,
                Opcode.OR: lambda x, y: x | y,
                Opcode.XOR: lambda x, y: x ^ y,
                Opcode.SHL: lambda x, y: x << (y & 31),
            }[op]
            return lambda sm, w, gm: _write_u(
                w, dst, gm, np.asarray(fn(np.asarray(a(w), dtype=np.uint32), b(w)))
            )

        if op == Opcode.SHR:
            if mod == "S32":
                a = _fetch_s(instr.src_a, cb)
                b = _fetch_u(instr.src_b, cb)
                return lambda sm, w, gm: _write_u(
                    w, dst, gm,
                    (np.asarray(a(w), dtype=np.int32) >> (b(w) & 31)).view(np.uint32),
                )
            a = _fetch_u(instr.src_a, cb)
            b = _fetch_u(instr.src_b, cb)
            return lambda sm, w, gm: _write_u(
                w, dst, gm, np.asarray(a(w), dtype=np.uint32) >> (b(w) & 31)
            )

        if op == Opcode.NOT:
            a = _fetch_u(instr.src_a, cb)
            return lambda sm, w, gm: _write_u(
                w, dst, gm, ~np.asarray(a(w), dtype=np.uint32)
            )

        if op == Opcode.IABS:
            a = _fetch_s(instr.src_a, cb)
            return lambda sm, w, gm: _write_u(
                w, dst, gm,
                np.abs(np.asarray(a(w), dtype=np.int32)).view(np.uint32),
            )

        if op == Opcode.IMAD:
            a = _fetch_u(instr.src_a, cb)
            b = _fetch_u(instr.src_b, cb)
            c = _fetch_u(instr.src_c, cb)
            return lambda sm, w, gm: _write_u(
                w, dst, gm, np.asarray(a(w), dtype=np.uint32) * b(w) + c(w)
            )

        if op == Opcode.ISCADD:
            a = _fetch_u(instr.src_a, cb)
            b = _fetch_u(instr.src_b, cb)
            c = _fetch_u(instr.src_c, cb)  # shift amount
            return lambda sm, w, gm: _write_u(
                w, dst, gm,
                (np.asarray(a(w), dtype=np.uint32) << (c(w) & 31)) + b(w),
            )

        if op == Opcode.IMNMX:
            a = _fetch_s(instr.src_a, cb)
            b = _fetch_s(instr.src_b, cb)
            red = np.minimum if mod == "MIN" else np.maximum
            return lambda sm, w, gm: _write_u(
                w, dst, gm,
                np.asarray(
                    red(np.asarray(a(w), dtype=np.int32), b(w)), dtype=np.int32
                ).view(np.uint32),
            )

        if op == Opcode.ISETP:
            unsigned = mod.endswith(".U32")
            cmp = _CMP_FNS[mod.split(".")[0]]
            fetch = _fetch_u if unsigned else _fetch_s
            a = fetch(instr.src_a, cb)
            b = fetch(instr.src_b, cb)
            dt = np.uint32 if unsigned else np.int32
            dp = instr.dst_pred

            def isetp(sm, w, gm):
                res = cmp(np.asarray(a(w), dtype=dt), b(w))
                w.preds[dp][gm] = np.asarray(res)[gm] if np.ndim(res) else res

            return isetp

        if op in (Opcode.FADD, Opcode.FSUB, Opcode.FMUL):
            a = _fetch_f(instr.src_a, cb)
            b = _fetch_f(instr.src_b, cb)
            fn = {
                Opcode.FADD: lambda x, y: x + y,
                Opcode.FSUB: lambda x, y: x - y,
                Opcode.FMUL: lambda x, y: x * y,
            }[op]
            return lambda sm, w, gm: _write_f(
                w, dst, gm, fn(np.asarray(a(w), dtype=np.float32), b(w))
            )

        if op == Opcode.FFMA:
            a = _fetch_f(instr.src_a, cb)
            b = _fetch_f(instr.src_b, cb)
            c = _fetch_f(instr.src_c, cb)
            return lambda sm, w, gm: _write_f(
                w, dst, gm, np.asarray(a(w), dtype=np.float32) * b(w) + c(w)
            )

        if op == Opcode.FMNMX:
            a = _fetch_f(instr.src_a, cb)
            b = _fetch_f(instr.src_b, cb)
            red = np.fmin if mod == "MIN" else np.fmax
            return lambda sm, w, gm: _write_f(
                w, dst, gm, red(np.asarray(a(w), dtype=np.float32), b(w))
            )

        if op == Opcode.FSETP:
            cmp = _CMP_FNS[mod]
            a = _fetch_f(instr.src_a, cb)
            b = _fetch_f(instr.src_b, cb)
            dp = instr.dst_pred

            def fsetp(sm, w, gm):
                res = cmp(np.asarray(a(w), dtype=np.float32), b(w))
                w.preds[dp][gm] = np.asarray(res)[gm] if np.ndim(res) else res

            return fsetp

        if op == Opcode.FABS:
            a = _fetch_f(instr.src_a, cb)
            return lambda sm, w, gm: _write_f(
                w, dst, gm, np.abs(np.asarray(a(w), dtype=np.float32))
            )

        if op == Opcode.FNEG:
            a = _fetch_f(instr.src_a, cb)
            return lambda sm, w, gm: _write_f(
                w, dst, gm, -np.asarray(a(w), dtype=np.float32)
            )

        if op == Opcode.MUFU:
            a = _fetch_f(instr.src_a, cb)
            fn = {
                "RCP": lambda x: np.float32(1.0) / x,
                "SQRT": np.sqrt,
                "RSQ": lambda x: np.float32(1.0) / np.sqrt(x),
                "EX2": np.exp2,
                "LG2": np.log2,
            }[mod]
            return lambda sm, w, gm: _write_f(
                w, dst, gm, fn(np.asarray(a(w), dtype=np.float32))
            )

        if op == Opcode.F2I:
            a = _fetch_f(instr.src_a, cb)

            def f2i(sm, w, gm):
                # Convert through float64 so the INT32_MAX clamp is exact
                # (float32 cannot represent 2**31 - 1).
                x = np.nan_to_num(
                    np.asarray(a(w), dtype=np.float32).astype(np.float64),
                    nan=0.0, posinf=2**31 - 1, neginf=-(2**31),
                )
                clipped = np.clip(x, -(2.0**31), 2.0**31 - 1)
                _write_u(w, dst, gm, clipped.astype(np.int32).view(np.uint32))

            return f2i

        if op == Opcode.I2F:
            a = _fetch_s(instr.src_a, cb)
            return lambda sm, w, gm: _write_f(
                w, dst, gm, np.asarray(a(w), dtype=np.int32).astype(np.float32)
            )

        if op == Opcode.VOTE:
            p, pneg = instr.src_pred, instr.src_pred_neg
            dp = instr.dst_pred
            use_any = instr.modifier == "ANY"

            def vote(sm, w, gm):
                vals = (~w.preds[p] if pneg else w.preds[p])[gm]
                res = bool(vals.any()) if use_any else bool(vals.all())
                w.preds[dp][gm] = res

            return vote

        if op == Opcode.PSETP:
            pa, pa_neg = instr.src_pred, instr.src_pred_neg
            pb, pb_neg = instr.src_pred2, instr.src_pred2_neg
            dp = instr.dst_pred
            mode = instr.modifier

            def psetp(sm, w, gm):
                a_val = ~w.preds[pa] if pa_neg else w.preds[pa]
                if mode == "MOV":
                    res = a_val
                elif mode == "NOT":
                    res = ~a_val
                else:
                    b_val = ~w.preds[pb] if pb_neg else w.preds[pb]
                    if mode == "AND":
                        res = a_val & b_val
                    elif mode == "OR":
                        res = a_val | b_val
                    else:
                        res = a_val ^ b_val
                w.preds[dp][gm] = res[gm]

            return psetp

        raise IllegalInstruction(f"no ALU semantics for {instr.render()}")

    # ------------------------------------------------------------------ #
    # Memory semantics
    # ------------------------------------------------------------------ #
    def _compile_memory(self, instr: Instruction):
        op = instr.opcode
        cb = self.const_bank
        offset = instr.mem_offset
        base_fetch = _fetch_u(instr.src_a, cb)
        lat = self.config.latencies

        if op in (Opcode.LD, Opcode.LDT):
            dst = instr.dst
            is_tex = op == Opcode.LDT

            def load(sm, w, gm):
                addrs_all = np.asarray(base_fetch(w), dtype=np.int64) + offset
                lanes = np.nonzero(gm)[0]
                addrs = (
                    addrs_all[lanes]
                    if addrs_all.ndim
                    else np.full(len(lanes), addrs_all, dtype=np.int64)
                )
                sm.gpu.mem.check_word_addresses(addrs)
                cache = sm.l1t if is_tex else sm.l1d
                lb = cache.geo.line_bytes
                lines = addrs & ~np.int64(lb - 1)
                now = sm.gpu.now
                row = w.bank.regs[dst] if dst != RZ else None
                first = int(lines[0])
                if (lines == first).all():
                    # Coalesced: one line, no split (same order and effects).
                    data, latency = cache.read_line(first, lb, now)
                    if row is not None:
                        row[lanes] = data.view("<u4")[(addrs - first) >> 2]
                    return latency
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

        if op == Opcode.ST:
            data_fetch = _fetch_u(instr.src_b, cb)

            def store(sm, w, gm):
                addrs_all = np.asarray(base_fetch(w), dtype=np.int64) + offset
                lanes = np.nonzero(gm)[0]
                addrs = (
                    addrs_all[lanes]
                    if addrs_all.ndim
                    else np.full(len(lanes), addrs_all, dtype=np.int64)
                )
                sm.gpu.mem.check_word_addresses(addrs)
                vals_full = np.asarray(data_fetch(w), dtype=np.uint32)
                vals = vals_full[lanes] if vals_full.ndim else np.full(
                    len(lanes), vals_full, dtype=np.uint32
                )
                lb = sm.gpu.l2.geo.line_bytes
                lines = addrs & ~np.int64(lb - 1)
                now = sm.gpu.now
                first = int(lines[0])
                if (lines == first).all():
                    # Coalesced: one line, no split (same order and effects).
                    offs = addrs - first
                    sm.l1d.update_words_if_present(first, offs, vals)
                    sm.gpu.l2.write_words_line(first, offs, vals, now)
                    return lat.l1_hit
                for la in np.unique(lines):
                    sel = lines == la
                    offs = (addrs[sel] - la).astype(np.int64)
                    # Write-through L1 coherence update, then L2 allocate.
                    sm.l1d.update_words_if_present(int(la), offs, vals[sel])
                    sm.gpu.l2.write_words_line(int(la), offs, vals[sel], now)
                # Stores retire through the store buffer: fixed issue cost.
                return lat.l1_hit

            return store

        if op == Opcode.LDS:
            dst = instr.dst

            def lds(sm, w, gm):
                offs_all = np.asarray(base_fetch(w), dtype=np.int64) + offset
                lanes = np.nonzero(gm)[0]
                offs = (
                    offs_all[lanes]
                    if offs_all.ndim
                    else np.full(len(lanes), offs_all, dtype=np.int64)
                )
                vals = w.cta.smem.read_words(offs)
                if dst != RZ:
                    w.bank.regs[dst][lanes] = vals
                return lat.smem

            return lds

        if op == Opcode.STS:
            data_fetch = _fetch_u(instr.src_b, cb)

            def sts(sm, w, gm):
                offs_all = np.asarray(base_fetch(w), dtype=np.int64) + offset
                lanes = np.nonzero(gm)[0]
                offs = (
                    offs_all[lanes]
                    if offs_all.ndim
                    else np.full(len(lanes), offs_all, dtype=np.int64)
                )
                vals_full = np.asarray(data_fetch(w), dtype=np.uint32)
                vals = vals_full[lanes] if vals_full.ndim else np.full(
                    len(lanes), vals_full, dtype=np.uint32
                )
                w.cta.smem.write_words(offs, vals)
                return lat.smem

            return sts

        raise IllegalInstruction(f"no memory semantics for {instr.render()}")
