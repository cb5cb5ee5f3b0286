"""Kernel compilation: instruction semantics specialised into closures.

``CompiledKernel`` turns each static instruction into a tuple of
``(instr, kind, fn, latency, flags, dst)`` so the per-issue hot path does no
dict lookups or opcode branching. Semantics are lane-vectorised: an ALU
closure is specialised to its operands' forms (a register row of the bank's
uint32, int32 or float32 view, or a constant), computes a full-width
(32-lane) result with one NumPy expression and writes it in place under the
guard mask with one masked ``np.copyto``. A memory closure is specialised
the same way: its base (and a store's data) is a register row or a Python
int constant (``RZ``, an immediate or a constant-bank word, with the
offset folded in); it takes the guarded lanes with one ``nonzero``, gets
their addresses back from the bounds check as one list of Python ints and
groups cache lines from that list.

All arithmetic follows hardware conventions: 32-bit wraparound integers,
IEEE-754 binary32 floats (via views, so bit flips are exact), shift counts
masked to 5 bits, NaN-safe float-to-int conversion.
"""

from __future__ import annotations

import operator

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


#: Register-bank views (``WarpRegisters.views``) an ALU closure reads and
#: writes: the raw bits, their signed and their float reading.
U, S, F = 0, 1, 2
_VIEW_DTYPES = (np.uint32, np.int32, np.float32)


def _nop(sm, w, gm) -> None:
    """An ALU op writing RZ: the write is dropped and nothing else can
    happen (NumPy errors are ignored)."""


def _unary(f, dst, a, vin, vout):
    """``dst = f(a)`` under the guard mask, reading view ``vin`` and
    writing view ``vout``; ``a`` is a ``CompiledKernel._source`` pair."""
    ra, ka = a

    def fn(sm, w, gm):
        views = w.bank.views
        np.copyto(views[vout][dst], f(views[vin][ra] if ka is None else ka),
                  where=gm)

    return fn


def _binary(f, dst, a, b, vin, vout):
    """``dst = f(a, b)`` under the guard mask."""
    (ra, ka), (rb, kb) = a, b

    def fn(sm, w, gm):
        views = w.bank.views
        x = views[vin]
        np.copyto(views[vout][dst],
                  f(x[ra] if ka is None else ka, x[rb] if kb is None else kb),
                  where=gm)

    return fn


def _ternary(f, dst, a, b, c, vin, vout):
    """``dst = f(a, b, c)`` under the guard mask."""
    (ra, ka), (rb, kb), (rc, kc) = a, b, c

    def fn(sm, w, gm):
        views = w.bank.views
        x = views[vin]
        np.copyto(views[vout][dst],
                  f(x[ra] if ka is None else ka, x[rb] if kb is None else kb,
                    x[rc] if kc is None else kc),
                  where=gm)

    return fn


def _compare(cmp, dp, a, b, vin):
    """Predicate ``dp = cmp(a, b)`` under the guard mask."""
    (ra, ka), (rb, kb) = a, b

    def fn(sm, w, gm):
        x = w.bank.views[vin]
        np.copyto(w.preds[dp],
                  cmp(x[ra] if ka is None else ka, x[rb] if kb is None else kb),
                  where=gm)

    return fn


def _f2i(x):
    # Convert through float64 so the INT32_MAX clamp is exact (float32
    # cannot represent 2**31 - 1).
    x = np.nan_to_num(x.astype(np.float64), nan=0.0, posinf=2**31 - 1,
                      neginf=-(2**31))
    return np.clip(x, -(2.0**31), 2.0**31 - 1).astype(np.int32)


_CMP_FNS = {
    "LT": np.less,
    "LE": np.less_equal,
    "GT": np.greater,
    "GE": np.greater_equal,
    "EQ": np.equal,
    "NE": np.not_equal,
}

_INT_FNS = {
    Opcode.IADD: np.add,
    Opcode.ISUB: np.subtract,
    Opcode.IMUL: np.multiply,
    Opcode.AND: np.bitwise_and,
    Opcode.OR: np.bitwise_or,
    Opcode.XOR: np.bitwise_xor,
}

#: Operators, not ufuncs: two scalar NaN sources give scalar math's NaN.
_FLOAT_FNS = {
    Opcode.FADD: operator.add,
    Opcode.FSUB: operator.sub,
    Opcode.FMUL: operator.mul,
}

_MUFU_FNS = {
    "RCP": lambda x: np.float32(1.0) / x,
    "SQRT": np.sqrt,
    "RSQ": lambda x: np.float32(1.0) / np.sqrt(x),
    "EX2": np.exp2,
    "LG2": np.log2,
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
        #: The pcs whose issue touches only its SM's state: not an EXIT
        #: and not a global LD/LDT/ST (see ``SM.run_ahead``).
        self.local_pcs = frozenset(
            pc for pc, (_, kind, _, _, flags, _) in enumerate(self.entries)
            if kind != K_EXIT and (kind != K_MEM or flags[3]))

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
    def _source(self, op: Operand, view: int = U):
        """A source operand as ``(register, constant)``: the register row
        it reads and None, or None and its value as ``view`` (RZ reads
        0): a full-width row for the integer views, a float32 scalar for
        ``F``."""
        kind = op.kind
        if kind == OperandKind.REG:
            if op.value != RZ:
                return op.value, None
            raw = 0
        elif kind == OperandKind.IMM:
            raw = op.value
        elif kind == OperandKind.CONST:
            raw = int(self.const_bank[op.value >> 2])
        else:
            raise IllegalInstruction(f"cannot read operand kind {kind} "
                                     f"outside MOV/S2R")
        if view == F:
            # A scalar, not a row: NumPy's array-scalar loops pick a
            # different NaN operand than its array-array loops.
            return None, np.float32(bitcast_u2f(raw))
        width = self.config.warp_size
        return None, np.full(width, raw, dtype=np.uint32).view(_VIEW_DTYPES[view])

    def _compile_alu(self, instr: Instruction):
        """The closure of an ALU instruction: one NumPy expression over
        register rows and constant rows, written with one masked
        ``np.copyto``; integer results wrap at 32 bits."""
        op = instr.opcode
        dst = instr.dst if instr.dst is not None else RZ
        mod = instr.modifier
        src = self._source

        if op in (Opcode.ISETP, Opcode.FSETP):
            if op == Opcode.FSETP:
                cmp, view = _CMP_FNS[mod], F
            else:
                cmp = _CMP_FNS[mod.split(".")[0]]
                view = U if mod.endswith(".U32") else S
            return _compare(cmp, instr.dst_pred, src(instr.src_a, view),
                            src(instr.src_b, view), view)

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
                np.copyto(w.preds[dp], res, where=gm)

            return psetp

        fn = self._compile_write(instr, dst, src)
        return _nop if dst == RZ else fn

    def _compile_write(self, instr: Instruction, dst: int, src):
        """The closure of an ALU instruction that writes register ``dst``."""
        op = instr.opcode
        mod = instr.modifier

        if op in (Opcode.MOV, Opcode.S2R):
            a = instr.src_a
            if a.kind == OperandKind.SPECIAL:
                sid = a.value
                return lambda sm, w, gm: np.copyto(
                    w.bank.regs[dst], w.specials[sid], where=gm)
            ra, ka = src(a)

            def mov(sm, w, gm):
                regs = w.bank.regs
                np.copyto(regs[dst], regs[ra] if ka is None else ka, where=gm)

            return mov

        if op == Opcode.SEL:
            (ra, ka), (rb, kb) = src(instr.src_a), src(instr.src_b)
            p, pneg = instr.src_pred, instr.src_pred_neg

            def sel(sm, w, gm):
                regs = w.bank.regs
                cond = ~w.preds[p] if pneg else w.preds[p]
                np.copyto(regs[dst], np.where(cond,
                                              regs[ra] if ka is None else ka,
                                              regs[rb] if kb is None else kb),
                          where=gm)

            return sel

        if op in _INT_FNS:
            return _binary(_INT_FNS[op], dst, src(instr.src_a),
                           src(instr.src_b), U, U)

        if op in (Opcode.SHL, Opcode.SHR):
            view = S if op == Opcode.SHR and mod == "S32" else U
            b = src(instr.src_b, view)
            if b[1] is not None:  # a constant shift count
                f = np.left_shift if op == Opcode.SHL else np.right_shift
                b = (None, b[1] & 31)
            elif op == Opcode.SHL:
                f = lambda x, y: x << (y & 31)
            else:
                f = lambda x, y: x >> (y & 31)
            return _binary(f, dst, src(instr.src_a, view), b, view, view)

        if op == Opcode.NOT:
            return _unary(np.invert, dst, src(instr.src_a), U, U)

        if op == Opcode.IABS:
            return _unary(np.abs, dst, src(instr.src_a, S), S, S)

        if op == Opcode.IMAD:
            return _ternary(lambda x, y, z: x * y + z, dst, src(instr.src_a),
                            src(instr.src_b), src(instr.src_c), U, U)

        if op == Opcode.ISCADD:  # (a << (c & 31)) + b; c is the shift count
            return _ternary(lambda x, y, z: (x << (z & 31)) + y, dst,
                            src(instr.src_a), src(instr.src_b),
                            src(instr.src_c), U, U)

        if op == Opcode.IMNMX:
            red = np.minimum if mod == "MIN" else np.maximum
            return _binary(red, dst, src(instr.src_a, S), src(instr.src_b, S),
                           S, S)

        if op in _FLOAT_FNS:
            return _binary(_FLOAT_FNS[op], dst, src(instr.src_a, F),
                           src(instr.src_b, F), F, F)

        if op == Opcode.FFMA:
            return _ternary(lambda x, y, z: x * y + z, dst, src(instr.src_a, F),
                            src(instr.src_b, F), src(instr.src_c, F), F, F)

        if op == Opcode.FMNMX:
            red = np.fmin if mod == "MIN" else np.fmax
            return _binary(red, dst, src(instr.src_a, F), src(instr.src_b, F),
                           F, F)

        if op == Opcode.FABS:
            return _unary(np.abs, dst, src(instr.src_a, F), F, F)

        if op == Opcode.FNEG:
            return _unary(np.negative, dst, src(instr.src_a, F), F, F)

        if op == Opcode.MUFU:
            return _unary(_MUFU_FNS[mod], dst, src(instr.src_a, F), F, F)

        if op == Opcode.F2I:
            return _unary(_f2i, dst, src(instr.src_a, F), F, S)

        if op == Opcode.I2F:
            return _unary(lambda x: x.astype(np.float32), dst,
                          src(instr.src_a, S), S, F)

        raise IllegalInstruction(f"no ALU semantics for {instr.render()}")

    # ------------------------------------------------------------------ #
    # Memory semantics
    # ------------------------------------------------------------------ #
    def _operand(self, op: Operand):
        """A memory base or store-data operand as ``(register, constant)``:
        the register row it reads and None, or None and its value as a
        Python int (RZ reads 0)."""
        kind = op.kind
        if kind == OperandKind.REG:
            return (op.value, None) if op.value != RZ else (None, 0)
        if kind == OperandKind.IMM:
            return None, op.value
        if kind == OperandKind.CONST:
            return None, int(self.const_bank[op.value >> 2])
        raise IllegalInstruction(f"cannot address through operand kind {kind}")

    def _compile_memory(self, instr: Instruction):
        """The closure of a memory instruction. The base is a register row
        plus the offset, or a constant with the offset folded in; the
        guarded lanes come from one ``nonzero`` and their addresses are
        checked, then grouped by line, as one list of Python ints."""
        op = instr.opcode
        offset = instr.mem_offset
        ra, ka = self._operand(instr.src_a)
        if ka is not None:
            ka += offset
        lat = self.config.latencies

        def addresses(w, lanes):
            """The guarded lanes' byte addresses (or SMEM offsets), int64."""
            if ra is None:
                return np.full(lanes.size, ka, dtype=np.int64)
            addrs = w.bank.regs[ra].take(lanes).astype(np.int64)
            if offset:
                addrs += offset
            return addrs

        if op in (Opcode.LD, Opcode.LDT):
            dst = instr.dst if instr.dst != RZ else None
            is_tex = op == Opcode.LDT

            def load(sm, w, gm):
                lanes = gm.nonzero()[0]
                addrs = addresses(w, lanes)
                lane_addrs = sm.gpu.mem.check_word_addresses(addrs)
                cache = sm.l1t if is_tex else sm.l1d
                lb = cache._line_bytes
                mask = -lb
                first = min(lane_addrs) & mask
                now = sm.gpu.now
                if max(lane_addrs) & mask == first:
                    # Coalesced: one line, no split (same order and effects).
                    data, latency = cache.read_line(first, lb, now)
                    if dst is not None:
                        w.bank.regs[dst][lanes] = data.view("<u4")[
                            (addrs - first) >> 2]
                    return latency
                # Read each line once, in ascending order, into a buffer of
                # copies (a later fill may evict an earlier line's way),
                # then write the row with one gather.
                order = sorted({a & mask for a in lane_addrs})
                buf = np.empty((len(order), lb), dtype=np.uint8)
                latency = 0
                for i, la in enumerate(order):
                    buf[i], line_lat = cache.read_line(la, lb, now)
                    latency = max(latency, line_lat)
                if dst is not None:
                    wpl = lb >> 2
                    slot = {la: i * wpl for i, la in enumerate(order)}
                    low = lb - 1
                    w.bank.regs[dst][lanes] = buf.view("<u4").ravel()[
                        [slot[a & mask] + ((a & low) >> 2) for a in lane_addrs]]
                return latency

            return load

        if op == Opcode.ST:
            rd, kd = self._operand(instr.src_b)
            l1_hit = lat.l1_hit

            def store(sm, w, gm):
                lanes = gm.nonzero()[0]
                addrs = addresses(w, lanes)
                gpu = sm.gpu
                lane_addrs = gpu.mem.check_word_addresses(addrs)
                vals = (np.full(lanes.size, kd, dtype=np.uint32) if rd is None
                        else w.bank.regs[rd].take(lanes))
                l2 = gpu.l2
                mask = -l2._line_bytes
                first = min(lane_addrs) & mask
                now = gpu.now
                if max(lane_addrs) & mask == first:
                    # Coalesced: one line, no split (same order and effects).
                    offs = addrs - first
                    sm.l1d.update_words_if_present(first, offs, vals)
                    l2.write_words_line(first, offs, vals, now)
                    return l1_hit
                # Lines in ascending order, lanes in order within a line (the
                # last lane wins a duplicate address): one stable sort.
                order = sorted({a & mask for a in lane_addrs})
                lines = addrs & mask
                by_line = np.argsort(lines, kind="stable")
                lines = lines[by_line]
                offs = addrs[by_line] - lines
                vals = vals[by_line]
                bounds = np.searchsorted(lines, order).tolist()
                bounds.append(len(lines))
                for i, la in enumerate(order):
                    part = slice(bounds[i], bounds[i + 1])
                    # Write-through L1 coherence update, then L2 allocate.
                    sm.l1d.update_words_if_present(la, offs[part], vals[part])
                    l2.write_words_line(la, offs[part], vals[part], now)
                # Stores retire through the store buffer: fixed issue cost.
                return l1_hit

            return store

        smem = lat.smem

        if op == Opcode.LDS:
            dst = instr.dst if instr.dst != RZ else None

            def lds(sm, w, gm):
                lanes = gm.nonzero()[0]
                vals = w.cta.smem.read_words(addresses(w, lanes))
                if dst is not None:
                    w.bank.regs[dst][lanes] = vals
                return smem

            return lds

        if op == Opcode.STS:
            rd, kd = self._operand(instr.src_b)

            def sts(sm, w, gm):
                lanes = gm.nonzero()[0]
                offs = addresses(w, lanes)
                w.cta.smem.write_words(
                    offs, np.full(lanes.size, kd, dtype=np.uint32)
                    if rd is None else w.bank.regs[rd].take(lanes))
                return smem

            return sts

        raise IllegalInstruction(f"no memory semantics for {instr.render()}")
