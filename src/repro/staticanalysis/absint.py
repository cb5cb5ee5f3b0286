"""Value-set abstract interpretation over :class:`repro.isa.Program`.

A predication-aware abstract interpreter that computes, at every program
point, a per-register *value set*: an affine combination of launch symbols
(``tid.x``, ``ctaid.y``, loop-head phi symbols) plus a strided interval
base.  The domain mirrors :mod:`repro.sim.executor` semantics exactly —
32-bit wraparound arithmetic is modelled in Z up to congruence mod 2**32,
signed ops demand the operand range fit the signed window — so every
concrete per-lane address observed by the simulator is contained in the
abstract set (the soundness property tested across the whole suite).

The analysis is per *launch context* (:class:`repro.staticanalysis.
launches.LaunchContext`): constant-bank reads resolve to the actual
encoded parameters, so loop bounds and buffer bases are concrete.  Loop
heads get *phi symbols* with widened ranges refined by back-edge branch
conditions; a phi symbol is *cancellable* in cross-thread comparisons
(see :mod:`repro.staticanalysis.races`) when its value is CTA-uniform and
every cycle through its header passes a barrier — then two threads inside
one barrier epoch are guaranteed to observe the same value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from repro.isa.instruction import RZ, OperandKind, SpecialReg
from repro.isa.opcodes import Opcode
from repro.staticanalysis.cfg import (
    EXIT_NODE,
    build_cfg,
    guard_always_false,
    guard_always_true,
)

_MOD = 1 << 32
_S32_MIN, _S32_MAX = -(1 << 31), (1 << 31) - 1
#: Loop-head joins widen a phi range to TOP after this many updates.
_WIDEN_AFTER = 4
#: Hard cap on fixpoint block visits (irreducible-CFG backstop).
_MAX_VISITS_PER_BLOCK = 64

TID_SYMS = ("tid.x", "tid.y", "tid.z")
CTAID_SYMS = ("ctaid.x", "ctaid.y", "ctaid.z")


# --------------------------------------------------------------------- #
# Strided intervals
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class SI:
    """A strided interval ``{lo, lo+stride, ...} ∩ [lo, hi]`` over Z.

    ``stride == 0`` iff the interval is a singleton; ``lo is None``
    marks TOP (unconstrained).
    """

    lo: int | None
    hi: int | None = None
    stride: int = 0

    def __post_init__(self):
        if self.lo is None:
            object.__setattr__(self, "hi", None)
            object.__setattr__(self, "stride", 0)
            return
        hi = self.lo if self.hi is None else self.hi
        stride = self.stride
        if hi <= self.lo:
            hi, stride = self.lo, 0
        elif stride <= 0:
            stride = 1
        else:
            hi = self.lo + ((hi - self.lo) // stride) * stride
            if hi == self.lo:
                stride = 0
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "stride", stride)

    @property
    def is_top(self) -> bool:
        return self.lo is None

    @property
    def is_singleton(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    def contains(self, v: int) -> bool:
        if self.is_top:
            return True
        if not (self.lo <= v <= self.hi):
            return False
        return self.stride == 0 or (v - self.lo) % self.stride == 0

    def contains_mod32(self, v: int) -> bool:
        """Membership up to congruence mod 2**32 (uint32 wraparound)."""
        if self.is_top:
            return True
        k_lo = -((self.lo - v) // -_MOD)  # ceil((lo - v) / 2**32)
        k_hi = (self.hi - v) // _MOD  # floor((hi - v) / 2**32)
        for k in range(k_lo, k_hi + 1):
            if self.contains(v + k * _MOD):
                return True
        return False

    def add(self, other: "SI") -> "SI":
        if self.is_top or other.is_top:
            return SI_TOP
        return SI(self.lo + other.lo, self.hi + other.hi,
                  math.gcd(self.stride, other.stride))

    def neg(self) -> "SI":
        if self.is_top:
            return SI_TOP
        return SI(-self.hi, -self.lo, self.stride)

    def sub(self, other: "SI") -> "SI":
        return self.add(other.neg())

    def scale(self, c: int) -> "SI":
        if c == 0:
            return SI(0)
        if self.is_top:
            return SI_TOP
        if c > 0:
            return SI(self.lo * c, self.hi * c, self.stride * c)
        return SI(self.hi * c, self.lo * c, self.stride * -c)

    def mul(self, other: "SI") -> "SI":
        if other.is_singleton:
            return self.scale(other.lo)
        if self.is_singleton:
            return other.scale(self.lo)
        if self.is_top or other.is_top:
            return SI_TOP
        prods = [a * b for a in (self.lo, self.hi)
                 for b in (other.lo, other.hi)]
        return SI(min(prods), max(prods), 1)

    def join(self, other: "SI") -> "SI":
        if self.is_top or other.is_top:
            return SI_TOP
        lo, hi = min(self.lo, other.lo), max(self.hi, other.hi)
        if lo == hi:
            return SI(lo)
        g = math.gcd(math.gcd(self.stride, other.stride),
                     abs(self.lo - other.lo))
        return SI(lo, hi, max(g, 1))

    def meet_range(self, lo: int | None, hi: int | None) -> "SI | None":
        """Intersect with ``[lo, hi]``; ``None`` result = empty (dead path)."""
        if self.is_top:
            if lo is None or hi is None:
                # A half-open constraint cannot be represented; stay TOP.
                return SI_TOP
            return SI(lo, hi, 1) if lo <= hi else None
        new_lo = self.lo if lo is None else max(self.lo, lo)
        new_hi = self.hi if hi is None else min(self.hi, hi)
        if new_lo > new_hi:
            return None
        if self.stride:
            # Snap the bounds onto the congruence class of lo.
            off = (new_lo - self.lo) % self.stride
            if off:
                new_lo += self.stride - off
            new_hi -= (new_hi - self.lo) % self.stride
            if new_lo > new_hi:
                return None
        return SI(new_lo, new_hi, self.stride)

    def intersects_range(self, lo: int, hi: int) -> bool:
        """Does the set meet the closed range ``[lo, hi]``?"""
        if self.is_top:
            return True
        return self.meet_range(lo, hi) is not None


SI_TOP = SI(None)


def _decode_s32(raw: int) -> int:
    return raw - _MOD if raw >= 0x80000000 else raw


# --------------------------------------------------------------------- #
# Affine values
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class AVal:
    """``sum(c_i * sym_i) + base`` — an affine value set.

    ``coeffs`` is a sorted tuple of ``(symbol, coefficient)`` pairs with
    nonzero coefficients; ``base`` a strided interval.  ``base_uniform``
    records whether the non-symbolic part was computed from CTA-uniform
    inputs (consts, params, uniform phis) — symbolic uniformity is
    decided structurally from the symbols themselves.
    """

    coeffs: tuple = ()
    base: SI = SI(0)
    base_uniform: bool = True

    @property
    def is_top(self) -> bool:
        return not self.coeffs and self.base.is_top


AVAL_TOP = AVal((), SI_TOP, False)
AVAL_ZERO = AVal()


def aval_const(v: int, uniform: bool = True) -> AVal:
    return AVal((), SI(v), uniform)


def _mk(coeffs: dict, base: SI, uniform: bool) -> AVal:
    items = tuple(sorted((s, c) for s, c in coeffs.items() if c))
    return AVal(items, base, uniform)


def aval_add(a: AVal, b: AVal) -> AVal:
    coeffs = dict(a.coeffs)
    for s, c in b.coeffs:
        coeffs[s] = coeffs.get(s, 0) + c
    return _mk(coeffs, a.base.add(b.base),
               a.base_uniform and b.base_uniform)


def aval_neg(a: AVal) -> AVal:
    return _mk({s: -c for s, c in a.coeffs}, a.base.neg(), a.base_uniform)


def aval_sub(a: AVal, b: AVal) -> AVal:
    return aval_add(a, aval_neg(b))


def aval_scale(a: AVal, c: int) -> AVal:
    if c == 0:
        return AVAL_ZERO
    return _mk({s: k * c for s, k in a.coeffs}, a.base.scale(c),
               a.base_uniform)


# --------------------------------------------------------------------- #
# Predicate facts
# --------------------------------------------------------------------- #

_NEG_OP = {"LT": "GE", "GE": "LT", "LE": "GT", "GT": "LE",
           "EQ": "NE", "NE": "EQ"}


@dataclass(frozen=True)
class Atom:
    """One comparison fact: ``reg <op> rhs`` (rhs snapshot at ISETP time).

    ``lhs_val``/``rhs_val`` keep the *affine* operand snapshots so relational
    facts between symbols survive (e.g. ``tid.x <= phi`` from a reduction
    guard); the SI ``rhs`` snapshot feeds the simpler interval refinements.
    """

    reg: int
    op: str
    rhs: SI
    signed: bool
    lhs_val: "AVal | None" = None
    rhs_val: "AVal | None" = None


@dataclass(frozen=True)
class PredInfo:
    """What is known about a predicate register: a conjunction of atoms."""

    atoms: tuple = ()
    uniform: bool = False


PRED_UNKNOWN = PredInfo((), False)


def _negate(info: PredInfo) -> PredInfo:
    """``not info`` — only exact for single-atom conjunctions."""
    if len(info.atoms) != 1:
        return PredInfo((), info.uniform)
    a = info.atoms[0]
    return PredInfo((Atom(a.reg, _NEG_OP[a.op], a.rhs, a.signed,
                          a.lhs_val, a.rhs_val),),
                    info.uniform)


def _atom_bounds(atom: Atom) -> tuple[int | None, int | None]:
    """The ``[lo, hi]`` constraint an atom places on its register value."""
    if atom.rhs.is_top:
        return None, None
    if atom.op == "LT":
        return None, atom.rhs.hi - 1
    if atom.op == "LE":
        return None, atom.rhs.hi
    if atom.op == "GT":
        return atom.rhs.lo + 1, None
    if atom.op == "GE":
        return atom.rhs.lo, None
    if atom.op == "EQ":
        return atom.rhs.lo, atom.rhs.hi
    return None, None  # NE carves no contiguous range


#: Bounds that ``lhs - rhs`` satisfies when ``lhs <op> rhs`` holds.
_REL_BOUNDS = {"LT": (None, -1), "LE": (None, 0), "GT": (1, None),
               "GE": (0, None), "EQ": (0, 0)}


@dataclass(frozen=True)
class Constraint:
    """A linear fact over launch symbols: ``sum(c_i * sym_i) ∈ [lo, hi]``.

    Constraints are harvested from branch/guard atoms whose operands are
    affine in several symbols (where plain interval refinement is blind) —
    e.g. a reduction guard ``tid.x < stride`` becomes
    ``tid.x - phi ∈ [-inf, -1]``.  They filter the exact enumerations in
    OOB and race checks.
    """

    coeffs: tuple
    lo: int | None = None
    hi: int | None = None

    def sort_key(self):
        return (self.coeffs, self.lo is not None, self.lo or 0,
                self.hi is not None, self.hi or 0)


def _atom_constraint(atom: Atom) -> "Constraint | None":
    """The symbolic constraint an atom implies, or None."""
    if atom.lhs_val is None:
        return None
    bounds = _REL_BOUNDS.get(atom.op)
    if bounds is None:
        return None
    lo, hi = bounds
    rhs = atom.rhs_val if atom.rhs_val is not None \
        else AVal((), atom.rhs, True)
    d = aval_sub(atom.lhs_val, rhs)
    if d.base.is_top:
        return None
    # sum(c*s) + b ∈ [lo, hi] with b ∈ base  =>  sum(c*s) ∈ widened bounds
    clo = None if lo is None else lo - d.base.hi
    chi = None if hi is None else hi - d.base.lo
    if clo is None and chi is None:
        return None
    return Constraint(d.coeffs, clo, chi)


# --------------------------------------------------------------------- #
# Abstract state
# --------------------------------------------------------------------- #

class AbsState:
    """Register values, predicate facts, symbol ranges and constraints."""

    __slots__ = ("regs", "preds", "sym_ranges", "constraints")

    def __init__(self, regs=None, preds=None, sym_ranges=None,
                 constraints: frozenset = frozenset()):
        self.regs: dict[int, AVal] = regs if regs is not None else {}
        self.preds: dict[int, PredInfo] = preds if preds is not None else {}
        self.sym_ranges: dict[str, SI] = (
            sym_ranges if sym_ranges is not None else {})
        self.constraints: frozenset = constraints

    def copy(self) -> "AbsState":
        return AbsState(dict(self.regs), dict(self.preds),
                        dict(self.sym_ranges), self.constraints)

    def reg(self, r: int) -> AVal:
        if r == RZ:
            return AVAL_ZERO
        return self.regs.get(r, AVAL_ZERO)  # registers zero-initialised

    def __eq__(self, other):
        return (isinstance(other, AbsState) and self.regs == other.regs
                and self.preds == other.preds
                and self.sym_ranges == other.sym_ranges
                and self.constraints == other.constraints)

    def __hash__(self):  # pragma: no cover - states are not dict keys
        raise TypeError("AbsState is mutable")


@dataclass
class PhiInfo:
    """Metadata for a loop-head phi symbol."""

    header: int
    reg: int
    range: SI = field(default_factory=lambda: SI(0))
    uniform: bool = True
    updates: int = 0
    seeded: bool = False


@dataclass
class AccessInfo:
    """One static memory access with its abstract address set."""

    index: int
    opcode: Opcode
    is_store: bool
    is_shared: bool
    value: AVal
    sym_ranges: dict
    block: int
    feasible: bool = True
    constraints: tuple = ()


class _PVal:
    """A register split by one guard level: value-if-taken / otherwise."""

    __slots__ = ("tag", "taken", "skipped")

    def __init__(self, tag, taken: AVal, skipped: AVal):
        self.tag = tag
        self.taken = taken
        self.skipped = skipped


def _join_val(a: AVal, b: AVal) -> AVal:
    """Control-flow join of two affine values (path condition unknown)."""
    if a == b:
        return a
    if a.coeffs == b.coeffs:
        return AVal(a.coeffs, a.base.join(b.base), False)
    return AVAL_TOP if a.is_top or b.is_top else None  # caller folds


_WINDOW_U = (0, _MOD - 1)
_WINDOW_S = (_S32_MIN, _S32_MAX)


# --------------------------------------------------------------------- #
# The interpreter
# --------------------------------------------------------------------- #

class AbstractInterpretation:
    """Fixpoint value-set analysis of one program under one launch.

    ``ctx`` must provide ``grid``, ``block`` (dim tuples), ``const_bank``
    (encoded params), ``smem_bytes`` and ``warp_size`` — see
    :class:`repro.staticanalysis.launches.LaunchContext`.
    """

    def __init__(self, program, ctx):
        self.program = program
        self.ctx = ctx
        self.cfg = build_cfg(program)
        self.phi: dict[str, PhiInfo] = {}
        self.degraded = False
        self._headers = {h for _, h in self.cfg.back_edges()}
        self._back_edges = set(self.cfg.back_edges())
        self._edge_cond_uniform: dict[tuple, bool] = {}
        self._in_states: dict[int, AbsState] = {}
        self._edge_states: dict[tuple, AbsState] = {}
        self._block_sets = {}  # final collapsed in-states per block
        self.accesses: dict[int, AccessInfo] = {}
        #: Converged uniformity of each conditional BRA's guard predicate
        #: (block index -> bool); absent = unconditional terminator.
        self.branch_uniform: dict[int, bool] = {}
        bx, by, bz = self._dim3(ctx.block)
        gx, gy, gz = self._dim3(ctx.grid)
        self._defaults = {
            "tid.x": SI(0, bx - 1, 1), "tid.y": SI(0, by - 1, 1),
            "tid.z": SI(0, bz - 1, 1), "ctaid.x": SI(0, gx - 1, 1),
            "ctaid.y": SI(0, gy - 1, 1), "ctaid.z": SI(0, gz - 1, 1),
        }
        self._nthreads = bx * by * bz
        self._thresholds = self._collect_thresholds()
        self._run_fixpoint()
        if not self.degraded:
            self._final_pass()

    @staticmethod
    def _dim3(dims) -> tuple[int, int, int]:
        t = tuple(dims) + (1, 1, 1)
        return t[0], t[1], t[2]

    def _collect_thresholds(self) -> list[int]:
        """Candidate widening bounds: every comparison constant in sight.

        Loop bounds are almost always immediates or kernel parameters, so
        the signed decodes of all IMM operands and const-bank words (±1 for
        strict/inclusive flavours) make good widening targets.
        """
        vals = {0, self._nthreads}
        for instr in self.program.instructions:
            for op in (instr.src_a, instr.src_b, instr.src_c):
                if op is not None and op.kind == OperandKind.IMM:
                    vals.add(_decode_s32(op.value))
        for raw in self.ctx.const_bank:
            vals.add(_decode_s32(int(raw)))
        out = set()
        for v in vals:
            out.update((v - 1, v, v + 1))
        return sorted(out)

    # ---------------------------------------------------------- symbols
    def sym_range(self, sym: str, state: "AbsState | None" = None,
                  overrides: dict | None = None) -> SI:
        ranges = overrides if overrides is not None else (
            state.sym_ranges if state is not None else {})
        if sym in ranges:
            return ranges[sym]
        if sym in self._defaults:
            return self._defaults[sym]
        info = self.phi.get(sym)
        return info.range if info is not None else SI_TOP

    def sym_uniform(self, sym: str) -> bool:
        if sym.startswith("ctaid."):
            return True
        if sym in self._defaults:
            return False  # tid.*
        info = self.phi.get(sym)
        return info is not None and info.uniform

    def is_uniform(self, val: AVal) -> bool:
        """Is the value the same for every thread of one CTA?"""
        if not val.base_uniform:
            return False
        return all(self.sym_uniform(s) for s, _ in val.coeffs)

    def fold(self, val: AVal, state=None, syms=None,
             overrides=None) -> AVal:
        """Fold (some) symbols of ``val`` into its interval base."""
        if val.is_top:
            return AVAL_TOP
        keep: dict[str, int] = {}
        base, uniform = val.base, val.base_uniform
        for s, c in val.coeffs:
            if syms is not None and s not in syms:
                keep[s] = c
                continue
            base = base.add(self.sym_range(s, state, overrides).scale(c))
            uniform = uniform and self.sym_uniform(s)
        return _mk(keep, base, uniform)

    def concretize(self, val: AVal, state=None, overrides=None) -> SI:
        return self.fold(val, state, None, overrides).base

    def join_vals(self, a: AVal, b: AVal, state=None) -> AVal:
        j = _join_val(a, b)
        if j is not None:
            return j
        return AVal((), self.concretize(a, state).join(
            self.concretize(b, state)), False)

    def cancellable(self, sym: str) -> bool:
        """May ``sym`` be assumed equal across threads in one epoch?"""
        if sym.startswith("ctaid."):
            return True  # races are tested within one CTA
        info = self.phi.get(sym)
        if info is None or not info.uniform:
            return False
        return not self._barrier_free_cycle(info.header)

    def _barrier_free_cycle(self, header: int) -> bool:
        """Is there a cycle through ``header`` that crosses no BAR?"""
        seen, stack = set(), [header]
        while stack:
            u = stack.pop()
            blk = self.cfg.blocks[u]
            if self.program[blk.end - 1].opcode == Opcode.BAR:
                continue  # leaving u crosses its barrier
            for v in blk.successors:
                if v == header:
                    return True
                if v >= 0 and v not in seen:
                    seen.add(v)
                    stack.append(v)
        return False

    # ------------------------------------------------------- operand eval
    def _window(self, val: AVal, state, lo: int, hi: int) -> AVal:
        """Shift ``val`` by k*2**32 so its range fits ``[lo, hi]``.

        Returns TOP when the set straddles the window (the concrete
        uint32/int32 representative is then not an affine image).
        """
        rng = self.concretize(val, state)
        if rng.is_top:
            return AVAL_TOP
        if lo <= rng.lo and rng.hi <= hi:
            return val
        for k in (-1, 1):
            if lo <= rng.lo + k * _MOD and rng.hi + k * _MOD <= hi:
                return aval_add(val, aval_const(k * _MOD))
        return AVAL_TOP

    def _special(self, sid: int) -> AVal:
        if sid == SpecialReg.TID_X:
            return AVal((("tid.x", 1),), SI(0), True)
        if sid == SpecialReg.TID_Y:
            return AVal((("tid.y", 1),), SI(0), True)
        if sid == SpecialReg.TID_Z:
            return AVal((("tid.z", 1),), SI(0), True)
        if sid == SpecialReg.CTAID_X:
            return AVal((("ctaid.x", 1),), SI(0), True)
        if sid == SpecialReg.CTAID_Y:
            return AVal((("ctaid.y", 1),), SI(0), True)
        if sid == SpecialReg.CTAID_Z:
            return AVal((("ctaid.z", 1),), SI(0), True)
        bx, by, bz = self._dim3(self.ctx.block)
        gx, gy, gz = self._dim3(self.ctx.grid)
        if sid == SpecialReg.NTID_X:
            return aval_const(bx)
        if sid == SpecialReg.NTID_Y:
            return aval_const(by)
        if sid == SpecialReg.NTID_Z:
            return aval_const(bz)
        if sid == SpecialReg.NCTAID_X:
            return aval_const(gx)
        if sid == SpecialReg.NCTAID_Y:
            return aval_const(gy)
        if sid == SpecialReg.NCTAID_Z:
            return aval_const(gz)
        warp = getattr(self.ctx, "warp_size", 32)
        if sid == SpecialReg.LANEID:
            return AVal((), SI(0, min(warp, self._nthreads) - 1, 1), False)
        if sid == SpecialReg.WARPID:
            return AVal((), SI(0, (self._nthreads - 1) // warp, 1), False)
        return AVAL_TOP

    def _operand(self, op, read, signed: bool) -> AVal:
        kind = op.kind
        if kind == OperandKind.REG:
            return read(op.value)
        if kind == OperandKind.IMM:
            raw = op.value
            return aval_const(_decode_s32(raw) if signed else raw)
        if kind == OperandKind.CONST:
            slot = op.value >> 2
            bank = self.ctx.const_bank
            if slot >= len(bank):
                return AVAL_TOP
            raw = int(bank[slot])
            return aval_const(_decode_s32(raw) if signed else raw)
        if kind == OperandKind.SPECIAL:
            return self._special(op.value)
        return AVAL_TOP

    # ------------------------------------------------------ ALU transfer
    def _eval_alu(self, instr, read, state) -> AVal:
        op = instr.opcode
        mod = instr.modifier

        if op in (Opcode.MOV, Opcode.S2R):
            return self._operand(instr.src_a, read, signed=True)

        if op == Opcode.SEL:
            a = self._operand(instr.src_a, read, signed=True)
            b = self._operand(instr.src_b, read, signed=True)
            info = state.preds.get(instr.src_pred, PRED_UNKNOWN)
            j = self.join_vals(a, b, state)
            if a != b and not info.uniform and j.base_uniform:
                j = AVal(j.coeffs, j.base, False)
            return j

        if op in (Opcode.IADD, Opcode.ISUB, Opcode.IMUL):
            a = self._operand(instr.src_a, read, signed=True)
            b = self._operand(instr.src_b, read, signed=True)
            if op == Opcode.IADD:
                return aval_add(a, b)
            if op == Opcode.ISUB:
                return aval_sub(a, b)
            ca, cb = self.concretize(a, state), self.concretize(b, state)
            if cb.is_singleton:
                return aval_scale(a, cb.lo)
            if ca.is_singleton:
                return aval_scale(b, ca.lo)
            return AVal((), ca.mul(cb), a.base_uniform and b.base_uniform)

        if op == Opcode.IMAD:
            a = self._operand(instr.src_a, read, signed=True)
            b = self._operand(instr.src_b, read, signed=True)
            c = self._operand(instr.src_c, read, signed=True)
            ca, cb = self.concretize(a, state), self.concretize(b, state)
            if cb.is_singleton:
                prod = aval_scale(a, cb.lo)
            elif ca.is_singleton:
                prod = aval_scale(b, ca.lo)
            else:
                prod = AVal((), ca.mul(cb),
                            a.base_uniform and b.base_uniform)
            return aval_add(prod, c)

        if op == Opcode.ISCADD:  # (a << shift) + b
            a = self._operand(instr.src_a, read, signed=True)
            b = self._operand(instr.src_b, read, signed=True)
            sh = self.concretize(
                self._operand(instr.src_c, read, signed=False), state)
            if not sh.is_singleton:
                return AVAL_TOP
            return aval_add(aval_scale(a, 1 << (sh.lo & 31)), b)

        if op == Opcode.SHL:
            a = self._operand(instr.src_a, read, signed=True)
            sh = self.concretize(
                self._operand(instr.src_b, read, signed=False), state)
            if not sh.is_singleton:
                return AVAL_TOP
            return aval_scale(a, 1 << (sh.lo & 31))

        if op == Opcode.SHR:
            signed = mod == "S32"
            lo, hi = _WINDOW_S if signed else _WINDOW_U
            a = self._window(
                self._operand(instr.src_a, read, signed=signed),
                state, lo, hi)
            sh = self.concretize(
                self._operand(instr.src_b, read, signed=False), state)
            if a.is_top or not sh.is_singleton:
                return AVAL_TOP
            c = sh.lo & 31
            if c == 0:
                return a
            rng = self.concretize(a, state)
            if not signed and rng.lo < 0:
                return AVAL_TOP
            unit = 1 << c
            stride = (rng.stride // unit if rng.stride % unit == 0
                      else (0 if rng.is_singleton else 1))
            return AVal((), SI(rng.lo >> c, rng.hi >> c, stride),
                        a.base_uniform)

        if op == Opcode.AND:
            return self._eval_and(instr, read, state)

        if op == Opcode.OR:
            a = self._window(self._operand(instr.src_a, read, False),
                             state, *_WINDOW_U)
            b = self._window(self._operand(instr.src_b, read, False),
                             state, *_WINDOW_U)
            ca, cb = self.concretize(a, state), self.concretize(b, state)
            if ca.is_singleton and cb.is_singleton:
                return aval_const(ca.lo | cb.lo,
                                  a.base_uniform and b.base_uniform)
            if ca.is_top or cb.is_top:
                return AVAL_TOP
            ub = (1 << max(ca.hi.bit_length(), cb.hi.bit_length())) - 1
            return AVal((), SI(max(ca.lo, cb.lo), ub, 1),
                        a.base_uniform and b.base_uniform)

        if op == Opcode.XOR:
            a = self._window(self._operand(instr.src_a, read, False),
                             state, *_WINDOW_U)
            b = self._window(self._operand(instr.src_b, read, False),
                             state, *_WINDOW_U)
            ca, cb = self.concretize(a, state), self.concretize(b, state)
            if ca.is_singleton and cb.is_singleton:
                return aval_const(ca.lo ^ cb.lo,
                                  a.base_uniform and b.base_uniform)
            if ca.is_top or cb.is_top:
                return AVAL_TOP
            ub = (1 << max(ca.hi.bit_length(), cb.hi.bit_length())) - 1
            return AVal((), SI(0, ub, 1),
                        a.base_uniform and b.base_uniform)

        if op == Opcode.NOT:  # ~x == -x - 1 (mod 2**32): exact and affine
            a = self._operand(instr.src_a, read, signed=True)
            return aval_add(aval_neg(a), aval_const(-1))

        if op == Opcode.IABS:
            a = self._window(self._operand(instr.src_a, read, True),
                             state, *_WINDOW_S)
            rng = self.concretize(a, state)
            if rng.is_top:
                return AVAL_TOP
            if rng.lo >= 0:
                return a
            if rng.hi <= 0:
                return aval_neg(a)
            return AVal((), SI(0, max(-rng.lo, rng.hi), 1), a.base_uniform)

        if op == Opcode.IMNMX:
            a = self._window(self._operand(instr.src_a, read, True),
                             state, *_WINDOW_S)
            b = self._window(self._operand(instr.src_b, read, True),
                             state, *_WINDOW_S)
            ra, rb = self.concretize(a, state), self.concretize(b, state)
            if ra.is_top or rb.is_top:
                return AVAL_TOP
            if mod == "MIN":
                if ra.hi <= rb.lo:
                    return a
                if rb.hi <= ra.lo:
                    return b
                return AVal((), SI(min(ra.lo, rb.lo), min(ra.hi, rb.hi),
                                   max(math.gcd(ra.stride, rb.stride), 1)),
                            a.base_uniform and b.base_uniform)
            if ra.lo >= rb.hi:
                return a
            if rb.lo >= ra.hi:
                return b
            return AVal((), SI(max(ra.lo, rb.lo), max(ra.hi, rb.hi),
                               max(math.gcd(ra.stride, rb.stride), 1)),
                        a.base_uniform and b.base_uniform)

        # Float ops, conversions, MUFU, loads of any flavour: no affine
        # model — the value set is unconstrained (soundly TOP).
        return AVAL_TOP

    def _eval_and(self, instr, read, state) -> AVal:
        a = self._window(self._operand(instr.src_a, read, False),
                         state, *_WINDOW_U)
        b = self._window(self._operand(instr.src_b, read, False),
                         state, *_WINDOW_U)
        ca, cb = self.concretize(a, state), self.concretize(b, state)
        if ca.is_singleton and cb.is_singleton:
            return aval_const(ca.lo & cb.lo,
                              a.base_uniform and b.base_uniform)
        if cb.is_singleton or ca.is_singleton:
            val, mask_si = (a, cb) if cb.is_singleton else (b, ca)
            mask = mask_si.lo
            rng = self.concretize(val, state)
            if mask == 0:
                return aval_const(0, val.base_uniform)
            if mask > 0 and (mask & (mask + 1)) == 0 and not rng.is_top:
                # mask == 2**k - 1: x & mask == x mod 2**k
                size = mask + 1
                window = (rng.lo // size) * size
                if rng.hi < window + size:
                    # the whole set sits in one aligned window: affine
                    return aval_add(val, aval_const(-window))
                g = math.gcd(max(rng.stride, 1), size)
                return AVal((), SI(rng.lo % g if g > 1 else 0, mask,
                                   g if g > 1 else 1), val.base_uniform)
            if mask > 0:
                return AVal((), SI(0, mask, 1), val.base_uniform)
        if ca.is_top or cb.is_top or ca.lo < 0 or cb.lo < 0:
            return AVAL_TOP
        return AVal((), SI(0, min(ca.hi, cb.hi), 1),
                    a.base_uniform and b.base_uniform)

    # -------------------------------------------------------- block walk
    def _guard_key(self, instr):
        if guard_always_true(instr):
            return None
        return (instr.guard_pred, instr.guard_neg)

    def _run_block(self, state: AbsState, block, record=None) -> AbsState:
        """Transfer one basic block; ``record(i, read, st)`` per instr."""
        regs: dict[int, object] = dict(state.regs)

        def collapse(v):
            if isinstance(v, _PVal):
                return self.join_vals(v.taken, v.skipped, state)
            return v

        def read_for(guard):
            def read(r: int) -> AVal:
                if r == RZ:
                    return AVAL_ZERO
                v = regs.get(r, AVAL_ZERO)
                if isinstance(v, _PVal):
                    return v.taken if v.tag == guard else collapse(v)
                return v
            return read

        def write(r: int, guard, val: AVal):
            if r == RZ:
                return
            drop_facts(r)
            if guard is None:
                regs[r] = val
                return
            old = regs.get(r, AVAL_ZERO)
            if isinstance(old, _PVal) and old.tag == guard:
                regs[r] = _PVal(guard, val, old.skipped)
            else:
                regs[r] = _PVal(guard, val, collapse(old))

        def drop_facts(r: int):
            for p, info in list(state.preds.items()):
                if any(a.reg == r for a in info.atoms):
                    del state.preds[p]

        def drop_pred(p: int):
            state.preds.pop(p, None)
            # Guard tags referencing the redefined predicate are stale.
            for r, v in list(regs.items()):
                if isinstance(v, _PVal) and v.tag[0] == p:
                    regs[r] = collapse(v)

        for i in range(block.start, block.end):
            instr = self.program[i]
            if guard_always_false(instr):
                continue
            guard = self._guard_key(instr)
            read = read_for(guard)
            if record is not None:
                record(i, read, AbsState(
                    {r: collapse(v) for r, v in regs.items()},
                    dict(state.preds), dict(state.sym_ranges),
                    state.constraints))
            op = instr.opcode
            if op in (Opcode.NOP, Opcode.BRA, Opcode.EXIT, Opcode.BAR):
                continue
            if op in (Opcode.ISETP, Opcode.FSETP, Opcode.PSETP,
                      Opcode.VOTE):
                dp = instr.dst_pred
                if dp is None:
                    continue
                # Evaluate the fact *before* dropping the old one: PSETP
                # frequently conjoins into its own source (AND P3, P3, P4).
                if guard is not None:
                    fact = PRED_UNKNOWN
                elif op == Opcode.ISETP:
                    fact = self._isetp_fact(instr, read, state)
                elif op == Opcode.PSETP:
                    fact = self._psetp_fact(instr, state)
                else:
                    fact = PRED_UNKNOWN
                drop_pred(dp)
                state.preds[dp] = fact
                continue
            dst = instr.dst
            if dst is None or dst == RZ:
                continue
            if instr.info.is_load:
                write(dst, guard, AVAL_TOP)
                continue
            write(dst, guard, self._eval_alu(instr, read, state))

        return AbsState({r: collapse(v) for r, v in regs.items()},
                        dict(state.preds), dict(state.sym_ranges),
                        state.constraints)

    def _isetp_fact(self, instr, read, state) -> PredInfo:
        mod = instr.modifier or ""
        unsigned = mod.endswith(".U32")
        cmp_op = mod.split(".")[0]
        if cmp_op not in _NEG_OP:
            return PRED_UNKNOWN
        signed = not unsigned
        a = self._operand(instr.src_a, read, signed=signed)
        b = self._operand(instr.src_b, read, signed=signed)
        uniform = self.is_uniform(a) and self.is_uniform(b)
        lo, hi = _WINDOW_S if signed else _WINDOW_U
        ra, rb = self.concretize(a, state), self.concretize(b, state)
        atoms = ()
        if (instr.src_a.kind == OperandKind.REG and instr.src_a.value != RZ
                and not ra.is_top and lo <= ra.lo and ra.hi <= hi
                and not rb.is_top and lo <= rb.lo and rb.hi <= hi):
            # Both sides fit the comparison window, so the machine compare
            # agrees with the integer compare: snapshot the affine operands
            # for relational constraints alongside the rhs interval.
            atoms = (Atom(instr.src_a.value, cmp_op, rb, signed, a, b),)
        return PredInfo(atoms, uniform)

    def _psetp_fact(self, instr, state) -> PredInfo:
        mode = instr.modifier
        a = state.preds.get(instr.src_pred, PRED_UNKNOWN)
        if instr.src_pred_neg:
            a = _negate(a)
        if mode == "MOV":
            return a
        if mode == "NOT":
            return _negate(a)
        b = state.preds.get(instr.src_pred2, PRED_UNKNOWN)
        if instr.src_pred2_neg:
            b = _negate(b)
        if mode == "AND":
            return PredInfo(a.atoms + b.atoms, a.uniform and b.uniform)
        return PredInfo((), a.uniform and b.uniform)

    # -------------------------------------------------------- refinement
    def constraint_sat(self, con: Constraint, state=None, overrides=None,
                       assign: dict | None = None) -> bool:
        """Can the constraint hold?  Assigned symbols are exact, the rest
        fold to their (refined) ranges — a *necessary* feasibility test."""
        acc = SI(0)
        shift = 0
        for s, c in con.coeffs:
            if assign is not None and s in assign:
                shift += c * assign[s]
            else:
                acc = acc.add(self.sym_range(s, state, overrides).scale(c))
        if acc.is_top:
            return True
        lo = None if con.lo is None else con.lo - shift
        hi = None if con.hi is None else con.hi - shift
        return acc.meet_range(lo, hi) is not None

    def _apply_atoms(self, state: AbsState, atoms) -> "AbsState | None":
        """Refine a state with comparison atoms; ``None`` = dead path."""
        for atom in atoms:
            con = _atom_constraint(atom)
            if con is not None:
                if not self.constraint_sat(con, state):
                    return None
                if con.coeffs and len(state.constraints) < 32:
                    state.constraints = state.constraints | {con}
            lo, hi = _atom_bounds(atom)
            if lo is None and hi is None:
                continue
            val = state.reg(atom.reg)
            wlo, whi = _WINDOW_S if atom.signed else _WINDOW_U
            rng = self.concretize(val, state)
            if rng.is_top or rng.lo < wlo or rng.hi > whi:
                continue  # representative may wrap: no sound refinement
            if len(val.coeffs) == 1 and val.base.is_singleton:
                sym, c = val.coeffs[0]
                b = val.base.lo
                # c*sym + b in [lo, hi]  =>  sym in the scaled range
                if c > 0:
                    slo = None if lo is None else -((lo - b) // -c)
                    shi = None if hi is None else (hi - b) // c
                else:
                    slo = None if hi is None else -((hi - b) // c)
                    shi = None if lo is None else (lo - b) // c
                cur = self.sym_range(sym, state)
                refined = cur.meet_range(slo, shi)
                if refined is None:
                    return None
                if refined != cur:
                    state.sym_ranges[sym] = refined
            elif not val.coeffs:
                refined = val.base.meet_range(lo, hi)
                if refined is None:
                    return None
                state.regs[atom.reg] = AVal((), refined, val.base_uniform)
        return state

    def _block_of(self, index: int) -> "int | None":
        table = self.cfg.block_of_instr
        if 0 <= index < len(table):
            return table[index]
        return None

    def _edge_state(self, out: AbsState, u: int, v: int) -> "AbsState | None":
        """Specialise a block's out-state for one outgoing CFG edge."""
        blk = self.cfg.blocks[u]
        term = self.program[blk.end - 1]
        st = out.copy()
        is_back = (u, v) in self._back_edges
        cond_uniform = True
        if term.opcode in (Opcode.BRA, Opcode.EXIT) \
                and not guard_always_true(term) \
                and not guard_always_false(term):
            info = st.preds.get(term.guard_pred, PRED_UNKNOWN)
            cond_uniform = info.uniform
            if term.opcode == Opcode.BRA:
                # "guard holds" on the taken edge, inverted by guard_neg;
                # the fall-through edge carries the negation.  When target
                # and fall-through coincide, no information is gained.
                target_blk = self._block_of(term.target)
                fall_blk = self._block_of(blk.end)
                taken = None if target_blk == fall_blk else (v == target_blk)
            else:  # guarded EXIT: the fall-through means "did not exit"
                taken = False
            if taken is not None:
                holds = taken != term.guard_neg
                atoms = (info if holds else _negate(info)).atoms
                if self._apply_atoms(st, atoms) is None:
                    return None
        if is_back:
            self._edge_cond_uniform[(u, v)] = cond_uniform
            # Values carrying this header's phi symbols denote the
            # *previous* reading; fold them so readings never alias.
            syms = {s for s in self.phi if self.phi[s].header == v}
            if syms:
                for r, val in list(st.regs.items()):
                    if any(s in syms for s, _ in val.coeffs):
                        st.regs[r] = self.fold(val, st, syms)
                for s in syms:
                    st.sym_ranges.pop(s, None)
                if st.constraints:
                    st.constraints = frozenset(
                        c for c in st.constraints
                        if not any(s in syms for s, _ in c.coeffs))
                for p, info in list(st.preds.items()):
                    stale = any(
                        v is not None and any(s in syms for s, _ in v.coeffs)
                        for at in info.atoms
                        for v in (at.lhs_val, at.rhs_val))
                    if stale:
                        del st.preds[p]
        return st

    # ------------------------------------------------------------- joins
    def _join_states(self, states: list[AbsState], block: int) -> AbsState:
        if len(states) == 1 and block not in self._headers:
            return states[0].copy()
        all_regs = set()
        for s in states:
            all_regs.update(s.regs)
        regs: dict[int, AVal] = {}
        changed_phi = False
        for r in sorted(all_regs):
            vals = [s.reg(r) for s in states]
            first = vals[0]
            if all(v == first for v in vals[1:]):
                regs[r] = first
                continue
            if block in self._headers:
                regs[r] = self._bind_phi(block, r, vals, states)
                changed_phi = True
            else:
                acc = first
                for v, s in zip(vals[1:], states[1:]):
                    acc = self.join_vals(acc, v, s)
                # Unequal incoming values under an unknown path condition:
                # the merged value may differ per thread.
                regs[r] = AVal(acc.coeffs, acc.base, False)
        if block in self._headers and changed_phi:
            # Loop trip counts may diverge per thread unless every
            # incoming back edge is controlled by a uniform condition.
            for (u, v), uni in self._edge_cond_uniform.items():
                if v == block and not uni:
                    for s in list(self.phi):
                        if self.phi[s].header == block:
                            self._phi_set_uniform(s, False)
        preds: dict[int, PredInfo] = {}
        for p, info in states[0].preds.items():
            if all(s.preds.get(p) == info for s in states[1:]):
                preds[p] = info
        sym_ranges: dict[str, SI] = {}
        for sym in states[0].sym_ranges:
            if all(sym in s.sym_ranges for s in states[1:]):
                acc = states[0].sym_ranges[sym]
                for s in states[1:]:
                    acc = acc.join(s.sym_ranges[sym])
                sym_ranges[sym] = acc
        constraints = states[0].constraints
        for s in states[1:]:
            constraints = constraints & s.constraints
        return AbsState(regs, preds, sym_ranges, constraints)

    def _widen_thresholds(self, old: SI, new: SI) -> SI:
        """Widen ``old ∪ new`` by jumping grown bounds to thresholds."""
        if new.is_top or old.is_top:
            return SI_TOP
        lo, hi = new.lo, new.hi
        if hi > old.hi:
            bigger = [t for t in self._thresholds if t >= hi]
            if not bigger:
                return SI_TOP
            hi = bigger[0]
        if lo < old.lo:
            smaller = [t for t in self._thresholds if t <= lo]
            if not smaller:
                return SI_TOP
            lo = smaller[-1]
        return SI(lo, hi, new.stride)

    def _phi_sym(self, block: int, reg: int) -> str:
        return f"phi:{block}:r{reg}"

    def _phi_set_uniform(self, sym: str, uniform: bool):
        info = self.phi[sym]
        if info.uniform and not uniform:
            info.uniform = False
            self._phi_dirty = True

    def _bind_phi(self, block: int, reg: int, vals, states) -> AVal:
        sym = self._phi_sym(block, reg)
        info = self.phi.get(sym)
        if info is None:
            info = PhiInfo(header=block, reg=reg)
            self.phi[sym] = info
            self._phi_dirty = True
        rngs = [self.concretize(v, s) for v, s in zip(vals, states)]
        incoming = rngs[0]
        for r in rngs[1:]:
            incoming = incoming.join(r)
        # First bind seeds the range; later binds widen it by join.
        new_range = incoming if not info.seeded else info.range.join(incoming)
        if not info.seeded or new_range != info.range:
            info.updates += 1
            if info.seeded and info.updates > _WIDEN_AFTER:
                # Widening with thresholds: jump straight to the nearest
                # comparison constant so loop counters converge in O(1)
                # instead of O(trip count); the threshold ladder runs out
                # after a few failed guesses and falls back to TOP.
                if info.updates > _WIDEN_AFTER + 6:
                    new_range = SI_TOP
                else:
                    new_range = self._widen_thresholds(info.range, new_range)
            info.range = new_range
            info.seeded = True
            self._phi_dirty = True
        if not all(self.is_uniform(v) for v in vals):
            self._phi_set_uniform(sym, False)
        return AVal(((sym, 1),), SI(0), True)

    # ---------------------------------------------------------- fixpoint
    def _run_fixpoint(self):
        from collections import deque

        entry = self.cfg.entry.index
        visits: dict[int, int] = {}
        self._phi_dirty = False
        work = deque([entry])
        queued = {entry}
        while work:
            v = work.popleft()
            queued.discard(v)
            visits[v] = visits.get(v, 0) + 1
            if visits[v] > _MAX_VISITS_PER_BLOCK:
                self.degraded = True
                return
            blk = self.cfg.blocks[v]
            incoming = [self._edge_states[(u, v)]
                        for u in blk.predecessors
                        if (u, v) in self._edge_states]
            if v == entry:
                incoming = [AbsState()] + incoming
            if not incoming:
                continue  # not reachable yet
            in_state = self._join_states(incoming, v)
            if self._phi_dirty:
                # Phi ranges/uniformity feed folds everywhere: flush the
                # convergence cache so downstream blocks recompute.
                self._phi_dirty = False
                self._in_states.clear()
                for b in range(len(self.cfg.blocks)):
                    if b != v and b not in queued:
                        work.append(b)
                        queued.add(b)
            elif self._in_states.get(v) == in_state:
                continue
            self._in_states[v] = in_state
            out = self._run_block(in_state.copy(), blk)
            for succ in blk.successors:
                if succ < 0:
                    continue
                es = self._edge_state(out, v, succ)
                key = (v, succ)
                if es is None:
                    if key in self._edge_states:
                        del self._edge_states[key]
                        if succ not in queued:
                            work.append(succ)
                            queued.add(succ)
                    continue
                if self._edge_states.get(key) != es:
                    self._edge_states[key] = es
                    if succ not in queued:
                        work.append(succ)
                        queued.add(succ)

    def _final_pass(self):
        """Record per-access address sets from the converged states."""
        for v, in_state in sorted(self._in_states.items()):
            blk = self.cfg.blocks[v]
            self._block_sets[v] = in_state

            def record(i, read, snapshot, _blk=blk):
                instr = self.program[i]
                if (i == _blk.end - 1 and instr.opcode == Opcode.BRA
                        and not guard_always_true(instr)
                        and not guard_always_false(instr)):
                    info = snapshot.preds.get(instr.guard_pred, PRED_UNKNOWN)
                    self.branch_uniform[_blk.index] = info.uniform
                if not instr.info.is_memory:
                    return
                addr = self._operand(instr.src_a, read, signed=True)
                addr = aval_add(addr, aval_const(instr.mem_offset))
                st = snapshot
                feasible = True
                guard = self._guard_key(instr)
                if guard is not None:
                    info = st.preds.get(guard[0], PRED_UNKNOWN)
                    atoms = (_negate(info) if guard[1] else info).atoms
                    refined = self._apply_atoms(st, atoms)
                    if refined is None:
                        feasible = False
                    else:
                        st = refined
                self.accesses[i] = AccessInfo(
                    index=i, opcode=instr.opcode,
                    is_store=instr.info.is_store,
                    is_shared=instr.info.is_shared,
                    value=addr, sym_ranges=dict(st.sym_ranges),
                    block=_blk.index, feasible=feasible,
                    constraints=tuple(sorted(st.constraints,
                                             key=Constraint.sort_key)))

            self._run_block(in_state.copy(), blk, record=record)

    # ------------------------------------------------------ public query
    def address_range(self, index: int) -> SI:
        """The concretized (guard-refined) address range of an access."""
        if self.degraded:
            return SI_TOP
        acc = self.accesses.get(index)
        if acc is None:
            return SI_TOP
        return self.concretize(acc.value, overrides=acc.sym_ranges)

    #: Enumeration cap for constraint-exact address ranges.
    _MAX_ADDR_ENUM = 1 << 14

    def address_range_exact(self, index: int) -> "SI | None":
        """Like :meth:`address_range` but filtered by guard constraints.

        When the access carries relational constraints over its address
        symbols (e.g. ``tid.x <= wave``), the symbol product is enumerated
        exactly and infeasible assignments are dropped.  Returns ``None``
        when *no* assignment satisfies the constraints (the access cannot
        execute), and falls back to the interval range when the product is
        unbounded or too large.
        """
        rng = self.address_range(index)
        acc = self.accesses.get(index)
        if acc is None or rng.is_top:
            return rng
        val = acc.value
        addr_syms = {s for s, _ in val.coeffs}
        cons = [c for c in acc.constraints
                if any(s in addr_syms for s, _ in c.coeffs)]
        if not cons or not val.coeffs:
            return rng
        axes = []
        total = 1
        for s, _ in val.coeffs:
            r = self.sym_range(s, overrides=acc.sym_ranges)
            if r.is_top:
                return rng
            vals = range(r.lo, r.hi + 1, r.stride or 1)
            total *= len(vals)
            if total > self._MAX_ADDR_ENUM:
                return rng
            axes.append(list(vals))
        feas = []
        for combo in itertools.product(*axes):
            assign = {s: v for (s, _), v in zip(val.coeffs, combo)}
            if all(self.constraint_sat(c, overrides=acc.sym_ranges,
                                       assign=assign) for c in cons):
                feas.append(sum(c * v for (_, c), v
                                in zip(val.coeffs, combo)))
        if not feas:
            return None
        vmin, vmax = min(feas), max(feas)
        g = 0
        for v in feas:
            g = math.gcd(g, v - vmin)
        if not val.base.is_singleton:
            g = math.gcd(g, max(val.base.stride, 1))
        return SI(vmin + val.base.lo, vmax + val.base.hi, g)

    def contains(self, index: int, addr: int, env: dict) -> bool:
        """Soundness query: is a concrete lane address in the value set?

        ``env`` maps ``tid.x``/``ctaid.y``-style symbols to the lane's
        concrete values; phi symbols range over their full intervals.
        Membership is up to congruence mod 2**32 (uint32 wraparound).
        """
        if self.degraded:
            return True
        acc = self.accesses.get(index)
        if acc is None:
            return False
        resid = addr
        rem = acc.value.base
        for s, c in acc.value.coeffs:
            if s in env:
                resid -= c * int(env[s])
            else:
                rng = self.sym_range(s, overrides=acc.sym_ranges)
                rem = rem.add(rng.scale(c))
        return rem.contains_mod32(resid)


_CACHE: dict = {}


def analyze(program, ctx) -> AbstractInterpretation:
    """Run (or fetch a cached) abstract interpretation for one launch."""
    key = (id(program), ctx)
    hit = _CACHE.get(key)
    if hit is not None and hit[0] is program:
        return hit[1]
    interp = AbstractInterpretation(program, ctx)
    if len(_CACHE) > 256:
        _CACHE.clear()
    _CACHE[key] = (program, interp)
    return interp

