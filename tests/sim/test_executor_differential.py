"""Differential testing: random straight-line programs vs a NumPy oracle.

Hypothesis generates short ALU programs (integer, float and predicate
writes), each instruction optionally guarded by ``@P``/``@!P`` on
predicates seeded from lane-id compares, and runs them in blocks of up to
32 threads; we execute them on the simulator and on a direct NumPy
interpreter of the same instruction list that applies the same masks. Any
divergence is a simulator semantics bug — including a masked register or
predicate write that touches a lane it should not.

Every source of every opcode the executor compiles is drawn in each
operand form: a register, ``RZ``, an immediate or a constant-bank word
(extra launch parameters), with NaN, infinity and extreme integer words
among the values, so each specialised closure is compared bit for bit.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.config import quadro_gv100_like
from repro.isa import assemble
from repro.isa.opcodes import OPCODE_INFO, Opcode
from repro.sim import GPU

NUM_WORK_REGS = 6  # R1..R6 hold values; R0 = lane id
NUM_WORK_PREDS = 3  # P0..P2, seeded from lane-id compares
NUM_CONSTS = 4  # launch parameters after the output buffers
CONST_BASE = NUM_WORK_REGS + NUM_WORK_PREDS  # one output buffer each

_INT_OPS = ("IADD", "ISUB", "IMUL", "AND", "OR", "XOR", "SHL", "SHR",
            "SHR.S32", "IMNMX.MIN", "IMNMX.MAX")
_FLOAT_OPS = ("FADD", "FSUB", "FMUL", "FMNMX.MIN", "FMNMX.MAX")
_UNARY_OPS = ("MOV", "NOT", "IABS", "FABS", "FNEG", "MUFU.RCP", "MUFU.SQRT",
              "MUFU.RSQ", "MUFU.EX2", "MUFU.LG2", "F2I", "I2F")
_TERNARY_OPS = ("IMAD", "ISCADD", "FFMA")
_PRED_OPS = ("ISETP.LT", "ISETP.GE", "ISETP.EQ", "ISETP.NE", "ISETP.LE",
             "ISETP.GT.U32", "FSETP.LT", "FSETP.GT", "FSETP.EQ", "FSETP.NE",
             "PSETP.AND", "PSETP.OR", "PSETP.XOR", "PSETP.NOT")
_GUARDS = ("",) + tuple(f"@{neg}P{p}" for p in range(NUM_WORK_PREDS)
                        for neg in ("", "!"))
#: Words that stress conversions and NaN propagation: zeros, ones,
#: quiet and signaling NaNs of both signs, infinities, INT32 extremes
#: and floats just past the int32 range.
_SPECIAL_WORDS = (0, 1, 0xFFFFFFFF, 0x80000000, 0x7FFFFFFF, 0x3F800000,
                  0x7F800000, 0xFF800000, 0x7FC00000, 0xFFC00001,
                  0x7F800001, 0xFFA00001, 0x4F000000, 0xCF000001, 0x00000001)
_word = st.one_of(st.sampled_from(_SPECIAL_WORDS), st.integers(0, 2**32 - 1))


@st.composite
def _source(draw):
    """A register index, ``"RZ"``, a hex immediate or ``("c", k)``, the
    ``k``-th constant-bank word after the output buffers."""
    form = draw(st.sampled_from(("reg", "reg", "RZ", "imm", "const")))
    if form == "reg":
        return draw(st.integers(0, NUM_WORK_REGS))
    if form == "imm":
        return f"0x{draw(_word):x}"
    if form == "const":
        return ("c", draw(st.integers(0, NUM_CONSTS - 1)))
    return "RZ"


@st.composite
def straight_line_program(draw):
    """``(seeds, inits, consts, lines)``: the lane-id bounds of P0..P2,
    the words R1..R6 start from (XOR-ed with the lane id, so NaN payloads
    and magnitudes differ across lanes), the constant-bank words and a
    list of ``(guard, op, dst, sources)``; SEL ends its sources with
    ``("P", predicate, negated)``."""
    seeds = [draw(st.integers(0, 32)) for _ in range(NUM_WORK_PREDS)]
    inits = [draw(_word) for _ in range(NUM_WORK_REGS)]
    consts = [draw(_word) for _ in range(NUM_CONSTS)]
    pred = st.integers(0, NUM_WORK_PREDS - 1)
    n_instr = draw(st.integers(min_value=1, max_value=12))
    lines = []
    for _ in range(n_instr):
        guard = draw(st.sampled_from(_GUARDS))
        op = draw(st.sampled_from(_INT_OPS + _FLOAT_OPS + _UNARY_OPS
                                  + _TERNARY_OPS + _PRED_OPS + ("SEL",)))
        if op.startswith("PSETP"):
            dst = draw(pred)
            srcs = (draw(pred),) if op == "PSETP.NOT" else (draw(pred),
                                                            draw(pred))
        elif op in _PRED_OPS:
            dst = draw(pred)
            srcs = (draw(_source()), draw(_source()))
        else:
            dst = draw(st.integers(1, NUM_WORK_REGS))
            arity = (1 if op in _UNARY_OPS else 3 if op in _TERNARY_OPS
                     else 2)
            srcs = tuple(draw(_source()) for _ in range(arity))
            if op == "SEL":
                srcs += (("P", draw(pred), draw(st.booleans())),)
        lines.append((guard, op, dst, srcs))
    return seeds, inits, consts, lines


def _signed(x):
    return x.view(np.int32)


def _float(x):
    return x.view(np.float32)


def _float_source(token, x):
    """A float operand: registers are read as bits; an immediate or
    constant word goes through a double, so a signaling NaN arrives
    quiet (``bitcast_u2f``), and stays a scalar."""
    if isinstance(token, int):
        return _float(x)
    return np.float32(float(_float(x)))


def _f2i(x):
    x = np.asarray(x, dtype=np.float64)
    clamped = np.clip(np.where(np.isnan(x), 0.0, x), -(2.0**31), 2.0**31 - 1)
    return clamped.astype(np.int32).view(np.uint32)


_INT_FNS = {
    "IADD": lambda a, b: a + b,
    "ISUB": lambda a, b: a - b,
    "IMUL": lambda a, b: a * b,
    "AND": lambda a, b: a & b,
    "OR": lambda a, b: a | b,
    "XOR": lambda a, b: a ^ b,
    "SHL": lambda a, b: a << (b & np.uint32(31)),
    "SHR": lambda a, b: a >> (b & np.uint32(31)),
    "SHR.S32": lambda a, b: (_signed(a) >> _signed(b & np.uint32(31))
                             ).view(np.uint32),
    "IMNMX.MIN": lambda a, b: np.minimum(_signed(a), _signed(b)).view(np.uint32),
    "IMNMX.MAX": lambda a, b: np.maximum(_signed(a), _signed(b)).view(np.uint32),
    "NOT": lambda a: ~a,
    "IABS": lambda a: np.abs(_signed(a)).view(np.uint32),
    "IMAD": lambda a, b, c: a * b + c,
    "ISCADD": lambda a, b, c: (a << (c & np.uint32(31))) + b,
    "I2F": lambda a: _signed(a).astype(np.float32).view(np.uint32),
    "MOV": lambda a: a,
}
_FLOAT_FNS = {
    "FADD": lambda a, b: a + b,
    "FSUB": lambda a, b: a - b,
    "FMUL": lambda a, b: a * b,
    "FFMA": lambda a, b, c: a * b + c,
    "FMNMX.MIN": np.fmin,
    "FMNMX.MAX": np.fmax,
    "FABS": np.abs,
    "FNEG": np.negative,
    "MUFU.RCP": lambda a: np.float32(1.0) / a,
    "MUFU.SQRT": np.sqrt,
    "MUFU.RSQ": lambda a: np.float32(1.0) / np.sqrt(a),
    "MUFU.EX2": np.exp2,
    "MUFU.LG2": np.log2,
}
_CMP_FNS = {"LT": np.less, "LE": np.less_equal, "GE": np.greater_equal,
            "GT": np.greater, "EQ": np.equal, "NE": np.not_equal}


def numpy_eval(seeds, inits, consts, lines, lanes=32):
    regs = np.zeros((NUM_WORK_REGS + 1, lanes), dtype=np.uint32)
    regs[0] = np.arange(lanes, dtype=np.uint32)
    for r, word in enumerate(inits, start=1):
        regs[r] = regs[0] ^ np.uint32(word)
    preds = np.array([regs[0] < k for k in seeds])

    def value(token):
        if isinstance(token, int):
            return regs[token]
        if token == "RZ":
            return np.uint32(0)
        if isinstance(token, tuple):
            return np.uint32(consts[token[1]])
        return np.uint32(int(token, 16))

    for guard, op, dst, srcs in lines:
        if guard:
            mask = preds[int(guard[-1])]
            mask = ~mask if "!" in guard else mask
        else:
            mask = np.ones(lanes, dtype=bool)
        family, _, mod = op.partition(".")
        if family == "PSETP":
            a = preds[srcs[0]]
            res = {"AND": lambda: a & preds[srcs[1]],
                   "OR": lambda: a | preds[srcs[1]],
                   "XOR": lambda: a ^ preds[srcs[1]],
                   "NOT": lambda: ~a}[mod]()
            preds[dst] = np.where(mask, res, preds[dst])
            continue
        if family == "SEL":
            _, p, negated = srcs[2]
            cond = ~preds[p] if negated else preds[p]
            res = np.where(cond, value(srcs[0]), value(srcs[1]))
            regs[dst] = np.where(mask, res, regs[dst])
            continue
        vals = [value(src) for src in srcs]
        if family in ("ISETP", "FSETP"):
            cmp, _, width = mod.partition(".")
            if family == "FSETP":
                a, b = (_float_source(t, v) for t, v in zip(srcs, vals))
            elif width == "U32":
                a, b = vals
            else:
                a, b = (_signed(v) for v in vals)
            preds[dst] = np.where(mask, _CMP_FNS[cmp](a, b), preds[dst])
            continue
        if op in _FLOAT_FNS or op == "F2I":
            fvals = [_float_source(t, v) for t, v in zip(srcs, vals)]
            res = (_f2i(fvals[0]) if op == "F2I" else
                   np.asarray(_FLOAT_FNS[op](*fvals), dtype=np.float32
                              ).view(np.uint32))
        else:
            res = _INT_FNS[op](*vals)
        regs[dst] = np.where(mask, res, regs[dst])
    return regs, preds


def _token(op, src):
    if isinstance(src, tuple):
        if src[0] == "P":  # SEL's selecting predicate
            return f"{'!' if src[2] else ''}P{src[1]}"
        return f"c[0x0][0x{(CONST_BASE + src[1]) * 4:x}]"
    if isinstance(src, str):
        return src
    return f"P{src}" if op.startswith("PSETP") else f"R{src}"


def to_assembly(seeds, inits, lines):
    text = ["S2R R0, SR_TID.X"]
    text += [f"XOR R{r}, R0, 0x{word:x}" for r, word in enumerate(inits, start=1)]
    for p, k in enumerate(seeds):
        text.append(f"ISETP.LT P{p}, R0, 0x{k:x}")
    for guard, op, dst, srcs in lines:
        pred_dst = op.split(".")[0] in ("ISETP", "FSETP", "PSETP")
        operands = [f"P{dst}" if pred_dst else f"R{dst}"]
        operands += [_token(op, src) for src in srcs]
        text.append(f"{guard} {op} {', '.join(operands)}".strip())
    # Store every work register, then every predicate as 0/1.
    values = [f"R{r}" for r in range(1, NUM_WORK_REGS + 1)]
    for p in range(NUM_WORK_PREDS):
        text.append(f"SEL R{11 + p}, 0x1, 0x0, P{p}")
        values.append(f"R{11 + p}")
    for i, value in enumerate(values):
        text.append("SHL R10, R0, 0x2")
        text.append(f"IADD R10, R10, c[0x0][0x{i * 4:x}]")
        text.append(f"ST [R10], {value}")
    text.append("EXIT")
    return "\n".join(text)


def _assert_matches(seeds, inits, consts, lines, threads=32):
    prog = assemble(to_assembly(seeds, inits, lines), name="diff")
    gpu = GPU(quadro_gv100_like())
    bufs = [gpu.malloc(4 * 32) for _ in range(CONST_BASE)]
    gpu.launch(prog, (1, 1), (threads, 1), bufs + consts)
    regs, preds = numpy_eval(seeds, inits, consts, lines)
    expected = list(regs[1:]) + [p.astype(np.uint32) for p in preds]
    for i, buf in enumerate(bufs):
        got = gpu.memcpy_dtoh(buf, np.uint32, threads)
        assert np.array_equal(got, expected[i][:threads]), (i, seeds, lines)


@settings(max_examples=200, deadline=None)
@given(straight_line_program(),
       st.sampled_from([32, 32, 1, 7, 16, 31]))
def test_simulator_matches_numpy(program, threads):
    _assert_matches(*program, threads)


_OPERAND_OPS = (_INT_OPS + _FLOAT_OPS + _UNARY_OPS + _TERNARY_OPS
                + tuple(op for op in _PRED_OPS if not op.startswith("PSETP"))
                + ("SEL",))
#: R1..R6 start from -1, a quiet NaN, 2**31 as a float, INT32_MIN, a
#: signaling NaN and 1.0, each XOR-ed with the lane id; immediates and
#: constants are a signaling NaN, a float below INT32_MIN, 2**32 as a
#: float and a negative int that is also a NaN.
_CASE_INITS = [0xFFFFFFFF, 0x7FC00001, 0x4F000000, 0x80000000, 0xFFA00001,
               0x3F800000]
_CASE_WORDS = [0x7F800001, 0xCF000001, 0x4F800000, 0xFFFFFFF0]


@pytest.mark.parametrize("op", _OPERAND_OPS)
def test_every_operand_form_of_every_opcode(op):
    """Every pair of forms (a register, RZ, an immediate, a constant) of
    ``op``'s first two sources, the third cycling through them, over
    values a random program rarely builds: NaNs with lane-varying
    payloads in both operands, floats past the int32 range, negative
    integers."""
    forms = ("reg", "RZ", "imm", "const")
    arity = (1 if op in _UNARY_OPS else 3 if op in _TERNARY_OPS else 2)
    lines = []
    for k, pair in enumerate(itertools.product(forms, repeat=min(arity, 2))):
        chosen = pair + ((forms[k % len(forms)],) if arity == 3 else ())
        srcs = [{"reg": 1 + (slot + k) % NUM_WORK_REGS, "RZ": "RZ",
                 "imm": f"0x{_CASE_WORDS[(slot + k) % NUM_CONSTS]:x}",
                 "const": ("c", (slot + k + 1) % NUM_CONSTS)}[form]
                for slot, form in enumerate(chosen)]
        if op == "SEL":
            srcs.append(("P", k % NUM_WORK_PREDS, k % 2 == 1))
        dst = (k % NUM_WORK_PREDS if op in _PRED_OPS
               else 1 + k % NUM_WORK_REGS)
        lines.append((_GUARDS[k % len(_GUARDS)], op, dst, tuple(srcs)))
    _assert_matches([5, 17, 30], _CASE_INITS, _CASE_WORDS, lines)


def test_every_alu_opcode_is_drawn():
    """The program strategy draws every ALU opcode the executor compiles
    but S2R (the lane-id setup) and VOTE, so a specialised closure cannot
    go untested."""
    control = {Opcode.NOP, Opcode.BRA, Opcode.EXIT, Opcode.BAR}
    alu = {op.name for op, info in OPCODE_INFO.items()
           if op not in control and not info.is_memory}
    drawn = {op.split(".")[0] for op in _INT_OPS + _FLOAT_OPS + _UNARY_OPS
             + _TERNARY_OPS + _PRED_OPS + ("SEL",)}
    assert alu - drawn == {"S2R", "VOTE"}
