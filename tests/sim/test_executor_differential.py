"""Differential testing: random straight-line programs vs a NumPy oracle.

Hypothesis generates short ALU programs (integer, float and predicate
writes), each instruction optionally guarded by ``@P``/``@!P`` on
predicates seeded from lane-id compares, and runs them in blocks of up to
32 threads; we execute them on the simulator and on a direct NumPy
interpreter of the same instruction list that applies the same masks. Any
divergence is a simulator semantics bug — including a masked register or
predicate write that touches a lane it should not.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.config import quadro_gv100_like
from repro.isa import assemble
from repro.sim import GPU

NUM_WORK_REGS = 6  # R1..R6 hold values; R0 = lane id
NUM_WORK_PREDS = 3  # P0..P2, seeded from lane-id compares

_INT_OPS = ("IADD", "ISUB", "IMUL", "AND", "OR", "XOR", "SHL", "SHR",
            "IMNMX.MIN", "IMNMX.MAX")
_FLOAT_OPS = ("FADD", "FMUL", "FFMA")
_PRED_OPS = ("ISETP.LT", "ISETP.GE", "ISETP.EQ", "ISETP.NE", "FSETP.LT",
             "FSETP.GT", "PSETP.AND", "PSETP.OR", "PSETP.XOR", "PSETP.NOT")
_GUARDS = ("",) + tuple(f"@{neg}P{p}" for p in range(NUM_WORK_PREDS)
                        for neg in ("", "!"))


@st.composite
def straight_line_program(draw):
    """``(seeds, lines)``: the lane-id bounds of P0..P2 and a list of
    ``(guard, op, dst, sources)`` with register/predicate indices or a hex
    immediate as the last source."""
    seeds = [draw(st.integers(0, 32)) for _ in range(NUM_WORK_PREDS)]
    reg = st.integers(0, NUM_WORK_REGS)
    pred = st.integers(0, NUM_WORK_PREDS - 1)
    n_instr = draw(st.integers(min_value=1, max_value=12))
    lines = []
    for _ in range(n_instr):
        guard = draw(st.sampled_from(_GUARDS))
        op = draw(st.sampled_from(_INT_OPS + _FLOAT_OPS + _PRED_OPS))
        if op.startswith("PSETP"):
            dst = draw(pred)
            srcs = (draw(pred),) if op == "PSETP.NOT" else (draw(pred),
                                                            draw(pred))
        elif op in _PRED_OPS:
            dst = draw(pred)
            srcs = (draw(reg), draw(reg))
        else:
            dst = draw(st.integers(1, NUM_WORK_REGS))
            srcs = tuple(draw(reg) for _ in range(3 if op == "FFMA" else 2))
        if op in _INT_OPS or op.startswith("ISETP"):
            if draw(st.booleans()):
                srcs = srcs[:-1] + (f"0x{draw(st.integers(0, 2**32 - 1)):x}",)
        lines.append((guard, op, dst, srcs))
    return seeds, lines


def _signed(x):
    return x.view(np.int32) if np.ndim(x) else np.int32(
        int(x) - 2**32 if int(x) >= 2**31 else int(x))


def _float(x):
    return x.view(np.float32)


_INT_FNS = {
    "IADD": lambda a, b: a + b,
    "ISUB": lambda a, b: a - b,
    "IMUL": lambda a, b: a * b,
    "AND": lambda a, b: a & b,
    "OR": lambda a, b: a | b,
    "XOR": lambda a, b: a ^ b,
    "SHL": lambda a, b: a << (b & np.uint32(31)),
    "SHR": lambda a, b: a >> (b & np.uint32(31)),
    "IMNMX.MIN": lambda a, b: np.minimum(_signed(a), _signed(b)).view(np.uint32),
    "IMNMX.MAX": lambda a, b: np.maximum(_signed(a), _signed(b)).view(np.uint32),
}
_CMP_FNS = {"LT": np.less, "GE": np.greater_equal, "GT": np.greater,
            "EQ": np.equal, "NE": np.not_equal}


def numpy_eval(seeds, lines, lanes=32):
    regs = np.zeros((NUM_WORK_REGS + 1, lanes), dtype=np.uint32)
    regs[0] = np.arange(lanes, dtype=np.uint32)
    preds = np.array([regs[0] < k for k in seeds])

    def value(token):
        if isinstance(token, str):
            return np.uint32(int(token, 16))
        return regs[token]

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
        a, b = regs[srcs[0]], value(srcs[1])
        if family == "ISETP":
            res = _CMP_FNS[mod](_signed(a), _signed(b))
            preds[dst] = np.where(mask, res, preds[dst])
            continue
        if family == "FSETP":
            res = _CMP_FNS[mod](_float(a), _float(b))
            preds[dst] = np.where(mask, res, preds[dst])
            continue
        if op == "FADD":
            res = (_float(a) + _float(b)).view(np.uint32)
        elif op == "FMUL":
            res = (_float(a) * _float(b)).view(np.uint32)
        elif op == "FFMA":
            res = (_float(a) * _float(b) + _float(regs[srcs[2]])).view(np.uint32)
        else:
            res = _INT_FNS[op](a, b)
        regs[dst] = np.where(mask, res, regs[dst])
    return regs, preds


def to_assembly(seeds, lines):
    text = ["S2R R0, SR_TID.X"]
    for p, k in enumerate(seeds):
        text.append(f"ISETP.LT P{p}, R0, 0x{k:x}")
    for guard, op, dst, srcs in lines:
        pred_dst = op.split(".")[0] in ("ISETP", "FSETP", "PSETP")
        operands = [f"P{dst}" if pred_dst else f"R{dst}"]
        for src in srcs:
            if isinstance(src, str):
                operands.append(src)
            else:
                operands.append(f"P{src}" if op.startswith("PSETP") else f"R{src}")
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


@settings(max_examples=60, deadline=None)
@given(straight_line_program(),
       st.sampled_from([32, 32, 1, 7, 16, 31]))
def test_simulator_matches_numpy(program, threads):
    seeds, lines = program
    prog = assemble(to_assembly(seeds, lines), name="diff")
    gpu = GPU(quadro_gv100_like())
    bufs = [gpu.malloc(4 * 32) for _ in range(NUM_WORK_REGS + NUM_WORK_PREDS)]
    gpu.launch(prog, (1, 1), (threads, 1), bufs)
    regs, preds = numpy_eval(seeds, lines)
    expected = list(regs[1:]) + [p.astype(np.uint32) for p in preds]
    for i, buf in enumerate(bufs):
        got = gpu.memcpy_dtoh(buf, np.uint32, threads)
        assert np.array_equal(got, expected[i][:threads]), (i, seeds, lines)
