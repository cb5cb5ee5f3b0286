"""Property: static liveness soundly over-approximates the dynamic trace.

Hypothesis generates small programs (straight-line arithmetic, predicated
instructions, forward branches) and runs them through the simulator with a
tracer attached; the same check then runs over fault-free traces of every
registered (app, kernel) pair, which add loops, barriers, divergence and
memory. For every lane we replay its executed-instruction sequence
backwards, computing the *dynamic* live-in set at each executed instruction
— the registers/predicates whose current value that lane still reads later.
May-liveness must contain every dynamically live variable: a miss would mean
the analysis can claim a register "dead" while a fault in it still matters,
which is exactly the error the AVF estimator — and checkpoint convergence,
which compares only live registers — cannot afford.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.config import quadro_gv100_like
from repro.isa import assemble
from repro.kernels.base import DeviceHarness
from repro.kernels.registry import all_applications, kernel_index
from repro.sim import GPU
from repro.sim.warp import NUM_PREDS
from repro.staticanalysis import instr_defs, instr_uses, liveness
from repro.staticanalysis.dataflow import PRED_BASE


class LaneTracer:
    """Collects ``(instr_index, instr, guard_mask)`` issue events."""

    def __init__(self):
        self.events = []

    def record(self, instr_index, instr, warp, gm) -> None:
        self.events.append((instr_index, instr, gm.copy()))


@st.composite
def programs(draw):
    """A small kernel: labels on every line, forward branches only."""
    n = draw(st.integers(min_value=2, max_value=10))
    guards = st.sampled_from(["", "@P0 ", "@!P0 ", "@P1 ", "@!P1 "])
    regs = st.integers(min_value=0, max_value=3)
    lines = []
    for i in range(n):
        guard = draw(guards)
        kind = draw(st.sampled_from(["mov", "iadd", "isetp", "s2r", "bra"]))
        if kind == "mov":
            body = f"MOV R{draw(regs)}, 0x{draw(st.integers(0, 15)):x}"
        elif kind == "iadd":
            body = f"IADD R{draw(regs)}, R{draw(regs)}, R{draw(regs)}"
        elif kind == "isetp":
            op = draw(st.sampled_from(["LT", "GE"]))
            body = (f"ISETP.{op} P{draw(st.integers(0, 1))}, "
                    f"R{draw(regs)}, 0x{draw(st.integers(0, 15)):x}")
        elif kind == "s2r":
            body = f"S2R R{draw(regs)}, SR_TID.X"
        else:
            body = f"BRA L{draw(st.integers(i + 1, n))}"
        lines.append(f"L{i}:")
        lines.append(f"    {guard}{body}")
    lines.append(f"L{n}:")
    lines.append("    EXIT")
    return assemble("\n".join(lines), name="prop_kernel")


@settings(max_examples=40, deadline=None)
@given(programs())
def test_dynamic_live_subset_of_static(program):
    gpu = GPU(quadro_gv100_like())
    tracer = LaneTracer()
    gpu.tracer = tracer
    gpu.launch(program, (1, 1), (32, 1), [])
    static = liveness(program)

    lanes = range(len(tracer.events[0][2])) if tracer.events else ()
    for lane in lanes:
        # The lane's executed instructions, oldest first (single warp, and
        # a guard-false lane neither reads nor writes).
        executed = [(idx, instr) for idx, instr, gm in tracer.events
                    if gm[lane]]
        live: set[int] = set()
        for idx, instr in reversed(executed):
            # This execution surely wrote its dests (guard was true), so
            # the values live *into* it exclude them — then its reads.
            live -= set(instr_defs(instr))
            live |= set(instr_uses(instr))
            missing = live - set(static.live_in[idx])
            assert not missing, (
                f"dynamically live {sorted(missing)} not in static "
                f"live_in[{idx}] for lane {lane}:\n{program.render()}"
            )


@settings(max_examples=40, deadline=None)
@given(programs())
def test_defs_uses_match_trace_effects(program):
    """Executed instructions only touch what instr_defs/instr_uses declare."""
    gpu = GPU(quadro_gv100_like())
    tracer = LaneTracer()
    gpu.tracer = tracer
    gpu.launch(program, (1, 1), (32, 1), [])
    for idx, instr, gm in tracer.events:
        assert set(instr.source_registers()) <= set(instr_uses(instr))
        assert set(instr.dest_registers()) <= set(instr_defs(instr))


class WarpStreams:
    """Per-warp issue streams of one launch: warp uid -> [(pc, guard mask)]."""

    def __init__(self):
        self.streams: dict[int, list] = {}

    def record(self, instr_index, instr, warp, gm) -> None:
        self.streams.setdefault(warp.uid, []).append((instr_index, gm.copy()))


class LivenessCheckingHarness(DeviceHarness):
    """Traces every launch and checks each (warp, lane) stream against the
    static liveness of the launched program."""

    def __init__(self):
        self.checked: set[str] = set()
        self.failures: list[str] = []

    def launch(self, gpu, program, grid, block, params=(), smem_bytes=0,
               name=None, outputs=()):
        tracer = WarpStreams()
        gpu.tracer = tracer
        try:
            super().launch(gpu, program, grid, block, params, smem_bytes,
                           name, outputs)
        finally:
            gpu.tracer = None
        self._check(program, tracer.streams)
        self.checked.add(name or program.name)

    def _check(self, program, streams) -> None:
        """Replay each stream backwards, all 32 lanes at once: ``live[v,
        lane]`` says the lane still reads variable ``v`` before writing it."""
        n_vars = PRED_BASE + NUM_PREDS
        static = np.zeros((len(program), n_vars), dtype=bool)
        for pc, live_in in enumerate(liveness(program).live_in):
            static[pc, list(live_in)] = True
        uses = [list(instr_uses(instr)) for instr in program.instructions]
        defs = [list(instr_defs(instr)) for instr in program.instructions]
        for uid, events in streams.items():
            live = np.zeros((n_vars, len(events[0][1])), dtype=bool)
            for pc, gm in reversed(events):
                lanes = np.flatnonzero(gm)
                if not len(lanes):
                    continue
                live[np.ix_(defs[pc], lanes)] = False
                live[np.ix_(uses[pc], lanes)] = True
                missing = live[:, lanes] & ~static[pc][:, None]
                if missing.any() and len(self.failures) < 5:
                    var, lane = np.argwhere(missing)[0]
                    self.failures.append(
                        f"{program.name}:{pc} warp {uid} lane "
                        f"{lanes[lane]}: variable {var} is read later "
                        f"but not in live_in")


def test_dynamic_live_subset_of_static_over_the_suite():
    """Every registered kernel, traced fault-free on its app's inputs."""
    harness = LivenessCheckingHarness()
    for app in all_applications(suite="all"):
        gpu = GPU(quadro_gv100_like())
        app.run(gpu, harness)
    assert not harness.failures, "\n".join(harness.failures)
    pairs = kernel_index(suite="all")
    assert len(pairs) == 29
    assert {kernel for _, kernel in pairs} <= harness.checked
