"""Software-level injector: candidate counting and destination flips."""

import numpy as np
import pytest

from repro.fi.nvbitfi import SoftwareFaultPlan, SoftwareInjector, plan_software_fault
from repro.isa import assemble
from repro.sim import GPU

LAUNCHES = [
    {"index": 0, "name": "k1", "injectable": 100, "injectable_loads": 10},
    {"index": 1, "name": "k1", "injectable": 300, "injectable_loads": 30},
]


def test_plan_candidate_in_range():
    for seed in range(30):
        plan = plan_software_fault(LAUNCHES, seed)
        limit = 100 if plan.launch_index == 0 else 300
        assert 0 <= plan.candidate_index < limit
        assert 0 <= plan.bit < 32


def test_plan_loads_only_uses_load_counts():
    for seed in range(30):
        plan = plan_software_fault(LAUNCHES, seed, loads_only=True)
        limit = 10 if plan.launch_index == 0 else 30
        assert plan.candidate_index < limit
        assert plan.loads_only


def test_plan_rejects_empty():
    with pytest.raises(ValueError):
        plan_software_fault([{"index": 0, "name": "k", "injectable": 0,
                              "injectable_loads": 0}], 1)


def test_injection_flips_exactly_one_destination_bit(gv100):
    """Run a kernel with a planned flip on candidate k and verify the output
    differs from the clean run in exactly one thread's value."""
    prog = assemble(
        """
        S2R R0, SR_TID.X
        IADD R1, R0, 0x1
        SHL R2, R0, 0x2
        IADD R2, R2, c[0x0][0x0]
        ST [R2], R1
        EXIT
    """,
        name="t",
    )
    gpu = GPU(gv100)
    out = gpu.malloc(4 * 32)
    gpu.launch(prog, (1, 1), (32, 1), [out])
    clean = gpu.memcpy_dtoh(out, np.uint32, 32)

    # Candidates per thread: S2R, IADD(R1), SHL, IADD(R2) -> picking the
    # IADD R1 instance of lane 5 must corrupt exactly out[5].
    # Dynamic order is warp-level: candidates 0..31 = S2R lanes, 32..63 =
    # IADD R1 lanes, ...
    plan = SoftwareFaultPlan(launch_index=0, candidate_index=32 + 5, bit=3)
    gpu2 = GPU(gv100)
    out2 = gpu2.malloc(4 * 32)
    gpu2.sw_injector = SoftwareInjector(plan)
    gpu2.launch(prog, (1, 1), (32, 1), [out2])
    faulty = gpu2.memcpy_dtoh(out2, np.uint32, 32)
    assert plan.fired
    diff = np.nonzero(clean != faulty)[0]
    assert list(diff) == [5]
    assert faulty[5] == clean[5] ^ (1 << 3)


def test_injector_only_counts_target_launch(gv100):
    plan = SoftwareFaultPlan(launch_index=1, candidate_index=0, bit=0)
    injector = SoftwareInjector(plan)
    injector.begin_launch(0, "k")
    assert not injector.armed
    injector.begin_launch(1, "k")
    assert injector.armed


def test_loads_only_skips_alu(gv100):
    prog = assemble(
        """
        S2R R0, SR_TID.X
        SHL R1, R0, 0x2
        IADD R1, R1, c[0x0][0x0]
        LD R2, [R1]
        IADD R2, R2, 0x0
        ST [R1], R2
        EXIT
    """,
        name="t",
    )
    gpu = GPU(gv100)
    buf = gpu.upload(np.arange(32, dtype=np.uint32))
    # loads-only candidate 0 = LD of lane 0.
    plan = SoftwareFaultPlan(0, 0, bit=0, loads_only=True)
    gpu.sw_injector = SoftwareInjector(plan)
    gpu.launch(prog, (1, 1), (32, 1), [buf])
    got = gpu.memcpy_dtoh(buf, np.uint32, 32)
    assert plan.fired
    assert got[0] == 1  # 0 ^ 1
    assert (got[1:] == np.arange(1, 32)).all()
