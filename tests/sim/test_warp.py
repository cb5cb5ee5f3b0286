from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest

from repro.arch.config import quadro_gv100_like, tesla_v100_like
from repro.fi import gpufi
from repro.fi.campaign import _gpu_factory
from repro.fi.gpufi import MicroarchFaultPlan
from repro.isa import assemble
from repro.isa.instruction import SpecialReg
from repro.kernels import get_application
from repro.kernels.base import DeviceHarness
from repro.kernels.registry import all_applications
from repro.sim import GPU
from repro.sim.executor import K_BAR, K_BRA, K_EXIT
from repro.sim.register_file import WarpRegisters
from repro.sim.sm import SM
from repro.sim.warp import CTA, Warp
from tests.sim.trials import full, golden_profile, run


def make_warp(block=(32, 1, 1), threads=None, index_in_cta=0, grid=(2, 2, 1),
              ctaid=(1, 0, 0)):
    cta = CTA(ctaid, grid, block)
    if threads is not None:
        cta.num_threads = threads
    bank = WarpRegisters(8, 32)
    warp = Warp(1, cta, index_in_cta, rf_uid=0, bank=bank)
    cta.warps.append(warp)
    return warp, cta


def test_specials_linear_ids():
    warp, _ = make_warp(block=(8, 4, 1))
    from repro.isa.instruction import SpecialReg

    # lane 9 -> linear thread 9 -> tid.x = 1, tid.y = 1 for an 8-wide block.
    assert warp.specials[SpecialReg.TID_X][9] == 1
    assert warp.specials[SpecialReg.TID_Y][9] == 1
    assert warp.specials[SpecialReg.CTAID_X][0] == 1
    assert warp.specials[SpecialReg.NCTAID_Y][0] == 2
    assert warp.specials[SpecialReg.LANEID][31] == 31


def _per_warp_specials(warp, warp_size=32):
    """The special registers and ``done`` lanes of one warp, built from
    its own geometry as each warp once built them."""
    cta = warp.cta
    lanes = np.arange(warp_size, dtype=np.uint32)
    linear = warp.index_in_cta * warp_size + lanes
    bx, by, bz = cta.block_dim
    rows = [linear % bx, linear // bx % by, linear // bx // by,
            *cta.ctaid, bx, by, bz, *cta.grid_dim, lanes, warp.index_in_cta]
    sp = np.zeros((len(SpecialReg), warp_size), dtype=np.uint32)
    for sid, row in zip(SpecialReg, rows):
        sp[sid] = row
    return sp, linear >= cta.num_threads


def test_specials_template_equals_the_per_warp_build(monkeypatch):
    """Every warp of every launch of the 15 apps, on both configs: the
    rows copied from the launch geometry's template (with the CTA's
    CTAID rows set) equal the per-warp build, no two warps share a row
    array, and the rows are read-only, so nothing writes them after
    creation (a write would raise and fail the run)."""
    built = []
    init = Warp.__init__

    def spy(warp, *args, **kwargs):
        init(warp, *args, **kwargs)
        want_sp, want_done = _per_warp_specials(warp)
        assert np.array_equal(warp.specials, want_sp), warp.cta.ctaid
        assert np.array_equal(warp.done, want_done)
        assert not warp.specials.flags.writeable
        assert warp.done.flags.writeable
        built.append(warp.specials)

    monkeypatch.setattr(Warp, "__init__", spy)
    for config in (quadro_gv100_like(), tesla_v100_like()):
        for app in all_applications(suite="all"):
            before = len(built)
            app.run(GPU(config), DeviceHarness())
            assert len(built) > before, app.name
    assert len({id(sp) for sp in built}) == len(built)
    with pytest.raises(ValueError):
        built[0][SpecialReg.TID_X] = 0


def test_partial_block_kills_extra_lanes():
    warp, _ = make_warp(block=(8, 1, 1))
    assert warp.done[8:].all()
    assert not warp.done[:8].any()
    assert not warp.finished
    assert warp.alive[:8].all()


def test_second_warp_of_small_block_is_finished():
    warp, _ = make_warp(block=(8, 1, 1), index_in_cta=1)
    assert warp.finished  # lanes 32..63 don't exist


def test_update_finished_refreshes_alive():
    warp, _ = make_warp()
    warp.done[:] = True
    assert warp.update_finished()
    assert not warp.alive.any()


def test_barrier_release_waits_for_all_live_warps():
    cta = CTA((0, 0, 0), (1, 1, 1), (64, 1, 1))
    warps = []
    for i in range(2):
        bank = WarpRegisters(4, 32)
        warp = Warp(i, cta, i, rf_uid=i, bank=bank)
        cta.warps.append(warp)
        warps.append(warp)
    cta.arrive_barrier(warps[0])
    assert warps[0].waiting_barrier
    cta.arrive_barrier(warps[1])
    assert not warps[0].waiting_barrier
    assert not warps[1].waiting_barrier
    assert cta.barrier_arrived == 0


def test_barrier_release_when_other_warp_exits():
    cta = CTA((0, 0, 0), (1, 1, 1), (64, 1, 1))
    warps = []
    for i in range(2):
        bank = WarpRegisters(4, 32)
        warp = Warp(i, cta, i, rf_uid=i, bank=bank)
        cta.warps.append(warp)
        warps.append(warp)
    cta.arrive_barrier(warps[0])
    warps[1].done[:] = True
    warps[1].update_finished()
    cta.maybe_release_barrier()
    assert not warps[0].waiting_barrier


def test_cta_finished():
    warp, cta = make_warp()
    assert not cta.finished
    warp.done[:] = True
    warp.update_finished()
    assert cta.finished
    assert cta.live_warp_count() == 0


# --------------------------------------------------------------------- #
# Lane-group cache of diverged warps
# --------------------------------------------------------------------- #
def reference_groups(warp) -> list:
    """The min-PC partition of a warp's alive lanes, straight from the
    per-lane arrays: ``(pc, mask)`` per distinct pc, ascending."""
    alive, pcs = warp.alive, warp.pc
    return [(pc, alive & (pcs == pc))
            for pc in sorted(set(pcs[alive].tolist()))]


def assert_groups(cached, reference) -> None:
    assert [g[0] for g in cached] == [pc for pc, _ in reference]
    for (pc, mask, count), (_, ref_mask) in zip(cached, reference):
        assert type(pc) is int
        assert np.array_equal(mask, ref_mask), pc
        assert count == int(np.count_nonzero(ref_mask)), pc


class LaneGroupChecker:
    """Wraps ``SM.execute`` and checks the lane-group cache around every
    issue against the per-lane PCs; counts the control-flow cases seen."""

    def __init__(self, monkeypatch):
        self.cases = Counter()
        execute = SM.execute

        def checked(sm, warp, now):
            return self.issue(execute, sm, warp, now)

        monkeypatch.setattr(SM, "execute", checked)

    def issue(self, execute, sm, warp, now):
        entries = sm.gpu.kernel.entries
        if not warp.diverged:
            cur = warp.upc
            instr, kind = entries[cur][:2] if 0 <= cur < len(entries) else (
                None, None)
            mixed = False
            if kind == K_BRA:
                guard = warp.preds[instr.guard_pred] ^ instr.guard_neg
                mixed = 0 < np.count_nonzero(warp.alive & guard) < warp.n_alive
            latency = execute(sm, warp, now)
            # A mixed branch diverges the warp until its next issue, even
            # when both sides land on one pc.
            assert warp.diverged == mixed
            if mixed:
                assert_groups(warp.groups, reference_groups(warp))
                if instr.target == cur + 1:
                    self.cases["mixed uniform branch to pc + 1"] += 1
            return latency

        before = reference_groups(warp)
        assert_groups(warp.groups if warp.groups is not None
                      else warp.regroup(), before)
        cur, active = before[0]
        waiting = {pc for pc, _ in before[1:]}
        self.cases["diverged issue"] += 1
        entry = entries[cur] if 0 <= cur < len(entries) else None

        latency = execute(sm, warp, now)

        if warp.groups is not None:
            assert_groups(warp.groups, reference_groups(warp))
        alive_pcs = set(warp.pc[warp.alive].tolist())
        if alive_pcs:
            assert warp.diverged == (len(alive_pcs) > 1)
            if not warp.diverged:
                assert warp.upc == alive_pcs.pop()
        self._classify(entry, warp, cur, active, waiting)
        return latency

    def _classify(self, entry, warp, cur, active, waiting) -> None:
        kind = entry[1] if entry is not None else None
        if kind == K_BRA:
            target = entry[0].target
            taken = (active & (warp.pc == target)).any()
            if target < cur and taken:
                self.cases["backward branch"] += 1
                if cur + 1 in waiting and (active & (warp.pc == cur + 1)).any():
                    self.cases["backward branch, fall-through merges"] += 1
            if taken and target in waiting:
                self.cases["branch merges into a waiting group"] += 1
        elif kind == K_EXIT and waiting and (warp.done & active).any():
            self.cases["head group exits while others wait"] += 1
            if (active & ~warp.done).any():
                self.cases["part of the head group exits"] += 1
        elif kind == K_BAR:
            self.cases["barrier while diverged"] += 1


# One warp through every way the lane groups change. Under min-PC
# scheduling the head group has the lowest pc, so a backward branch can
# only merge through its fall-through lanes; a forward branch merges its
# taken lanes into a group waiting at the target.
DIVERGENCE_CASES = assemble(
    """
        S2R R0, SR_TID.X
        ISETP.LT P0, R0, 0x10
    @P0 BRA next
    next:
        AND R1, R0, 0x3
    loop:
        IADD R1, R1, 0xffffffff
        ISETP.GT P1, R1, RZ
    @P1 BRA loop
        ISETP.LT P2, R0, 0x8
    @P2 BRA join
        ISETP.LT P3, R0, 0x18
    @P3 BRA join
        BAR.SYNC
    join:
        ISETP.GE P4, R0, 0x4
    @P4 BRA store
        ISETP.LT P5, R0, 0x2
    @P5 EXIT
        NOP
    store:
        SHL R3, R0, 0x2
        IADD R4, R3, c[0x0][0x0]
        ST [R4], R0
        EXIT
    """,
    name="divergence_cases",
)


def test_lane_groups_cover_every_divergence_case(monkeypatch):
    checker = LaneGroupChecker(monkeypatch)
    gpu = GPU(quadro_gv100_like())
    out = gpu.malloc(4 * 32)
    gpu.launch(DIVERGENCE_CASES, (1, 1), (32, 1), [out])
    got = gpu.memcpy_dtoh(out, np.uint32, 32)
    assert np.array_equal(got[2:], np.arange(2, 32, dtype=np.uint32))
    for case in ("mixed uniform branch to pc + 1",
                 "backward branch, fall-through merges",
                 "branch merges into a waiting group",
                 "head group exits while others wait",
                 "part of the head group exits",
                 "barrier while diverged"):
        assert checker.cases[case], (case, checker.cases)


@dataclass
class DivergedWarpFault(MicroarchFaultPlan):
    """A transient control fault that hits a diverged warp when one is
    resident: one of the low six bits of an alive lane's pc, or one lane
    of its alive mask."""

    site: str = "pc"

    def _select(self, gpu):
        rng = np.random.default_rng(self.seed)
        warps = [w for sm in gpu.sms for w in sm.warps
                 if w.diverged and not w.finished]
        if not warps:
            return [], ""
        warp = warps[int(rng.integers(len(warps)))]
        if self.site == "active":
            lane = int(rng.integers(warp.done.size))
            return [gpufi._AliveMaskBit(warp, lane)], f"active lane {lane}"
        lane = int(rng.choice(np.flatnonzero(warp.alive)))
        bit = int(rng.integers(6))
        return [gpufi._LanePCBit(warp, lane * 32 + bit)], f"pc lane {lane}"


def test_lane_groups_match_per_lane_pcs_over_the_suite(monkeypatch):
    """Every kernel of the suite fault-free, then nw with pc-bit and
    alive-mask faults in diverged warps (the groups are rebuilt from the
    corrupted arrays)."""
    checker = LaneGroupChecker(monkeypatch)
    for app in all_applications(suite="all"):
        app.run(GPU(quadro_gv100_like()), DeviceHarness())
    assert checker.cases["diverged issue"]

    config = quadro_gv100_like()
    app = get_application("nw")
    profile = golden_profile("nw", config)
    gpu = _gpu_factory(profile, config)()
    hits = Counter()
    for seed in range(12):
        # Every nw launch has diverged warps from about cycle 2500 to 6500.
        index = seed % len(profile.launches)
        cycle = 2500 + seed * 337 % 4000
        plan = DivergedWarpFault(index, cycle, None, seed, target="control",
                                 site=("pc", "active")[seed % 2])
        run(app, full(profile), plan, gpu=gpu)
        if plan.description:
            hits[plan.site] += 1
    assert hits["pc"] and hits["active"], hits
