"""Warp and CTA runtime state.

Divergence is handled with per-lane program counters and min-PC scheduling:
on each issue, the lanes of a warp sharing the minimum PC among live lanes
execute together. Diverged lane groups therefore interleave and reconverge
automatically once their PCs meet again, without an explicit reconvergence
stack — adequate for the reducible control flow of the benchmark kernels and
robust to fault-corrupted control flow.

A diverged warp caches its alive lanes as ``groups``: ``(pc, mask, count)``
tuples in ascending pc order, so an issue reads the min-PC group instead of
rescanning the per-lane arrays. The arrays stay authoritative; the cache is
derived from ``pc`` and ``alive``, and only the issue path (``SM.execute``
through ``advance`` and ``branch``) keeps it in step. Any other writer of ``pc`` or ``done`` (EXIT, fault injectors, checkpoint
restore) must go through ``update_finished`` or ``materialize_pcs``, which
drop the cache so the next issue rebuilds it with ``regroup``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.isa.instruction import PT, SpecialReg

NUM_PREDS = 8


@lru_cache(maxsize=512)
def special_rows(block_dim: tuple, grid_dim: tuple, num_threads: int,
                 index_in_cta: int, warp_size: int):
    """The special-register rows and the ``done`` lanes (lanes beyond the
    block's thread count never run) of warp ``index_in_cta`` of any CTA
    of a launch, with the CTAID rows zero. Both are read-only: each warp
    copies them and sets its CTAID rows."""
    lanes = np.arange(warp_size, dtype=np.uint32)
    linear = index_in_cta * warp_size + lanes
    bx, by, bz = block_dim
    sp = np.zeros((len(SpecialReg), warp_size), dtype=np.uint32)
    sp[SpecialReg.TID_X] = linear % bx
    rem = linear // bx
    sp[SpecialReg.TID_Y] = rem % by
    sp[SpecialReg.TID_Z] = rem // by
    sp[SpecialReg.NTID_X] = bx
    sp[SpecialReg.NTID_Y] = by
    sp[SpecialReg.NTID_Z] = bz
    sp[SpecialReg.NCTAID_X] = grid_dim[0]
    sp[SpecialReg.NCTAID_Y] = grid_dim[1]
    sp[SpecialReg.NCTAID_Z] = grid_dim[2]
    sp[SpecialReg.LANEID] = lanes
    sp[SpecialReg.WARPID] = index_in_cta
    done = linear >= num_threads
    sp.flags.writeable = done.flags.writeable = False
    return sp, done


class Warp:
    """One resident warp."""

    __slots__ = (
        "uid",
        "cta",
        "index_in_cta",
        "rf_uid",
        "bank",
        "preds",
        "pc",
        "done",
        "next_ready",
        "waiting_barrier",
        "finished",
        "specials",
        "alive",
        "n_alive",
        "diverged",
        "upc",
        "groups",
    )

    def __init__(self, uid: int, cta: "CTA", index_in_cta: int, rf_uid: int, bank):
        self.uid = uid
        self.cta = cta
        self.index_in_cta = index_in_cta
        self.rf_uid = rf_uid
        self.bank = bank  # WarpRegisters
        warp_size = bank.regs.shape[1]
        self.preds = np.zeros((NUM_PREDS, warp_size), dtype=bool)
        self.preds[PT] = True
        self.pc = np.zeros(warp_size, dtype=np.int32)
        self.done = np.zeros(warp_size, dtype=bool)
        self.next_ready = 0
        self.waiting_barrier = False
        self.specials = self._build_specials(warp_size)
        # Cached scheduler/divergence state (hot path):
        # - ``alive`` mirrors ``~done`` and ``n_alive`` counts its lanes; both
        #   are refreshed by ``update_finished`` (EXIT, alive-mask faults);
        # - while ``diverged`` is False, every alive lane sits at ``upc`` and
        #   the per-lane ``pc`` array is not consulted; a mixed-outcome branch
        #   materialises per-lane PCs and flips ``diverged`` on;
        # - while ``diverged`` is True, ``groups`` (when not None) partitions
        #   the alive lanes by pc, ascending; only the issue path updates it
        #   (``advance``, ``branch``), every other write to ``pc``/``done``
        #   must reset it to None via ``update_finished`` or
        #   ``materialize_pcs``.
        self.diverged = False
        self.upc = 0
        self.update_finished()

    def _build_specials(self, warp_size: int) -> np.ndarray:
        """This warp's special registers (read-only: nothing writes them
        after creation) from its launch geometry's template; sets
        ``done``."""
        cta = self.cta
        template, done = special_rows(cta.block_dim, cta.grid_dim,
                                      cta.num_threads, self.index_in_cta,
                                      warp_size)
        sp = template.copy()
        x, y, z = cta.ctaid
        sp[SpecialReg.CTAID_X] = x
        sp[SpecialReg.CTAID_Y] = y
        sp[SpecialReg.CTAID_Z] = z
        sp.flags.writeable = False
        self.done = done.copy()
        return sp

    def update_finished(self) -> bool:
        """Refresh ``alive``, ``n_alive`` and ``finished`` from ``done``
        (at creation, after an EXIT retires lanes, after a mask fault) and
        drop the lane-group cache."""
        self.groups = None
        self.alive = ~self.done
        self.n_alive = int(np.count_nonzero(self.alive))
        self.finished = self.n_alive == 0
        return self.finished

    def materialize_pcs(self) -> None:
        """Switch to per-lane PCs without changing warp semantics.

        While uniform, the per-lane ``pc`` array is a stale cache and ``upc``
        is authoritative; fault injectors that corrupt an individual lane's
        PC first call this so the corruption is actually consulted by min-PC
        scheduling (the lanes reconverge on their own if the PCs stay equal).
        Callers may then write ``pc`` freely: the lane-group cache is dropped.
        """
        self.groups = None
        if not self.diverged:
            self.pc[:] = self.upc
            self.diverged = True

    def regroup(self) -> list:
        """Rebuild ``groups`` from ``pc`` and ``alive``: one ``(pc, mask,
        count)`` tuple per distinct pc among alive lanes, ascending."""
        alive = self.alive
        pcs = self.pc
        groups = []
        for pc in np.unique(pcs[alive]).tolist():
            mask = alive & (pcs == pc)
            groups.append((pc, mask, int(np.count_nonzero(mask))))
        self.groups = groups
        return groups

    def advance(self, cur: int, active: np.ndarray, count: int) -> None:
        """Move the head group (``active``, at ``cur``) on to ``cur + 1``,
        merging it with the group waiting there if there is one."""
        groups = self.groups
        nxt = cur + 1
        self.pc[active] = nxt
        if len(groups) > 1 and groups[1][0] == nxt:
            _, mask, n = groups[1]
            groups[0:2] = [(nxt, active | mask, count + n)]
        else:
            groups[0] = (nxt, active, count)

    def branch(self, cur: int, active: np.ndarray, count: int, target: int,
               taken: np.ndarray, n_taken: int) -> None:
        """Send the ``taken`` lanes of ``active`` (the head group, or every
        alive lane of a uniform warp, which diverges here) to ``target`` and
        the rest to ``cur + 1``."""
        if self.diverged:
            del self.groups[0]
        else:
            self.diverged = True
            self.groups = []
        if n_taken:
            self.pc[taken] = target
            self._insert(target, taken, n_taken)
        if n_taken != count:
            fall = active & ~taken if n_taken else active
            self.pc[fall] = cur + 1
            self._insert(cur + 1, fall, count - n_taken)

    def _insert(self, pc: int, mask: np.ndarray, count: int) -> None:
        groups = self.groups
        for i, group in enumerate(groups):
            if group[0] == pc:
                groups[i] = (pc, group[1] | mask, group[2] + count)
                return
            if group[0] > pc:
                groups.insert(i, (pc, mask, count))
                return
        groups.append((pc, mask, count))


class CTA:
    """One cooperative thread array resident on an SM."""

    __slots__ = (
        "ctaid",
        "grid_dim",
        "block_dim",
        "num_threads",
        "warps",
        "smem_uid",
        "smem",
        "barrier_arrived",
        "sm",
    )

    def __init__(
        self,
        ctaid: tuple[int, int, int],
        grid_dim: tuple[int, int, int],
        block_dim: tuple[int, int, int],
    ):
        self.ctaid = ctaid
        self.grid_dim = grid_dim
        self.block_dim = block_dim
        self.num_threads = block_dim[0] * block_dim[1] * block_dim[2]
        self.warps: list[Warp] = []
        self.smem_uid: int | None = None
        self.smem = None  # SharedWindow or None
        self.barrier_arrived = 0
        self.sm = None

    @property
    def finished(self) -> bool:
        return all(w.finished for w in self.warps)

    def live_warp_count(self) -> int:
        return sum(1 for w in self.warps if not w.finished)

    def arrive_barrier(self, warp: Warp) -> None:
        warp.waiting_barrier = True
        self.barrier_arrived += 1
        self.maybe_release_barrier()

    def maybe_release_barrier(self) -> None:
        """Release the barrier once every still-live warp has arrived."""
        live = self.live_warp_count()
        if live > 0 and self.barrier_arrived >= live:
            self.barrier_arrived = 0
            for w in self.warps:
                w.waiting_barrier = False
