"""The four fault-injection campaign workloads of the perf benchmark.

Each workload is one (application, kernel, injection level) campaign cell
run as a serial closed loop: a trial starts only after the previous one
has been committed to the journal. A *rep* is one campaign of ``trials``
trials in a fresh cache directory, preceded by ``golden_repeats`` warm
fault-free golden runs. Why each cell is in the set is recorded in
``BENCHMARK.json`` and ``README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Rep ``r`` of a run with ``--seed s`` runs the campaign seed
#: ``s + r * REP_SEED_STRIDE``: rep 0 uses the root seed itself (so the
#: seed-1 digest applies to it), later reps draw fresh faults.
REP_SEED_STRIDE = 1_000_003


@dataclass(frozen=True)
class Workload:
    name: str
    app: str
    kernel: str
    level: str  # "sw" or "uarch"
    structure: str | None  # uarch storage structure
    trials: int  # trials per rep
    golden_repeats: int  # warm golden runs per rep

    @property
    def config(self) -> str:
        """The paper's tool pairing: GV100 for ``uarch``, V100 for ``sw``."""
        return "gv100" if self.level == "uarch" else "v100"


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("bfs-sw", "bfs", "bfs_k1", "sw", None,
             trials=100, golden_repeats=5),
    # nw_k2, not nw_k1: the app runs both in every trial, but a DUE in
    # nw_k1 ends the trial in its first half, and with ~55 % DUEs the
    # median trial latency fell in the gap between early-ended and full
    # trials and flipped with the sample (IQR 18 % across seeds).
    Workload("nw-sw", "nw", "nw_k2", "sw", None,
             trials=16, golden_repeats=2),
    Workload("gemm-uarch-rf", "gemm", "gemm_tile", "uarch", "rf",
             trials=120, golden_repeats=5),
    Workload("sradv1-uarch-l2", "sradv1", "sradv1_k1", "uarch", "l2",
             trials=32, golden_repeats=3),
)}


def rep_seed(seed: int, rep: int) -> int:
    """Campaign seed of rep ``rep`` in a run with root seed ``seed``."""
    return seed + rep * REP_SEED_STRIDE
