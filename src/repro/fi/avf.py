"""AVF (Architectural Vulnerability Factor) mathematics.

Implements the paper's Section II-B formulas:

* ``FR(h) = Pct(SDC) + Pct(Timeout) + Pct(DUE)``
* ``DF(h) = size_per_thread(h) * num_threads / system_size(h)`` (RF, SMEM)
* ``AVF(h) = FR(h) * DF(h)``
* ``AVF(all) = sum_h AVF(h) * size(h) / sum(size)``
* ``AVF(app) = sum_k AVF(k) * cycles(k) / sum(cycles)``

All breakdowns carry the three non-masked classes separately so stacked
SDC/Timeout/DUE charts (Figs. 1, 2, 4, 5, 7-10) can be rendered.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.config import GPUConfig
from repro.arch.structures import (
    Structure,
    rf_allocation_bits,
    structure_bits,
)
from repro.fi.campaign import CampaignResult
from repro.utils.stats import weighted_mean


@dataclass(frozen=True)
class VulnBreakdown:
    """A vulnerability factor split into its fault-effect classes."""

    sdc: float = 0.0
    timeout: float = 0.0
    due: float = 0.0

    @property
    def total(self) -> float:
        return self.sdc + self.timeout + self.due

    def scaled(self, factor: float) -> "VulnBreakdown":
        return VulnBreakdown(
            self.sdc * factor, self.timeout * factor, self.due * factor
        )

    @staticmethod
    def combine(items: list["VulnBreakdown"], weights: list[float]
                ) -> "VulnBreakdown":
        """Weighted combination (weights are normalised internally)."""
        return VulnBreakdown(
            sdc=weighted_mean([i.sdc for i in items], weights),
            timeout=weighted_mean([i.timeout for i in items], weights),
            due=weighted_mean([i.due for i in items], weights),
        )


def derating_factor(
    structure: Structure, launches: list[dict], config: GPUConfig
) -> float:
    """DF(h) for the target kernel, cycle-weighted over its launches.

    The paper's formula assumes one launch geometry; kernels launched with
    varying grids (e.g. NW's diagonal sweep) get the cycle-weighted mean of
    per-launch factors. Caches need no derating (DF = 1).
    """
    if not structure.uses_derating:
        return 1.0
    system = structure_bits(structure, config)
    factors: list[float] = []
    weights: list[float] = []
    for rec in launches:
        if structure is Structure.RF:
            live = rf_allocation_bits(rec["regs_per_thread"], rec["threads"])
        else:  # SMEM
            live = rec["smem_bytes_per_cta"] * 8 * rec["ctas"]
        factors.append(min(1.0, live / system))
        weights.append(max(rec["cycles"], 1))
    if not factors:
        return 0.0
    return weighted_mean(factors, weights)


def avf_of_structure(result: CampaignResult) -> VulnBreakdown:
    """AVF of one hardware structure for one kernel: class rates x DF."""
    if result.injector != "uarch":
        raise ValueError("avf_of_structure needs a microarchitecture campaign")
    counts = result.counts
    df = result.derating_factor
    n = counts.classified
    if n == 0:
        return VulnBreakdown()
    return VulnBreakdown(
        sdc=counts.sdc / n * df,
        timeout=counts.timeout / n * df,
        due=counts.due / n * df,
    )


def avf_of_chip(
    per_structure: dict[Structure, CampaignResult], config: GPUConfig
) -> VulnBreakdown:
    """Full-chip AVF of one kernel: size-weighted over hardware structures."""
    items: list[VulnBreakdown] = []
    weights: list[float] = []
    for structure, result in per_structure.items():
        items.append(avf_of_structure(result))
        weights.append(structure_bits(structure, config))
    return VulnBreakdown.combine(items, weights)


def avf_of_cache_group(
    per_structure: dict[Structure, CampaignResult], config: GPUConfig
) -> VulnBreakdown:
    """AVF-Cache (Fig. 5): size-weighted over L1D + L1T + L2 only."""
    from repro.arch.structures import CACHE_STRUCTURES

    subset = {s: r for s, r in per_structure.items() if s in CACHE_STRUCTURES}
    if not subset:
        raise ValueError("no cache-structure campaigns provided")
    return avf_of_chip(subset, config)


def avf_of_application(
    kernel_avfs: dict[str, VulnBreakdown], kernel_cycles: dict[str, int]
) -> VulnBreakdown:
    """Application AVF: kernel AVFs weighted by kernel cycle counts."""
    kernels = list(kernel_avfs)
    return VulnBreakdown.combine(
        [kernel_avfs[k] for k in kernels],
        [max(kernel_cycles[k], 1) for k in kernels],
    )


def outcome_mix(result: CampaignResult) -> dict[str, float]:
    """Outcome fractions (masked/sdc/timeout/due) of the classified trials.

    Unlike :func:`avf_of_structure` this applies no derating and keeps the
    masked fraction — the natural view for comparing fault models
    (transient vs stuck-at vs intermittent), where the question is "what
    happens to the workload", not "how vulnerable is the bit".
    """
    counts = result.counts
    n = counts.classified
    if n == 0:
        return {"masked": 0.0, "sdc": 0.0, "timeout": 0.0, "due": 0.0}
    return {
        "masked": counts.masked / n,
        "sdc": counts.sdc / n,
        "timeout": counts.timeout / n,
        "due": counts.due / n,
    }


def avf_by_fault_model(
    per_model: dict[str, CampaignResult]
) -> dict[str, VulnBreakdown]:
    """Per-fault-model AVF of one structure/kernel: model -> breakdown.

    ``per_model`` maps a fault-model name (``transient``, ``stuck0``,
    ``stuck1``, ``intermittent``) to the campaign run under that model;
    each result's recorded ``fault_model`` must match its key, so mixed-up
    dictionaries fail loudly instead of mislabelling a comparison.
    """
    out: dict[str, VulnBreakdown] = {}
    for model, result in per_model.items():
        if result.fault_model != model:
            raise ValueError(
                f"result for key {model!r} was run with "
                f"fault_model={result.fault_model!r}"
            )
        out[model] = avf_of_structure(result)
    return out
