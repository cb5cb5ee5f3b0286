"""Exactness fixture for the fault paths that rewrite simulator state.

``benchmarks/baselines/fault-path-digest.json`` holds, for five small
microarchitecture campaigns, the ``CampaignResult.to_dict()`` payload and
every trial's journaled ``(outcome, cycles)``. The cells are the fault
paths that rewrite scheduler-visible state in the middle of a launch:
control-state faults (barrier flags and counters, alive masks, scheduler
cursors, PCs) as transient and intermittent faults on barrier kernels, a
stuck-at RF fault that re-binds at every launch, and SMEM and L1D storage
faults. A behaviour-preserving simulator change must reproduce it. A
change that alters simulated behaviour on purpose regenerates it::

    PYTHONPATH=src python tests/fi/test_fault_path_digest.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from repro.fi import CampaignSpec, run_campaign
from repro.fi.journal import CampaignJournal

FIXTURE_PATH = (Path(__file__).resolve().parents[2]
                / "benchmarks" / "baselines" / "fault-path-digest.json")

TRIALS = 16

#: cell name -> CampaignSpec fields (GV100, microarchitecture level). The
#: control cells' seeds draw a barrier wait flag (transient) and a barrier
#: arrival counter pinned by the intermittent model, so a scheduler cache
#: left stale after a fault fires or re-pins changes their trials.
CELLS: dict[str, dict] = {
    "gemm-control-transient": dict(app="gemm", target="control", seed=17),
    "gemm-control-intermittent": dict(app="gemm", target="control",
                                      fault_model="intermittent", seed=116),
    "pathfinder-rf-stuck1": dict(app="pathfinder", structure="rf",
                                 fault_model="stuck1", seed=3),
    "gemm-smem": dict(app="gemm", structure="smem", seed=3),
    "bfs-l1d": dict(app="bfs", structure="l1d", seed=3),
}


def run_cell(name: str) -> dict:
    """Run one cell uncached; returns its payload and per-trial records.

    ``workers`` is left to ``REPRO_WORKERS``, so the serial and the pool
    paths are both held to the same fixture.
    """
    trials: list[tuple[int, str, int]] = []
    original = CampaignJournal.append_many

    def recording(journal, records):
        trials.extend((r["trial"], r["outcome"], r["cycles"])
                      for r in records if r.get("event") == "trial")
        return original(journal, records)

    CampaignJournal.append_many = recording
    try:
        result = run_campaign(CampaignSpec(level="uarch", trials=TRIALS,
                                           **CELLS[name]))
    finally:
        CampaignJournal.append_many = original
    return {"result": result.to_dict(),
            "trials": [[outcome, cycles] for _, outcome, cycles in sorted(trials)]}


@pytest.mark.parametrize("name", sorted(CELLS))
def test_fault_path_campaign_reproduces_fixture(name, tmp_cache):
    expected = json.loads(FIXTURE_PATH.read_text())["cells"][name]
    got = json.loads(json.dumps(run_cell(name)))
    assert got["trials"] == expected["trials"]
    assert got["result"] == expected["result"]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        os.environ["REPRO_CACHE_DIR"] = tmp
        os.environ.pop("REPRO_WORKERS", None)
        cells = {name: run_cell(name) for name in CELLS}
    FIXTURE_PATH.write_text(json.dumps(
        {"trials": TRIALS, "cells": cells}, sort_keys=True,
        indent=1) + "\n")
    print(f"wrote {len(cells)} cells to {FIXTURE_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
