"""Exactness fixture for mid-launch golden checkpoints.

``benchmarks/baselines/checkpoint-digest.json`` holds, for a matrix of
campaigns whose trials fast-forward to their fault or converge back to
the fault-free run inside the injected launch (see
:mod:`repro.sim.replay`), the ``CampaignResult.to_dict()`` payload and
every trial's journaled ``(outcome, cycles)``. The matrix covers
transient storage faults in the register file, shared memory, the L1D
and the L2 (one under SDC anatomy), adjacent double-bit upsets,
transient control-state faults, a stuck-at fault (fast-forward before it
fires, never convergence after), load-only software faults and
source-operand faults (convergence without fast-forward). Checkpoints
must reproduce it exactly. A change that alters simulated behaviour on
purpose regenerates it::

    PYTHONPATH=src python tests/fi/test_checkpoint_digest.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

import pytest
from test_fault_path_digest import record_campaign

from repro.fi import CampaignSpec

FIXTURE_PATH = (Path(__file__).resolve().parents[2]
                / "benchmarks" / "baselines" / "checkpoint-digest.json")

TRIALS = 24

#: cell name -> CampaignSpec fields.
CELLS: dict[str, dict] = {
    "gemm-rf": dict(level="uarch", app="gemm", structure="rf", seed=5),
    "gemm-smem": dict(level="uarch", app="gemm", structure="smem", seed=5),
    "gemm-control": dict(level="uarch", app="gemm", target="control", seed=5),
    "gemm-rf-2bit": dict(level="uarch", app="gemm", structure="rf",
                         num_bits=2, seed=5),
    "va-rf-stuck0": dict(level="uarch", app="va", structure="rf",
                         fault_model="stuck0", seed=5),
    "hotspot-l1d": dict(level="uarch", app="hotspot", structure="l1d", seed=5),
    "hotspot-sw-ld": dict(level="sw-ld", app="hotspot", seed=5),
    "pathfinder-src": dict(level="src", app="pathfinder", seed=5),
    "sradv1-l2-anatomy": dict(level="uarch", app="sradv1", structure="l2",
                              sdc_anatomy=True, seed=5),
}


def run_cell(name: str) -> dict:
    return record_campaign(CampaignSpec(trials=TRIALS, **CELLS[name]))


@pytest.mark.parametrize("name", sorted(CELLS))
def test_checkpointed_campaign_reproduces_fixture(name, tmp_cache):
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
