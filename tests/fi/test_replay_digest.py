"""Exactness fixture for campaigns on multi-launch applications.

``benchmarks/baselines/replay-digest.json`` holds, for a matrix of
campaigns on applications that launch kernels from a host loop, the
``CampaignResult.to_dict()`` payload and every trial's journaled
``(outcome, cycles)``. The matrix covers injection before, into and after
later launches: software-level faults on an early and a late kernel,
source-level sticky faults, transient/persistent/intermittent
microarchitecture faults in storage and control state, a TMR-hardened
campaign (harness-issued copy and vote launches) and an SDC-anatomy
campaign. Golden launch replay (see :mod:`repro.sim.replay`) must
reproduce it exactly. A change that alters simulated behaviour on purpose
regenerates it::

    PYTHONPATH=src python tests/fi/test_replay_digest.py
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
                / "benchmarks" / "baselines" / "replay-digest.json")

TRIALS = 16

#: cell name -> CampaignSpec fields.
CELLS: dict[str, dict] = {
    "bfs-sw": dict(level="sw", app="bfs", seed=3),
    "bfs-sw-ld": dict(level="sw-ld", app="bfs", seed=3),
    "bfs-control-transient": dict(level="uarch", app="bfs", target="control",
                                  seed=3),
    "sradv1-l2": dict(level="uarch", app="sradv1", structure="l2", seed=3),
    "sradv1-l1d": dict(level="uarch", app="sradv1", structure="l1d", seed=3),
    "nw-sw-k2": dict(level="sw", app="nw", kernel="nw_k2", seed=3),
    "nw-src-sticky": dict(level="src-sticky", app="nw", seed=3),
    "pathfinder-rf-stuck1": dict(level="uarch", app="pathfinder",
                                 structure="rf", fault_model="stuck1", seed=7),
    "lud-rf-intermittent": dict(level="uarch", app="lud", structure="rf",
                                fault_model="intermittent", seed=3),
    "pathfinder-sw-tmr": dict(level="sw", app="pathfinder", harden="tmr",
                              seed=3),
    "lud-sw-anatomy": dict(level="sw", app="lud", sdc_anatomy=True, seed=3),
}


def run_cell(name: str) -> dict:
    return record_campaign(CampaignSpec(trials=TRIALS, **CELLS[name]))


@pytest.mark.parametrize("name", sorted(CELLS))
def test_multi_launch_campaign_reproduces_fixture(name, tmp_cache):
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
