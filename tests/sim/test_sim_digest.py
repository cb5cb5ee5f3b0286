"""Simulator exactness digest over the whole application suite.

``benchmarks/baselines/sim-digest.json`` holds, for every application of
``suite="all"`` on both paper configs, the per-launch ``LaunchStats`` of a
fault-free run (``snapshot()`` plus the scheduler counters it leaves out)
and a sha256 of the golden outputs. A simulator change that is meant to be
behaviour-preserving (a hot-path rewrite, a cache refactor) must reproduce
it exactly. A change that alters simulated behaviour on purpose
regenerates the file and says so::

    PYTHONPATH=src python tests/sim/test_sim_digest.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.arch.config import quadro_gv100_like, tesla_v100_like
from repro.kernels import application_names, get_application
from repro.kernels.base import DeviceHarness
from repro.sim import GPU

DIGEST_PATH = (Path(__file__).resolve().parents[2]
               / "benchmarks" / "baselines" / "sim-digest.json")

CONFIGS = {"gv100": quadro_gv100_like, "v100": tesla_v100_like}

#: ``LaunchStats`` counters that ``snapshot()`` does not export but the
#: scheduler determines (residency integral, peak residency) or the
#: software-level planner consumes (injectable instruction counts).
EXTRA_COUNTERS = ("warp_cycles_resident", "max_warps_observed",
                  "sw_injectable_instructions", "sw_injectable_loads")


def outputs_sha256(outputs: dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for key in sorted(outputs):
        arr = np.ascontiguousarray(outputs[key])
        h.update(f"{key}:{arr.dtype.str}:{arr.shape}".encode())
        h.update(arr.view(np.uint8).tobytes())
    return h.hexdigest()


def golden_digest(app_name: str, config_name: str) -> dict:
    """Per-launch stats and output hash of one fault-free run."""
    config = CONFIGS[config_name]()
    gpu = GPU(config)
    outputs = get_application(app_name).run(gpu, DeviceHarness())
    launches = []
    for rec in gpu.launch_records:
        entry = {"name": rec.name, **rec.stats.snapshot(config)}
        entry.update({k: getattr(rec.stats, k) for k in EXTRA_COUNTERS})
        launches.append(entry)
    return {"launches": launches, "outputs_sha256": outputs_sha256(outputs)}


def cells() -> list[tuple[str, str]]:
    return [(app, cfg) for app in application_names("all") for cfg in CONFIGS]


def _expected() -> dict:
    return json.loads(DIGEST_PATH.read_text())["cells"]


def test_digest_covers_every_cell():
    assert sorted(_expected()) == sorted(f"{a}/{c}" for a, c in cells())


@pytest.mark.parametrize("app_name,config_name", cells())
def test_golden_run_reproduces_digest(app_name, config_name):
    expected = _expected()[f"{app_name}/{config_name}"]
    # Round-trip through JSON so floats and ints compare as committed.
    got = json.loads(json.dumps(golden_digest(app_name, config_name)))
    assert got["outputs_sha256"] == expected["outputs_sha256"]
    assert got["launches"] == expected["launches"]


def main() -> int:
    # One line per launch keeps the file diffable without 40 lines each.
    lines = []
    for app_name, config_name in cells():
        digest = golden_digest(app_name, config_name)
        launches = ",\n".join(f"    {json.dumps(entry, sort_keys=True)}"
                              for entry in digest["launches"])
        lines.append(
            f'  "{app_name}/{config_name}": {{\n'
            f'   "outputs_sha256": "{digest["outputs_sha256"]}",\n'
            f'   "launches": [\n{launches}\n   ]}}')
    DIGEST_PATH.write_text('{"cells": {\n' + ",\n".join(lines) + "\n}}\n")
    print(f"wrote {len(lines)} cells to {DIGEST_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
