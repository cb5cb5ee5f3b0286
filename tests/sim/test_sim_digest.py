"""Simulator exactness digest over the whole application suite.

``benchmarks/baselines/sim-digest.json`` holds, for every application of
``suite="all"`` on both paper configs, the per-launch ``LaunchStats`` of a
fault-free run (``snapshot()`` plus the scheduler counters it leaves out)
and a sha256 of the golden outputs. ``hardened-digest.json`` holds the same
for every application under every hardening scheme on gv100 (cells
``<app>/gv100/<scheme>``, ``harness.finalize`` included); it is a file of
its own so that the sim digest, which ``CACHE_VERSION`` is bound to
(``tests/fi/test_cache_version.py``), stays as it was. A simulator or
harness change that is meant to be behaviour-preserving (a hot-path
rewrite, a cache refactor) must reproduce both exactly. A change that
alters simulated behaviour on purpose regenerates the files and says so::

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
from repro.hardening import hardening_names, hardening_scheme
from repro.kernels import application_names, get_application
from repro.kernels.base import DeviceHarness
from repro.sim import GPU

BASELINES = Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"
DIGEST_PATH = BASELINES / "sim-digest.json"
HARDENED_DIGEST_PATH = BASELINES / "hardened-digest.json"

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


def golden_digest(app_name: str, config_name: str,
                  harden: str | None = None) -> dict:
    """Per-launch stats and output hash of one fault-free run, under the
    hardening scheme ``harden`` if given (its ``finalize`` included)."""
    config = CONFIGS[config_name]()
    gpu = GPU(config)
    harness = hardening_scheme(harden)() if harden else DeviceHarness()
    outputs = get_application(app_name).run(gpu, harness)
    harness.finalize(gpu)
    launches = []
    for rec in gpu.launch_records:
        entry = {"name": rec.name, **rec.stats.snapshot(config)}
        entry.update({k: getattr(rec.stats, k) for k in EXTRA_COUNTERS})
        launches.append(entry)
    return {"launches": launches, "outputs_sha256": outputs_sha256(outputs)}


def cells() -> list[tuple[str, str]]:
    return [(app, cfg) for app in application_names("all") for cfg in CONFIGS]


def hardened_cells() -> list[tuple[str, str, str]]:
    return [(app, "gv100", scheme) for app in application_names("all")
            for scheme in hardening_names()]


#: fixture -> the cells it holds
FIXTURES = {DIGEST_PATH: cells, HARDENED_DIGEST_PATH: hardened_cells}


def _key(*cell: str) -> str:
    return "/".join(cell)


def _expected(path: Path) -> dict:
    return json.loads(path.read_text())["cells"]


def test_digest_covers_every_cell():
    for path, fixture_cells in FIXTURES.items():
        assert sorted(_expected(path)) == sorted(
            _key(*cell) for cell in fixture_cells())


def _assert_reproduces(*cell: str) -> None:
    path = HARDENED_DIGEST_PATH if len(cell) == 3 else DIGEST_PATH
    expected = _expected(path)[_key(*cell)]
    # Round-trip through JSON so floats and ints compare as committed.
    got = json.loads(json.dumps(golden_digest(*cell)))
    assert got["outputs_sha256"] == expected["outputs_sha256"]
    assert got["launches"] == expected["launches"]


@pytest.mark.parametrize("app_name,config_name", cells())
def test_golden_run_reproduces_digest(app_name, config_name):
    _assert_reproduces(app_name, config_name)


@pytest.mark.parametrize("app_name,config_name,harden", hardened_cells())
def test_hardened_golden_run_reproduces_digest(app_name, config_name,
                                               harden):
    _assert_reproduces(app_name, config_name, harden)


def main() -> int:
    for path, fixture_cells in FIXTURES.items():
        # One line per launch keeps the file diffable without 40 lines each.
        lines = []
        for cell in fixture_cells():
            digest = golden_digest(*cell)
            launches = ",\n".join(f"    {json.dumps(entry, sort_keys=True)}"
                                  for entry in digest["launches"])
            lines.append(
                f'  "{_key(*cell)}": {{\n'
                f'   "outputs_sha256": "{digest["outputs_sha256"]}",\n'
                f'   "launches": [\n{launches}\n   ]}}')
        path.write_text('{"cells": {\n' + ",\n".join(lines) + "\n}}\n")
        print(f"wrote {len(lines)} cells to {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
