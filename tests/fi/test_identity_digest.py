"""Exactness fixture for campaign identity.

``benchmarks/baselines/identity-digest.json`` holds, for a matrix of
two-trial campaigns that sets every identity axis off its default at
least once, the cache key, the journal's leading ``meta`` record and the
``CampaignResult.to_dict()`` payload (plus every trial's journaled
``(outcome, cycles)``). The matrix covers the microarchitecture level on
each storage structure and on control state, the software, load-only and
source levels, and the axes ``num_bits``, ``ecc_protected``, the
persistent fault models, ``harden``, ``sdc_anatomy``, ``stop_rule``,
``budget``, ``trials=None`` (``REPRO_TRIALS``) and a non-default config.
A refactor of the campaign pipeline must reproduce it exactly: the key
names the cache entry, and the meta tag seeds every trial. A change that
alters identity on purpose regenerates it::

    PYTHONPATH=src python tests/fi/test_identity_digest.py
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
from repro.fi.journal import CampaignJournal
from repro.fi.planner import StopRule

FIXTURE_PATH = (Path(__file__).resolve().parents[2]
                / "benchmarks" / "baselines" / "identity-digest.json")

TRIALS = 2

#: cell name -> CampaignSpec fields. ``trials`` defaults to TRIALS. The
#: anatomy cells' seeds draw SDC trials, so their records carry the
#: injected site tag.
CELLS: dict[str, dict] = {
    # Microarchitecture level: every storage structure and control state.
    "va-rf": dict(level="uarch", app="va", structure="rf"),
    "gemm-smem": dict(level="uarch", app="gemm", structure="smem"),
    "va-l1d": dict(level="uarch", app="va", structure="l1d"),
    "va-l1t": dict(level="uarch", app="va", structure="l1t"),
    "va-l2": dict(level="uarch", app="va", structure="l2"),
    "va-control": dict(level="uarch", app="va", target="control"),
    "va-rf-2bit": dict(level="uarch", app="va", structure="rf", num_bits=2),
    "va-rf-ecc": dict(level="uarch", app="va", structure="rf",
                      ecc_protected=True),
    "va-rf-stuck0": dict(level="uarch", app="va", structure="rf",
                         fault_model="stuck0"),
    "va-rf-stuck1": dict(level="uarch", app="va", structure="rf",
                         fault_model="stuck1"),
    "va-rf-intermittent": dict(level="uarch", app="va", structure="rf",
                               fault_model="intermittent"),
    "va-control-intermittent": dict(level="uarch", app="va", target="control",
                                    fault_model="intermittent"),
    "va-rf-tmr": dict(level="uarch", app="va", structure="rf", harden="tmr"),
    "va-rf-dmr": dict(level="uarch", app="va", structure="rf", harden="dmr"),
    "gemm-rf-abft": dict(level="uarch", app="gemm", structure="rf",
                         harden="abft"),
    "va-rf-range": dict(level="uarch", app="va", structure="rf",
                        harden="range"),
    "va-control-stuck1-dmr": dict(level="uarch", app="va", target="control",
                                  fault_model="stuck1", harden="dmr"),
    "va-rf-anatomy": dict(level="uarch", app="va", structure="rf",
                          sdc_anatomy=True, seed=7),
    "va-rf-v100": dict(level="uarch", app="va", structure="rf", config="v100"),
    # Software levels.
    "va-sw": dict(level="sw", app="va"),
    "va-sw-ld": dict(level="sw-ld", app="va"),
    "va-sw-tmr": dict(level="sw", app="va", harden="tmr"),
    "va-sw-dmr": dict(level="sw", app="va", harden="dmr"),
    "gemm-sw-abft": dict(level="sw", app="gemm", harden="abft"),
    "va-sw-range": dict(level="sw", app="va", harden="range"),
    "va-sw-anatomy": dict(level="sw", app="va", sdc_anatomy=True),
    "va-sw-tmr-anatomy": dict(level="sw", app="va", harden="tmr",
                              sdc_anatomy=True),
    "va-sw-stop-rule": dict(level="sw", app="va",
                            stop_rule=StopRule(ci_halfwidth=0.9,
                                               min_trials=2)),
    "va-sw-budget": dict(level="sw", app="va", trials=None, budget=4,
                         stop_rule=StopRule(ci_halfwidth=0.9, min_trials=2)),
    "va-sw-env-trials": dict(level="sw", app="va", trials=None),
    "va-sw-gv100": dict(level="sw", app="va", config="gv100"),
    # Source level.
    "va-src": dict(level="src", app="va"),
    "va-src-sticky": dict(level="src-sticky", app="va"),
    "va-src-anatomy": dict(level="src", app="va", sdc_anatomy=True, seed=8),
}

#: Cells that take their trial count from the environment.
ENV: dict[str, dict[str, str]] = {
    "va-sw-env-trials": {"REPRO_TRIALS": str(TRIALS)},
}


def run_cell(name: str) -> dict:
    """Run one cell on a fresh cache; returns its key, journal meta
    record, payload and per-trial records."""
    fields = {"trials": TRIALS, **CELLS[name]}
    metas: list[tuple[str, dict]] = []
    original = CampaignJournal.append_many

    def recording(journal, records):
        metas.extend((journal.key, r) for r in records
                     if r.get("event") == "meta")
        return original(journal, records)

    CampaignJournal.append_many = recording
    try:
        got = record_campaign(CampaignSpec(**fields))
    finally:
        CampaignJournal.append_many = original
    (key, meta), = metas
    return {"key": key, "meta": meta, **got}


@pytest.mark.parametrize("name", sorted(CELLS))
def test_campaign_identity_reproduces_fixture(name, tmp_cache, monkeypatch):
    for var, value in ENV.get(name, {}).items():
        monkeypatch.setenv(var, value)
    expected = json.loads(FIXTURE_PATH.read_text())["cells"][name]
    got = json.loads(json.dumps(run_cell(name)))
    assert got["key"] == expected["key"]
    assert got["meta"] == expected["meta"]
    assert got["result"] == expected["result"]
    assert got["trials"] == expected["trials"]


def main() -> int:
    os.environ.pop("REPRO_WORKERS", None)
    cells = {}
    for name in CELLS:
        with tempfile.TemporaryDirectory() as tmp:
            env = {"REPRO_CACHE_DIR": tmp, **ENV.get(name, {})}
            saved = {var: os.environ.get(var) for var in env}
            os.environ.update(env)
            try:
                cells[name] = run_cell(name)
            finally:
                for var, value in saved.items():
                    if value is None:
                        os.environ.pop(var, None)
                    else:
                        os.environ[var] = value
    FIXTURE_PATH.write_text(json.dumps(
        {"trials": TRIALS, "cells": cells}, sort_keys=True,
        indent=1) + "\n")
    print(f"wrote {len(cells)} cells to {FIXTURE_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
