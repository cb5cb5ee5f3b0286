"""``CACHE_VERSION`` is bound to simulated behaviour.

Cache keys hold ``CACHE_VERSION``, not the simulator's code, so a change
that alters results must bump it, or cached results of the old simulator
stand in for the new one. ``benchmarks/baselines/cache-versions.json``
maps each version to the sha256 of the behaviour digest fixtures (sim,
fault-path, replay and checkpoint). Regenerating a fixture changes the
hash, and this test fails until the same change bumps ``CACHE_VERSION``
and records the new hash::

    PYTHONPATH=src python tests/fi/test_cache_version.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from repro.fi.campaign import CACHE_VERSION

BASELINES = Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"
VERSIONS_PATH = BASELINES / "cache-versions.json"
FIXTURES = ("sim-digest.json", "fault-path-digest.json",
            "replay-digest.json", "checkpoint-digest.json")


def fixtures_sha256() -> str:
    digest = hashlib.sha256()
    for name in FIXTURES:
        digest.update(name.encode() + b"\0" + (BASELINES / name).read_bytes())
    return digest.hexdigest()


def test_behaviour_fixtures_match_the_cache_version():
    versions = json.loads(VERSIONS_PATH.read_text())
    assert versions.get(str(CACHE_VERSION)) == fixtures_sha256(), (
        "the digest fixtures differ from those of CACHE_VERSION "
        f"{CACHE_VERSION}: bump it and record the new hash")


def main() -> int:
    """Record the fixtures' hash for the current ``CACHE_VERSION``; a
    version already bound to other fixtures is left alone."""
    versions = json.loads(VERSIONS_PATH.read_text())
    bound = versions.setdefault(str(CACHE_VERSION), fixtures_sha256())
    if bound != fixtures_sha256():
        print(f"CACHE_VERSION {CACHE_VERSION} is bound to other fixtures: "
              "bump it first", file=sys.stderr)
        return 1
    VERSIONS_PATH.write_text(json.dumps(versions, indent=1, sort_keys=True)
                             + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
