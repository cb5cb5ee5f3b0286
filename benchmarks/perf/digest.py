"""Exactness digests: the simulator's results, checked from outside.

``digest.json`` holds, per workload, the sha256 of the golden run's
per-launch ``LaunchStats`` snapshots (``golden``, independent of the
campaign seed) and of ``CampaignResult.to_dict()`` for the campaign seed
:data:`DIGEST_SEED` (``campaign``). A performance change must leave both
unchanged; a change that alters simulated behaviour on purpose
regenerates the file with::

    python3 benchmarks/perf/digest.py

and says so in its description.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGEST_PATH = HERE / "digest.json"

#: The campaign seed whose result digest is committed.
DIGEST_SEED = 1


def sha256_json(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode()).hexdigest()


def golden_digest(profile) -> str:
    """Digest of an ``AppProfile``'s per-launch stats snapshots."""
    return sha256_json(profile.stats_by_launch)


def campaign_digest(result) -> str:
    """Digest of a ``CampaignResult``."""
    return sha256_json(result.to_dict())


def load_expected(path: Path = DIGEST_PATH) -> dict[str, dict[str, str]]:
    """The committed digests per workload (none before the first
    ``main()``, which makes every check fail)."""
    if not path.exists():
        return {}
    return json.loads(path.read_text())["workloads"]


def main() -> int:
    """Recompute every workload's digests and rewrite ``digest.json``."""
    import tempfile

    import worker
    from workloads import WORKLOADS

    worker.import_repro()
    out = {}
    for name in WORKLOADS:
        with tempfile.TemporaryDirectory(dir=worker.work_root()) as tmp:
            profile, result = worker.seed_campaign(name, DIGEST_SEED, tmp)
        out[name] = {"golden": golden_digest(profile),
                     "campaign": campaign_digest(result)}
        print(f"{name}: {out[name]}", file=sys.stderr)
    DIGEST_PATH.write_text(json.dumps(
        {"seed": DIGEST_SEED, "workloads": out}, indent=2, sort_keys=True)
        + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
