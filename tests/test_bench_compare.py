"""The campaign benchmark's comparison gate trips on a 2x regression.

CI gates a change on ``benchmarks/perf/compare.py BASE NEW`` over result
sets of the base and head commits. These tests drive that script through
its documented command line and exit codes with synthetic result sets:
a set whose throughput is halved and whose golden run takes twice as
long must exit 1 with ``regressed``; two identical sets must exit 0.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMPARE = ROOT / "benchmarks" / "perf" / "compare.py"
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

#: Per-run metric values of a healthy bfs-sw run, and a small per-seed
#: jitter so each set has a spread well under every metric's bound.
HEALTHY = {"trials_per_s": 300.0, "trial_p50_ms": 2.1, "trial_p80_ms": 3.4,
           "golden_ms": 60.0, "setup_s": 1.2, "peak_rss_mb": 90.0}
JITTER = (1.0, 1.01, 0.99)


def _write_set(directory: Path, scale: dict[str, float]) -> Path:
    """A result set as ``sweep.py`` writes it: one ``<workload>.seed<N>
    .json`` file per run, ending in the benchmark's result line."""
    directory.mkdir()
    for seed, jitter in enumerate(JITTER, start=1):
        metrics = {
            m["name"]: {"value": HEALTHY[m["name"]] * jitter
                        * scale.get(m["name"], 1.0), "unit": m["unit"]}
            for m in END_TO_END}
        result = {"correct": True, "attempted": 400, "failed": 0,
                  "metrics": metrics}
        (directory / f"bfs-sw.seed{seed}.json").write_text(
            json.dumps(result) + "\n")
    return directory


def _compare(base: Path, new: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(COMPARE), str(base), str(new)], cwd=ROOT,
        capture_output=True, text=True, timeout=60)


def test_synthetic_2x_regression_fails_the_gate(tmp_path):
    base = _write_set(tmp_path / "base", {})
    new = _write_set(tmp_path / "new",
                     {"trials_per_s": 0.5, "golden_ms": 2.0})
    proc = _compare(base, new)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    regressed = {line.split()[1] for line in proc.stdout.splitlines()
                 if line.endswith("regressed")}
    assert regressed == {"trials_per_s", "golden_ms"}


def test_identical_sets_pass_the_gate(tmp_path):
    base = _write_set(tmp_path / "base", {})
    new = _write_set(tmp_path / "new", {})
    proc = _compare(base, new)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "regressed" not in proc.stdout
