"""Run the benchmark over many seeds, interleaving the workloads.

Usage (from the root of a checkout)::

    python3 benchmarks/perf/sweep.py --out DIR [--seeds 1-10]

Runs the ``BENCHMARK.json`` command untraced once per (seed, workload),
one run at a time, and writes each run's result line to
``DIR/<workload>.seed<N>.json`` for ``compare.py``. Runs are interleaved
round-robin across workloads and the order rotates every round, so
every workload is spread over the whole sweep: host speed drifts for tens
of seconds at a time, and a sweep that ran one workload after another
would let a slow phase land on a single workload.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def parse_seeds(text: str) -> list[int]:
    """``"1-10"`` or ``"1,4,7"``."""
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def schedule(workloads: list[str], seeds: list[int]) -> list[tuple[str, int]]:
    """Round ``i`` runs every workload at ``seeds[i]``, starting from
    workload ``i mod len(workloads)``."""
    order = []
    for i, seed in enumerate(seeds):
        k = i % len(workloads)
        order += [(w, seed) for w in workloads[k:] + workloads[:k]]
    return order


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seeds", default="1-10", type=parse_seeds)
    args = parser.parse_args(argv)

    args.out.mkdir(parents=True, exist_ok=True)
    status = 0
    for workload, seed in schedule(names, args.seeds):
        cmd = spec["command"] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload} seed {seed}: exit {proc.returncode}",
                  file=sys.stderr)
            status = 1
        if lines:
            (args.out / f"{workload}.seed{seed}.json").write_text(
                lines[-1] + "\n")
            print(f"{workload} seed {seed}: {lines[-1]}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
