"""Campaign benchmark: one workload, one seed, one JSON result.

Usage (from the root of a checkout)::

    python3 benchmarks/perf/run.py --workload bfs-sw --seed 1 \\
        --seconds 25 --trace 0

This process runs one child process (``worker.py``) at a time, so
the load is a single serial closed loop. With ``--trace 0`` it runs
:data:`SETUP_SAMPLES` children, each set up from a fresh interpreter
and then running campaign reps for an equal share of ``--seconds``;
it prints the end-to-end metrics of ``BENCHMARK.json``, with host times
normalised to the reference host speed (see ``calibrate.py``). With
``--trace 1`` one child runs a traced pass and the per-layer metrics are
printed instead; its layer profile and Perfetto trace land in
``.bench_build/perf/trace/``.

The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0
only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = ROOT / ".bench_build" / "perf"

#: Children (fresh interpreters) per untraced run; ``setup_s`` is their
#: median set-up time.
SETUP_SAMPLES = 3

#: Seconds a child may run beyond its budget before it is killed.
CHILD_GRACE_S = 60


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared_metrics() -> dict[str, dict[str, str]]:
    """``{"end_to_end"|"per_layer": {name: unit}}`` from BENCHMARK.json."""
    spec = benchmark_spec()
    return {group: {m["name"]: m["unit"] for m in spec[group]}
            for group in ("end_to_end", "per_layer")}


def percentile(values: list[float], pct: int) -> float:
    """The ``pct``-th percentile (inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(children: list[dict]) -> dict[str, float]:
    """The end-to-end metrics of the children's (normalised) times."""
    reps = [r for c in children for r in c["reps"]]
    latencies = [x for c in children for x in c["latencies_ms"]]
    return {
        "trials_per_s": statistics.median(
            r["trials"] / r["time_s"] for r in reps),
        "trial_p50_ms": percentile(latencies, 50),
        "trial_p80_ms": percentile(latencies, 80),
        "golden_ms": statistics.median(
            x for c in children for x in c["golden_ms"]),
        "setup_s": statistics.median(c["setup_s"] for c in children),
        "peak_rss_mb": max(c["rss_mb"] for c in children),
    }


def aggregate(children: list[dict], trace: bool) -> dict:
    """The benchmark's result object for the children's summaries."""
    values = children[0]["layers"] if trace else end_to_end(children)
    units = declared_metrics()["per_layer" if trace else "end_to_end"]
    if values.keys() != units.keys():
        raise RuntimeError(
            f"computed metrics {sorted(values)} do not match BENCHMARK.json "
            f"{sorted(units)}")
    return {
        "correct": not any(c["errors"] for c in children),
        "attempted": sum(c["attempted"] for c in children),
        "failed": sum(c["failed"] for c in children),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }


def child_env() -> dict[str, str]:
    """The caller's environment without ``REPRO_*`` knobs (campaigns run
    at their defaults) and with single-threaded numerical libraries."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(cfg: dict) -> dict:
    """Run one child to completion; returns its summary."""
    cfg = dict(cfg, spawn_t=time.monotonic())
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
        stdout=subprocess.PIPE, env=child_env(), text=True)
    try:
        stdout, _ = proc.communicate(timeout=cfg["budget_s"] + CHILD_GRACE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"child for {cfg['workload']} timed out") from None
    if proc.returncode != 0:
        raise RuntimeError(f"child for {cfg['workload']} exited with "
                           f"{proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=benchmark_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}; run the benchmark from "
              f"the root of a full checkout", file=sys.stderr)
        return 2
    compileall.compile_dir(str(src), quiet=1)

    run_dir = WORK / f"run-{os.getpid()}"
    base = {"workload": args.workload, "seed": args.seed,
            "trace": bool(args.trace),
            "out_dir": str(WORK / "trace")}
    count = 1 if args.trace else SETUP_SAMPLES
    children: list[dict] = []
    try:
        for k in range(count):
            first_rep = sum(len(c["reps"]) for c in children)
            children.append(spawn(dict(
                base, budget_s=args.seconds / count, first_rep=first_rep,
                work_dir=str(run_dir / f"child{k}"))))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    result = aggregate(children, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
