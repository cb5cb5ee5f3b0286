"""Summarise one set of benchmark results, or compare two.

Usage::

    python3 benchmarks/perf/compare.py BASE_DIR            # one set
    python3 benchmarks/perf/compare.py BASE_DIR NEW_DIR    # base vs new

A set is a directory of result files as ``sweep.py`` writes them
(``<workload>.<anything>.json``, holding the benchmark's result line).
For each workload and end-to-end metric of ``BENCHMARK.json`` it reports
the median and quartiles of every set and the spread: the distance
between the quartiles as a share of the median. Comparing two sets, it
also reports the delta of the medians (positive = worse) and a verdict:

* ``ok`` — the new median is not worse than the base by more than the
  metric's bound;
* ``regressed`` — it is worse by more than the bound;
* ``unresolved`` — a set's spread is wider than the bound, so the
  difference cannot be told from noise, unless every new run reads better
  than every base run (then ``ok``).

Runs that failed a correctness check or a trial are listed. The exit
code is 1 when any verdict is ``regressed`` or any run failed, else 2
when any verdict is ``unresolved``, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def load_set(directory: Path) -> tuple[dict[str, dict[str, list[float]]],
                                       list[str]]:
    """``({workload: {metric: [values]}}, [failed run files])``."""
    values: dict[str, dict[str, list[float]]] = {}
    failed = []
    for path in sorted(directory.glob("*.json")):
        result = json.loads(path.read_text().strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            failed.append(path.name)
        per_metric = values.setdefault(path.name.split(".", 1)[0], {})
        for name, metric in result["metrics"].items():
            per_metric.setdefault(name, []).append(metric["value"])
    return values, failed


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(base: list[float], new: list[float], bound: float,
            better: str) -> tuple[float, str]:
    """``(delta, verdict)``; ``delta`` is the relative change of the
    median, signed so that positive is worse."""
    sign = 1.0 if better == "lower" else -1.0
    base_median = quartiles(base)[1]
    delta = sign * (quartiles(new)[1] - base_median) / abs(base_median)
    if max(spread(base), spread(new)) > bound:
        if all(sign * (n - b) < 0 for n in new for b in base):
            return delta, "ok"
        return delta, "unresolved"
    return delta, "regressed" if delta > bound else "ok"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path, nargs="?")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    workloads = [w["name"] for w in spec["workloads"]]
    base, failed = load_set(args.base)
    new, new_failed = (load_set(args.new) if args.new else ({}, []))
    failed += new_failed

    def stats(values: list[float]) -> str:
        q1, median, q3 = quartiles(values)
        return f"{median:10.4g} [{q1:.4g}, {q3:.4g}] {spread(values):6.1%}"

    head = f"{'workload':16} {'metric':13} {'bound':>6}  " \
           f"{'base median [q1, q3] spread':>36}"
    if args.new:
        head += f"  {'new median [q1, q3] spread':>36} {'delta':>7}  verdict"
    print(head)
    verdicts: set[str] = set()
    for workload in workloads:
        if workload not in base:
            continue
        for m in metrics:
            a = base[workload].get(m["name"])
            if not a:
                continue
            line = (f"{workload:16} {m['name']:13} {m['bound']:6.0%}  "
                    f"{stats(a):>36} (n={len(a)})")
            b = new.get(workload, {}).get(m["name"])
            if b:
                delta, word = verdict(a, b, m["bound"], m["better"])
                verdicts.add(word)
                line += f"  {stats(b):>36} (n={len(b)}) {delta:+7.1%}  {word}"
            print(line)
    for name in failed:
        print(f"failed run: {name}")
    if "regressed" in verdicts or failed:
        return 1
    return 2 if "unresolved" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
