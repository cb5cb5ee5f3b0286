"""One benchmark child process: set up, then run campaign reps.

Usage: ``python3 benchmarks/perf/worker.py '<json config>'`` (``run.py``
builds the config). The child imports ``repro`` from the checkout's
``src/``, builds the application and its first (cold) golden run — the
set-up the ``setup_s`` metric times from process start — and then runs
reps until its time budget is spent. A rep is ``golden_repeats`` warm
golden runs followed by one ``run_campaign`` of the workload's trials in
a fresh cache directory, with ``workers=1`` and telemetry off, through the
public ``repro`` API only.

Host times are normalised to the reference host speed by a
:class:`calibrate.Timeline`: a calibration sample is taken around every
golden run and between trials at most every
:data:`calibrate.INTERVAL_S` (its time is excluded from the trial
latencies and the campaign wall time), and each golden run and trial is
scaled by the samples taken around it.

Every rep is checked: the golden outputs must equal the application's
NumPy reference bit for bit, the golden per-launch stats must match the
committed digest, and at campaign seed 1 so must the campaign result. A
rep that fails a check counts all its trials as failed.

With ``trace`` set the child instead runs the campaign of rep 0 a few
times untraced, then once more under :func:`layers.traced`, and reports
per-layer metrics (see ``layers.py``).

The child prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import calibrate
import digest
import layers
from workloads import WORKLOADS, Workload, rep_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Untraced campaigns a traced child runs before its traced one.
TRACE_BASELINE_REPS = 3

#: Calibration samples taken right after set-up, to normalise it.
SETUP_CALIBRATION_SAMPLES = 3


def import_repro() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"repro imported from {repro.__file__}, "
                         f"not from {src}")


def work_root() -> Path:
    """Working space inside the checkout (ignored by git)."""
    path = ROOT / ".bench_build" / "perf"
    path.mkdir(parents=True, exist_ok=True)
    return path


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def outputs_match(a: dict, b: dict) -> bool:
    """Bitwise equality of two output dicts (independent of the
    simulator's own comparator, which the traced pass wraps)."""
    import numpy as np

    return a.keys() == b.keys() and all(
        np.asarray(a[k]).shape == np.asarray(b[k]).shape
        and np.ascontiguousarray(a[k]).tobytes()
        == np.ascontiguousarray(b[k]).tobytes()
        for k in a)


class Child:
    """The state of one child process: its app, config and tallies."""

    def __init__(self, wl: Workload, trials: int, work_dir: Path):
        from repro.arch.config import quadro_gv100_like, tesla_v100_like
        from repro.kernels import get_application

        self.wl = wl
        self.trials = trials
        self.work_dir = work_dir
        self.app = get_application(wl.app)
        self.config = (quadro_gv100_like() if wl.config == "gv100"
                       else tesla_v100_like())
        self.reference = None
        self.expected = digest.load_expected().get(wl.name, {})
        self.timeline = calibrate.Timeline()
        self.golden_ms: list[float] = []
        self.latencies_ms: list[float] = []
        self.reps: list[dict] = []
        self.campaigns = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.rss_mb: float | None = None

    def golden(self, repeats: int):
        """``repeats`` golden runs between calibration samples; returns
        ``(last profile, normalised seconds of each run)``."""
        from repro.fi import profile_app

        runs = []
        for _ in range(repeats):
            self.timeline.sample()
            t0 = time.perf_counter()
            profile = profile_app(self.app, self.config)
            runs.append((t0, time.perf_counter()))
        self.timeline.sample()
        return profile, [(b - a) * self.timeline.scale(a, b) for a, b in runs]

    def golden_problems(self, profile) -> list[str]:
        """What is wrong with a golden run: outputs against the NumPy
        reference, per-launch stats against the committed digest."""
        if self.reference is None:
            self.reference = self.app.reference()
        problems = []
        if not outputs_match(profile.golden, self.reference):
            problems.append("golden outputs differ from the reference")
        observed = digest.golden_digest(profile)
        if observed != self.expected.get("golden"):
            problems.append(f"golden digest {observed} != committed "
                            f"{self.expected.get('golden')}")
        return problems

    def campaign(self, profile, seed: int, rec=None):
        """One campaign in a fresh cache directory; returns ``(result,
        raw wall seconds, normalised wall seconds, normalised per-trial
        latencies in seconds)``.

        Untraced, calibration samples are taken between trials and their
        time is left out of both the latencies and the wall time. With a
        :class:`layers.SpanRecorder` nothing is sampled (the normalised
        values then come from the samples before and after), and trial
        ``i``'s span opens at trial ``i - 1``'s progress callback and
        closes at its own.
        """
        from repro.fi import CampaignSpec, run_campaign

        wl = self.wl
        self.campaigns += 1
        cache = self.work_dir / f"campaign{self.campaigns}"
        os.environ["REPRO_CACHE_DIR"] = str(cache)
        spec = CampaignSpec(
            level=wl.level, app=self.app, kernel=wl.kernel,
            structure=wl.structure, config=self.config, trials=self.trials,
            seed=seed, workers=1, telemetry=False)
        trials: list[tuple[float, float]] = []
        sampling = 0.0
        self.timeline.sample()
        t0 = time.perf_counter()
        prev = last_sample = t0

        def progress(done: int, total: int, outcome) -> None:
            nonlocal prev, last_sample, sampling
            now = time.perf_counter()
            trials.append((prev, now))
            prev = now
            if rec is not None:
                rec.end_trial()
                if done < total:
                    rec.begin_trial(done)
            elif done < total and now - last_sample >= calibrate.INTERVAL_S:
                self.timeline.sample()
                prev = last_sample = time.perf_counter()
                sampling += prev - now

        try:
            if rec is not None:
                rec.begin_trial(0)
            result = run_campaign(spec, profile=profile, progress=progress)
            end = time.perf_counter()
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        self.timeline.sample()
        scale = self.timeline.scale
        lat = [(b - a) * scale(a, b) for a, b in trials]
        tail = end - trials[-1][1]  # cache store and ledger record
        norm_wall = sum(lat) + tail * scale(trials[-1][1], end)
        return result, end - t0 - sampling, norm_wall, lat

    def rep(self, seed: int, profile=None, rec=None) -> dict:
        """One checked rep (warm golden runs unless ``profile`` is given,
        then the campaign); returns its record. A rep that fails a check
        is still measured, and all its trials count as failed. Traced
        reps (``rec``) add nothing to the end-to-end tallies."""
        golden_s: list[float] = []
        if profile is None:
            profile, golden_s = self.golden(self.wl.golden_repeats)
        problems = self.golden_problems(profile)
        result, wall, norm_wall, lat = self.campaign(profile, seed, rec)
        observed = digest.campaign_digest(result)
        self.attempted += self.trials
        if result.trials != self.trials or result.counts.total != self.trials:
            problems.append(f"ran {result.counts.total} of {self.trials} "
                            f"trials")
        if (seed == digest.DIGEST_SEED and self.trials == self.wl.trials
                and observed != self.expected.get("campaign")):
            problems.append(f"campaign digest {observed} != committed "
                            f"{self.expected.get('campaign')}")
        ok = not problems
        if ok:
            self.failed += result.counts.crash
        else:
            self._error(f"{self.wl.name} seed {seed}: " + "; ".join(problems))
            self.failed += self.trials
        record = {"seed": seed, "trials": self.trials, "wall_s": wall,
                  "time_s": norm_wall, "crash": result.counts.crash,
                  "ok": ok, "digest": observed}
        if rec is None:
            self.reps.append(record)
            self.latencies_ms += [1e3 * x for x in lat]
            self.golden_ms += [1e3 * x for x in golden_s]
        if self.rss_mb is None:
            self.rss_mb = peak_rss_mb()
        return record

    def _error(self, message: str) -> None:
        self.errors.append(message)
        print(f"check failed: {message}", file=sys.stderr)

    def summary(self) -> dict:
        return {"golden_ms": self.golden_ms,
                "latencies_ms": self.latencies_ms, "reps": self.reps,
                "attempted": self.attempted, "failed": self.failed,
                "errors": self.errors, "rss_mb": self.rss_mb}


def run_reps(child: Child, seed: int, first_rep: int,
             budget_s: float) -> None:
    """Reps ``first_rep, first_rep + 1, ...`` until the next one would
    overrun ``budget_s`` (at least one)."""
    start = time.monotonic()
    last = 0.0
    rep = first_rep
    while True:
        if rep > first_rep and time.monotonic() - start + last > budget_s:
            return
        t0 = time.monotonic()
        child.rep(rep_seed(seed, rep))
        last = time.monotonic() - t0
        rep += 1


def run_traced(child: Child, seed: int, budget_s: float,
               out_dir: Path) -> dict:
    """Rep 0's campaign untraced (up to :data:`TRACE_BASELINE_REPS`
    times, as the budget allows), then once traced; returns the
    per-layer metrics and writes ``<workload>.seed<N>.layers.json`` and
    the Perfetto trace of trial 0 to ``out_dir``."""
    from repro.telemetry.trace import write_trace

    wl = child.wl
    campaign_seed = rep_seed(seed, 0)
    start = time.monotonic()
    profile, _ = child.golden(wl.golden_repeats)
    walls: list[float] = []
    digests: set[str] = set()
    while len(walls) < TRACE_BASELINE_REPS:
        record = child.rep(campaign_seed, profile=profile)
        walls.append(record["wall_s"])
        digests.add(record["digest"])
        # A traced campaign costs about two untraced ones.
        if time.monotonic() - start + 3 * record["wall_s"] > budget_s:
            break

    with layers.traced(type(child.app)) as rec:
        record = child.rep(campaign_seed, profile=profile, rec=rec)
    if record["digest"] not in digests:
        child._error(f"{wl.name}: traced campaign result differs from the "
                     f"untraced one")
    metrics = layers.layer_metrics(rec, statistics.median(walls),
                                   record["wall_s"], child.timeline.scale())

    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{wl.name}.seed{seed}"
    trace_path = write_trace(rec.trace_events(),
                             out_dir / f"{stem}.trace.json")
    (out_dir / f"{stem}.layers.json").write_text(json.dumps({
        "workload": wl.name, "campaign_seed": campaign_seed,
        "trials": rec.trials, "metrics": metrics,
        "spans": {name: {"calls": c, "total_ms": 1e3 * t, "self_ms": 1e3 * s}
                  for name, (c, t, s) in sorted(rec.agg.items())},
        "untraced_wall_s": walls, "traced_wall_s": record["wall_s"],
        "trace": trace_path.name, "raw_spans_dropped": rec.raw_dropped,
    }, indent=2, sort_keys=True) + "\n")
    print(f"layer profile: {out_dir / (stem + '.layers.json')}",
          file=sys.stderr)
    return metrics


def run_child(cfg: dict) -> dict:
    """Run one child as ``cfg`` describes; returns its JSON summary.

    ``cfg`` keys: ``workload``, ``seed``, ``budget_s``, ``trace``,
    ``work_dir``, ``out_dir``, and optionally ``spawn_t`` (the parent's
    ``time.monotonic()`` when it started this process; default: now),
    ``first_rep`` and ``trials`` (override of the workload's trials per
    rep). A ``budget_s`` of 0 runs one rep (traced: one untraced
    campaign, then the traced one).
    """
    spawn_t = cfg.get("spawn_t", time.monotonic())
    import_repro()
    wl = WORKLOADS[cfg["workload"]]
    work_dir = Path(cfg["work_dir"])
    work_dir.mkdir(parents=True, exist_ok=True)
    from repro.fi import profile_app

    child = Child(wl, cfg.get("trials") or wl.trials, work_dir)
    profile_app(child.app, child.config)  # first (cold) golden run
    setup_s = time.monotonic() - spawn_t
    for _ in range(SETUP_CALIBRATION_SAMPLES):
        child.timeline.sample()

    out = {"setup_s": setup_s * child.timeline.scale()}
    if cfg["trace"]:
        out["layers"] = run_traced(child, cfg["seed"], cfg["budget_s"],
                                   Path(cfg["out_dir"]))
    else:
        run_reps(child, cfg["seed"], cfg.get("first_rep", 0),
                 cfg["budget_s"])
    out.update(child.summary())
    return out


def seed_campaign(workload: str, seed: int, cache_dir) -> tuple:
    """The golden profile and campaign result of rep 0 at ``seed``
    (what ``digest.json`` records), unchecked."""
    child = Child(WORKLOADS[workload], WORKLOADS[workload].trials,
                  Path(cache_dir))
    from repro.fi import profile_app

    profile = profile_app(child.app, child.config)
    result = child.campaign(profile, rep_seed(seed, 0))[0]
    return profile, result


if __name__ == "__main__":
    print(json.dumps(run_child(json.loads(sys.argv[1]))))
