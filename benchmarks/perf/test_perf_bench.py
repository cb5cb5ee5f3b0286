"""Tests of the campaign benchmark (``python -m pytest benchmarks/perf -q``)."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import digest
import layers
import run
import worker
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def child_cfg(tmp_path, monkeypatch, workload="gemm-uarch-rf", seed=2,
              trace=False, trials=2):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return {"workload": workload, "seed": seed, "trace": trace,
            "budget_s": 0.0, "trials": trials,
            "work_dir": str(tmp_path / "work"),
            "out_dir": str(tmp_path / "trace")}


def originals(app_name="gemm"):
    worker.import_repro()
    from repro.kernels import get_application

    cls = type(get_application(app_name))
    return cls, {(owner, attr): vars(owner)[attr]
                 for owner, attr, _ in layers.boundary_owners(cls)}


# ------------------------------------------------------------ span recorder

def test_self_time_subtracts_direct_children():
    ticks = iter([0, 1, 3, 4, 6, 7, 9, 10])
    rec = layers.SpanRecorder(clock=lambda: next(ticks))
    rec.begin_trial(0)  # t=0
    rec.begin("a")  # 1
    rec.begin("b")  # 3
    rec.end()  # 4: b lasted 1
    rec.end()  # 6: a lasted 5, of which b covered 1
    rec.begin("b")  # 7
    rec.end()  # 9: b lasted 2
    rec.end_trial()  # 10: trial lasted 10, children a and b covered 7
    assert rec.agg["a"] == [1, 5, 4]
    assert rec.agg["b"] == [2, 3, 3]
    assert rec.agg[layers.TRIAL] == [1, 10, 3]
    assert rec.trials == 1 and not rec.stack
    assert [(name, dur) for name, _, dur in rec.raw] == [
        ("b", 1), ("a", 5), ("b", 2), (layers.TRIAL, 10)]
    events = rec.trace_events()
    assert events[0]["name"] == layers.TRIAL and events[0]["ts"] == 0


def test_spans_outside_a_trial_are_not_recorded():
    rec = layers.SpanRecorder()
    calls = []
    wrapped = layers._span_wrapper(rec, "x", lambda: calls.append(1))
    wrapped()
    assert calls == [1] and rec.agg == {}
    rec.begin_trial(0)
    wrapped()
    rec.end_trial()
    assert rec.agg["x"][0] == 1


def test_trial_spans_must_nest():
    rec = layers.SpanRecorder()
    rec.begin_trial(0)
    rec.begin("open")
    with pytest.raises(RuntimeError):
        rec.end_trial()
    with pytest.raises(RuntimeError):
        layers.SpanRecorder().end_trial()


def test_every_span_counts_in_exactly_one_self_time_metric():
    with pytest.raises(ValueError):
        layers.layer_metrics(layers.SpanRecorder(), 1.0, 1.0)
    rec = layers.SpanRecorder()
    rec.trials = 1
    for span in layers.LAYER_OF:
        rec.agg[span] = [1, 1.0, 1.0]
    metrics = layers.layer_metrics(rec, 1.0, 2.0)
    total = sum(v for k, v in metrics.items() if k.endswith(".self_ms"))
    assert total == pytest.approx(1e3 * len(layers.LAYER_OF))


# ------------------------------------------------------------ wrappers

def test_traced_installs_wrappers_and_restores_originals():
    cls, before = originals()
    from repro.sim.sm import SM

    with layers.traced(cls):
        assert vars(SM)["pick_ready"] is not before[(SM, "pick_ready")]
        assert all(vars(o)[a] is not f for (o, a), f in before.items())
    assert all(vars(o)[a] is f for (o, a), f in before.items())


def test_untraced_child_installs_no_wrappers(tmp_path, monkeypatch):
    _, before = originals()

    def refuse(*args, **kwargs):
        raise AssertionError("an untraced child installed wrappers")

    monkeypatch.setattr(layers, "traced", refuse)
    out = worker.run_child(child_cfg(tmp_path, monkeypatch))
    assert out["errors"] == [] and out["attempted"] == 2
    assert all(vars(o)[a] is f for (o, a), f in before.items())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_child_reports_layers_and_restores(workload, tmp_path,
                                                  monkeypatch):
    _, before = originals(WORKLOADS[workload].app)
    out = worker.run_child(child_cfg(tmp_path, monkeypatch, workload,
                                     trace=True))
    assert all(vars(o)[a] is f for (o, a), f in before.items())
    assert out["errors"] == []
    m = out["layers"]
    assert {k: v for k, v in m.items() if not v > 0} == {}
    if workload == "gemm-uarch-rf":
        assert m["sim.gpu.launch.calls"] == 1  # gemm is a single launch
    assert m["sim.model.warp_instructions"] <= m["sim.sm.execute.calls"]
    assert m["fi.runner.self_ms"] <= 0.05 * m["trace.trial_ms"]
    trace = json.loads((tmp_path / "trace" / f"{workload}.seed2.trace.json")
                       .read_text())
    assert any(e["name"] == layers.TRIAL for e in trace["traceEvents"])
    profile = json.loads((tmp_path / "trace"
                          / f"{workload}.seed2.layers.json").read_text())
    assert profile["metrics"] == m


# ------------------------------------------------------------ metric names

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def synthetic_child(**overrides):
    child = {"setup_s": 0.5, "golden_ms": [20.0, 21.0], "rss_mb": 50.0,
             "latencies_ms": [10.0, 11.0, 12.0], "errors": [],
             "reps": [{"trials": 3, "wall_s": 0.3, "time_s": 0.3}],
             "attempted": 3, "failed": 0}
    child.update(overrides)
    return child


def test_metric_names_match_benchmark_json():
    names = [m["name"] for group in ("end_to_end", "per_layer")
             for m in SPEC[group]] + [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}

    result = run.aggregate([synthetic_child()], trace=False)
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    rec = layers.SpanRecorder()
    rec.trials = 1
    rec.agg[layers.TRIAL] = [1, 1.0, 1.0]
    traced = run.aggregate([synthetic_child(
        layers=layers.layer_metrics(rec, 1.0, 2.0))], trace=True)
    assert list(traced["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for group in ("end_to_end", "per_layer"):
        units = {m["name"]: m["unit"] for m in SPEC[group]}
        got = (result if group == "end_to_end" else traced)["metrics"]
        assert {k: v["unit"] for k, v in got.items()} == units


def test_aggregate_of_untraced_children():
    result = run.aggregate([synthetic_child(setup_s=0.4),
                            synthetic_child(setup_s=0.6, rss_mb=70.0)],
                           trace=False)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["trials_per_s"] == pytest.approx(10.0)
    assert m["trial_p50_ms"] == 11.0
    assert m["setup_s"] == 0.5 and m["peak_rss_mb"] == 70.0
    assert result["correct"] and result["attempted"] == 6


# ------------------------------------------------------------ digest

def test_digest_mismatch_fails_every_trial_of_the_rep(tmp_path, monkeypatch):
    monkeypatch.setattr(digest, "load_expected", lambda: {
        "gemm-uarch-rf": {"golden": "0" * 64, "campaign": "0" * 64}})
    out = worker.run_child(child_cfg(tmp_path, monkeypatch))
    assert out["errors"] and out["failed"] == out["attempted"] == 2
    result = run.aggregate([out, out, out], trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_committed_digest_covers_every_workload():
    assert set(digest.load_expected()) == set(WORKLOADS)


# ------------------------------------------------------------ compare

def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert compare.verdict(base, [10.5, 10.4, 10.6, 10.5], 0.1, "lower")[1] \
        == "ok"
    assert compare.verdict(base, [12.0, 12.1, 11.9, 12.0], 0.1, "lower")[1] \
        == "regressed"
    delta, word = compare.verdict(base, [8.0, 8.1, 7.9], 0.1, "higher")
    assert word == "regressed" and delta == pytest.approx(0.2, abs=0.01)
    noisy = [5.0, 10.0, 15.0, 10.0, 20.0]
    assert compare.verdict(noisy, [12.0, 11.0, 13.0], 0.1, "lower")[1] \
        == "unresolved"
    assert compare.verdict(noisy, [4.0, 4.5, 3.0], 0.1, "lower")[1] == "ok"


def test_compare_reports_sets(tmp_path, capsys):
    for name, values in (("a", [10.0, 10.1, 9.9]), ("b", [13.0, 13.1, 12.9]),
                         ("noisy", [8.0, 10.0, 14.0])):
        d = tmp_path / name
        d.mkdir()
        for i, v in enumerate(values):
            metrics = {m["name"]: {"value": v, "unit": m["unit"]}
                       for m in SPEC["end_to_end"]}
            (d / f"bfs-sw.seed{i}.json").write_text(json.dumps(
                {"correct": True, "attempted": 1, "failed": 0,
                 "metrics": metrics}))
    assert compare.main([str(tmp_path / "a")]) == 0
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    out = capsys.readouterr().out
    assert "regressed" in out and "bfs-sw" in out
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "noisy")]) == 2
    assert "unresolved" in capsys.readouterr().out


# ------------------------------------------------------------ end to end

@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_one_rep_of_two_trials(workload, tmp_path, monkeypatch):
    out = worker.run_child(child_cfg(tmp_path, monkeypatch, workload))
    assert out["errors"] == []
    assert out["attempted"] == 2 and out["failed"] == 0
    assert len(out["reps"]) == 1 and len(out["latencies_ms"]) == 2
    assert len(out["golden_ms"]) == WORKLOADS[workload].golden_repeats
    result = run.aggregate([out], trace=False)
    assert result["correct"]
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_command_prints_the_result_line():
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "gemm-uarch-rf", "--seed", "3",
                           "--seconds", "1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180)
    assert proc.returncode == 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 3 * WORKLOADS["gemm-uarch-rf"].trials


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable] + SPEC["command"][1:]
        + ["--workload", "bfs-sw", "--seed", "1", "--seconds", "1",
           "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=180)
    assert proc.returncode != 0 and proc.stdout == ""
