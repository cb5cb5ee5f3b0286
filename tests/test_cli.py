import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import EXPERIMENTS, main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out


@pytest.mark.parametrize("command", [["list"], ["apps"]])
def test_closed_stdout_exits_quietly(command):
    """``repro list | head -1``: the reader has gone before the CLI
    writes, so every write hits a closed pipe."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    try:
        proc = subprocess.run([sys.executable, "-m", "repro.cli", *command],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert proc.stderr == b""


def test_apps(capsys):
    assert main(["apps"]) == 0
    out = capsys.readouterr().out
    assert "sradv1" in out and "bfs" in out


def test_run_unknown_experiment(capsys):
    assert main(["run", "fig99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_run_fig12(capsys):
    # fig12 needs no campaigns, only tracing runs: safe for unit tests.
    assert main(["run", "fig12"]) == 0
    assert "register reuse" in capsys.readouterr().out


def test_disasm(capsys):
    assert main(["disasm", "va"]) == 0
    assert "va_k1" in capsys.readouterr().out


def test_lint_all_clean(capsys):
    assert main(["lint", "all"]) == 0
    out = capsys.readouterr().out
    assert "linted 29 kernel(s): clean" in out


def test_lint_single_app_and_kernel(capsys):
    assert main(["lint", "va"]) == 0
    assert "linted 1 kernel(s)" in capsys.readouterr().out
    assert main(["lint", "sradv1_k1"]) == 0
    assert "linted 1 kernel(s)" in capsys.readouterr().out


def test_lint_unknown_selector(capsys):
    assert main(["lint", "nope"]) == 2
    assert "unknown app/kernel" in capsys.readouterr().err


def test_lint_json_format(capsys):
    import json

    assert main(["lint", "all", "--format", "json"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert records, "the suite's waived findings must appear in the JSON"
    assert all(r["waived"] for r in records)
    keys = {"rule", "app", "kernel", "pc", "severity", "message", "waived"}
    assert all(keys <= set(r) for r in records)


def test_lint_json_reports_unwaived_findings(capsys):
    import json

    assert main(["lint", "lud_k2", "--format", "json", "--no-waivers"]) == 1
    records = json.loads(capsys.readouterr().out)
    races = [r for r in records if r["rule"] == "race"]
    assert races and not any(r["waived"] for r in races)
    assert all(r["severity"] == "error" for r in races)


def test_lint_no_launches_skips_launch_rules(capsys):
    # Without launch geometry the race/OOB rules cannot run, so the
    # bit-sliced lud_k2 races disappear even with waivers disabled.
    assert main(["lint", "lud_k2", "--no-launches", "--no-waivers"]) == 0
    assert "clean" in capsys.readouterr().out


def test_staticvf_table(capsys):
    assert main(["staticvf", "va"]) == 0
    out = capsys.readouterr().out
    assert "va_k1" in out and "ACE" in out and "reads/wr" in out


def test_staticvf_all(capsys):
    assert main(["staticvf", "all"]) == 0
    out = capsys.readouterr().out
    assert "bfs_k1" in out and "hotspot_k1" in out


def test_staticvf_smem_structure(capsys):
    assert main(["staticvf", "nw", "--structure", "smem"]) == 0
    out = capsys.readouterr().out
    assert "SMEM ACE" in out and "AVF-SMEM" in out
    assert "nw_k1" in out and "nw_k2" in out


def test_staticvf_control_structure(capsys):
    """The control-state estimate was dropped (it anti-correlates with
    the control-target campaigns); the family is no longer a choice."""
    with pytest.raises(SystemExit):
        main(["staticvf", "va_k1", "--structure", "control"])
    assert "invalid choice" in capsys.readouterr().err


def test_campaign_run_and_status(capsys, tmp_cache):
    assert main(["campaign", "run", "va", "--level", "sw",
                 "--trials", "6", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "va/va_k1/sw" in out and "failure rate" in out
    assert main(["campaign", "status"]) == 0
    out = capsys.readouterr().out
    assert "no in-flight campaign journals" in out
    assert "1 cached campaign result" in out


def test_campaign_uarch_run(capsys, tmp_cache):
    assert main(["campaign", "run", "va", "--level", "uarch",
                 "--structure", "rf", "--trials", "4", "--quiet"]) == 0
    assert "quadro-gv100-like" in capsys.readouterr().out


def test_campaign_fault_model_and_target_flags(capsys, tmp_cache):
    assert main(["campaign", "run", "va", "--level", "uarch",
                 "--structure", "rf", "--fault-model", "stuck0",
                 "--trials", "4", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "va/va_k1/uarch" in out and "stuck0/storage" in out
    assert main(["campaign", "run", "va", "--level", "uarch",
                 "--target", "control", "--fault-model", "intermittent",
                 "--trials", "4", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "intermittent/control" in out


def test_campaign_fault_model_rejects_garbage(capsys, tmp_cache):
    with pytest.raises(SystemExit):
        main(["campaign", "run", "va", "--fault-model", "cosmic"])
    assert "invalid choice" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["campaign", "run", "va", "--target", "alu"])
    assert "invalid choice" in capsys.readouterr().err


def test_campaign_control_target_rejects_sw_level(capsys, tmp_cache):
    assert main(["campaign", "run", "va", "--level", "sw",
                 "--target", "control", "--trials", "4"]) == 1
    err = capsys.readouterr().err
    assert "campaign failed" in err and "no notion" in err


def test_campaign_unknown_app(capsys, tmp_cache):
    assert main(["campaign", "run", "nope"]) == 2
    assert "unknown application" in capsys.readouterr().err


def test_campaign_unknown_kernel(capsys, tmp_cache):
    assert main(["campaign", "run", "va", "hotspot_k1"]) == 2
    assert "no kernel" in capsys.readouterr().err


def test_campaign_run_with_workers(capsys, tmp_cache):
    assert main(["campaign", "run", "va", "--level", "sw", "--trials", "8",
                 "--workers", "2", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "8 trials" in out
    # same campaign again: the parallel run's cache entry is reused
    assert main(["campaign", "run", "va", "--level", "sw", "--trials", "8",
                 "--quiet"]) == 0


def test_campaign_workers_auto_accepted(capsys, tmp_cache):
    assert main(["campaign", "run", "va", "--level", "sw", "--trials", "4",
                 "--workers", "auto", "--quiet"]) == 0


def test_campaign_workers_rejects_garbage(capsys, tmp_cache):
    for bad in ("0", "-2", "lots"):
        with pytest.raises(SystemExit):
            main(["campaign", "run", "va", "--workers", bad])
        assert "positive integer or 'auto'" in capsys.readouterr().err


def test_campaign_run_with_trace_then_report(capsys, tmp_cache, tmp_path):
    import json

    trace = tmp_path / "out.json"
    events = tmp_path / "events.jsonl"
    assert main(["campaign", "run", "va", "--level", "sw", "--trials", "6",
                 "--workers", "2", "--events", str(events),
                 "--trace", str(trace), "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "telemetry:" in out and str(events) in out
    assert "perfetto" in out

    payload = json.loads(trace.read_text())
    assert payload["traceEvents"]  # loadable Chrome trace
    tids = {e["tid"] for e in payload["traceEvents"]}
    assert {0, 1, 2} <= tids  # parent + both worker tracks

    assert main(["campaign", "report", str(events)]) == 0
    out = capsys.readouterr().out
    assert "trials committed   6" in out
    assert "throughput" in out
    assert "worker utilization" in out
    assert "outcome mix" in out


def test_campaign_report_by_bare_key(capsys, tmp_cache, monkeypatch):
    monkeypatch.setenv("REPRO_TELEMETRY", "1")
    assert main(["campaign", "run", "va", "--level", "sw",
                 "--trials", "4", "--quiet"]) == 0
    capsys.readouterr()
    stream = next((tmp_cache / "telemetry").glob("*.jsonl"))
    assert main(["campaign", "report", stream.stem]) == 0
    assert "trials committed   4" in capsys.readouterr().out


def test_campaign_report_missing_stream(capsys, tmp_cache):
    assert main(["campaign", "report", "nonexistent-key"]) == 2
    assert "no telemetry event stream" in capsys.readouterr().err


def test_campaign_run_cached_result_notes_no_trace(capsys, tmp_cache,
                                                   tmp_path):
    assert main(["campaign", "run", "va", "--level", "sw", "--trials", "4",
                 "--quiet"]) == 0
    capsys.readouterr()
    assert main(["campaign", "run", "va", "--level", "sw", "--trials", "4",
                 "--events", str(tmp_path / "e.jsonl"), "--quiet"]) == 0
    assert "served from the cache" in capsys.readouterr().out


def test_campaign_status_flags_stale_journal(capsys, tmp_cache, monkeypatch):
    """A journal left by a run whose trial count came from REPRO_TRIALS is
    reported as invalid once REPRO_TRIALS changes (its remaining plan no
    longer matches what a resume would execute)."""
    from repro.fi import CampaignSpec, run_campaign

    monkeypatch.setenv("REPRO_TRIALS", "12")

    def killer(done, total, outcome):
        if done == 3:
            raise KeyboardInterrupt()

    with pytest.raises(KeyboardInterrupt):
        run_campaign(CampaignSpec(level="sw", app="va", seed=1),
                     progress=killer)

    assert main(["campaign", "status"]) == 0
    out = capsys.readouterr().out
    assert "va/va_k1/sw" in out
    assert "3/12 trial(s) completed" in out

    monkeypatch.setenv("REPRO_TRIALS", "8")
    assert main(["campaign", "status"]) == 0
    out = capsys.readouterr().out
    assert "invalid — will restart" in out
    assert "REPRO_TRIALS" in out


def test_campaign_run_sdc_anatomy_then_profile(capsys, tmp_cache):
    """--sdc-anatomy prints the severity split and leaves a cached payload
    that `sdc profile <key>` and `sdc report` can render."""
    assert main(["campaign", "run", "kmeans", "kmeans_k2",
                 "--level", "uarch", "--structure", "rf", "--trials", "24",
                 "--seed", "3", "--sdc-anatomy", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "sdc severity:" in out
    assert "±" in out  # failure rate now carries its Wilson CI

    key = next(tmp_cache.glob("*.json")).stem
    assert main(["sdc", "profile", key]) == 0
    out = capsys.readouterr().out
    assert "corruption profiles" in out
    assert "rf" in out and "bit positions" in out

    assert main(["sdc", "profile", key, "--by", "severity"]) == 0
    assert "severity" in capsys.readouterr().out

    assert main(["sdc", "report"]) == 0
    out = capsys.readouterr().out
    assert "kmeans/kmeans_k2/uarch" in out


def test_sdc_profile_without_anatomy_records(capsys, tmp_cache):
    assert main(["campaign", "run", "va", "--level", "sw",
                 "--trials", "6", "--quiet"]) == 0
    capsys.readouterr()
    key = next(tmp_cache.glob("*.json")).stem
    assert main(["sdc", "profile", key]) == 1
    assert "--sdc-anatomy" in capsys.readouterr().err


def test_sdc_profile_unknown_target(capsys, tmp_cache):
    assert main(["sdc", "profile", "no-such-key"]) == 2
    assert "no cached result or journal" in capsys.readouterr().err


def test_sdc_report_empty_cache(capsys, tmp_cache):
    assert main(["sdc", "report"]) == 1
    assert "no cached campaign" in capsys.readouterr().err


# ------------------------------------------------------- run ledger CLI

def _seed_history(tmp_cache, seeds=(1, 2, 3)):
    for seed in seeds:
        assert main(["campaign", "run", "va", "--level", "sw",
                     "--trials", "6", "--seed", str(seed), "--quiet"]) == 0


def test_campaign_ls_and_filters(capsys, tmp_cache):
    _seed_history(tmp_cache, seeds=(1, 2))
    capsys.readouterr()
    assert main(["campaign", "ls"]) == 0
    out = capsys.readouterr().out
    assert "va/va_k1/sw" in out and "2 recorded campaign(s)" in out
    assert main(["campaign", "ls", "--app", "bfs"]) == 0
    assert "no recorded campaigns match" in capsys.readouterr().out


def test_campaign_ls_without_ledger(capsys, tmp_cache):
    assert main(["campaign", "ls"]) == 2
    assert "no run ledger" in capsys.readouterr().err


def test_campaign_history_trends_across_seeds(capsys, tmp_cache):
    """The acceptance criterion: AVF trend for one app across three runs,
    straight from the ledger, no payload decoding."""
    _seed_history(tmp_cache)
    capsys.readouterr()
    assert main(["campaign", "history", "va"]) == 0
    out = capsys.readouterr().out
    assert "3 run(s)" in out
    assert "vf range" in out
    for seed in ("1", "2", "3"):
        assert f" {seed} " in out


def test_campaign_show_by_key_prefix(capsys, tmp_cache):
    _seed_history(tmp_cache, seeds=(1,))
    capsys.readouterr()
    assert main(["campaign", "ls"]) == 0
    key = capsys.readouterr().out.split("\n")[2].split()[0]
    assert main(["campaign", "show", key[:8]]) == 0
    out = capsys.readouterr().out
    assert "va/va_k1/sw" in out and "failure_rate" in out
    assert main(["campaign", "show", "feedfacedead"]) == 1
    assert "no recorded campaign" in capsys.readouterr().err


def test_campaign_show_lists_live_perf_samples(capsys, tmp_cache):
    """A telemetry-enabled campaign records a perf sample, and ``campaign
    show`` (the ledger's only CLI reader of them) prints it."""
    assert main(["campaign", "run", "va", "--level", "sw", "--trials", "4",
                 "--telemetry", "--quiet"]) == 0
    (cached,) = tmp_cache.glob("*.json")
    capsys.readouterr()
    assert main(["campaign", "show", cached.stem]) == 0
    out = capsys.readouterr().out
    assert "perf samples (1)" in out and "[live]" in out


def test_campaign_watch_once_on_completed_campaign(capsys, tmp_cache):
    _seed_history(tmp_cache, seeds=(1,))
    cached = sorted(tmp_cache.glob("*.json"))
    assert cached
    capsys.readouterr()
    assert main(["campaign", "watch", cached[0].stem, "--once"]) == 0
    out = capsys.readouterr().out
    assert "[completed]" in out and "watch " in out


def test_campaign_watch_unknown_key(capsys, tmp_cache):
    tmp_cache.mkdir(parents=True, exist_ok=True)
    assert main(["campaign", "watch", "feedfacedead", "--once"]) == 1
    assert "no journal" in capsys.readouterr().err


def test_campaign_backfill_imports_cache(capsys, tmp_cache, monkeypatch):
    monkeypatch.setenv("REPRO_STORE", "0")  # run without live recording
    _seed_history(tmp_cache, seeds=(1, 2))
    monkeypatch.setenv("REPRO_STORE", "1")
    capsys.readouterr()
    assert main(["campaign", "backfill"]) == 0
    assert "backfilled 2 cached campaign(s)" in capsys.readouterr().out
    assert main(["campaign", "ls"]) == 0
    assert "2 recorded campaign(s)" in capsys.readouterr().out


def test_campaign_gc_dry_run_then_delete(capsys, tmp_cache):
    tmp_cache.mkdir(parents=True, exist_ok=True)
    corrupt = tmp_cache / "deadbeef.json.corrupt"
    corrupt.write_text("{ torn")
    capsys.readouterr()
    assert main(["campaign", "gc"]) == 0
    out = capsys.readouterr().out
    assert "would delete" in out and "re-run with --yes" in out
    assert corrupt.exists()  # dry run by default
    assert main(["campaign", "gc", "--yes"]) == 0
    assert "reclaimed" in capsys.readouterr().out
    assert not corrupt.exists()
    assert main(["campaign", "gc"]) == 0
    assert "nothing to prune" in capsys.readouterr().out
