"""CLI observability plumbing: --trace/--metrics, ``info``, ``obs report``.

These run through :func:`repro.cli.main` in-process, so the autouse obs
reset in ``tests/conftest.py`` keeps the global registry clean between
cases.  The campaign case uses real subprocess workers, proving the
``REPRO_OBS`` hand-off and the JSON-over-stdio span return path.
"""

from __future__ import annotations

import json

import repro.cli
import repro.core.masking as masking_mod
import repro.spcf.timedfunc as timedfunc_mod
from repro import obs
from repro.cli import main
from repro.netlist import lsi10k_like_library
from repro.obs.export import load_trace, validate_chrome_trace


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_reports_toolkit_state(capsys):
    code, out, _ = run(capsys, "info")
    assert code == 0
    assert "repro version" in out
    assert "python" in out
    assert "observability     : disabled" in out


def test_trace_and_metrics_flags_enable_and_write(capsys, tmp_path):
    trace = tmp_path / "report.trace.json"
    metrics = tmp_path / "report.prom"
    code, _, err = run(
        capsys, "report", "cmb", "--trace", str(trace), "--metrics", str(metrics)
    )
    assert code == 0
    assert f"trace written to {trace}" in err
    assert f"metrics written to {metrics}" in err
    assert obs.enabled()  # the flags switched recording on (fixture restores)

    raw = json.loads(trace.read_text())
    validate_chrome_trace(raw)
    records = load_trace(str(trace))
    assert any(r["name"] == "engine.compile" for r in records)
    text = metrics.read_text()
    assert "# TYPE repro_engine_compile_cache_misses_total counter" in text


def test_mask_trace_has_lift_span_and_trial_cost_counters(capsys, tmp_path):
    trace = tmp_path / "mask.trace.json"
    metrics = tmp_path / "mask.json"
    code, _, _ = run(
        capsys, "mask", "comparator2",
        "--trace", str(trace), "--metrics", str(metrics),
    )
    assert code == 0
    records = load_trace(str(trace))
    by_name = {r["name"]: r for r in records}
    run_span = by_name["synth.mask_circuit"]
    assert by_name["synth.lift"]["parent"] == run_span["id"]
    assert by_name["synth.collapse"]["parent"] == run_span["id"]
    pipeline_span = by_name["pipeline.mask_circuit"]
    for child in (
        "synth.mask_circuit", "core.integrate", "core.verify", "core.overhead_report"
    ):
        assert by_name[child]["parent"] == pipeline_span["id"], child
    counters = json.loads(metrics.read_text())["metrics"]
    assert "repro_synth_trial_cost_hits_total" in counters
    assert "repro_synth_trial_cost_misses_total" in counters


def test_mask_trace_has_lift_span_only_on_a_collapse_cache_miss(
    capsys, tmp_path, monkeypatch
):
    # One library object across both runs, so the second run's key matches.
    library = lsi10k_like_library()
    monkeypatch.setattr(repro.cli, "builtin_library", lambda name: library)
    masking_mod._collapse_cache.clear()
    timedfunc_mod._functions_cache.clear()
    traces = []
    for k in range(2):
        obs.reset()  # each trace holds only its own run
        trace = tmp_path / f"mask{k}.trace.json"
        metrics = tmp_path / f"mask{k}.json"
        code, _, _ = run(
            capsys, "mask", "comparator2",
            "--trace", str(trace), "--metrics", str(metrics),
        )
        assert code == 0
        traces.append(
            ({r["name"]: r for r in load_trace(str(trace))},
             json.loads(metrics.read_text())["metrics"])
        )
    masking_mod._collapse_cache.clear()
    timedfunc_mod._functions_cache.clear()
    (miss, miss_metrics), (hit, hit_metrics) = traces
    assert "synth.lift" in miss and "synth.lift" not in hit
    assert miss["synth.collapse"]["args"]["cached"] is False
    assert hit["synth.collapse"]["args"]["cached"] is True
    assert hit["synth.collapse"]["parent"] == hit["synth.mask_circuit"]["id"]
    assert "repro_synth_collapse_cache_misses_total" in miss_metrics
    assert "repro_synth_collapse_cache_hits_total" in hit_metrics
    assert "repro_synth_bdd_manager_cache_misses_total" in miss_metrics
    assert "repro_synth_bdd_manager_cache_hits_total" in hit_metrics


def test_traced_mask_after_an_untraced_one_publishes_computed_table(
    capsys, tmp_path
):
    # Both runs share the circuit's content, so a manager cached by the
    # untraced run (no op counting) must not serve the traced one.
    timedfunc_mod._functions_cache.clear()
    code, _, _ = run(capsys, "mask", "comparator2")
    assert code == 0 and not obs.enabled()
    metrics = tmp_path / "mask.json"
    code, _, _ = run(capsys, "mask", "comparator2", "--metrics", str(metrics))
    timedfunc_mod._functions_cache.clear()
    assert code == 0
    counters = json.loads(metrics.read_text())["metrics"]
    assert "repro_bdd_computed_hits_total" in counters


def test_metrics_json_extension_writes_snapshot(capsys, tmp_path):
    metrics = tmp_path / "m.json"
    code, _, _ = run(capsys, "report", "cmb", "--metrics", str(metrics))
    assert code == 0
    snap = json.loads(metrics.read_text())
    assert snap["schema"] == 1
    assert "repro_engine_compile_cache_misses_total" in snap["metrics"]


def test_campaign_run_trace_reconstructs_runner_timeline(capsys, tmp_path):
    """The ISSUE acceptance: ``repro campaign run --trace t.json`` yields a
    Chrome trace whose shard spans reconstruct the runner timeline, with
    worker spans stitched in from the subprocess pids."""
    trace = tmp_path / "camp.trace.json"
    ckpt = tmp_path / "camp.jsonl"
    code, _, _ = run(
        capsys,
        "campaign", "run", str(ckpt),
        "--circuits", "comparator2",
        "--modes", "seu",
        "--shards", "2",
        "--vectors", "6",
        "--workers", "1",
        "--trace", str(trace),
    )
    assert code == 0
    validate_chrome_trace(json.loads(trace.read_text()))
    records = load_trace(str(trace))
    by_name: dict[str, list] = {}
    for rec in records:
        by_name.setdefault(rec["name"], []).append(rec)
    assert len(by_name["campaign.run"]) == 1
    assert len(by_name["campaign.shard"]) == 2
    assert len(by_name["campaign.worker_shard"]) == 2
    run_span = by_name["campaign.run"][0]
    # shard spans nest under the run span, on the runner's pid
    for shard_span in by_name["campaign.shard"]:
        assert shard_span["parent"] == run_span["id"]
        assert shard_span["pid"] == run_span["pid"]
        assert shard_span["args"]["outcome"] == "done"
    # worker spans arrived from *other* processes and fit inside the
    # runner's wall-clock envelope (epoch-anchored timestamps line up)
    t0, t1 = run_span["ts_us"], run_span["ts_us"] + run_span["dur_us"]
    for worker_span in by_name["campaign.worker_shard"]:
        assert worker_span["pid"] != run_span["pid"]
        assert t0 <= worker_span["ts_us"] <= worker_span["ts_us"] + \
            worker_span["dur_us"] <= t1


def test_obs_report_summarizes_a_trace(capsys, tmp_path):
    trace = tmp_path / "t.trace.json"
    code, _, _ = run(capsys, "report", "cmb", "--trace", str(trace))
    assert code == 0
    code, out, _ = run(capsys, "obs", "report", str(trace))
    assert code == 0
    assert "engine:engine.compile" in out
    assert "trace envelope" in out


def test_obs_report_bad_file_is_a_tool_error(capsys, tmp_path):
    bad = tmp_path / "nope.json"
    code, _, err = run(capsys, "obs", "report", str(bad))
    assert code == 2
    assert "error" in err
