"""Exporters: golden Prometheus text, golden Chrome trace, round trips.

The golden files under ``tests/obs/golden/`` pin the exact exposition
bytes.  Both exporters are deterministic functions of their input, and
the inputs here are built from injected clocks and fixed pids/tids, so a
byte diff means the wire format changed — bump the goldens consciously.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import pytest

from repro.errors import ObsError
from repro.obs.export import (
    chrome_trace,
    load_trace,
    render_prometheus,
    validate_chrome_trace,
    write_metrics,
    write_trace,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import render_trace_summary, summarize_trace
from repro.obs.tracing import TraceCollector, Tracer

GOLDEN = Path(__file__).resolve().parent / "golden"


def sample_snapshot() -> dict:
    registry = MetricsRegistry(enabled=True)
    calls = registry.counter(
        "repro_engine_eval_calls_total", "word-batch evaluation calls"
    )
    calls.add(3, backend="python", kind="binary")
    calls.add(1, backend="numpy", kind="binary")
    registry.gauge("repro_engine_ir_gates", "gates in the lowered IR").set(40)
    hist = registry.histogram(
        "repro_campaign_shard_seconds",
        "wall seconds per completed shard",
        buckets=(0.1, 1.0, 10.0),
    )
    for value in (0.05, 0.5, 0.75, 20.0):
        hist.observe(value)
    return registry.snapshot()


def sample_records() -> list[dict]:
    wall = itertools.count(1_700_000_000_000_000_000, 1_000_000)
    perf = itertools.count(0, 500_000)
    cpu = itertools.count(0, 200_000)
    coll = TraceCollector(
        enabled=True,
        wall_ns=lambda: next(wall),
        perf_ns=lambda: next(perf),
        cpu_ns=lambda: next(cpu),
        pid=4242,
    )
    tracer = Tracer("campaign", coll)
    with tracer.span("campaign.run", shards=2):
        with tracer.span("campaign.shard", shard=0) as span:
            span.set(outcome="done")
    records = coll.records()
    for rec in records:  # tids are interpreter-assigned; pin for the golden
        rec["tid"] = 7
    return records


def test_prometheus_exposition_matches_golden():
    assert render_prometheus(sample_snapshot()) == (
        GOLDEN / "metrics.prom"
    ).read_text()


def test_chrome_trace_matches_golden_and_validates():
    trace = chrome_trace(sample_records())
    validate_chrome_trace(trace)
    rendered = json.dumps(trace, indent=2, sort_keys=True) + "\n"
    assert rendered == (GOLDEN / "trace.json").read_text()


def test_prometheus_histogram_buckets_are_cumulative():
    text = render_prometheus(sample_snapshot())
    lines = [ln for ln in text.splitlines() if ln.startswith(
        "repro_campaign_shard_seconds_bucket")]
    counts = [int(ln.rsplit(" ", 1)[1]) for ln in lines]
    assert counts == [1, 3, 3, 4]  # le=0.1, 1.0, 10.0, +Inf
    assert 'le="+Inf"' in lines[-1]


def test_validate_rejects_malformed_traces():
    with pytest.raises(ObsError, match="missing top-level"):
        validate_chrome_trace({})
    with pytest.raises(ObsError, match="missing field"):
        validate_chrome_trace({"traceEvents": [{"ph": "X"}]})
    with pytest.raises(ObsError, match="unsupported phase"):
        validate_chrome_trace(
            {"traceEvents": [
                {"name": "x", "ph": "B", "pid": 1, "tid": 1, "ts": 0}
            ]}
        )


@pytest.mark.parametrize("filename", ["trace.json", "trace.jsonl"])
def test_trace_round_trip_both_formats(tmp_path, filename):
    records = sample_records()
    path = tmp_path / filename
    write_trace(str(path), records)
    loaded = load_trace(str(path))
    assert loaded == records


def test_load_trace_rejects_garbage(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("not json at all\n")
    with pytest.raises(ObsError, match="not valid JSONL"):
        load_trace(str(path))
    path = tmp_path / "missing.jsonl"
    with pytest.raises(ObsError, match="cannot read"):
        load_trace(str(path))


def test_write_metrics_formats_by_extension(tmp_path):
    snap = sample_snapshot()
    prom = tmp_path / "m.prom"
    write_metrics(str(prom), snap)
    assert prom.read_text() == render_prometheus(snap)
    js = tmp_path / "m.json"
    write_metrics(str(js), snap)
    assert json.loads(js.read_text()) == snap


def test_trace_summary_totals():
    records = sample_records()
    summary = summarize_trace(records)
    by_name = {(r["cat"], r["name"]): r for r in summary["rows"]}
    assert by_name[("campaign", "campaign.run")]["count"] == 1
    assert by_name[("campaign", "campaign.shard")]["count"] == 1
    assert summary["spans"] == 2 and summary["processes"] == 1
    run = by_name[("campaign", "campaign.run")]
    shard = by_name[("campaign", "campaign.shard")]
    # The shard nests in the run: the run's self time excludes it.
    assert shard["self_us"] == shard["wall_us"] == 500
    assert run["self_us"] == run["wall_us"] - shard["wall_us"] == 1000
    text = render_trace_summary(records)
    assert "campaign.run" in text and "campaign.shard" in text
    assert "%self" in text


def nested_records() -> list[dict]:
    """root [0, 1000) > mid [100, 900) > leaf [200, 800), one thread."""
    spans = [("root", 0, 1000, None), ("mid", 100, 800, 1), ("leaf", 200, 600, 2)]
    return [
        {
            "name": name, "cat": "t", "ts_us": ts, "dur_us": dur,
            "cpu_us": dur, "pid": 1, "tid": 1, "id": k, "parent": parent,
            "args": {},
        }
        for k, (name, ts, dur, parent) in enumerate(spans, start=1)
    ]


def test_self_shares_of_nested_spans_add_up_to_at_most_100():
    records = nested_records()
    rows = {r["name"]: r for r in summarize_trace(records)["rows"]}
    assert {n: r["self_us"] for n, r in rows.items()} == {
        "root": 200, "mid": 200, "leaf": 600,
    }
    lines = render_trace_summary(records).splitlines()[3:]
    env = [float(line.split()[-2].rstrip("%")) for line in lines]
    self_pct = [float(line.split()[-1].rstrip("%")) for line in lines]
    assert sum(env) > 100.0
    assert sum(self_pct) <= 100.0
    assert self_pct == [20.0, 20.0, 60.0]


def test_self_shares_of_concurrent_threads_add_up_to_100():
    """Two threads each busy for the whole envelope: 50% self each, not
    100% (the shares of a ``--workers 2`` campaign trace)."""
    records = [
        {
            "name": f"attempt{tid}", "cat": "t", "ts_us": 0, "dur_us": 1000,
            "cpu_us": 0, "pid": 1, "tid": tid, "id": tid, "parent": None,
            "args": {},
        }
        for tid in (1, 2)
    ]
    lines = render_trace_summary(records).splitlines()[3:]
    assert [float(line.split()[-2].rstrip("%")) for line in lines] == [100.0, 100.0]
    assert [float(line.split()[-1].rstrip("%")) for line in lines] == [50.0, 50.0]
    top = render_trace_summary(records, top=1).splitlines()[3:]
    assert [float(line.split()[-1].rstrip("%")) for line in top] == [50.0]
