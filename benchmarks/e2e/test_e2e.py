"""Checks of the end-to-end benchmark itself, on a reduced item list.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

The reduced circuit lists are passed to :func:`run.measure` directly; the
command line has no such option.
"""

from __future__ import annotations

import copy
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

#: Small circuits per workload, so the whole file runs in about a minute.
REDUCED = {
    "table2": ["cmb", "x2"],
    "threshold_sweep": ["C880"],
    "spcf_sweep": ["cmb", "C432"],
    "campaign": ["C432"],
}
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def site_workload(target: str) -> str:
    """The workload whose items reach a wrapped call site."""
    if target.startswith(("repro.campaign", "repro.engine.ir")):
        return "campaign"
    if target.startswith("repro.spcf:"):
        return "spcf_sweep"
    return "table2"


@pytest.fixture(scope="module")
def expected():
    return json.loads(run.EXPECTED.read_text())["workloads"]


@pytest.fixture(scope="module")
def reports(expected):
    return {
        workload: run.measure(workload, 0, 1, None, True, expected[workload], names)
        for workload, names in REDUCED.items()
    }


def test_reduced_runs_pass_every_check(reports):
    for workload, report in reports.items():
        assert report["errors"] == [], workload
        assert report["failed"] == 0 and report["attempted"] > 0


def test_self_times_and_other_add_up_to_the_traced_wall(reports):
    for workload, report in reports.items():
        layers = report["layers"]
        self_s = sum(layers[f"{layer}.self_s"]["value"] for layer in tracer.LAYERS)
        shares = sum(layers[f"{layer}.self_pct"]["value"] for layer in tracer.LAYERS)
        assert shares + layers["other_pct"]["value"] == pytest.approx(100.0, abs=1.0)
        # Nothing is counted twice: time outside every layer is not negative.
        assert layers["other_pct"]["value"] > -1.0, workload
        # Independently of the frame accounting, the root spans of the
        # Chrome trace cover the self times (plus speed-sample time).
        trace = json.loads((ROOT / report["trace_file"]).read_text())
        roots = sum(
            e["dur"] for e in trace["traceEvents"]
            if e["ph"] == "X" and "parent_span_id" not in e["args"]
        ) / 1e6
        assert self_s * 0.99 <= roots <= self_s * 1.03 + 0.01, workload


def test_traced_outputs_are_identical_and_originals_restored():
    names = REDUCED["table2"]
    plain = run.run_child(run.make_job("table2", 0, names))
    traced = run.run_child(run.make_job("table2", 0, names, trace=True))
    assert run.outputs_of(traced) == run.outputs_of(plain)

    originals = {}
    for point in tracer.POINTS:
        owner, attr = tracer.resolve(point.target)
        originals[point.target] = (owner, attr, vars(owner)[attr])
    layer_tracer = tracer.LayerTracer()
    layer_tracer.install()
    try:
        for owner, attr, original in originals.values():
            assert vars(owner)[attr] is not original
        with pytest.raises(RuntimeError):
            layer_tracer.install()
    finally:
        layer_tracer.remove()
    for target, (owner, attr, original) in originals.items():
        assert vars(owner)[attr] is original, target


def test_every_wrapped_call_site_is_reached_on_its_workload(reports):
    for point in tracer.POINTS:
        workload = site_workload(point.target)
        assert reports[workload]["sites"][point.target] > 0, (point.target, workload)


def test_metric_names_are_plain(reports):
    names = {*run.E2E_METRICS, *run.INFO_METRICS, *run.EXACT_METRICS, *run.layer_metrics()}
    for report in reports.values():
        names |= set(report["metrics"]) | set(report["layers"])
    bad = sorted(n for n in names if not NAME.match(n))
    assert bad == []


def test_benchmark_json_and_emitted_metrics_agree(reports):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.E2E_METRICS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.layer_metrics()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for trace, listed in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
        for workload, report in reports.items():
            line = run.contract_line({workload: report}, trace)
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert set(line["metrics"]) == {m["name"] for m in listed}, workload
            assert all(
                line["metrics"][m["name"]]["unit"] == m["unit"] for m in listed
            )


def test_editing_one_expected_value_fails_the_run(expected):
    edited = copy.deepcopy(expected["table2"])
    edited["items"]["cmb"]["area_overhead_pct"] += 1e-6
    report = run.measure("table2", 0, 1, None, False, edited, ["cmb"])
    assert report["failed"] == 1
    assert not run.contract_line({"table2": report}, False)["correct"]
    assert any("area_overhead_pct" in e for e in report["errors"])


def _metric(samples, exact=False, better="lower"):
    return run.describe(samples, "s", better, exact)


BASE = [10.0, 10.1, 10.2, 9.9, 10.0] * 2


@pytest.mark.parametrize(
    "base, change, bound, want",
    [
        (_metric(BASE), _metric([x + 0.05 for x in BASE]), 0.1, "same"),
        (_metric(BASE), _metric([x + 2.0 for x in BASE]), 0.1, "worse"),
        (_metric(BASE), _metric([x - 2.0 for x in BASE]), 0.1, "better"),
        (_metric(BASE[:4]), _metric([x - 2.0 for x in BASE[:4]]), 0.1, "same"),
        (_metric([8.0, 12.0] * 5), _metric([10.0] * 10), 0.1, "unresolved"),
        (_metric([8.0, 12.0] * 5), _metric([5.0] * 10), 0.1, "better"),
        (_metric([30.5], exact=True), _metric([30.5], exact=True), None, "same"),
        (_metric([30.5], exact=True), _metric([30.6], exact=True), None, "worse"),
        (_metric([97.0], True, "higher"), _metric([98.0], True, "higher"), None, "better"),
    ],
)
def test_compare_verdicts(base, change, bound, want):
    assert compare.verdict(base, change, bound)[0] == want
