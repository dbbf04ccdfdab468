"""SARIF 2.1.0 reporter: structure, rule metadata, fingerprints."""

from __future__ import annotations

import json

from repro.analysis import Diagnostic, LintReport, Severity, render_sarif, sarif_log
from repro.analysis.rules import RULE_REGISTRY
from repro.analysis.sarif import FINGERPRINT_KEY, SARIF_SCHEMA_URI, SARIF_VERSION


def diag(severity=Severity.WARNING, data=None):
    return Diagnostic(
        rule_id="ABS005",
        rule_name="confirmed-hazard",
        severity=severity,
        circuit="comparator2",
        location="y",
        message="static-0 hazard",
        hint="mask it",
        data=data,
    )


def one_report(*diags):
    return {
        "comparator2": LintReport(
            circuit_name="comparator2",
            num_gates=7,
            num_inputs=4,
            num_outputs=1,
            diagnostics=tuple(diags),
        )
    }


def test_log_skeleton():
    log = sarif_log(one_report(diag()))
    assert log["version"] == SARIF_VERSION
    assert log["$schema"] == SARIF_SCHEMA_URI
    assert len(log["runs"]) == 1
    driver = log["runs"][0]["tool"]["driver"]
    assert driver["name"] == "repro-analyze"
    assert driver["version"]


def test_rules_cover_lint_registry():
    ids = [r["id"] for r in sarif_log(one_report())["runs"][0]["tool"]["driver"]["rules"]]
    assert ids == sorted(RULE_REGISTRY)


def test_result_mapping():
    log = sarif_log(one_report(
        diag(severity=Severity.ERROR, data={"v1": [0, 0, 0, 1]})
    ))
    (result,) = log["runs"][0]["results"]
    assert result["ruleId"] == "ABS005"
    assert result["level"] == "error"
    assert "static-0 hazard" in result["message"]["text"]
    assert "mask it" in result["message"]["text"]
    loc = result["locations"][0]["logicalLocations"][0]
    assert loc["name"] == "y"
    assert loc["fullyQualifiedName"] == "comparator2/y"
    assert result["properties"]["data"] == {"v1": [0, 0, 0, 1]}


def test_severity_levels():
    levels = {
        s: sarif_log(one_report(diag(severity=s)))["runs"][0]["results"][0]["level"]
        for s in (Severity.INFO, Severity.WARNING, Severity.ERROR)
    }
    assert levels == {
        Severity.INFO: "note",
        Severity.WARNING: "warning",
        Severity.ERROR: "error",
    }


def test_partial_fingerprints_match_baseline_machinery():
    d = diag()
    (result,) = sarif_log(one_report(d))["runs"][0]["results"]
    assert result["partialFingerprints"] == {FINGERPRINT_KEY: d.fingerprint()}


def test_render_sarif_is_valid_json_and_multi_report():
    reports = one_report(diag())
    reports["other"] = LintReport(
        circuit_name="other", num_gates=0, num_inputs=0, num_outputs=0
    )
    payload = json.loads(render_sarif(reports))
    # both reports merge into a single run; the clean one adds no results
    assert len(payload["runs"]) == 1
    assert len(payload["runs"][0]["results"]) == 1
