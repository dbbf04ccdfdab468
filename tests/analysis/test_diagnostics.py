"""Diagnostic and LintReport value objects."""

import pytest

from repro.analysis import Diagnostic, LintReport, Severity
from repro.errors import LintError


def _diag(rule_id="LINT002", severity=Severity.ERROR, location="g1", hint="fix it"):
    return Diagnostic(
        rule_id=rule_id,
        rule_name="dangling-net",
        severity=severity,
        circuit="c",
        location=location,
        message="net 'foo' undriven",
        hint=hint,
    )


def test_severity_ordering():
    assert Severity.INFO < Severity.WARNING < Severity.ERROR
    assert str(Severity.WARNING) == "warning"


def test_severity_from_name():
    assert Severity.from_name("error") is Severity.ERROR
    assert Severity.from_name("INFO") is Severity.INFO
    with pytest.raises(LintError):
        Severity.from_name("fatal")


def test_diagnostic_to_dict_round_trip():
    d = _diag().to_dict()
    assert d["rule_id"] == "LINT002"
    assert d["severity"] == "error"
    assert d["location"] == "g1"
    assert d["hint"] == "fix it"


def test_diagnostic_to_dict_omits_empty_hint():
    assert "hint" not in _diag(hint="").to_dict()


def test_diagnostic_render_mentions_rule_and_location():
    line = _diag().render()
    assert "LINT002" in line and "c:g1" in line and "dangling-net" in line


def test_report_counts_and_threshold():
    report = LintReport(
        circuit_name="c",
        num_gates=3,
        num_inputs=2,
        num_outputs=1,
        diagnostics=(
            _diag(severity=Severity.ERROR),
            _diag(rule_id="LINT004", severity=Severity.INFO, location="x"),
        ),
    )
    assert report.counts() == {"info": 1, "warning": 0, "error": 1}
    assert len(report.at_or_above(Severity.WARNING)) == 1
    assert not report.ok(Severity.ERROR)


def test_empty_report_is_ok():
    report = LintReport(circuit_name="c", num_gates=0, num_inputs=0, num_outputs=0)
    assert report.ok(Severity.INFO)
    assert list(report) == []


def test_wire_schema_snapshot():
    """The exact key set of the JSON wire format is a compatibility contract.

    If this test fails you changed the serialized shape: bump the schema
    string in ``repro.analysis.reporters`` and update consumers.
    """
    d = _diag().to_dict()
    assert set(d) == {
        "rule_id", "rule_name", "severity", "circuit", "location",
        "message", "hint",
    }
