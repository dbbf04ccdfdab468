"""Text and JSON rendering of lint reports and verification reports.

The JSON schema is versioned (``repro-lint/1`` and ``repro-verify/1``) so
downstream tooling can key on it; new fields may be added within a version
but existing fields keep their meaning.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Mapping

from repro.analysis.diagnostics import LintReport

if TYPE_CHECKING:
    from repro.core.verify import VerificationReport

LINT_SCHEMA = "repro-lint/1"
VERIFY_SCHEMA = "repro-verify/1"


def render_text(report: LintReport) -> str:
    """Human-readable rendering of one lint report."""
    lines = [d.render() for d in report.diagnostics]
    counts = report.counts()
    summary = (
        f"{report.circuit_name}: {len(report)} finding(s) "
        f"({counts['error']} error, {counts['warning']} warning, "
        f"{counts['info']} info) in {report.num_gates} gates"
    )
    lines.append(summary)
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    """JSON rendering of one lint report."""
    return json.dumps(
        {"schema": LINT_SCHEMA, **report.to_dict()}, indent=2, sort_keys=False
    )


def render_json_many(reports: Mapping[str, LintReport]) -> str:
    """JSON rendering of a batch lint run (circuit name -> report)."""
    total = {"info": 0, "warning": 0, "error": 0}
    rendered = []
    for name in reports:
        report = reports[name]
        for severity, count in report.counts().items():
            total[severity] += count
        rendered.append(report.to_dict())
    return json.dumps(
        {"schema": LINT_SCHEMA, "summary": total, "circuits": rendered},
        indent=2,
        sort_keys=False,
    )


def render_text_many(reports: Mapping[str, LintReport]) -> str:
    """Human-readable rendering of a batch lint run."""
    lines: list[str] = []
    findings = 0
    for name in reports:
        report = reports[name]
        findings += len(report)
        lines.extend(d.render() for d in report.diagnostics)
    lines.append(f"linted {len(reports)} circuit(s): {findings} finding(s)")
    return "\n".join(lines)


def render_verify_text(report: VerificationReport) -> str:
    """Human-readable rendering of a :class:`VerificationReport`."""
    lines = [f"circuit : {report.circuit_name}"]
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        line = f"  {check.check:12s} {check.output:16s} {status}"
        if check.detail:
            line += f"  {check.detail}"
        lines.append(line)
        if check.counterexample is not None:
            lines.append(f"    counterexample: {check.counterexample.render()}")
    verdict = "VERIFIED" if report.ok else "FAILED"
    lines.append(f"result  : {verdict} ({len(report.checks)} checks, "
                 f"{len(report.failures)} failure(s))")
    return "\n".join(lines)


def render_verify_json(report: VerificationReport) -> str:
    """JSON rendering of a :class:`VerificationReport`."""
    return json.dumps(
        {"schema": VERIFY_SCHEMA, **report.to_dict()}, indent=2, sort_keys=False
    )
