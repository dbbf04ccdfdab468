"""SARIF 2.1.0 rendering of diagnostic reports.

SARIF (Static Analysis Results Interchange Format, OASIS standard) is what
code-scanning UIs ingest; one ``run`` per invocation with the lint rule
metadata in the tool's driver, one ``result`` per diagnostic.  Circuits
have no files, so findings carry *logical* locations (``circuit/net``) —
viewers that require physical locations fall back to the artifact-free
form the standard explicitly allows.

Severity maps onto SARIF levels as ``info -> note``, ``warning ->
warning``, ``error -> error``; every result also carries the stable
baseline fingerprint under ``partialFingerprints`` so SARIF-native baseline
tooling agrees with :mod:`repro.analysis.baseline`.
"""

from __future__ import annotations

import json
from typing import Mapping

from repro.analysis.diagnostics import Diagnostic, LintReport, Severity
from repro.analysis.rules import RULE_REGISTRY

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: ``partialFingerprints`` key carrying :meth:`Diagnostic.fingerprint`.
FINGERPRINT_KEY = "reproDiagnostic/v1"

_LEVELS = {
    Severity.INFO: "note",
    Severity.WARNING: "warning",
    Severity.ERROR: "error",
}


def _rule_metadata() -> list[dict]:
    """Driver rule descriptors: every registered lint rule."""
    return [
        {
            "id": rule_id,
            "name": entry.name,
            "shortDescription": {"text": entry.description},
            "defaultConfiguration": {"level": _LEVELS[entry.severity]},
        }
        for rule_id, entry in sorted(RULE_REGISTRY.items())
    ]


def _result(diag: Diagnostic) -> dict:
    fq = f"{diag.circuit}/{diag.location}" if diag.location else diag.circuit
    message = diag.message
    if diag.hint:
        message += f" (hint: {diag.hint})"
    result: dict = {
        "ruleId": diag.rule_id,
        "level": _LEVELS[diag.severity],
        "message": {"text": message},
        "locations": [
            {
                "logicalLocations": [
                    {
                        "name": diag.location or diag.circuit,
                        "fullyQualifiedName": fq,
                        "kind": "element",
                    }
                ]
            }
        ],
        "partialFingerprints": {FINGERPRINT_KEY: diag.fingerprint()},
    }
    if diag.data is not None:
        result["properties"] = {"data": diag.data}
    return result


def sarif_log(
    reports: Mapping[str, LintReport],
    tool_name: str = "repro-analyze",
    tool_version: str | None = None,
) -> dict:
    """The SARIF log object for a batch of reports (one run)."""
    if tool_version is None:
        from repro import __version__ as tool_version
    driver = {
        "name": tool_name,
        "version": tool_version,
        "informationUri": "https://example.invalid/repro",
        "rules": _rule_metadata(),
    }
    results = [
        _result(diag)
        for name in reports
        for diag in reports[name].diagnostics
    ]
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {"driver": driver},
                "results": results,
                "columnKind": "unicodeCodePoints",
            }
        ],
    }


def render_sarif(
    reports: Mapping[str, LintReport],
    tool_name: str = "repro-analyze",
) -> str:
    """Serialize the SARIF log as indented JSON."""
    return json.dumps(sarif_log(reports, tool_name=tool_name), indent=2)


__all__ = [
    "FINGERPRINT_KEY",
    "SARIF_SCHEMA_URI",
    "SARIF_VERSION",
    "render_sarif",
    "sarif_log",
]
