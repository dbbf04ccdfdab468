"""Baseline (suppression) files for diagnostics.

A baseline freezes the *current* findings of a codebase so CI fails only on
regressions: ``--write-baseline`` records every finding's fingerprint
(:meth:`Diagnostic.fingerprint` — rule + circuit + location + message, so
re-wording hints or enriching evidence payloads never un-suppresses), and
``--baseline`` filters those fingerprints out of later runs.  Any
:class:`Diagnostic` can be baselined; ``repro lint`` is the command that
exposes both flags.

File format (JSON, versioned)::

    {
      "schema": "repro-baseline/1",
      "entries": [
        {"fingerprint": "...", "rule_id": "...", "circuit": "...",
         "location": "...", "message": "..."},
        ...
      ]
    }

The redundant context fields exist for human review of the baseline diff;
only the fingerprint is consulted when filtering.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping

from repro.analysis.diagnostics import LintReport
from repro.errors import BaselineError

BASELINE_SCHEMA = "repro-baseline/1"


def baseline_entries(reports: Mapping[str, LintReport]) -> list[dict]:
    """JSON-ready baseline entries for every finding of a batch run."""
    entries = []
    for name in sorted(reports):
        for diag in reports[name].diagnostics:
            entries.append(
                {
                    "fingerprint": diag.fingerprint(),
                    "rule_id": diag.rule_id,
                    "circuit": diag.circuit,
                    "location": diag.location,
                    "message": diag.message,
                }
            )
    return entries


def render_baseline(reports: Mapping[str, LintReport]) -> str:
    """Serialize a baseline file for the findings of ``reports``."""
    return json.dumps(
        {"schema": BASELINE_SCHEMA, "entries": baseline_entries(reports)},
        indent=2,
    )


def write_baseline(path: str | Path, reports: Mapping[str, LintReport]) -> int:
    """Write the baseline file; returns the number of entries recorded."""
    text = render_baseline(reports)
    Path(path).write_text(text + "\n", encoding="utf-8")
    return sum(len(r) for r in reports.values())


def load_baseline(path: str | Path) -> frozenset[str]:
    """Load the suppressed fingerprints from a baseline file."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise BaselineError(f"cannot read baseline {path}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise BaselineError(f"baseline {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema") != BASELINE_SCHEMA:
        raise BaselineError(
            f"baseline {path} has schema {doc.get('schema') if isinstance(doc, dict) else None!r}; "
            f"expected {BASELINE_SCHEMA!r}"
        )
    entries = doc.get("entries")
    if not isinstance(entries, list):
        raise BaselineError(f"baseline {path}: 'entries' must be a list")
    fingerprints = set()
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or not isinstance(
            entry.get("fingerprint"), str
        ):
            raise BaselineError(
                f"baseline {path}: entry {i} has no string fingerprint"
            )
        fingerprints.add(entry["fingerprint"])
    return frozenset(fingerprints)


def apply_baseline(
    report: LintReport, fingerprints: frozenset[str]
) -> tuple[LintReport, int]:
    """Drop suppressed findings; returns the filtered report and the count."""
    kept = tuple(
        d for d in report.diagnostics if d.fingerprint() not in fingerprints
    )
    suppressed = len(report.diagnostics) - len(kept)
    if not suppressed:
        return report, 0
    return (
        LintReport(
            circuit_name=report.circuit_name,
            num_gates=report.num_gates,
            num_inputs=report.num_inputs,
            num_outputs=report.num_outputs,
            diagnostics=kept,
        ),
        suppressed,
    )


def apply_baseline_many(
    reports: Mapping[str, LintReport], fingerprints: frozenset[str]
) -> tuple[dict[str, LintReport], int]:
    """Batch form of :func:`apply_baseline`; preserves report order."""
    out: dict[str, LintReport] = {}
    total = 0
    for name, report in reports.items():
        filtered, suppressed = apply_baseline(report, fingerprints)
        out[name] = filtered
        total += suppressed
    return out, total


__all__ = [
    "BASELINE_SCHEMA",
    "apply_baseline",
    "apply_baseline_many",
    "baseline_entries",
    "load_baseline",
    "render_baseline",
    "write_baseline",
]
