"""Human- and machine-readable rendering of a paths analysis."""

from __future__ import annotations

import json
from typing import Any

from repro.analysis.paths.certificate import PathCertificate
from repro.analysis.paths.sensitize import PathsAnalysis


def _describe(cert: PathCertificate) -> str:
    route = "->".join(cert.nets)
    if cert.verdict == "false":
        tag = "FALSE"
        extra = f"method={cert.method}" + (
            ", prunable" if cert.prunable else ""
        )
    elif cert.verdict == "true":
        tag = "TRUE"
        extra = (
            f"rank={cert.rank}, settles at "
            f"{cert.facts.get('settle_time')} via witness replay"
        )
    else:
        tag = "UNRESOLVED"
        extra = str(cert.facts.get("reason", "budget"))
    return f"  {tag:10s} delay={cert.delay:<4d} {route}  ({extra})"


def render_paths_text(analysis: PathsAnalysis) -> str:
    """A compact fixed-order text report (stable for golden tests)."""
    counts = analysis.counts()
    report = analysis.report
    lines = [
        f"circuit {analysis.circuit.name}: critical delay "
        f"{report.critical_delay}, target {report.target}",
        f"speed-paths: {len(analysis.certificates)} "
        f"(false {counts['false']}, true {counts['true']}, "
        f"unresolved {counts['unresolved']})",
    ]
    for cert in analysis.certificates.false_paths():
        lines.append(_describe(cert))
    for cert in analysis.certificates.ranked_true_paths():
        lines.append(_describe(cert))
    for cert in analysis.certificates.unresolved_paths():
        lines.append(_describe(cert))
    return "\n".join(lines)


def paths_to_dict(analysis: PathsAnalysis) -> dict[str, Any]:
    """JSON-ready payload: the certificate set plus run statistics."""
    return {
        "certificates": analysis.certificates.to_dict(),
        "stats": dict(analysis.stats),
    }


def render_paths_json(analysis: PathsAnalysis) -> str:
    return json.dumps(paths_to_dict(analysis), indent=2, sort_keys=True)


__all__ = ["render_paths_text", "paths_to_dict", "render_paths_json"]
