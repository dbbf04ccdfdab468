"""Static path-sensitization analysis: false paths, true paths, certificates.

The paper masks timing errors on *speed-paths*; this package decides which
enumerated speed-paths can ever carry a late transition.  FALSE paths come
with machine-checkable unsatisfiability certificates, marked *prunable*
when the weaker activation criterion of Eqn. 1 fails too.  TRUE paths come
with replayed two-vector witnesses and a masking rank.  ABS011/ABS012
report the verdicts and ABS013 audits them all from scratch.
"""

from repro.analysis.paths.audit import PathAuditFinding, audit_path_certificates
from repro.analysis.paths.certificate import (
    METHODS,
    SCHEMA,
    VERDICTS,
    PathCertificate,
    PathCertificateSet,
)
from repro.analysis.paths.report import (
    paths_to_dict,
    render_paths_json,
    render_paths_text,
)
from repro.analysis.paths.sensitize import (
    PathsAnalysis,
    PathsConfig,
    analyze_paths,
)

__all__ = [
    "SCHEMA",
    "VERDICTS",
    "METHODS",
    "PathCertificate",
    "PathCertificateSet",
    "PathsAnalysis",
    "PathsConfig",
    "analyze_paths",
    "PathAuditFinding",
    "audit_path_certificates",
    "render_paths_text",
    "render_paths_json",
    "paths_to_dict",
]
