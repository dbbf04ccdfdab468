"""repro.analysis — circuit lint.

The **linter** (:func:`lint_circuit`) runs rule-based structural checks on
top of the netlist, engine, and BDD layers, with stable rule ids
(``LINT001`` combinational-loop ... ``LINT007`` constant-output), and emits
structured :class:`Diagnostic` records.  Reports support baseline
suppression (:mod:`repro.analysis.baseline`) and text / JSON rendering
(:mod:`repro.analysis.reporters`).  The reporters also render the
masking proof of :func:`repro.core.verify.verify_masking`
(:func:`render_verify_text`, :func:`render_verify_json`).

Quickstart::

    from repro.analysis import lint_circuit
    for diag in lint_circuit(circuit):
        print(diag.render())
"""

from repro.analysis.diagnostics import Diagnostic, LintReport, Severity
from repro.analysis.linter import CircuitLinter, LintConfig, lint_circuit
from repro.analysis.rules import RULE_REGISTRY, LintRule, rule
from repro.analysis.batch import lint_suite, suite_ok
from repro.analysis.baseline import (
    BASELINE_SCHEMA,
    apply_baseline,
    apply_baseline_many,
    load_baseline,
    render_baseline,
    write_baseline,
)
from repro.analysis.reporters import (
    render_json,
    render_json_many,
    render_text,
    render_text_many,
    render_verify_json,
    render_verify_text,
)

__all__ = [
    "BASELINE_SCHEMA",
    "CircuitLinter",
    "Diagnostic",
    "LintConfig",
    "LintReport",
    "LintRule",
    "RULE_REGISTRY",
    "Severity",
    "apply_baseline",
    "apply_baseline_many",
    "lint_circuit",
    "lint_suite",
    "load_baseline",
    "render_baseline",
    "render_json",
    "render_json_many",
    "render_text",
    "render_text_many",
    "render_verify_json",
    "render_verify_text",
    "rule",
    "suite_ok",
    "write_baseline",
]
