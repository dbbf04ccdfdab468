"""repro.analysis — circuit lint.

The **linter** (:func:`lint_circuit`, and :func:`lint_suite` over every
builtin benchmark) runs the seven structural rules of
:data:`repro.analysis.rules.RULES` on top of the netlist and BDD layers,
with stable rule ids (``LINT001`` combinational-loop ... ``LINT007``
constant-output), and emits structured :class:`Diagnostic` records.
:mod:`repro.analysis.reporters` renders reports as text or JSON, and also
renders the masking proof of :func:`repro.core.verify.verify_masking`
(:func:`render_verify_text`, :func:`render_verify_json`).

Quickstart::

    from repro.analysis import lint_circuit
    for diag in lint_circuit(circuit):
        print(diag.render())
"""

from repro.analysis.diagnostics import Diagnostic, LintReport, Severity
from repro.analysis.linter import LintConfig, lint_circuit, lint_suite
from repro.analysis.reporters import (
    render_json,
    render_json_many,
    render_text,
    render_text_many,
    render_verify_json,
    render_verify_text,
)

__all__ = [
    "Diagnostic",
    "LintConfig",
    "LintReport",
    "Severity",
    "lint_circuit",
    "lint_suite",
    "render_json",
    "render_json_many",
    "render_text",
    "render_text_many",
    "render_verify_json",
    "render_verify_text",
]
