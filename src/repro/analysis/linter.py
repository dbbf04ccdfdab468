"""The rule-driven netlist linter.

:func:`lint_circuit` runs every rule of :data:`~repro.analysis.rules.RULES`
(minus config exclusions) over one circuit and returns a
:class:`~repro.analysis.diagnostics.LintReport`; :func:`lint_suite` does so
for every builtin benchmark (``repro lint all``, ``make lint-circuits``).
Unlike :meth:`Circuit.validate`, the linter never raises on a broken netlist —
it *reports*: a circuit with a combinational loop and three dangling nets
yields four diagnostics, not one exception.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.analysis.diagnostics import Diagnostic, LintReport, Severity
from repro.analysis.rules import RULES, LintContext, resolve_rule_ids
from repro.benchcircuits.suite import all_circuit_names, circuit_by_name
from repro.errors import LintError
from repro.netlist.circuit import Circuit
from repro.netlist.library import Library, builtin_library


@dataclass(frozen=True)
class LintConfig:
    """Tunables for one lint run.

    ``ignore`` takes rule ids (``"LINT005"``) or rule names
    (``"fanout-threshold"``); an unknown entry raises :class:`LintError`.
    """

    fanout_threshold: int = 64
    ignore: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.fanout_threshold < 1:
            raise LintError(
                f"fanout threshold must be >= 1, got {self.fanout_threshold}"
            )
        resolve_rule_ids(self.ignore)


def lint_circuit(circuit: Circuit, config: LintConfig | None = None) -> LintReport:
    """Run every rule ``config`` keeps; diagnostics come out in rule-id order."""
    config = config or LintConfig()
    ignored = resolve_rule_ids(config.ignore)
    ctx = LintContext(circuit)
    diagnostics = tuple(
        Diagnostic(
            rule_id=rule_id,
            rule_name=name,
            severity=severity,
            circuit=circuit.name,
            location=location,
            message=message,
            hint=hint,
        )
        for rule_id, name, severity, _, check in RULES
        if rule_id not in ignored
        for location, message, hint in check(circuit, ctx, config)
    )
    return LintReport(
        circuit_name=circuit.name,
        num_gates=circuit.num_gates,
        num_inputs=len(circuit.inputs),
        num_outputs=len(circuit.outputs),
        diagnostics=diagnostics,
    )


def lint_suite(
    library: Library | None = None,
    config: LintConfig | None = None,
    names: Iterable[str] | None = None,
) -> dict[str, LintReport]:
    """Lint every builtin benchmark (or the given subset), by name."""
    lib = library or builtin_library("lsi10k_like")
    selected = tuple(names) if names is not None else all_circuit_names()
    return {
        name: lint_circuit(circuit_by_name(name, lib), config)
        for name in selected
    }


__all__ = [
    "LintConfig",
    "LintReport",
    "Severity",
    "lint_circuit",
    "lint_suite",
]
