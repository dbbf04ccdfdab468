"""Structured diagnostics for the circuit linter.

A :class:`Diagnostic` is one finding of one rule at one location; a
:class:`LintReport` bundles every finding for one circuit.  Both are plain
value objects so reporters (:mod:`repro.analysis.reporters`) can render them
as text or JSON without reaching back into the linter.

Severities are ordered (``INFO < WARNING < ERROR``) so callers can gate exit
codes on a threshold (the CLI's ``--fail-on``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import LintError


class Severity(enum.IntEnum):
    """Ordered severity of a diagnostic."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:
        return self.name.lower()

    @classmethod
    def from_name(cls, name: str) -> "Severity":
        """Parse a severity from its lowercase name."""
        try:
            return cls[name.upper()]
        except KeyError:
            raise LintError(
                f"unknown severity {name!r}; choose from "
                f"{[str(s) for s in cls]}"
            ) from None


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a rule firing at a net/gate of a circuit."""

    rule_id: str
    rule_name: str
    severity: Severity
    circuit: str
    location: str
    message: str
    hint: str = ""

    def to_dict(self) -> dict:
        """JSON-ready representation (stable key order)."""
        d = {
            "rule_id": self.rule_id,
            "rule_name": self.rule_name,
            "severity": str(self.severity),
            "circuit": self.circuit,
            "location": self.location,
            "message": self.message,
        }
        if self.hint:
            d["hint"] = self.hint
        return d

    def render(self) -> str:
        """One-line human-readable rendering."""
        where = f"{self.circuit}:{self.location}" if self.location else self.circuit
        line = f"{where}: {self.severity} {self.rule_id} " \
               f"[{self.rule_name}] {self.message}"
        if self.hint:
            line += f" (hint: {self.hint})"
        return line


@dataclass(frozen=True)
class LintReport:
    """Every diagnostic the linter produced for one circuit."""

    circuit_name: str
    num_gates: int
    num_inputs: int
    num_outputs: int
    diagnostics: tuple[Diagnostic, ...] = field(default_factory=tuple)

    def __iter__(self):
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def counts(self) -> dict[str, int]:
        """Findings per severity name (always all three keys)."""
        out = {str(s): 0 for s in Severity}
        for diag in self.diagnostics:
            out[str(diag.severity)] += 1
        return out

    def at_or_above(self, threshold: Severity) -> tuple[Diagnostic, ...]:
        """Diagnostics whose severity is at least ``threshold``."""
        return tuple(d for d in self.diagnostics if d.severity >= threshold)

    def ok(self, fail_on: Severity = Severity.ERROR) -> bool:
        """True when no diagnostic reaches the ``fail_on`` severity."""
        return not self.at_or_above(fail_on)

    def to_dict(self) -> dict:
        """JSON-ready representation of the whole report."""
        return {
            "circuit": self.circuit_name,
            "gates": self.num_gates,
            "inputs": self.num_inputs,
            "outputs": self.num_outputs,
            "summary": self.counts(),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }
