"""SPCF result container shared by the three algorithms."""

from __future__ import annotations

from dataclasses import dataclass

from repro.bdd.manager import Function, disjunction
from repro.spcf.timedfunc import SpcfContext


@dataclass
class SpcfResult:
    """The speed-path characteristic function(s) of one circuit.

    ``per_output`` maps each critical primary output ``y`` to
    ``Sigma_y(Delta_y)`` as a BDD over the primary inputs; ``union`` is the
    set of patterns that sensitize *any* speed-path (the paper's "critical
    patterns ... over all critical primary outputs").
    """

    algorithm: str
    context: SpcfContext
    per_output: dict[str, Function]
    runtime_seconds: float = 0.0

    @property
    def union(self) -> Function:
        return disjunction(
            self.context.manager, list(self.per_output.values())
        )

    @property
    def target(self) -> int:
        return self.context.target

    @property
    def critical_outputs(self) -> tuple[str, ...]:
        return tuple(self.per_output)

    def count(self, output: str | None = None) -> int:
        """Exact number of critical patterns (for one output or the union)."""
        fn = self.union if output is None else self.per_output[output]
        return self.context.count(fn)

    def counts_by_output(self) -> dict[str, int]:
        return {y: self.context.count(f) for y, f in self.per_output.items()}

    def is_empty(self) -> bool:
        return all(f.is_false for f in self.per_output.values())
