"""BDD-based formal verification of synthesized masking circuits.

For every critical output ``y`` of a :class:`~repro.core.masking.MaskingResult`
three theorems are checked by BDD equivalence over the primary inputs
(DESIGN.md §1–2 — the invariants the whole scheme rests on):

* **soundness** — ``e_y = 1  ⟹  y~ = y`` for *every* input pattern, where
  ``y`` is the functionally correct output recomputed independently from the
  original circuit,
* **coverage** — ``Sigma_y  ⟹  e_y = 1``: no speed-path activation pattern
  escapes the indicator,
* **equivalence** — the mux-patched design equals the original off the SPCF:
  ``¬Sigma_y  ⟹  masked(y) = y`` (with soundness this extends to the whole
  input space).

Failures come back as concrete counterexample input patterns, so a broken
refactor of the SPCF/masking hot paths points straight at a witness instead
of a boolean.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.bdd.manager import Function
from repro.core.integrate import MaskedDesign, build_masked_design
from repro.core.masking import MaskingResult
from repro.errors import VerificationError
from repro.spcf.timedfunc import CircuitFunctions

#: Names of the three checks, in report order.
CHECK_SOUNDNESS = "soundness"
CHECK_COVERAGE = "coverage"
CHECK_EQUIVALENCE = "equivalence"


@dataclass(frozen=True)
class Counterexample:
    """One concrete input pattern witnessing a violated check."""

    inputs: tuple[str, ...]
    assignment: tuple[tuple[str, bool], ...]
    observed: tuple[tuple[str, bool], ...]

    @classmethod
    def from_violation(
        cls,
        violation: Function,
        inputs: tuple[str, ...],
        observe: Mapping[str, Function],
    ) -> "Counterexample":
        """Pick one satisfying pattern and record the observed net values."""
        partial = violation.pick_one() or {}
        full = {net: partial.get(net, False) for net in inputs}
        observed = tuple(
            (name, fn.evaluate(full)) for name, fn in observe.items()
        )
        return cls(
            inputs=inputs,
            assignment=tuple((net, full[net]) for net in inputs),
            observed=observed,
        )

    def pattern(self) -> str:
        """The input pattern as a bitstring in primary-input order."""
        return "".join("1" if v else "0" for _, v in self.assignment)

    def render(self) -> str:
        obs = " ".join(f"{n}={int(v)}" for n, v in self.observed)
        return f"pattern={self.pattern()} {obs}"

    def to_dict(self) -> dict:
        return {
            "pattern": self.pattern(),
            "assignment": {n: int(v) for n, v in self.assignment},
            "observed": {n: int(v) for n, v in self.observed},
        }


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one check for one critical output."""

    check: str
    output: str
    passed: bool
    counterexample: Counterexample | None = None
    detail: str = ""

    def to_dict(self) -> dict:
        d = {"check": self.check, "output": self.output, "passed": self.passed}
        if self.detail:
            d["detail"] = self.detail
        if self.counterexample is not None:
            d["counterexample"] = self.counterexample.to_dict()
        return d


@dataclass(frozen=True)
class VerifyMaskReport:
    """All check results for one masking synthesis."""

    circuit_name: str
    checks: tuple[CheckResult, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        """True when every check passed."""
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def to_dict(self) -> dict:
        return {
            "circuit": self.circuit_name,
            "verified": self.ok,
            "checks": [c.to_dict() for c in self.checks],
        }


def verify_mask(
    result: MaskingResult, design: MaskedDesign | None = None
) -> VerifyMaskReport:
    """Prove the soundness/coverage/equivalence theorems for ``result``.

    ``design`` is the integrated mux-patched circuit; it is built on demand
    when not supplied.  All three checks are complete (BDD equivalence, not
    simulation), and every failure carries a counterexample pattern.
    """
    ctx = result.context
    mgr = ctx.manager
    inputs = result.circuit.inputs

    checks: list[CheckResult] = []
    if result.is_trivial:
        return VerifyMaskReport(circuit_name=result.circuit.name, checks=())

    mask_fns = CircuitFunctions(result.masking_circuit, mgr)
    if design is None:
        design = build_masked_design(result)
    design_fns = CircuitFunctions(design.circuit, mgr)

    for y, (pred_net, ind_net) in result.outputs.items():
        correct = ctx.functions[y]
        pred = mask_fns[pred_net]
        ind = mask_fns[ind_net]
        sigma = result.spcf.per_output[y]
        masked = design_fns[design.output_map[y]]

        violation = ind & (pred ^ correct)
        checks.append(
            _check_result(
                CHECK_SOUNDNESS, y, violation, inputs,
                {y: correct, pred_net: pred, ind_net: ind},
                "e=1 implies y~ = y",
            )
        )
        violation = sigma - ind
        checks.append(
            _check_result(
                CHECK_COVERAGE, y, violation, inputs,
                {ind_net: ind},
                "Sigma_y implies e=1",
            )
        )
        violation = (masked ^ correct) - sigma
        checks.append(
            _check_result(
                CHECK_EQUIVALENCE, y, violation, inputs,
                {y: correct, design.output_map[y]: masked, ind_net: ind},
                "masked design = original off-SPCF",
            )
        )
    return VerifyMaskReport(
        circuit_name=result.circuit.name, checks=tuple(checks)
    )


def _check_result(
    check: str,
    output: str,
    violation: Function,
    inputs: tuple[str, ...],
    observe: Mapping[str, Function],
    detail: str,
) -> CheckResult:
    if violation.is_false:
        return CheckResult(check, output, True, detail=detail)
    return CheckResult(
        check,
        output,
        False,
        counterexample=Counterexample.from_violation(violation, inputs, observe),
        detail=detail,
    )


def assert_verified(
    result: MaskingResult, design: MaskedDesign | None = None
) -> VerifyMaskReport:
    """Run :func:`verify_mask`; raise :class:`VerificationError` on failure."""
    report = verify_mask(result, design=design)
    if not report.ok:
        first = report.failures[0]
        witness = (
            f" (counterexample {first.counterexample.render()})"
            if first.counterexample is not None
            else ""
        )
        raise VerificationError(
            f"masking circuit for {result.circuit.name!r} fails the "
            f"{first.check} check on output {first.output!r}{witness}"
        )
    return report
