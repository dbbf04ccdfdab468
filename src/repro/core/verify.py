"""BDD proof of the masking invariants, with counterexamples.

For every critical output ``y`` of a :class:`~repro.core.masking.MaskingResult`
three theorems are checked by BDD equivalence over the primary inputs
(DESIGN.md §1–2 — the invariants the whole scheme rests on):

* **soundness** — ``e_y = 1  ⟹  y~ = y`` for *every* input pattern, where
  ``y`` is the functionally correct output of the original circuit (so a
  raised indicator can never corrupt a correct output),
* **coverage** — ``Sigma_y  ⟹  e_y = 1``: no speed-path activation pattern
  escapes the indicator, which is the paper's "100% masking of timing
  errors on all speed-paths",
* **equivalence** — the mux-patched design equals the original off the SPCF:
  ``¬Sigma_y  ⟹  masked(y) = y`` (with soundness this extends to the whole
  input space).

Failures come back as concrete counterexample input patterns, so a broken
refactor of the SPCF/masking hot paths points straight at a witness instead
of a boolean.  The same pass records the exact coverage fraction
``|Sigma_y ∧ e_y| / |Sigma_y|`` of every output for the Table 2 row.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Mapping

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
    ) -> Counterexample:
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

    def to_dict(self) -> dict[str, Any]:
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

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "check": self.check, "output": self.output, "passed": self.passed
        }
        if self.detail:
            d["detail"] = self.detail
        if self.counterexample is not None:
            d["counterexample"] = self.counterexample.to_dict()
        return d


@dataclass(frozen=True)
class VerificationReport:
    """All check results and coverage fractions for one masking synthesis."""

    circuit_name: str
    checks: tuple[CheckResult, ...]
    coverage: dict[str, Fraction]
    """Critical output -> ``|Sigma_y ∧ e_y| / |Sigma_y|`` (1 for empty Sigma)."""

    @property
    def ok(self) -> bool:
        """True when every check passed."""
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    @property
    def unsound_outputs(self) -> tuple[str, ...]:
        """Outputs whose soundness check failed, in report order."""
        return tuple(
            c.output for c in self.failures if c.check == CHECK_SOUNDNESS
        )

    @property
    def sound(self) -> bool:
        """True when no soundness check failed."""
        return not self.unsound_outputs

    @property
    def full_coverage(self) -> bool:
        return all(c == 1 for c in self.coverage.values())

    @property
    def coverage_percent(self) -> float:
        if not self.coverage:
            return 100.0
        return 100.0 * float(sum(self.coverage.values()) / len(self.coverage))

    def to_dict(self) -> dict[str, Any]:
        return {
            "circuit": self.circuit_name,
            "verified": self.ok,
            "checks": [c.to_dict() for c in self.checks],
        }


def design_functions(
    result: MaskingResult, design: MaskedDesign
) -> CircuitFunctions:
    """Global functions of ``design``'s nets on the run's manager.

    The original nets are read from the SPCF context's map (the design
    copies the original gates unchanged), so only the masking circuit's
    nets and the output muxes are built.
    """
    ctx = result.context
    return CircuitFunctions(design.circuit, ctx.manager, base=ctx.functions)


def verify_masking(
    result: MaskingResult,
    design: MaskedDesign | None = None,
    functions: CircuitFunctions | None = None,
) -> VerificationReport:
    """Prove the soundness/coverage/equivalence theorems for ``result``.

    ``design`` is the integrated mux-patched circuit and ``functions`` its
    :func:`design_functions` map; each is built on demand when not
    supplied.  That one map serves all three checks (the masking circuit's
    nets keep their names in it).  Every check is complete (BDD
    equivalence, not simulation), and every failure carries a
    counterexample pattern.
    """
    name = result.circuit.name
    if result.is_trivial:
        return VerificationReport(circuit_name=name, checks=(), coverage={})
    ctx = result.context
    inputs = result.circuit.inputs
    n = len(inputs)
    if design is None:
        design = build_masked_design(result)
    fns = design_functions(result, design) if functions is None else functions

    checks: list[CheckResult] = []
    coverage: dict[str, Fraction] = {}
    for y, (pred_net, ind_net) in result.outputs.items():
        correct = ctx.functions[y]
        pred = fns[pred_net]
        ind = fns[ind_net]
        sigma = result.spcf.per_output[y]
        masked_net = design.output_map[y]
        masked = fns[masked_net]

        checks.append(
            _check_result(
                CHECK_SOUNDNESS, y, ind & (pred ^ correct), inputs,
                {y: correct, pred_net: pred, ind_net: ind},
                "e=1 implies y~ = y",
            )
        )
        checks.append(
            _check_result(
                CHECK_COVERAGE, y, sigma - ind, inputs,
                {ind_net: ind},
                "Sigma_y implies e=1",
            )
        )
        checks.append(
            _check_result(
                CHECK_EQUIVALENCE, y, (masked ^ correct) - sigma, inputs,
                {y: correct, masked_net: masked, ind_net: ind},
                "masked design = original off-SPCF",
            )
        )
        total = sigma.count(n)
        coverage[y] = (
            Fraction((sigma & ind).count(n), total) if total else Fraction(1)
        )
    return VerificationReport(
        circuit_name=name, checks=tuple(checks), coverage=coverage
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
) -> VerificationReport:
    """Run :func:`verify_masking`; raise :class:`VerificationError` on failure."""
    report = verify_masking(result, design=design)
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
