"""Overhead reporting for the masking synthesis.

:func:`overhead_report` computes the Table-2 row for one circuit: critical
outputs, critical minterms, slack of the masking circuit over the original,
and area/power overheads (including the output multiplexers).  Its
``sound`` and ``coverage_percent`` come from the BDD proof of
:func:`repro.core.verify.verify_masking`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.integrate import MaskedDesign, build_masked_design
from repro.core.masking import MaskingResult
from repro.core.verify import VerificationReport, design_functions, verify_masking
from repro.spcf.timedfunc import CircuitFunctions
from repro.sta.timing import analyze
from repro.synth.power import switching_power


@dataclass(frozen=True)
class MaskingEffectiveness:
    """Before/after error counts for one output (or one aggregate group).

    The mux patch replaces an erroneous critical output with the masking
    circuit's prediction; *effectiveness* is the fraction of erroneous
    samples it repaired.  Used by the fault-injection campaign aggregator,
    and additive: two disjoint sample batches combine with :meth:`merged`.
    """

    vectors: int
    unmasked_errors: int
    masked_errors: int

    @property
    def recovered(self) -> int:
        """Errors present before the mux patch and absent after it."""
        return max(0, self.unmasked_errors - self.masked_errors)

    @property
    def effectiveness_percent(self) -> float:
        """100 * recovered / unmasked errors (100.0 when nothing to mask)."""
        if self.unmasked_errors == 0:
            return 100.0
        return 100.0 * self.recovered / self.unmasked_errors

    def merged(self, other: "MaskingEffectiveness") -> "MaskingEffectiveness":
        return MaskingEffectiveness(
            vectors=self.vectors + other.vectors,
            unmasked_errors=self.unmasked_errors + other.unmasked_errors,
            masked_errors=self.masked_errors + other.masked_errors,
        )


@dataclass(frozen=True)
class OverheadReport:
    """One Table-2 row: overheads of masking for a single circuit."""

    circuit_name: str
    num_inputs: int
    num_outputs: int
    num_gates: int
    critical_outputs: int
    critical_minterms: int
    original_delay: int
    masking_delay: int
    slack_percent: float
    original_area: float
    masking_area: float
    area_overhead_percent: float
    original_power: float
    masking_power: float
    power_overhead_percent: float
    coverage_percent: float
    sound: bool

    @property
    def meets_slack_constraint(self) -> bool:
        """Paper requirement: the masking circuit has >= 20% timing slack."""
        return self.slack_percent >= 20.0


def masking_delay(result: MaskingResult) -> int:
    """Critical path delay of the masking circuit (prediction + indicator)."""
    if result.masking_circuit.num_gates == 0:
        return 0
    report = analyze(result.masking_circuit, target=0)
    nets = [n for pair in result.outputs.values() for n in pair]
    return max((report.arrival[n] for n in nets), default=0)


def overhead_report(
    result: MaskingResult,
    design: MaskedDesign | None = None,
    verification: VerificationReport | None = None,
    functions: CircuitFunctions | None = None,
) -> OverheadReport:
    """Compute the paper's Table-2 metrics for one synthesized circuit.

    ``functions`` is ``design``'s :func:`~repro.core.verify.design_functions`
    map; like ``design`` and ``verification`` it is built on demand when
    not supplied.  Power reads the original circuit's functions from the
    SPCF context's map and the design's from ``functions``, so
    ``result.context.manager`` grows only by what those maps still lack.
    """
    if design is None:
        design = build_masked_design(result)
    if functions is None:
        functions = design_functions(result, design)
    if verification is None:
        verification = verify_masking(result, design=design, functions=functions)
    original = result.circuit
    delta = result.context.report.critical_delay
    mask_delay = masking_delay(result)
    slack_pct = 100.0 * (delta - mask_delay) / delta if delta else 100.0

    mux_area = sum(
        result.library.get("MUX2").area for _ in result.outputs
    )
    mask_area = result.masking_circuit.area() + mux_area
    orig_area = original.area()

    # Masking power is summed over the gates the design adds (masking gates
    # and output muxes), not taken as the design's power minus the
    # original's: constant added gates then give exactly 0.  The design map
    # reads the original nets from the context's map.  SpcfContext put the
    # inputs on its manager's first levels, which is all power needs.
    orig_power = switching_power(original, functions=result.context.functions)
    added = [name for name in design.circuit.gates if name not in original.gates]
    mask_power = switching_power(design.circuit, functions=functions, gates=added)

    union_count = result.spcf.count() if result.outputs else 0
    return OverheadReport(
        circuit_name=original.name,
        num_inputs=len(original.inputs),
        num_outputs=len(original.outputs),
        num_gates=original.num_gates,
        critical_outputs=len(result.outputs),
        critical_minterms=union_count,
        original_delay=delta,
        masking_delay=mask_delay,
        slack_percent=slack_pct,
        original_area=orig_area,
        masking_area=mask_area,
        area_overhead_percent=100.0 * mask_area / orig_area if orig_area else 0.0,
        original_power=orig_power,
        masking_power=mask_power,
        power_overhead_percent=(
            100.0 * mask_power / orig_power if orig_power else 0.0
        ),
        coverage_percent=verification.coverage_percent,
        sound=verification.sound,
    )
