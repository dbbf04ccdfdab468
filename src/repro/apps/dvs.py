"""Aggressive dynamic frequency/voltage scaling with error masking.

The paper's conclusions name "aggressive dynamic voltage scaling by masking
timing errors" as future work.  The idea: with the masking circuit in place,
the clock period can be pushed *below* the critical path delay — timing
errors start appearing on the speed-paths first, and those are exactly the
cycles the masking circuit covers.  Operation stays correct until the clock
cuts into paths outside the protected band.

:func:`dvs_sweep` measures this: it sweeps the clock period downward and
reports, per step, the raw timing-error rate of the unprotected circuit and
the residual error rate of the masked design.  :func:`min_safe_period`
extracts the crossover — the shortest period with zero residual errors —
and its speedup over the conventional ``period >= Delta`` rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.apps.wearout import _biased_workload, _error_words, _observed_nets
from repro.core.integrate import MaskedDesign
from repro.core.masking import MaskingResult
from repro.engine import compile_circuit, patterns_to_words
from repro.errors import SimulationError
from repro.sim.eventsim import sample_clocks


@dataclass(frozen=True)
class DvsPoint:
    """Measurements at one clock period."""

    period: int
    raw_error_rate: float
    masked_error_rate: float
    residual_error_rate: float

    @property
    def is_safe(self) -> bool:
        """True iff overclocking to this period escapes no errors."""
        return self.residual_error_rate == 0.0


@dataclass(frozen=True)
class DvsResult:
    """Outcome of a full period sweep."""

    nominal_period: int
    points: tuple[DvsPoint, ...]

    def min_safe_period(self) -> int:
        """Shortest swept period with zero residual errors."""
        safe = [p.period for p in self.points if p.is_safe]
        if not safe:
            raise SimulationError("no safe period in the sweep")
        return min(safe)

    @property
    def speedup_percent(self) -> float:
        """Clock speedup unlocked by masking, vs. the nominal period."""
        return 100.0 * (1.0 - self.min_safe_period() / self.nominal_period)


def dvs_sweep(
    masking: MaskingResult,
    design: MaskedDesign,
    periods: Sequence[int] | None = None,
    cycles: int = 150,
    seed: int = 29,
    sigma_bias: float = 0.35,
) -> DvsResult:
    """Sweep the clock period downward and measure error rates.

    ``periods`` defaults to 100% down to 80% of the compensated nominal
    period in ~4% steps (the masking circuit protects the top-10% band, so
    the safe region should extend to roughly 90%).  The workload is biased
    into the SPCF like :func:`repro.apps.wearout.wearout_experiment`.
    """
    nominal = design.clock_period
    if periods is None:
        periods = sorted(
            {int(nominal * f / 100.0) for f in range(80, 101, 4)}, reverse=True
        )
    if not periods:
        raise SimulationError("empty period sweep")
    pats = _biased_workload(
        masking, design.circuit.inputs, cycles + 1, seed, sigma_bias
    )
    compiled = compile_circuit(design.circuit)
    v1, width = patterns_to_words(compiled, pats[:-1])
    v2, _ = patterns_to_words(compiled, pats[1:])
    # One word pass answers every swept period.
    samples = sample_clocks(
        compiled, v1, v2, width, periods, _observed_nets(design)
    )
    points = []
    for period in periods:
        raw, events, residual = _error_words(design, samples[period])
        points.append(
            DvsPoint(
                period=period,
                raw_error_rate=raw.bit_count() / cycles,
                masked_error_rate=events.bit_count() / cycles,
                residual_error_rate=residual.bit_count() / cycles,
            )
        )
    return DvsResult(nominal_period=nominal, points=tuple(points))
