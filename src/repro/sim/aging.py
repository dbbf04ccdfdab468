"""Aging and wearout delay-degradation models.

The paper motivates error masking with gradual speed-path slowdown (NBTI,
HCI, electromigration).  We model aging as a multiplicative delay-scale
factor applied to a chosen set of gates; :class:`LinearAging` maps elapsed
stress time to a scale factor, and :func:`aged_copy` materializes a slowed
circuit for simulation/STA.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.errors import SimulationError
from repro.netlist.circuit import Circuit
from repro.sta.timing import TimingReport, analyze


@dataclass(frozen=True)
class LinearAging:
    """Delay scale grows linearly with stress time: ``1 + rate * t``."""

    rate: float

    def scale_at(self, t: float) -> float:
        if t < 0:
            raise SimulationError("stress time must be non-negative")
        return 1.0 + self.rate * t


@dataclass(frozen=True)
class SaturatingAging:
    """NBTI-style saturating degradation: ``1 + amplitude * (1 - exp(-t/tau))``.

    Implemented with the rational approximation ``t / (t + tau)`` to stay
    dependency-free; it has the same saturating shape.
    """

    amplitude: float
    tau: float

    def scale_at(self, t: float) -> float:
        if t < 0:
            raise SimulationError("stress time must be non-negative")
        return 1.0 + self.amplitude * (t / (t + self.tau))


#: Aging models constructible from a JSON-serializable campaign spec.
AGING_MODELS = {
    "linear": LinearAging,
    "saturating": SaturatingAging,
}


def aging_model(kind: str, **params: float) -> LinearAging | SaturatingAging:
    """Instantiate a named aging model (campaign specs carry name + params)."""
    try:
        cls = AGING_MODELS[kind]
    except KeyError:
        raise SimulationError(
            f"unknown aging model {kind!r}; choose from {tuple(AGING_MODELS)}"
        ) from None
    try:
        return cls(**params)
    except TypeError as exc:
        raise SimulationError(
            f"bad parameters for aging model {kind!r}: {exc}"
        ) from None


def speed_path_gates(
    circuit: Circuit, threshold: float = 0.9, report: TimingReport | None = None
) -> set[str]:
    """Gates lying on at least one speed-path (negative slack w.r.t. target)."""
    if report is None:
        report = analyze(circuit, threshold=threshold)
    return report.critical_gates(circuit)


def aged_copy(
    circuit: Circuit,
    scale: float,
    gates: Iterable[str] | None = None,
    threshold: float = 0.9,
) -> Circuit:
    """A copy of ``circuit`` with the chosen gates slowed by ``scale``.

    When ``gates`` is ``None``, all speed-path gates are aged — the paper's
    wearout scenario, where the paths that are already slow degrade past the
    clock period first.
    """
    if scale < 1.0:
        raise SimulationError(f"aging scale {scale} < 1 would speed gates up")
    if gates is None:
        gates = speed_path_gates(circuit, threshold=threshold)
    return circuit.with_delay_scales({g: scale for g in gates})

