"""Static timing analysis.

Computes, for every net of a :class:`~repro.netlist.circuit.Circuit`:

* ``arrival`` — the classic latest arrival time (topological max-plus),
* ``min_stable`` — a lower bound on the floating-mode stabilization time,
  computed through the prime implicants of each cell (a gate output cannot
  stabilize before *some* prime has all its literals stable),
* ``required`` / ``slack`` with respect to a target arrival time
  ``Delta_y`` (the paper's speed-path threshold, default ``0.9 * Delta``).

The first two depend on the circuit alone: their name maps are built once
per :class:`~repro.engine.CompiledCircuit` and shared, read-only, by every
report on it.  ``required`` depends on the target and is swept backward on
first access, so a reader of arrivals only never pays for it.

Gates with negative slack are the *statically critical* gates used by the
node-based SPCF algorithm; outputs with ``arrival > Delta_y`` are the paper's
*critical primary outputs*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

from repro.engine import CompiledCircuit, compile_circuit
from repro.errors import TimingError
from repro.netlist.circuit import Circuit

#: Effectively-infinite required time for nets feeding no primary output.
INFINITE_TIME = 1 << 50


@dataclass(frozen=True)
class TimingReport:
    """Result of :func:`analyze`.

    ``arrival`` and ``min_stable`` are the read-only maps of the compiled
    circuit, shared by every report on it; ``required`` is this report's own.
    """

    circuit_name: str
    arrival: Mapping[str, int]
    min_stable: Mapping[str, int]
    critical_delay: int
    target: int
    compiled: CompiledCircuit = field(repr=False, compare=False)

    @cached_property
    def required(self) -> dict[str, int]:
        """Latest time each net may settle for every output to meet ``target``.

        Swept backward from the outputs on first access; a net feeding no
        output keeps :data:`INFINITE_TIME`.
        """
        compiled = self.compiled
        required = [INFINITE_TIME] * compiled.n_nets
        target = self.target
        for idx in compiled.output_index:
            if target < required[idx]:
                required[idx] = target
        n_inputs = compiled.n_inputs
        for pos in range(compiled.n_gates - 1, -1, -1):
            req = required[n_inputs + pos]
            for fanin, delay in zip(
                compiled.gate_fanins[pos], compiled.gate_delays[pos]
            ):
                candidate = req - delay
                if candidate < required[fanin]:
                    required[fanin] = candidate
        return dict(zip(compiled.net_names, required))

    def slack(self, net: str) -> int:
        """Required minus (latest) arrival for ``net``."""
        try:
            return self.required[net] - self.arrival[net]
        except KeyError:
            raise TimingError(f"unknown net {net!r}") from None

    def critical_gates(self, circuit: Circuit) -> set[str]:
        """Gates (not PIs) with negative slack w.r.t. the target."""
        return {
            name for name in circuit.gates if self.slack(name) < 0
        }

    def critical_nets(self) -> set[str]:
        """All nets (including PIs) with negative slack."""
        arrival = self.arrival
        return {net for net, req in self.required.items() if req < arrival[net]}

    def critical_outputs(self, circuit: Circuit) -> tuple[str, ...]:
        """Primary outputs where at least one speed-path terminates."""
        return tuple(
            net for net in circuit.outputs if self.arrival[net] > self.target
        )


def threshold_target(critical_delay: int, fraction: float) -> int:
    """The integer target arrival time ``Delta_y = floor(fraction * Delta)``.

    A pattern is a speed-path activation pattern iff its stabilization time
    strictly exceeds the target, so flooring keeps all paths within the
    ``(1 - fraction)`` band classified as speed-paths.
    """
    if not 0.0 < fraction <= 1.0:
        raise TimingError(f"threshold fraction {fraction} outside (0, 1]")
    return int(math.floor(fraction * critical_delay))


def _shared_map(
    compiled: CompiledCircuit, view: str, times: tuple[int, ...]
) -> Mapping[str, int]:
    """``times`` by net name, built once per compiled circuit.

    Cached in the circuit's derived views next to the array it names and
    handed out read-only, as every report on the circuit shares it.
    """
    key = ("by_name", view)
    named: Mapping[str, int] | None = compiled._derived.get(key)
    if named is None:
        named = MappingProxyType(dict(zip(compiled.net_names, times)))
        compiled._derived[key] = named
    return named


def analyze(
    circuit: Circuit | CompiledCircuit,
    target: int | None = None,
    threshold: float = 0.9,
) -> TimingReport:
    """Run STA on ``circuit`` (plain or pre-compiled).

    ``target`` overrides the required time at the primary outputs; when
    ``None`` it is derived as ``threshold_target(Delta, threshold)``.

    Everything that depends on the circuit alone (arrival, prime-based
    ``min_stable``, their name maps) is cached on the
    :class:`~repro.engine.CompiledCircuit`, so a repeated analysis of an
    unmodified circuit does no sweep at all; the target-dependent backward
    sweep runs when the report's ``required`` is first read.
    """
    compiled = compile_circuit(circuit)
    critical_delay = compiled.critical_delay()
    if target is None:
        target = threshold_target(critical_delay, threshold)
    return TimingReport(
        circuit_name=compiled.name,
        arrival=_shared_map(compiled, "arrival", compiled.arrival()),
        min_stable=_shared_map(compiled, "min_stable", compiled.min_stable()),
        critical_delay=critical_delay,
        target=target,
        compiled=compiled,
    )
