"""Two-vector event-driven timing simulation (pure delay model).

Given an initial vector ``v1`` and a final vector ``v2`` applied at t = 0,
compute the full switching waveform of every net.  Under the pure
(non-inertial) delay model the output waveform of a gate is its function
applied to the input waveforms, each shifted by the corresponding pin-to-pin
delay — so waveforms can be built functionally in one topological pass
instead of with an event queue.

The masked-sampling model in :mod:`repro.sim.faults` samples these waveforms
at the clock edge; a *timing error* is a sampled value that differs from the
settled value.  When only that one sample is wanted, :func:`sample_words`
computes it for a whole batch of vector pairs at once without building any
waveform.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.engine import CompiledCircuit, compile_circuit
from repro.errors import SimulationError
from repro.netlist.circuit import Circuit


@dataclass(frozen=True)
class Waveform:
    """A piecewise-constant 0/1 signal.

    ``initial`` is the value for ``t < transitions[0][0]``; ``transitions``
    is a strictly-increasing sequence of ``(time, new_value)`` with adjacent
    values always differing.
    """

    initial: bool
    transitions: tuple[tuple[int, bool], ...] = ()

    @staticmethod
    def constant(value: bool) -> "Waveform":
        return Waveform(bool(value))

    @staticmethod
    def step(initial: bool, final: bool, at: int = 0) -> "Waveform":
        """Input waveform: ``initial`` before ``at``, ``final`` after."""
        if initial == final:
            return Waveform(bool(initial))
        return Waveform(bool(initial), ((at, bool(final)),))

    def value_at(self, t: int) -> bool:
        """Signal value at time ``t`` (transitions take effect at their time)."""
        idx = bisect_right([tt for tt, _ in self.transitions], t)
        if idx == 0:
            return self.initial
        return self.transitions[idx - 1][1]

    @property
    def final(self) -> bool:
        """Settled value."""
        return self.transitions[-1][1] if self.transitions else self.initial

    @property
    def settle_time(self) -> int:
        """Time of the last transition (0 for constant waveforms)."""
        return self.transitions[-1][0] if self.transitions else 0

    @property
    def num_transitions(self) -> int:
        return len(self.transitions)

    def shifted(self, delay: int) -> "Waveform":
        """The waveform delayed by ``delay`` time units."""
        if delay == 0 or not self.transitions:
            return self if delay == 0 else Waveform(self.initial, self.transitions)
        return Waveform(
            self.initial, tuple((t + delay, v) for t, v in self.transitions)
        )


def _combine(cell_eval, waveforms: Sequence[Waveform]) -> Waveform:
    """Apply an n-ary function pointwise to already-shifted input waveforms."""
    times = sorted({t for w in waveforms for t, _ in w.transitions})
    initial = cell_eval([w.initial for w in waveforms])
    transitions: list[tuple[int, bool]] = []
    current = initial
    for t in times:
        value = cell_eval([w.value_at(t) for w in waveforms])
        if value != current:
            transitions.append((t, value))
            current = value
    return Waveform(initial, tuple(transitions))


def two_vector_waveforms(
    circuit: Circuit | CompiledCircuit,
    v1: Mapping[str, bool],
    v2: Mapping[str, bool],
) -> dict[str, Waveform]:
    """Waveform of every net when inputs switch from ``v1`` to ``v2`` at t=0.

    One pass over the compiled gate arrays (indices, cached scaled delays);
    accepts a plain or pre-compiled circuit.
    """
    compiled = compile_circuit(circuit)
    waves: list[Waveform] = []
    for net in compiled.inputs:
        try:
            waves.append(Waveform.step(bool(v1[net]), bool(v2[net])))
        except KeyError as exc:
            raise SimulationError(f"vector missing input {exc}") from exc
    for pos, fanins in enumerate(compiled.gate_fanins):
        cell = compiled.gate_cells[pos]
        if not fanins:
            waves.append(Waveform.constant(cell.evaluate({})))
            continue
        delays = compiled.gate_delays[pos]
        shifted = [waves[f].shifted(d) for f, d in zip(fanins, delays)]
        waves.append(_combine(cell.evaluate_seq, shifted))
    return dict(zip(compiled.net_names, waves))


def settle_times(
    circuit: Circuit | CompiledCircuit,
    v1: Mapping[str, bool],
    v2: Mapping[str, bool],
) -> dict[str, int]:
    """Last-transition time of every primary output for the vector pair."""
    compiled = compile_circuit(circuit)
    waves = two_vector_waveforms(compiled, v1, v2)
    return {net: waves[net].settle_time for net in compiled.outputs}


def sample_words(
    circuit: Circuit | CompiledCircuit,
    v1_words: Sequence[int],
    v2_words: Sequence[int],
    width: int,
    clock: int,
    nets: Iterable[str],
) -> list[int]:
    """Value of each of ``nets`` at time ``clock``, for ``width`` vector pairs.

    ``v1_words`` / ``v2_words`` are engine-ordered input words (bit ``k`` is
    vector pair ``k``, as packed by :func:`repro.engine.patterns_to_words`);
    the inputs switch from ``v1`` to ``v2`` at t = 0.  Bit ``k`` of the
    returned word for a net equals
    ``two_vector_waveforms(circuit, v1_k, v2_k)[net].value_at(clock)``.

    Why this is exact: under the pure delay model a gate's waveform is its
    function applied pointwise to its fanin waveforms, each shifted by the
    pin delay, so ``v_z(t) = f_z(v_i(t - d_i))`` — the ``(node, t)``
    recursion of Eqn. 1 on values.  An input reads ``v1`` for ``t < 0`` and
    ``v2`` from ``t = 0`` on.  Every transition of a net happens at the sum
    of the delays along some input-to-net path, never later than the net's
    latest arrival time, so for ``t >= arrival`` the net already holds its
    settled value, which one zero-delay pass over ``v2`` gives.  Only the
    remaining ``(net, t)`` pairs are evaluated, once each, bitwise across
    all pairs, so glitches appear in the samples exactly as in the
    waveforms.

    Two non-recursive passes: a demand pass in reverse topological order
    collects, per net, the times ``t < arrival`` it must be known at; a
    forward pass then evaluates them in gate order.
    """
    compiled = compile_circuit(circuit)
    n_inputs = compiled.n_inputs
    if len(v1_words) != n_inputs or len(v2_words) != n_inputs:
        raise SimulationError(
            f"({len(v1_words)}, {len(v2_words)}) input words for "
            f"{n_inputs} inputs"
        )
    if width < 0:
        raise SimulationError(f"pattern width {width} must be non-negative")
    index = compiled.net_index
    try:
        targets = [index[net] for net in nets]
    except KeyError as exc:
        raise SimulationError(f"cannot sample unknown net {exc.args[0]!r}") from None
    mask = (1 << width) - 1
    early = [w & mask for w in v1_words]
    settled = [w & mask for w in v2_words] + [0] * compiled.n_gates
    plan = compiled.plan
    for func, out, fanins in plan:
        settled[out] = func(mask, *[settled[f] for f in fanins])

    arrival = compiled.arrival()
    need: list[set[int]] = [set() for _ in range(compiled.n_nets)]
    for i in targets:
        if clock < arrival[i]:
            need[i].add(clock)
    arcs = [tuple(zip(fanins, delays)) for fanins, delays in
            zip(compiled.gate_fanins, compiled.gate_delays)]
    for out in range(compiled.n_nets - 1, n_inputs - 1, -1):
        times = need[out]
        if not times:
            continue
        for f, d in arcs[out - n_inputs]:
            late = arrival[f] + d
            need[f].update(t - d for t in times if t < late)

    memo: list[dict[int, int]] = [{} for _ in range(compiled.n_nets)]
    for i in range(n_inputs):
        memo[i] = dict.fromkeys(need[i], early[i])
    for func, out, _fanins in plan:
        times = need[out]
        if not times:
            continue
        pins = arcs[out - n_inputs]
        words = memo[out]
        for t in times:
            words[t] = func(mask, *[
                memo[f][t - d] if t - d < arrival[f] else settled[f]
                for f, d in pins
            ])
    return [
        memo[i][clock] if clock < arrival[i] else settled[i] for i in targets
    ]
