"""Two-vector event-driven timing simulation (pure delay model).

Given an initial vector ``v1`` and a final vector ``v2`` applied at t = 0,
compute the full switching waveform of every net.  Under the pure
(non-inertial) delay model the output waveform of a gate is its function
applied to the input waveforms, each shifted by the corresponding pin-to-pin
delay — so waveforms can be built functionally in one topological pass
instead of with an event queue.

A clocked flop samples these waveforms at the clock edge; a *timing error*
is a sampled value that differs from the settled value.
:func:`sample_words` computes that sample, and :func:`sample_clocks` also
whether the net still switches after the edge, for a whole batch of vector
pairs at once without building any waveform.  The waveforms themselves are
the per-pair reference these word functions are tested against.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

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
    Only ``t = clock`` is evaluated; :func:`sample_clocks` also tells
    whether a net is still switching after the clock.
    """
    compiled = compile_circuit(circuit)
    targets = _net_indices(compiled, nets)
    settled, memo = _timed_words(
        compiled, v1_words, v2_words, width, {i: (clock,) for i in targets}
    )
    return [memo[i].get(clock, settled[i]) for i in targets]


class ClockSample(NamedTuple):
    """Words of a batch of vector pairs at one clock edge, keyed by net.

    Bit ``k`` of every word is vector pair ``k``.
    """

    values: dict[str, int]
    """The net's value at the clock edge."""
    unsettled: dict[str, int]
    """Set where the net still switches after the clock edge."""
    settled: dict[str, int]
    """The net's final value."""


def sample_clocks(
    circuit: Circuit | CompiledCircuit,
    v1_words: Sequence[int],
    v2_words: Sequence[int],
    width: int,
    clocks: Iterable[int],
    nets: Iterable[str],
) -> dict[int, ClockSample]:
    """Sample each of ``nets`` at each of ``clocks``, for ``width`` pairs.

    The arguments are those of :func:`sample_words`, with several clock
    edges.  For each clock, bit ``k`` of ``values[net]`` equals
    ``two_vector_waveforms(circuit, v1_k, v2_k)[net].value_at(clock)`` and
    bit ``k`` of ``unsettled[net]`` equals ``...[net].settle_time > clock``.

    Why this is exact: every pin delay is an integer, so every transition
    happens at an integer time no later than the net's arrival.  A last
    transition after ``clock`` leaves the net off its settled value at the
    integer time just before it, and a net off its settled value at some
    ``t >= clock`` still has a transition to come.  So a net is unsettled
    after ``clock`` exactly when it differs from its settled value at some
    integer ``t`` in ``[clock, arrival)``: one evaluation of those times
    answers every clock of the sweep.
    """
    clocks = sorted(set(clocks))
    if not clocks:
        return {}
    start = clocks[0]
    if start < 0:
        raise SimulationError(f"clock period {start} must be non-negative")
    compiled = compile_circuit(circuit)
    nets = list(nets)
    targets = _net_indices(compiled, nets)
    arrival = compiled.arrival()
    settled, memo = _timed_words(
        compiled, v1_words, v2_words, width,
        {i: range(start, arrival[i]) for i in targets},
    )
    samples = {clock: ClockSample({}, {}, {}) for clock in clocks}
    for net, i in zip(nets, targets):
        words, final = memo[i], settled[i]
        after: dict[int, int] = {}
        late = 0
        for t in range(arrival[i] - 1, start - 1, -1):
            late |= words[t] ^ final
            after[t] = late
        for clock, sample in samples.items():
            sample.values[net] = words.get(clock, final)
            sample.unsettled[net] = after.get(clock, 0)
            sample.settled[net] = final
    return samples


def _net_indices(compiled: CompiledCircuit, nets: Iterable[str]) -> list[int]:
    index = compiled.net_index
    try:
        return [index[net] for net in nets]
    except KeyError as exc:
        raise SimulationError(f"cannot sample unknown net {exc.args[0]!r}") from None


def _timed_words(
    compiled: CompiledCircuit,
    v1_words: Sequence[int],
    v2_words: Sequence[int],
    width: int,
    demand: Mapping[int, Iterable[int]],
) -> tuple[list[int], list[dict[int, int]]]:
    """Settled words, and each net's words at the times ``demand`` reaches.

    ``demand`` maps a net index to the times its value is wanted at.
    Returns the settled word of every net and, per net, ``{t: word}`` for
    every demanded time below the net's arrival; at or past its arrival a
    net holds its settled word.

    Under the pure delay model a gate's waveform is its function applied
    pointwise to its fanin waveforms, each shifted by the pin delay, so
    ``v_z(t) = f_z(v_i(t - d_i))`` — the ``(node, t)`` recursion of Eqn. 1
    on values.  An input reads ``v1`` for ``t < 0`` and ``v2`` from
    ``t = 0`` on.  Every transition of a net happens at the sum of the
    delays along some input-to-net path, never later than the net's latest
    arrival time, so for ``t >= arrival`` the net already holds its settled
    value, which one zero-delay pass over ``v2`` gives.  Only the remaining
    ``(net, t)`` pairs are evaluated, once each, bitwise across all pairs,
    so glitches appear in the words exactly as in the waveforms.

    Two non-recursive passes: a demand pass in reverse topological order
    collects, per net, the times ``t < arrival`` it must be known at; a
    forward pass then evaluates them in gate order.
    """
    n_inputs = compiled.n_inputs
    if len(v1_words) != n_inputs or len(v2_words) != n_inputs:
        raise SimulationError(
            f"({len(v1_words)}, {len(v2_words)}) input words for "
            f"{n_inputs} inputs"
        )
    if width < 0:
        raise SimulationError(f"pattern width {width} must be non-negative")
    mask = (1 << width) - 1
    early = [w & mask for w in v1_words]
    settled = [w & mask for w in v2_words] + [0] * compiled.n_gates
    plan = compiled.plan
    for func, out, fanins in plan:
        settled[out] = func(mask, *[settled[f] for f in fanins])

    arrival = compiled.arrival()
    need: list[set[int]] = [set() for _ in range(compiled.n_nets)]
    for i, times in demand.items():
        need[i].update(t for t in times if t < arrival[i])
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
    return settled, memo
