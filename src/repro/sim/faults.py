"""Timing-error injection and clocked sampling.

A combinational stage is sampled at the clock edge ``clock``.  A *timing
error* at an output is a sampled value that differs from the settled value —
exactly what happens when a speed-path slows past the clock period due to
aging, voltage droop, or a marginal path.

:func:`sampled_outputs` and :func:`timing_errors` operate on the raw circuit;
the masked variants live in :mod:`repro.core.integrate`, which knows about
the prediction/indicator outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from repro.engine import CompiledCircuit, compile_circuit
from repro.errors import SimulationError
from repro.netlist.circuit import Circuit
from repro.sim.eventsim import two_vector_waveforms


@dataclass(frozen=True)
class SampleResult:
    """Outcome of sampling one vector pair at the clock edge."""

    sampled: dict[str, bool]
    settled: dict[str, bool]
    settle_time: dict[str, int]

    def errors(self) -> dict[str, bool]:
        """Per-output timing-error flags (sampled != settled)."""
        return {
            net: self.sampled[net] != self.settled[net] for net in self.sampled
        }

    @property
    def has_error(self) -> bool:
        return any(self.errors().values())


def sample_at_clock(
    circuit: Circuit | CompiledCircuit,
    v1: Mapping[str, bool],
    v2: Mapping[str, bool],
    clock: int,
) -> SampleResult:
    """Simulate the vector pair and sample all outputs at ``clock``."""
    if clock < 0:
        raise SimulationError(f"clock period {clock} must be non-negative")
    compiled = compile_circuit(circuit)
    waves = two_vector_waveforms(compiled, v1, v2)
    outputs = compiled.outputs
    sampled = {net: waves[net].value_at(clock) for net in outputs}
    settled = {net: waves[net].final for net in outputs}
    times = {net: waves[net].settle_time for net in outputs}
    return SampleResult(sampled=sampled, settled=settled, settle_time=times)


def sample_many(
    circuit: Circuit | CompiledCircuit,
    vector_pairs: Iterable[tuple[Mapping[str, bool], Mapping[str, bool]]],
    clock: int,
) -> Iterator[SampleResult]:
    """Sample a whole workload of vector pairs, compiling the circuit once.

    The Monte-Carlo injection harnesses iterate thousands of pairs; this
    amortizes the lowering and keeps the hot loop on the array IR.

    Empty workloads are legal and yield nothing — but the clock is still
    validated up front, so a bad period is reported even when the batch
    (e.g. an ``n=0`` campaign shard) contains no vector pairs.
    """
    if clock < 0:
        raise SimulationError(f"clock period {clock} must be non-negative")
    compiled = compile_circuit(circuit)

    def _generate() -> Iterator[SampleResult]:
        for v1, v2 in vector_pairs:
            yield sample_at_clock(compiled, v1, v2, clock)

    return _generate()


def eval_words_with_faults(
    circuit: Circuit | CompiledCircuit,
    words: Sequence[int],
    width: int,
    flips: Mapping[str, int] | None = None,
    stuck: Mapping[str, bool] | None = None,
) -> dict[str, int]:
    """Zero-delay evaluation of ``width`` packed patterns with net faults.

    ``words`` are engine-ordered input words (bit ``k`` is pattern ``k``).
    ``flips`` maps a net to the word of the patterns in which that net is
    struck by a transient single-event upset: the net is inverted *after*
    its driver evaluates, and the upset propagates through the fanout cone.
    ``stuck`` pins nets at a constant (stuck-at faults) in every pattern.
    A net that is both flipped and stuck ends up at the inverted stuck value
    — the flip is applied last, matching a particle strike on a tied node.
    Returns one word per net.

    The fault-injection campaign uses this for its SEU and stuck-at modes;
    errors are deviations of the primary outputs from the fault-free run.
    """
    compiled = compile_circuit(circuit)
    if len(words) != compiled.n_inputs:
        raise SimulationError(
            f"{len(words)} input words for {compiled.n_inputs} inputs"
        )
    if width < 0:
        raise SimulationError(f"pattern width {width} must be non-negative")
    mask = (1 << width) - 1
    index = compiled.net_index

    def _idx(net: str) -> int:
        try:
            return index[net]
        except KeyError:
            raise SimulationError(
                f"cannot inject fault on unknown net {net!r}"
            ) from None

    pinned = {_idx(net): mask if value else 0 for net, value in (stuck or {}).items()}
    struck = {_idx(net): word & mask for net, word in (flips or {}).items()}
    faulted = pinned.keys() | struck.keys()

    def _apply(i: int, value: int) -> int:
        return pinned.get(i, value) ^ struck.get(i, 0)

    values = [w & mask for w in words] + [0] * compiled.n_gates
    for i in faulted:
        if i < compiled.n_inputs:
            values[i] = _apply(i, values[i])
    for func, out, fanins in compiled.plan:
        value = func(mask, *[values[f] for f in fanins])
        values[out] = _apply(out, value) if out in faulted else value
    return dict(zip(compiled.net_names, values))


def eval_with_faults(
    circuit: Circuit | CompiledCircuit,
    pattern: Mapping[str, bool],
    flips: Iterable[str] = (),
    stuck: Mapping[str, bool] | None = None,
) -> dict[str, bool]:
    """One pattern through :func:`eval_words_with_faults`, all nets out.

    ``flips`` names the nets struck by an upset in this pattern.
    """
    compiled = compile_circuit(circuit)
    try:
        bits = [1 if pattern[net] else 0 for net in compiled.inputs]
    except KeyError as exc:
        raise SimulationError(f"pattern missing input {exc.args[0]!r}") from None
    values = eval_words_with_faults(
        compiled, bits, 1, flips=dict.fromkeys(flips, 1), stuck=stuck
    )
    return {net: bool(v) for net, v in values.items()}


def timing_errors(
    circuit: Circuit | CompiledCircuit,
    vector_pairs: Iterable[tuple[Mapping[str, bool], Mapping[str, bool]]],
    clock: int,
) -> list[tuple[int, dict[str, bool]]]:
    """Indices and per-output error flags for every erroneous vector pair."""
    failures = []
    for idx, result in enumerate(sample_many(circuit, vector_pairs, clock)):
        errs = result.errors()
        if any(errs.values()):
            failures.append((idx, errs))
    return failures
