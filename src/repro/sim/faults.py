"""Net-fault injection under zero-delay evaluation.

A transient single-event upset inverts a net for one pattern; a stuck-at
fault pins it in every pattern.  :func:`eval_words_with_faults` evaluates a
packed batch of patterns with such faults, and :func:`eval_with_faults` is
its one-pattern call.  Timing errors, the values a clocked flop samples
before its output settles, come from :mod:`repro.sim.eventsim`.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.engine import CompiledCircuit, compile_circuit
from repro.errors import SimulationError
from repro.netlist.circuit import Circuit


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
