"""Word-parallel evaluation over :class:`CompiledCircuit`.

Patterns are packed into arbitrary-precision Python ints, one word per net
holding ``width`` patterns (bit ``k`` is pattern ``k``).  CPython big-int
bitwise operators are a single C loop over 30-bit digits, so one gate
evaluation costs a few hundred nanoseconds of dispatch however wide the
batch is.  :func:`eval_words` is the evaluator; the dict adapter
:func:`evaluate_words` keys words by net name.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro import obs
from repro.engine.ir import (
    CompiledCircuit,
    check_width,
    compile_circuit,
    pack_input_words,
)
from repro.errors import EngineError

_METER = obs.get_meter()
_EVAL_CALLS = _METER.counter(
    "repro_engine_eval_calls_total", "word-batch evaluation calls"
)
_EVAL_PATTERNS = _METER.counter(
    "repro_engine_eval_patterns_total", "patterns evaluated by word-batch calls"
)
_EVAL_BATCH = _METER.histogram(
    "repro_engine_eval_batch_patterns",
    "patterns per word-batch evaluation call",
    obs.BATCH_BUCKETS,
)


__all__ = [
    "eval_words",
    "evaluate_words",
]


def eval_words(
    compiled: CompiledCircuit, input_words: Sequence[int], width: int
) -> list[int]:
    """Evaluate ``width`` packed patterns; returns one word per net."""
    check_width(width)
    if len(input_words) != compiled.n_inputs:
        raise EngineError(
            f"{len(input_words)} input words for {compiled.n_inputs} inputs"
        )
    mask = (1 << width) - 1
    values = [0] * compiled.n_nets
    for i, word in enumerate(input_words):
        values[i] = word & mask
    for func, out, fanins in compiled.plan:
        values[out] = func(mask, *[values[f] for f in fanins])
    if _METER.enabled:
        _EVAL_CALLS.add(1, kind="binary")
        _EVAL_PATTERNS.add(width, kind="binary")
        _EVAL_BATCH.observe(width, kind="binary")
    return values


def evaluate_words(
    circuit, words: Mapping[str, int], width: int
) -> dict[str, int]:
    """Word-parallel evaluation with a per-net dict interface.

    Accepts a :class:`Circuit` or a :class:`CompiledCircuit`; this is the
    adapter :func:`repro.sim.simulate_words` is built on.
    """
    compiled = compile_circuit(circuit)
    row = pack_input_words(compiled, words, width)
    values = eval_words(compiled, row, width)
    return dict(zip(compiled.net_names, values))
