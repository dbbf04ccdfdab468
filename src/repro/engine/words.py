"""Word-parallel evaluation over :class:`CompiledCircuit`.

Patterns are packed into arbitrary-precision Python ints, one word per net
holding ``width`` patterns (bit ``k`` is pattern ``k``).  CPython big-int
bitwise operators are a single C loop over 30-bit digits, so one gate
evaluation costs a few hundred nanoseconds of dispatch however wide the
batch is.  :func:`eval_words` is the binary evaluator and
:func:`eval_ternary_words` its dual-rail Kleene counterpart; the dict
adapters :func:`evaluate_words` and :func:`evaluate_ternary_words` key
words by net name.
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


def _record_eval(kind: str, patterns: int) -> None:
    """One guarded recording helper so hot paths pay a single branch."""
    _EVAL_CALLS.add(1, kind=kind)
    _EVAL_PATTERNS.add(patterns, kind=kind)
    _EVAL_BATCH.observe(patterns, kind=kind)


__all__ = [
    "eval_words",
    "eval_ternary_words",
    "evaluate_words",
    "evaluate_ternary_words",
]


def _check_ternary_inputs(
    compiled: CompiledCircuit,
    ones: Sequence[int],
    zeros: Sequence[int],
    mask: int,
) -> None:
    """Every pattern bit of every input must carry 0, 1, or X.

    A position where *neither* rail is set has no value at all — the Kleene
    lattice has no such element and the rail algebra would silently turn it
    into garbage downstream, so it is rejected here, at the only place the
    caller hands rails to the evaluator.
    """
    if len(ones) != compiled.n_inputs or len(zeros) != compiled.n_inputs:
        raise EngineError(
            f"({len(ones)}, {len(zeros)}) rail words for "
            f"{compiled.n_inputs} inputs"
        )
    for i, (h, l) in enumerate(zip(ones, zeros)):
        if (h | l) & mask != mask:
            raise EngineError(
                f"input {compiled.inputs[i]!r}: rails leave pattern bit(s) "
                f"{mask & ~(h | l):#x} with no value (set the 1-rail, the "
                "0-rail, or both for X)"
            )


def eval_ternary_words(
    compiled: CompiledCircuit,
    ones: Sequence[int],
    zeros: Sequence[int],
    width: int,
) -> tuple[list[int], list[int]]:
    """Dual-rail Kleene evaluation of ``width`` packed ternary patterns.

    ``ones[i]`` / ``zeros[i]`` are the can-be-1 / can-be-0 rails of input
    ``i``; a bit set in both marks that pattern's input as X.  Returns
    the two rails for every net (same convention).
    """
    check_width(width)
    mask = (1 << width) - 1
    masked_ones = [h & mask for h in ones]
    masked_zeros = [l & mask for l in zeros]
    _check_ternary_inputs(compiled, masked_ones, masked_zeros, mask)
    hi = masked_ones + [0] * compiled.n_gates
    lo = masked_zeros + [0] * compiled.n_gates
    for func, out, fanins in compiled.ternary_plan:
        args: list[int] = []
        for f in fanins:
            args.append(hi[f])
            args.append(lo[f])
        hi[out], lo[out] = func(mask, *args)
    if _METER.enabled:
        _record_eval("ternary", width)
    return hi, lo


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
        _record_eval("binary", width)
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


def evaluate_ternary_words(
    circuit,
    ones: Mapping[str, int],
    zeros: Mapping[str, int],
    width: int,
) -> tuple[dict[str, int], dict[str, int]]:
    """Dual-rail Kleene evaluation with a per-net dict interface.

    ``ones[net]`` / ``zeros[net]`` are the can-be-1 / can-be-0 rails of each
    primary input (a bit set in both = X); returns the two rails for every
    net.  Accepts a :class:`Circuit` or a :class:`CompiledCircuit`.
    """
    compiled = compile_circuit(circuit)
    one_row = pack_input_words(compiled, ones, width)
    zero_row = pack_input_words(compiled, zeros, width)
    hi, lo = eval_ternary_words(compiled, one_row, zero_row, width)
    return dict(zip(compiled.net_names, hi)), dict(zip(compiled.net_names, lo))
