"""Zero-delay logic simulation.

Two evaluation modes:

* :func:`simulate` — one pattern, ``{net: bool}`` in and out.
* :func:`simulate_words` — bit-parallel simulation: every net carries a
  machine word holding one pattern per bit, so a whole random-vector batch
  costs one topological pass.

Both are thin adapters over :mod:`repro.engine`: the circuit is lowered once
to a :class:`~repro.engine.CompiledCircuit` (cached on the circuit) and
evaluated on flat integer-indexed arrays.  ``simulate_words`` packs its
patterns into arbitrary-precision Python ints (:func:`repro.engine.eval_words`).

Pattern sources (:func:`exhaustive_patterns`, :func:`random_patterns`,
:func:`pack_patterns`) are shared by tests, the masking validator, and the
benchmark harnesses.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, Iterator, Mapping, Sequence

from repro.engine import compile_circuit, evaluate_words
from repro.errors import SimulationError
from repro.netlist.circuit import Circuit


def simulate(circuit: Circuit, pattern: Mapping[str, bool]) -> dict[str, bool]:
    """Evaluate every net of ``circuit`` under one input pattern."""
    compiled = compile_circuit(circuit)
    values = compiled.eval_pattern(pattern)
    return {net: bool(v) for net, v in zip(compiled.net_names, values)}


def simulate_words(
    circuit: Circuit,
    words: Mapping[str, int],
    width: int,
) -> dict[str, int]:
    """Bit-parallel simulation of ``width`` patterns packed into ints."""
    return evaluate_words(circuit, words, width)


def exhaustive_patterns(inputs: Sequence[str]) -> Iterator[dict[str, bool]]:
    """All ``2^n`` input patterns; only sensible for small ``n``."""
    if len(inputs) > 24:
        raise SimulationError(
            f"refusing to enumerate 2^{len(inputs)} patterns exhaustively"
        )
    for bits in itertools.product((False, True), repeat=len(inputs)):
        yield dict(zip(inputs, bits))


def random_patterns(
    inputs: Sequence[str], count: int, seed: int = 0
) -> Iterator[dict[str, bool]]:
    """``count`` uniformly random input patterns (deterministic per seed)."""
    rng = random.Random(seed)
    for _ in range(count):
        yield {net: bool(rng.getrandbits(1)) for net in inputs}


def pack_patterns(
    inputs: Sequence[str], patterns: Iterable[Mapping[str, bool]]
) -> tuple[dict[str, int], int]:
    """Pack patterns into per-net words for :func:`simulate_words`.

    Returns ``(words, width)``; bit ``i`` of each word is pattern ``i``.
    """
    words = {net: 0 for net in inputs}
    width = 0
    for pattern in patterns:
        for net in inputs:
            if pattern[net]:
                words[net] |= 1 << width
        width += 1
    return words, width
