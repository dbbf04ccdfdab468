"""Compiled circuit engine: one lowering, many evaluation passes.

``repro.engine`` turns a :class:`~repro.netlist.circuit.Circuit` into a
:class:`CompiledCircuit` — levelized, integer-indexed flat arrays — and
evaluates packed pattern words on arbitrary-precision Python ints.  The
simulation, STA, and Monte-Carlo verification passes all run on this IR;
the per-net dict APIs in :mod:`repro.sim` and :mod:`repro.sta` are thin
adapters over it.  See DESIGN.md ("Compiled circuit engine") for the
lowering.
"""

from repro.engine.ir import (
    CompiledCircuit,
    cell_prime_tables,
    cell_word_function,
    compile_circuit,
    compile_program,
    pack_input_words,
    patterns_to_words,
    run_program,
)
from repro.engine.words import eval_words, evaluate_words

__all__ = [
    "CompiledCircuit",
    "compile_circuit",
    "compile_program",
    "run_program",
    "cell_word_function",
    "cell_prime_tables",
    "pack_input_words",
    "patterns_to_words",
    "eval_words",
    "evaluate_words",
]
