"""Engine throughput — patterns/sec, reference walk vs compiled word evaluator.

Measures zero-delay simulation throughput on the builtin suite two ways:

* ``reference`` — the seed implementation: one dict-based topological walk
  per pattern (kept verbatim below as the honest baseline),
* ``python`` — the compiled engine's big-int word evaluator
  (:func:`repro.engine.eval_words`) at 16 Ki patterns per word.

Results are printed as a table and written to ``BENCH_engine.json`` next to
the repo root so the performance trajectory is tracked across PRs.  The
compiled evaluator must clear 5x over the reference walk.

Run standalone (``python benchmarks/bench_engine_throughput.py``) or via
``pytest benchmarks/ --benchmark-only -s``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.engine import compile_circuit, eval_words, pack_input_words
from repro.netlist import lsi10k_like_library
from repro.benchcircuits import circuit_by_name
from repro.sim import pack_patterns, random_patterns

#: Circuits benchmarked; a cross-section of the builtin suite.
CIRCUITS = ("cmb", "x2", "cu", "C432", "comparator6")

#: Patterns per batch for the big-int word evaluator.
WORD_PATTERNS = 16384

#: Patterns for the (much slower) reference walk; throughput extrapolates.
REFERENCE_PATTERNS = 256

#: Timing repeats; minimum-of-N filters scheduler/throttling spikes.
REPEATS = 5

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def _reference_simulate(circuit, pattern):
    """The seed per-pattern simulator: dict walk, no compiled IR."""
    values = {}
    for net in circuit.inputs:
        values[net] = bool(pattern[net])
    for name in circuit.topo_order():
        gate = circuit.gates[name]
        values[name] = gate.cell.evaluate(
            {pin: values[f] for pin, f in zip(gate.cell.inputs, gate.fanins)}
        )
    return values


def _best_of(repeats, fn):
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def measure_circuit(name: str, library=None) -> dict:
    """Patterns/sec for one circuit under both evaluators."""
    circuit = circuit_by_name(name, library)
    compiled = compile_circuit(circuit)

    ref_pats = list(random_patterns(circuit.inputs, REFERENCE_PATTERNS, seed=11))
    ref_time, _ = _best_of(
        3, lambda: [_reference_simulate(circuit, p) for p in ref_pats]
    )
    row = {
        "circuit": name,
        "gates": circuit.num_gates,
        "word_patterns": WORD_PATTERNS,
        "reference_pps": REFERENCE_PATTERNS / ref_time,
    }

    pats = list(random_patterns(circuit.inputs, WORD_PATTERNS, seed=11))
    words, width = pack_patterns(circuit.inputs, pats)
    packed = pack_input_words(compiled, words, width)

    t, _ = _best_of(REPEATS, lambda: eval_words(compiled, packed, width))
    row["python_pps"] = width / t
    row["speedup_python"] = row["python_pps"] / row["reference_pps"]
    return row


def run_suite(library=None) -> dict:
    rows = [measure_circuit(name, library) for name in CIRCUITS]
    payload = {
        "benchmark": "engine_throughput",
        "word_patterns": WORD_PATTERNS,
        "reference_patterns": REFERENCE_PATTERNS,
        "rows": rows,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def print_table(payload: dict) -> None:
    print(
        f"\n{'circuit':14s} {'gates':>6s} {'reference':>12s} "
        f"{'python':>12s} {'py-speedup':>11s}"
    )
    for row in payload["rows"]:
        print(
            f"{row['circuit']:14s} {row['gates']:6d} "
            f"{row['reference_pps']:12.0f} {row['python_pps']:12.0f} "
            f"{row['speedup_python']:10.1f}x"
        )
    print(f"(patterns/sec; JSON written to {RESULT_PATH})")


def check_targets(payload: dict) -> None:
    """The acceptance gates of the engine PR, rechecked on every run."""
    for row in payload["rows"]:
        assert row["speedup_python"] >= 5.0, (
            f"{row['circuit']}: compiled word evaluator only "
            f"{row['speedup_python']:.1f}x over the reference walk"
        )


def test_engine_throughput(benchmark, lsi_lib):
    payload = benchmark.pedantic(
        lambda: run_suite(lsi_lib), rounds=1, iterations=1
    )
    print_table(payload)
    check_targets(payload)


def main() -> int:
    payload = run_suite(lsi10k_like_library())
    print_table(payload)
    check_targets(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
