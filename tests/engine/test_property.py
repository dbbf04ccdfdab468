"""Property tests: compiled-engine evaluation == the naive reference walk.

The oracle here is deliberately *independent* of the engine: a per-pattern
dict-based topological walk through ``Cell.evaluate``, the semantics the
seed repo shipped with.  Hypothesis drives random DAG circuits (arbitrary
reconvergence and fanout) and random pattern batches; the word evaluator
must reproduce the oracle bit for bit.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import compile_circuit
from repro.netlist import lsi10k_like_library, unit_library
from repro.sim import pack_patterns, random_patterns, simulate_words

from tests.conftest import random_dag_circuit

LIBRARIES = {"unit": unit_library(), "lsi": lsi10k_like_library()}

circuits = st.builds(
    random_dag_circuit,
    seed=st.integers(min_value=0, max_value=10_000),
    num_inputs=st.integers(min_value=1, max_value=6),
    num_gates=st.integers(min_value=1, max_value=24),
    library=st.sampled_from(sorted(LIBRARIES)).map(LIBRARIES.get),
    num_outputs=st.just(1),
)


def naive_simulate(circuit, pattern):
    """Independent oracle: the seed repo's per-pattern dict walk."""
    values = {net: bool(pattern[net]) for net in circuit.inputs}
    for name in circuit.topo_order():
        gate = circuit.gates[name]
        values[name] = gate.cell.evaluate(
            {pin: values[f] for pin, f in zip(gate.cell.inputs, gate.fanins)}
        )
    return values


@settings(max_examples=60, deadline=None)
@given(circuit=circuits, width=st.integers(min_value=1, max_value=150))
def test_python_backend_matches_naive_walk(circuit, width):
    patterns = list(random_patterns(circuit.inputs, width, seed=99))
    words, width = pack_patterns(circuit.inputs, patterns)
    result = simulate_words(circuit, words, width)
    for i, pattern in enumerate(patterns):
        expected = naive_simulate(circuit, pattern)
        for net, word in result.items():
            assert bool((word >> i) & 1) == expected[net], (
                f"net {net} pattern {i}"
            )


@settings(max_examples=40, deadline=None)
@given(circuit=circuits)
def test_eval_pattern_matches_naive_walk(circuit):
    compiled = compile_circuit(circuit)
    for pattern in random_patterns(circuit.inputs, 8, seed=17):
        expected = naive_simulate(circuit, pattern)
        values = compiled.eval_pattern(pattern)
        for i, net in enumerate(compiled.net_names):
            assert values[i] == expected[net], f"net {net}"
