"""Tests for clocked sampling, timing-error injection and net faults."""

import random

import pytest

from repro.benchcircuits import comparator2
from repro.engine import compile_circuit, patterns_to_words
from repro.errors import SimulationError
from repro.sim import (
    eval_with_faults,
    exhaustive_patterns,
    random_patterns,
    sample_clocks,
    sample_words,
    simulate,
    two_vector_waveforms,
)
from repro.sim.faults import eval_words_with_faults
from repro.sta import analyze
from tests.conftest import random_dag_circuit


def _sample_pairs(circuit, pats, clock):
    """Consecutive patterns as vector pairs, sampled at ``clock`` as words."""
    compiled = compile_circuit(circuit)
    v1, width = patterns_to_words(compiled, pats[:-1])
    v2, _ = patterns_to_words(compiled, pats[1:])
    return sample_clocks(compiled, v1, v2, width, [clock], circuit.outputs)[clock]


def _error_pairs(sample):
    """Word of the pairs in which some output samples a wrong value."""
    wrong = 0
    for y, value in sample.values.items():
        wrong |= value ^ sample.settled[y]
    return wrong


def test_sampling_at_full_period_is_error_free():
    c = comparator2()
    delta = analyze(c).critical_delay
    pats = list(exhaustive_patterns(c.inputs))
    sample = _sample_pairs(c, pats, delta)
    assert _error_pairs(sample) == 0
    assert set(sample.unsettled.values()) == {0}


def test_aged_circuit_shows_errors_only_when_late():
    c = comparator2()
    delta = analyze(c).critical_delay
    slow = c.with_delay_scales({"t4": 3.0})
    pats = list(exhaustive_patterns(c.inputs))
    sample = _sample_pairs(slow, pats, delta)
    wrong = _error_pairs(sample)
    assert wrong  # slowing the speed-path past the clock must fail
    # every wrong sample is on an output still switching after the clock,
    # and is a genuine sample/settle mismatch of the pair's waveform
    for y, value in sample.values.items():
        assert (value ^ sample.settled[y]) & ~sample.unsettled[y] == 0
    for k in range(len(pats) - 1):
        waves = two_vector_waveforms(slow, pats[k], pats[k + 1])
        mismatch = any(
            waves[y].value_at(delta) != waves[y].final for y in c.outputs
        )
        assert mismatch == bool(wrong >> k & 1), k


def test_negative_clock_rejected():
    c = comparator2()
    words = [0] * len(c.inputs)
    with pytest.raises(SimulationError, match="clock period"):
        sample_clocks(c, words, words, 1, [7, -1], c.outputs)


def test_sample_many_validates_clock_before_iterating():
    """A bad period is reported at the call, even for an empty batch."""
    c = comparator2()
    words = [0] * len(c.inputs)
    with pytest.raises(SimulationError, match="clock period"):
        sample_clocks(c, words, words, 0, [7, -1], c.outputs)


def test_sample_words_empty_batch_is_legal():
    """An n=0 workload samples to empty words instead of erroring."""
    c = comparator2()
    words = [0] * len(c.inputs)
    assert sample_words(c, words, words, 0, 7, c.outputs) == [0]
    sample = sample_clocks(c, words, words, 0, [7], c.outputs)[7]
    assert sample == ({"y": 0}, {"y": 0}, {"y": 0})


def test_eval_with_faults_no_faults_matches_simulate():
    c = comparator2()
    for pattern in list(exhaustive_patterns(c.inputs))[:8]:
        assert eval_with_faults(c, pattern) == simulate(c, pattern)


def test_eval_with_faults_flip_propagates_to_output():
    c = comparator2()
    pattern = dict.fromkeys(c.inputs, False)
    clean = simulate(c, pattern)
    flipped = eval_with_faults(c, pattern, flips=["y"])
    assert flipped["y"] != clean["y"]


def test_eval_with_faults_stuck_pins_net():
    c = comparator2()
    for pattern in list(exhaustive_patterns(c.inputs))[:8]:
        out = eval_with_faults(c, pattern, stuck={"y": True})
        assert out["y"] is True


def test_eval_with_faults_unknown_net():
    c = comparator2()
    pattern = dict.fromkeys(c.inputs, False)
    with pytest.raises(SimulationError, match="unknown net"):
        eval_with_faults(c, pattern, flips=["zz9"])


def test_error_rate_grows_with_aging():
    c = comparator2()
    delta = analyze(c).critical_delay
    pats = list(random_patterns(c.inputs, 120, seed=3))
    rates = []
    for scale in (1.0, 1.5, 2.5):
        slow = c.with_delay_scales(
            {g: scale for g in ("t4", "y", "nb0", "nb1")}
        )
        rates.append(_error_pairs(_sample_pairs(slow, pats, delta)).bit_count())
    assert rates[0] == 0
    assert rates[0] <= rates[1] <= rates[2]
    assert rates[2] > 0


def _reference_with_faults(circuit, pattern, flipped, stuck):
    """Per-pattern oracle: named cell evaluation in topological order."""
    def apply(net, value):
        return stuck.get(net, value) != (net in flipped)

    values = {net: apply(net, pattern[net]) for net in circuit.inputs}
    for name in circuit.topo_order():
        gate = circuit.gates[name]
        value = gate.cell.evaluate_seq([values[f] for f in gate.fanins])
        values[name] = apply(name, value)
    return values


@pytest.mark.parametrize("seed", range(6))
def test_eval_words_with_faults_matches_per_pattern(seed):
    """Every bit of the word result equals the per-pattern oracle, with a
    flipped primary input and a net that is both flipped and stuck."""
    circuit = random_dag_circuit(seed, num_inputs=6, num_gates=24, num_outputs=3)
    compiled = compile_circuit(circuit)
    rng = random.Random(seed)
    width = 70
    patterns = [
        {net: bool(rng.getrandbits(1)) for net in circuit.inputs}
        for _ in range(width)
    ]
    gates = sorted(circuit.gates)
    both, only_stuck, only_flipped = rng.sample(gates, 3)
    stuck = {both: bool(rng.getrandbits(1)), only_stuck: bool(rng.getrandbits(1))}
    flips = {
        net: rng.getrandbits(width)
        for net in (both, only_flipped, circuit.inputs[0])
    }
    words, _ = patterns_to_words(compiled, patterns)
    got = eval_words_with_faults(compiled, words, width, flips=flips, stuck=stuck)
    for k, pattern in enumerate(patterns):
        flipped = {net for net, word in flips.items() if word >> k & 1}
        want = _reference_with_faults(circuit, pattern, flipped, stuck)
        assert {net: bool(word >> k & 1) for net, word in got.items()} == want
        assert eval_with_faults(circuit, pattern, flipped, stuck) == want


def test_eval_words_with_faults_unknown_net():
    compiled = compile_circuit(comparator2())
    words = [0] * compiled.n_inputs
    with pytest.raises(SimulationError, match="unknown net 'zz9'"):
        eval_words_with_faults(compiled, words, 4, flips={"zz9": 1})
    with pytest.raises(SimulationError, match="unknown net 'zz9'"):
        eval_words_with_faults(compiled, words, 4, stuck={"zz9": True})
    with pytest.raises(SimulationError, match="input words"):
        eval_words_with_faults(compiled, words[1:], 4)
