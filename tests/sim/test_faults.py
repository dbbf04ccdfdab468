"""Tests for clocked sampling and timing-error injection."""

import random

import pytest

from repro.benchcircuits import comparator2
from repro.engine import compile_circuit, patterns_to_words
from repro.errors import SimulationError
from repro.sim import (
    eval_with_faults,
    exhaustive_patterns,
    random_patterns,
    sample_at_clock,
    sample_many,
    simulate,
    timing_errors,
)
from repro.sim.faults import eval_words_with_faults
from repro.sta import analyze
from tests.conftest import random_dag_circuit


def test_sampling_at_full_period_is_error_free():
    c = comparator2()
    delta = analyze(c).critical_delay
    pats = list(exhaustive_patterns(c.inputs))
    assert timing_errors(c, zip(pats, pats[1:]), clock=delta) == []


def test_aged_circuit_shows_errors_only_when_late():
    c = comparator2()
    delta = analyze(c).critical_delay
    slow = c.with_delay_scales({"t4": 3.0})
    pats = list(exhaustive_patterns(c.inputs))
    failures = timing_errors(slow, zip(pats, pats[1:]), clock=delta)
    assert failures  # slowing the speed-path past the clock must fail
    # and each reported failure is a genuine sample/settle mismatch
    for idx, errs in failures:
        result = sample_at_clock(slow, pats[idx], pats[idx + 1], delta)
        assert result.has_error
        assert errs == result.errors()


def test_sample_result_fields():
    c = comparator2()
    v1 = dict.fromkeys(c.inputs, False)
    v2 = dict.fromkeys(c.inputs, True)
    res = sample_at_clock(c, v1, v2, clock=7)
    assert set(res.sampled) == {"y"}
    assert res.settle_time["y"] <= 7
    assert not res.has_error


def test_negative_clock_rejected():
    c = comparator2()
    v = dict.fromkeys(c.inputs, False)
    with pytest.raises(SimulationError):
        sample_at_clock(c, v, v, clock=-1)


def test_sample_many_empty_batch_is_legal():
    """An n=0 workload yields nothing instead of erroring in the backend."""
    c = comparator2()
    assert list(sample_many(c, [], clock=7)) == []


def test_sample_many_validates_clock_before_iterating():
    """A bad period is reported at the call, even for an empty batch."""
    c = comparator2()
    with pytest.raises(SimulationError, match="clock period"):
        sample_many(c, [], clock=-1)


def test_sample_many_matches_sample_at_clock():
    c = comparator2()
    pats = list(exhaustive_patterns(c.inputs))[:5]
    pairs = list(zip(pats, pats[1:]))
    many = list(sample_many(c, pairs, clock=7))
    assert len(many) == len(pairs)
    for (v1, v2), res in zip(pairs, many):
        assert res == sample_at_clock(c, v1, v2, clock=7)


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
    pairs = list(zip(pats, pats[1:]))
    rates = []
    for scale in (1.0, 1.5, 2.5):
        slow = c.with_delay_scales(
            {g: scale for g in ("t4", "y", "nb0", "nb1")}
        )
        rates.append(len(timing_errors(slow, pairs, clock=delta)))
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
