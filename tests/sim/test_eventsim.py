"""Tests for the two-vector event-driven timing simulator."""

import random
import sys

import pytest

from repro.benchcircuits import comparator2
from repro.engine import compile_circuit, patterns_to_words
from repro.errors import SimulationError
from repro.netlist import Circuit, lsi10k_like_library, unit_library
from repro.sim import (
    Waveform,
    exhaustive_patterns,
    sample_clocks,
    sample_words,
    simulate,
    stabilization_times,
    two_vector_waveforms,
)
from tests.conftest import random_dag_circuit

LIB = unit_library()


def test_waveform_basics():
    w = Waveform.step(False, True, at=5)
    assert w.initial is False and w.final is True
    assert w.value_at(4) is False and w.value_at(5) is True
    assert w.settle_time == 5
    const = Waveform.constant(True)
    assert const.final is True and const.settle_time == 0
    assert Waveform.step(True, True).num_transitions == 0


def test_waveform_shift():
    w = Waveform.step(False, True, at=3).shifted(4)
    assert w.value_at(6) is False and w.value_at(7) is True


def test_inverter_chain_propagation():
    c = Circuit("t", inputs=("a",), outputs=("g3",))
    for i in range(3):
        c.add_gate(f"g{i + 1}", LIB.get("INV"), (f"g{i}" if i else "a",))
    waves = two_vector_waveforms(c, {"a": False}, {"a": True})
    assert waves["g3"].transitions == ((3, False),)
    assert waves["g3"].initial is True


def test_static_pair_produces_no_transitions():
    c = comparator2()
    v = dict.fromkeys(c.inputs, True)
    waves = two_vector_waveforms(c, v, v)
    for net in c.nets():
        assert waves[net].num_transitions == 0


def test_final_values_match_zero_delay_sim():
    for seed in range(6):
        c = random_dag_circuit(seed, num_inputs=5, num_gates=12)
        pats = list(exhaustive_patterns(c.inputs))
        for v1, v2 in zip(pats[::3], pats[1::3]):
            waves = two_vector_waveforms(c, v1, v2)
            ref = simulate(c, v2)
            for net in c.nets():
                assert waves[net].final == ref[net], (seed, net)


def test_settle_bounded_by_floating_mode():
    """Two-vector settle time never exceeds the floating-mode bound of v2."""
    for seed in range(6):
        c = random_dag_circuit(seed, num_inputs=5, num_gates=12)
        pats = list(exhaustive_patterns(c.inputs))
        for v1, v2 in zip(pats[::2], pats[1::2]):
            waves = two_vector_waveforms(c, v1, v2)
            oracle = stabilization_times(c, v2)
            for y in c.outputs:
                assert waves[y].settle_time <= oracle[y], (seed, y)


def test_glitch_visible_in_waveform():
    # XOR of a fast and a slow copy of the same input glitches.
    c = Circuit("t", inputs=("a",), outputs=("g",))
    c.add_gate("s1", LIB.get("INV"), ("a",))
    c.add_gate("s2", LIB.get("INV"), ("s1",))
    c.add_gate("g", LIB.get("XOR2"), ("a", "s2"))
    waves = two_vector_waveforms(c, {"a": False}, {"a": True})
    # a arrives at the XOR at t=2; s2 at t=4: a 1-glitch in between.
    assert waves["g"].num_transitions == 2
    assert waves["g"].value_at(3) is True
    assert waves["g"].final is False


def test_missing_input_rejected():
    with pytest.raises(SimulationError):
        two_vector_waveforms(comparator2(), {}, {})


def _random_pairs(inputs, count, seed):
    rng = random.Random(seed)
    draw = lambda: {net: bool(rng.getrandbits(1)) for net in inputs}  # noqa: E731
    return [(draw(), draw()) for _ in range(count)]


def _assert_samples_match_waveforms(compiled, pairs, clocks, nets):
    """Bit k of the word samplers == the waveform of pair k at every clock.

    ``sample_words`` gives the value at the clock; one ``sample_clocks``
    call over every non-negative clock also gives whether the net settles
    after it, and its final value.
    """
    v1, width = patterns_to_words(compiled, [a for a, _ in pairs])
    v2, _ = patterns_to_words(compiled, [b for _, b in pairs])
    waves = [two_vector_waveforms(compiled, a, b) for a, b in pairs]

    def bits(word):
        return [bool(word >> k & 1) for k in range(width)]

    swept = sample_clocks(
        compiled, v1, v2, width, [t for t in clocks if t >= 0], nets
    )
    for clock in sorted(clocks):
        words = sample_words(compiled, v1, v2, width, clock, nets)
        for net, word in zip(nets, words):
            want = [w[net].value_at(clock) for w in waves]
            assert bits(word) == want, (net, clock)
            if clock < 0:
                continue
            sample = swept[clock]
            assert bits(sample.values[net]) == want, (net, clock)
            assert bits(sample.unsettled[net]) == [
                w[net].settle_time > clock for w in waves
            ], (net, clock)
            assert bits(sample.settled[net]) == [w[net].final for w in waves]


@pytest.mark.parametrize("scaled", [False, True], ids=["nominal", "scaled"])
@pytest.mark.parametrize("seed", range(6))
def test_sample_words_matches_waveforms(seed, scaled):
    """Bit for bit against ``two_vector_waveforms(...).value_at(clock)`` at
    clock 0, at every output's arrival and arrival - 1, and past the
    critical delay."""
    circuit = random_dag_circuit(
        seed, num_inputs=6, num_gates=30, num_outputs=4,
        library=lsi10k_like_library(),
    )
    compiled = compile_circuit(circuit)
    if scaled:
        rng = random.Random(seed)
        slow = rng.sample(compiled.gate_names, 10)
        compiled = compiled.with_delay_scales(
            {g: rng.choice((1.5, 2.0, 3.7)) for g in slow}
        )
    arrival = compiled.arrival()
    clocks = {0, compiled.critical_delay() + 1}
    for i in compiled.output_index:
        clocks |= {arrival[i], max(arrival[i] - 1, 0)}
    pairs = _random_pairs(compiled.inputs, 70, seed)
    _assert_samples_match_waveforms(compiled, pairs, clocks, compiled.net_names)


def test_sample_words_sees_the_glitch():
    c = Circuit("t", inputs=("a",), outputs=("g",))
    c.add_gate("s1", LIB.get("INV"), ("a",))
    c.add_gate("s2", LIB.get("INV"), ("s1",))
    c.add_gate("g", LIB.get("XOR2"), ("a", "s2"))
    compiled = compile_circuit(c)
    pairs = [({"a": a}, {"a": b}) for a in (False, True) for b in (False, True)]
    _assert_samples_match_waveforms(compiled, pairs, range(-1, 6), ("g",))
    # Pairs 1 and 2 (a switches) glitch to 1 inside [2, 4); the others stay 0.
    v1, width = patterns_to_words(compiled, [a for a, _ in pairs])
    v2, _ = patterns_to_words(compiled, [b for _, b in pairs])
    assert sample_words(compiled, v1, v2, width, 3, ["g"]) == [0b0110]


def test_sample_words_handles_chains_deeper_than_the_recursion_limit():
    """Both passes are loops: a chain deeper than the interpreter's
    recursion limit (the default 1000 here; importing the BDD package
    raises it) samples without a ``RecursionError``."""
    depth = 2000
    c = Circuit("chain", inputs=("a",), outputs=(f"g{depth}",))
    for i in range(depth):
        c.add_gate(f"g{i + 1}", LIB.get("INV"), (f"g{i}" if i else "a",))
    compiled = compile_circuit(c)
    pairs = [({"a": False}, {"a": True}), ({"a": True}, {"a": False}),
             ({"a": True}, {"a": True})]
    v1, width = patterns_to_words(compiled, [a for a, _ in pairs])
    v2, _ = patterns_to_words(compiled, [b for _, b in pairs])
    clocks = (0, depth // 2, depth - 1, depth)
    nets = ("g1", f"g{depth // 2}", f"g{depth}")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert depth > sys.getrecursionlimit()
        samples = {t: sample_words(compiled, v1, v2, width, t, nets) for t in clocks}
    finally:
        sys.setrecursionlimit(limit)
    waves = [two_vector_waveforms(compiled, a, b) for a, b in pairs]
    for t, words in samples.items():
        for net, word in zip(nets, words):
            assert [bool(word >> k & 1) for k in range(width)] == [
                w[net].value_at(t) for w in waves
            ], (net, t)


def test_sample_words_rejects_bad_arguments():
    compiled = compile_circuit(comparator2())
    words = [0] * compiled.n_inputs
    with pytest.raises(SimulationError, match="unknown net"):
        sample_words(compiled, words, words, 1, 0, ["zz9"])
    with pytest.raises(SimulationError, match="input words"):
        sample_words(compiled, words[1:], words, 1, 0, compiled.outputs)
    with pytest.raises(SimulationError, match="width"):
        sample_words(compiled, words, words, -1, 0, compiled.outputs)
