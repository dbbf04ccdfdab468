"""Tests for switching-power estimation."""

from fractions import Fraction

import pytest

from repro.bdd import BddManager
from repro.benchcircuits import PAPER_SPECS, comparator2, make_benchmark
from repro.errors import SimulationError
from repro.netlist import Circuit, lsi10k_like_library, unit_library
from repro.sim import exhaustive_patterns, simulate
from repro.spcf.timedfunc import CircuitFunctions
from repro.synth import signal_probabilities_bdd, switching_power

LIB = unit_library()


def test_exact_probabilities_known_circuit():
    c = Circuit("t", inputs=("a", "b"), outputs=("g",))
    c.add_gate("g", LIB.get("AND2"), ("a", "b"))
    probs = signal_probabilities_bdd(c)
    assert probs["a"] == Fraction(1, 2)
    assert probs["g"] == Fraction(1, 4)


def _exhaustive_probabilities(circuit):
    """Signal probabilities by simulating every input pattern."""
    ones = dict.fromkeys(circuit.nets(), 0)
    patterns = list(exhaustive_patterns(circuit.inputs))
    for pat in patterns:
        for net, value in simulate(circuit, pat).items():
            ones[net] += value
    return {net: Fraction(k, len(patterns)) for net, k in ones.items()}


def test_probabilities_match_exhaustive_simulation():
    c = comparator2()
    assert signal_probabilities_bdd(c) == _exhaustive_probabilities(c)


def test_switching_power_matches_exhaustive_simulation():
    c = comparator2()
    probs = _exhaustive_probabilities(c)
    expected = 0.0
    for name, gate in c.gates.items():
        p = float(probs[name])
        expected += gate.cell.load_cap * 2.0 * p * (1.0 - p)
    assert switching_power(c) == expected > 0


@pytest.mark.parametrize("name", ["i1", "cu", "k2", "C880", "apex6"])
def test_float_probabilities_equal_the_fraction_formula(name):
    # switching_power divides counts as floats; that must equal float() of
    # the exact Fraction on every net, summed in gate order.
    assert name in PAPER_SPECS
    c = make_benchmark(name, lsi10k_like_library())
    probs = signal_probabilities_bdd(c)
    expected = 0.0
    for net, gate in c.gates.items():
        p = float(probs[net])
        expected += gate.cell.load_cap * 2.0 * p * (1.0 - p)
    assert switching_power(c) == expected > 0


def test_constant_nets_consume_nothing():
    c = Circuit("t", inputs=("a",), outputs=("k",))
    c.add_gate("k", LIB.get("ONE"), ())
    assert switching_power(c) == 0.0


def test_power_scales_with_activity():
    # An XOR output (p=1/2) switches more than an AND output (p=1/4).
    cx = Circuit("x", inputs=("a", "b"), outputs=("g",))
    cx.add_gate("g", LIB.get("XOR2"), ("a", "b"))
    ca = Circuit("a", inputs=("a", "b"), outputs=("g",))
    ca.add_gate("g", LIB.get("AND2"), ("a", "b"))
    assert switching_power(cx) > switching_power(ca)


def test_given_manager_must_order_the_inputs_first():
    # Counts run over the first len(inputs) levels: those must hold the
    # inputs, in any order.
    c = comparator2()
    fresh = signal_probabilities_bdd(c)
    for names in (c.inputs + ("extra",), c.inputs[::-1]):
        fns = CircuitFunctions(c, BddManager(names))
        assert signal_probabilities_bdd(c, functions=fns) == fresh
        assert switching_power(c, functions=fns) == switching_power(c)
    for names in (("extra",) + c.inputs, c.inputs[:-1]):
        with pytest.raises(SimulationError):
            signal_probabilities_bdd(
                c, functions=CircuitFunctions(c, BddManager(names))
            )
