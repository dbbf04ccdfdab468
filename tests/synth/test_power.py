"""Tests for switching-power estimation."""

from fractions import Fraction

import pytest

from repro.bdd import BddManager
from repro.benchcircuits import comparator2
from repro.errors import SimulationError
from repro.netlist import Circuit, unit_library
from repro.synth import (
    signal_probabilities_bdd,
    signal_probabilities_sim,
    switching_power,
)

LIB = unit_library()


def test_exact_probabilities_known_circuit():
    c = Circuit("t", inputs=("a", "b"), outputs=("g",))
    c.add_gate("g", LIB.get("AND2"), ("a", "b"))
    probs = signal_probabilities_bdd(c)
    assert probs["a"] == Fraction(1, 2)
    assert probs["g"] == Fraction(1, 4)


def test_sim_probabilities_approach_exact():
    c = comparator2()
    exact = signal_probabilities_bdd(c)
    approx = signal_probabilities_sim(c, vectors=4096, seed=1)
    for net in c.nets():
        assert abs(float(exact[net]) - float(approx[net])) < 0.05, net


def test_switching_power_positive_and_methods_close():
    c = comparator2()
    p_bdd = switching_power(c, method="bdd")
    p_sim = switching_power(c, method="sim", vectors=4096)
    assert p_bdd > 0
    assert abs(p_bdd - p_sim) / p_bdd < 0.2


def test_constant_nets_consume_nothing():
    c = Circuit("t", inputs=("a",), outputs=("k",))
    c.add_gate("k", LIB.get("ONE"), ())
    assert switching_power(c) == 0.0


def test_bad_method_rejected():
    with pytest.raises(SimulationError):
        switching_power(comparator2(), method="psychic")
    with pytest.raises(SimulationError):
        signal_probabilities_sim(comparator2(), vectors=0)


def test_power_scales_with_activity():
    # An XOR output (p=1/2) switches more than an AND output (p=1/4).
    cx = Circuit("x", inputs=("a", "b"), outputs=("g",))
    cx.add_gate("g", LIB.get("XOR2"), ("a", "b"))
    ca = Circuit("a", inputs=("a", "b"), outputs=("g",))
    ca.add_gate("g", LIB.get("AND2"), ("a", "b"))
    assert switching_power(cx) > switching_power(ca)


def test_given_manager_must_order_the_inputs_first():
    c = comparator2()
    fresh = signal_probabilities_bdd(c)
    below = BddManager(c.inputs + ("extra",))
    assert signal_probabilities_bdd(c, manager=below) == fresh
    assert switching_power(c, manager=below) == switching_power(c)
    for names in (c.inputs[::-1], ("extra",) + c.inputs, c.inputs[:-1]):
        with pytest.raises(SimulationError):
            signal_probabilities_bdd(c, manager=BddManager(names))
