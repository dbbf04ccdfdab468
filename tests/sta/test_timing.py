"""Tests for static timing analysis."""

import pytest

from repro.benchcircuits import comparator2
from repro.errors import TimingError
from repro.netlist import Circuit, lsi10k_like_library, unit_library
from repro.sim import exhaustive_patterns, stabilization_times
from repro.sta import INFINITE_TIME, analyze, threshold_target
from tests.conftest import random_dag_circuit

LIB = unit_library()


def test_comparator_paper_delay():
    """Unit-delay 2-bit comparator has critical path delay exactly 7."""
    rep = analyze(comparator2())
    assert rep.critical_delay == 7
    assert rep.target == 6  # floor(0.9 * 7)


def test_arrival_times_chain():
    c = Circuit("chain", inputs=("a",), outputs=("g2",))
    c.add_gate("g1", LIB.get("INV"), ("a",))
    c.add_gate("g2", LIB.get("INV"), ("g1",))
    rep = analyze(c, target=0)
    assert rep.arrival == {"a": 0, "g1": 1, "g2": 2}


def test_required_and_slack():
    c = comparator2()
    rep = analyze(c)
    # outputs: required == target
    assert rep.required["y"] == 6
    assert rep.slack("y") == 6 - 7 == -1
    # a net not feeding any output would have infinite required time
    with pytest.raises(TimingError):
        rep.slack("ghost")


def test_critical_sets():
    c = comparator2()
    rep = analyze(c)
    crit = rep.critical_gates(c)
    assert "y" in crit and "t4" in crit
    assert rep.critical_outputs(c) == ("y",)
    nets = rep.critical_nets()
    assert "b0" in nets or "b1" in nets  # late inverter inputs are critical


def test_min_stable_bounds_stabilization():
    """min_stable must lower-bound the floating-mode oracle everywhere."""
    for seed in range(6):
        c = random_dag_circuit(seed, num_inputs=5, num_gates=10)
        rep = analyze(c)
        for pat in exhaustive_patterns(c.inputs):
            st = stabilization_times(c, pat)
            for net, t in st.items():
                assert rep.min_stable[net] <= t <= rep.arrival[net], (seed, net)


def test_threshold_target():
    assert threshold_target(100, 0.9) == 90
    assert threshold_target(7, 0.9) == 6
    assert threshold_target(10, 1.0) == 10
    with pytest.raises(TimingError):
        threshold_target(10, 0.0)
    with pytest.raises(TimingError):
        threshold_target(10, 1.5)


def test_explicit_target_overrides_threshold():
    rep = analyze(comparator2(), target=3)
    assert rep.target == 3
    assert len(rep.critical_outputs(comparator2())) == 1


def test_net_not_driving_output_gets_infinite_required():
    c = Circuit("t", inputs=("a",), outputs=("g1",))
    c.add_gate("g1", LIB.get("INV"), ("a",))
    c.add_gate("dangling", LIB.get("INV"), ("a",))
    rep = analyze(c)
    assert rep.required["dangling"] == INFINITE_TIME


def test_aging_shifts_arrival():
    c = comparator2()
    slow = c.with_delay_scales({"t4": 2.0})
    assert analyze(slow).critical_delay > analyze(c).critical_delay


def _eager_required(circuit, target):
    """Backward required-time sweep over the circuit's own gate dicts."""
    required = {net: INFINITE_TIME for net in (*circuit.inputs, *circuit.gates)}
    for out in circuit.outputs:
        required[out] = min(required[out], target)
    for name in reversed(circuit.topo_order()):
        gate = circuit.gates[name]
        for fanin, delay in zip(gate.fanins, gate.pin_delays()):
            required[fanin] = min(required[fanin], required[name] - delay)
    return required


def _output_cones(circuit):
    cone, stack = set(), list(circuit.outputs)
    while stack:
        net = stack.pop()
        if net not in cone:
            cone.add(net)
            if net in circuit.gates:
                stack += circuit.gates[net].fanins
    return cone


def test_lazy_required_matches_eager_sweep():
    lsi = lsi10k_like_library()
    circuits = [comparator2()] + [
        random_dag_circuit(seed, num_inputs=5, num_gates=14, library=lib)
        for seed, lib in ((0, LIB), (1, lsi), (2, LIB), (3, lsi), (4, lsi))
    ]
    seen_infinite = False
    for circuit in circuits:
        delta = analyze(circuit).critical_delay
        for target in (-1, delta // 2, delta):
            rep = analyze(circuit, target=target)
            required = _eager_required(circuit, target)
            assert rep.required == required
            slack = {net: required[net] - rep.arrival[net] for net in required}
            assert {net: rep.slack(net) for net in required} == slack
            assert rep.critical_nets() == {n for n, s in slack.items() if s < 0}
            assert rep.critical_gates(circuit) == {
                n for n in circuit.gates if slack[n] < 0
            }
            seen_infinite |= INFINITE_TIME in required.values()
            if target == -1:  # every net in an output cone is critical
                assert rep.critical_nets() == _output_cones(circuit)
    assert seen_infinite  # some random circuit has a dangling net


def test_forward_maps_are_shared_and_read_only():
    c = comparator2()
    first, second = analyze(c), analyze(c, target=2)
    assert first.arrival is second.arrival
    assert first.min_stable is second.min_stable
    with pytest.raises(TypeError):
        first.arrival["y"] = 0
    with pytest.raises(TypeError):
        second.min_stable["y"] = 0
    gate = c.gates["t4"]
    c.replace_gate(type(gate)(gate.name, LIB.get("BUF"), gate.fanins[:1]))
    edited = analyze(c)
    assert edited.arrival is not first.arrival
    assert edited.min_stable is not first.min_stable
    assert edited.arrival["t4"] == edited.arrival[gate.fanins[0]] + 1


def test_arrival_only_algorithms_never_sweep_required():
    from repro.spcf import SpcfContext, spcf_pathbased, spcf_shortpath

    c = comparator2()
    ctx = SpcfContext(c)
    spcf_shortpath(c, context=ctx)
    spcf_pathbased(c, context=ctx)
    assert "required" not in vars(ctx.report)
    assert ctx.report.slack("y") == -1  # computed on demand
    assert "required" in vars(ctx.report)
