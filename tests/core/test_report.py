"""Tests for verification and overhead reporting."""

import math
from fractions import Fraction

import pytest

from repro.benchcircuits import comparator_nbit, make_benchmark
from repro.core import (
    build_masked_design,
    masking_delay,
    overhead_report,
    synthesize_masking,
    verify_masking,
)
from repro.core.pipeline import mask_circuit
from repro.core.verify import VerificationReport
from repro.netlist import lsi10k_like_library, unit_library
from repro.sta import analyze
from repro.synth import signal_probabilities_bdd, switching_power

UNIT = unit_library()
LSI = lsi10k_like_library()


@pytest.fixture(scope="module")
def result():
    return synthesize_masking(comparator_nbit(4), UNIT, max_support=8)


def test_verification_report(result):
    v = verify_masking(result)
    assert v.sound and not v.unsound_outputs
    assert v.full_coverage
    assert v.coverage_percent == 100.0
    assert set(v.coverage) == set(result.outputs)
    assert all(c == Fraction(1) for c in v.coverage.values())


def test_verification_report_empty_coverage_is_full():
    v = VerificationReport(circuit_name="empty", checks=(), coverage={})
    assert v.coverage_percent == 100.0
    assert v.full_coverage
    assert v.ok and v.sound and not v.unsound_outputs


def test_masking_delay_matches_sta(result):
    rep = analyze(result.masking_circuit, target=0)
    nets = [n for pair in result.outputs.values() for n in pair]
    assert masking_delay(result) == max(rep.arrival[n] for n in nets)


def test_overhead_report_consistency(result):
    design = build_masked_design(result)
    r = overhead_report(result, design=design)
    assert r.original_area == result.circuit.area()
    mux_area = UNIT.get("MUX2").area * len(result.outputs)
    assert r.masking_area == result.masking_circuit.area() + mux_area
    assert r.area_overhead_percent == pytest.approx(
        100.0 * r.masking_area / r.original_area
    )
    assert r.masking_power == pytest.approx(
        r.power_overhead_percent / 100.0 * r.original_power
    )
    assert r.meets_slack_constraint == (r.slack_percent >= 20.0)


def test_masking_power_sums_the_gates_the_design_adds(result):
    design = build_masked_design(result)
    r = overhead_report(result, design=design)
    added = [n for n in design.circuit.gates if n not in result.circuit.gates]
    assert len(added) == result.masking_circuit.num_gates + len(result.outputs)
    probs = signal_probabilities_bdd(design.circuit)
    exact = sum(
        design.circuit.gates[n].cell.load_cap * 2 * probs[n] * (1 - probs[n])
        for n in added
    )
    assert r.masking_power == pytest.approx(float(exact), rel=1e-12)
    difference = switching_power(design.circuit) - switching_power(result.circuit)
    assert r.masking_power == pytest.approx(difference, rel=1e-9)


def test_constant_masking_gates_cost_exactly_no_power():
    """C2670's masking gates and its one mux are all constant at 0.9, so
    its power overhead is exactly +0.0 (a difference of two design-wide
    sums read -8.46e-14)."""
    run = mask_circuit(make_benchmark("C2670", LSI), LSI, threshold=0.9)
    design = run.design
    added = [n for n in design.circuit.gates if n not in run.masking.circuit.gates]
    probs = signal_probabilities_bdd(design.circuit)
    assert added and all(probs[n] in (0, 1) for n in added)
    assert run.report.masking_power == 0.0
    assert run.report.power_overhead_percent == 0.0
    assert math.copysign(1.0, run.report.power_overhead_percent) == 1.0


def test_report_on_lsi_benchmark():
    circuit = make_benchmark("x2", LSI)
    result = synthesize_masking(circuit, LSI)
    r = overhead_report(result)
    assert r.sound and r.coverage_percent == 100.0
    assert r.critical_outputs == 1
    assert r.masking_delay <= r.original_delay


def test_unsound_masking_detected():
    """Corrupting the masking circuit must flip the soundness verdict."""
    circuit = comparator_nbit(3)
    result = synthesize_masking(circuit, UNIT, max_support=8)
    mc = result.masking_circuit
    pred_net = result.outputs[circuit.outputs[0]][0]
    gate = mc.gate(pred_net)
    # invert the prediction: e stays up, prediction now disagrees with y
    from dataclasses import replace

    if gate.cell.name == "INV":
        mc.replace_gate(replace(gate, cell=UNIT.get("BUF")))
    else:
        sub = gate.fanins[0]
        mc.remove_gate(pred_net)
        mc.add_gate(pred_net + "_n", gate.cell, gate.fanins)
        mc.add_gate(pred_net, UNIT.get("INV"), (pred_net + "_n",))
    v = verify_masking(result)
    assert not v.sound
    assert circuit.outputs[0] in v.unsound_outputs
