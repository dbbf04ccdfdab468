"""Formal verification of masking circuits: proofs and counterexamples.

Acceptance-critical: ``verify_masking`` proves ``e=1 ⟹ y~ = y``,
``Sigma_y ⟹ e`` and off-SPCF equivalence of the mux-patched design by BDD
equivalence on the Fig. 2 comparator and five builtin benchmarks, and
reports a concrete counterexample pattern for each theorem a deliberately
corrupted masking circuit or design breaks.
"""

import pytest

from repro.benchcircuits import circuit_by_name
from repro.core import (
    assert_verified,
    build_masked_design,
    mask_circuit,
    synthesize_masking,
    verify_masking,
)
from repro.core.integrate import MASKED_PREFIX
from repro.core.verify import (
    CHECK_COVERAGE,
    CHECK_EQUIVALENCE,
    CHECK_SOUNDNESS,
)
from repro.errors import VerificationError
from repro.netlist.circuit import Gate

#: The Fig. 2 comparator plus five builtin paper benchmarks.
VERIFY_NAMES = ["comparator2", "cmb", "x2", "cu", "i1", "frg1"]


@pytest.mark.parametrize("name", VERIFY_NAMES)
def test_verify_mask_proves_all_three_theorems(name, lsi_lib):
    result = synthesize_masking(circuit_by_name(name, lsi_lib), lsi_lib)
    report = verify_masking(result)
    assert report.ok
    checks = {c.check for c in report.checks}
    assert checks == {CHECK_SOUNDNESS, CHECK_COVERAGE, CHECK_EQUIVALENCE}
    assert len(report.checks) == 3 * len(result.outputs)
    assert all(c.counterexample is None for c in report.checks)


def _corrupt_prediction(result, lib):
    """Invert the gate driving a prediction output of the masking circuit."""
    pred_net, _ = next(iter(result.outputs.values()))
    mc = result.masking_circuit
    gate = mc.gate(pred_net)
    if gate.cell.num_inputs == 1:
        flipped = lib.get("BUF" if gate.cell.name == "INV" else "INV")
        mc.replace_gate(Gate(gate.name, flipped, gate.fanins))
    else:
        mc.replace_gate(Gate(gate.name, lib.get("INV"), gate.fanins[:1]))


def test_corrupted_prediction_yields_soundness_counterexample(lsi_lib):
    result = synthesize_masking(circuit_by_name("comparator2", lsi_lib), lsi_lib)
    _corrupt_prediction(result, lsi_lib)
    report = verify_masking(result)
    assert not report.ok
    failure = next(c for c in report.failures if c.check == CHECK_SOUNDNESS)
    cex = failure.counterexample
    assert cex is not None
    pattern = cex.pattern()
    assert len(pattern) == len(result.circuit.inputs)
    assert set(pattern) <= {"0", "1"}
    # The witness really does exhibit e=1 with y~ != y.
    observed = dict(cex.observed)
    pred_net, ind_net = result.outputs[failure.output]
    assert observed[ind_net] is True
    assert observed[pred_net] != observed[failure.output]


def test_corrupted_indicator_yields_coverage_counterexample(lsi_lib):
    result = synthesize_masking(circuit_by_name("comparator2", lsi_lib), lsi_lib)
    _, ind_net = next(iter(result.outputs.values()))
    mc = result.masking_circuit
    mc.replace_gate(Gate(mc.gate(ind_net).name, lsi_lib.get("ZERO"), ()))
    report = verify_masking(result)
    assert not report.ok
    failure = next(c for c in report.failures if c.check == CHECK_COVERAGE)
    assert failure.counterexample is not None
    # The witness is a speed-path pattern the dead indicator misses.
    sigma = result.spcf.per_output[failure.output]
    assignment = dict(failure.counterexample.assignment)
    assert sigma.evaluate(assignment) is True
    # The coverage fraction agrees with the failing check, and a dead
    # indicator never masks, so it cannot be unsound.
    assert report.coverage[failure.output] < 1
    assert not report.full_coverage
    assert report.sound


def test_swapped_mux_yields_equivalence_counterexample(lsi_lib):
    result = synthesize_masking(circuit_by_name("comparator2", lsi_lib), lsi_lib)
    design = build_masked_design(result)
    y, (pred_net, ind_net) = next(iter(result.outputs.items()))
    masked_net = MASKED_PREFIX + y
    mux = design.circuit.gate(masked_net)
    assert mux.fanins == (ind_net, y, pred_net)
    design.circuit.replace_gate(Gate(masked_net, mux.cell, (ind_net, pred_net, y)))
    report = verify_masking(result, design=design)
    assert not report.ok
    failure = next(c for c in report.failures if c.check == CHECK_EQUIVALENCE)
    assert failure.output == y
    cex = failure.counterexample
    assert cex is not None
    # The witness lies outside Sigma_y and the patched output is wrong there.
    sigma = result.spcf.per_output[y]
    assert sigma.evaluate(dict(cex.assignment)) is False
    observed = dict(cex.observed)
    assert observed[masked_net] != observed[y]


def test_assert_verified_raises_with_witness(lsi_lib):
    result = synthesize_masking(circuit_by_name("comparator2", lsi_lib), lsi_lib)
    _corrupt_prediction(result, lsi_lib)
    with pytest.raises(VerificationError, match="pattern="):
        assert_verified(result)


def test_trivial_masking_verifies_vacuously(lsi_lib):
    """threshold=1.0 -> no critical outputs -> nothing to prove."""
    result = synthesize_masking(
        circuit_by_name("comparator2", lsi_lib), lsi_lib, threshold=1.0
    )
    report = verify_masking(result)
    assert report.ok and report.checks == ()


def test_report_to_dict_serializes_counterexample(lsi_lib):
    result = synthesize_masking(circuit_by_name("comparator2", lsi_lib), lsi_lib)
    _corrupt_prediction(result, lsi_lib)
    payload = verify_masking(result).to_dict()
    assert payload["verified"] is False
    failing = [c for c in payload["checks"] if not c["passed"]]
    assert failing and "counterexample" in failing[0]
    cex = failing[0]["counterexample"]
    assert set(cex["pattern"]) <= {"0", "1"}
    assert all(v in (0, 1) for v in cex["assignment"].values())


def test_pipeline_verification_holds_three_checks_per_output(lsi_lib):
    result = mask_circuit(circuit_by_name("cmb", lsi_lib), lsi_lib)
    verification = result.verification
    assert verification.ok
    assert len(verification.checks) == 3 * len(result.masking.outputs)
    assert result.report.sound


def test_verify_accepts_prebuilt_design(lsi_lib):
    result = synthesize_masking(circuit_by_name("x2", lsi_lib), lsi_lib)
    design = build_masked_design(result)
    assert verify_masking(result, design=design).ok
