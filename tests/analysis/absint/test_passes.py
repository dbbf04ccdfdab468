"""The ABS001-ABS008 pass pipeline end to end."""

from __future__ import annotations

import pytest

from repro.analysis import Severity
from repro.analysis.absint import (
    PASS_REGISTRY,
    AbsintConfig,
    analyze_circuit,
    analyze_suite,
    resolve_pass_ids,
)
from repro.benchcircuits import circuit_by_name
from repro.errors import AbsintError
from repro.netlist import Circuit


def rule_ids(report):
    return sorted({d.rule_id for d in report})


def findings(report, rule_id):
    return [d for d in report if d.rule_id == rule_id]


def test_registry_is_complete_and_stable():
    assert sorted(PASS_REGISTRY) == [
        f"ABS00{k}" for k in range(1, 9)
    ]
    for pid, p in PASS_REGISTRY.items():
        assert p.rule_id == pid
        assert p.name and p.description


def test_resolve_pass_ids_accepts_ids_and_names():
    assert resolve_pass_ids({"ABS005"}) == frozenset({"ABS005"})
    assert resolve_pass_ids({"confirmed-hazard"}) == frozenset({"ABS005"})
    with pytest.raises(AbsintError):
        resolve_pass_ids({"ABS999"})


def test_config_validation():
    with pytest.raises(AbsintError):
        AbsintConfig(threshold=0.0)
    with pytest.raises(AbsintError):
        AbsintConfig(threshold=1.5)
    with pytest.raises(AbsintError):
        AbsintConfig(samples=-1)
    # A non-int count is refused when the config is built.
    for field, value in (("spcf_samples", 1.5), ("samples", "8")):
        with pytest.raises(AbsintError, match=f"{field} must be a non-negative int"):
            AbsintConfig(**{field: value})


def test_comparator2_full_report():
    """The paper's Fig. 2 circuit: confirmed hazards, clean consistency."""
    report = analyze_circuit(circuit_by_name("comparator2"))
    assert report.circuit_name == "comparator2"
    hazards = findings(report, "ABS005")
    assert hazards, "comparator2 must show confirmed hazards"
    assert all(d.location == "y" for d in hazards)
    assert any(d.severity is Severity.WARNING for d in hazards)
    for d in hazards:
        assert d.data is not None
        assert set(d.data) >= {"v1", "v2", "kind", "settle_time", "target"}
        if d.severity is Severity.WARNING:
            assert d.data["endangers_clock"]
            assert d.data["settle_time"] > d.data["target"]
    # internal-consistency audits must be silent on a healthy circuit
    assert not findings(report, "ABS007")
    assert not findings(report, "ABS008")


def test_loop_is_abs001_not_a_crash(unit_lib):
    c = Circuit("loopy", inputs=["a", "b"], outputs=["g1"])
    c.add_gate("g1", unit_lib.get("AND2"), ("g2", "a"))
    c.add_gate("g2", unit_lib.get("OR2"), ("g1", "b"))
    report = analyze_circuit(c)
    hits = findings(report, "ABS001")
    assert len(hits) == 1
    assert hits[0].severity is Severity.ERROR
    assert set(hits[0].data["scc"]) == {"g1", "g2"}
    # IR-dependent passes must have been skipped silently
    assert not findings(report, "ABS005")


def test_dangling_netlist_does_not_raise(unit_lib):
    c = Circuit("dangle", inputs=["a"], outputs=["g1"])
    c.add_gate("g1", unit_lib.get("AND2"), ("ghost", "a"))
    report = analyze_circuit(c)  # compile fails; needs_ir passes skip
    assert not findings(report, "ABS005")


def test_unreachable_gate_is_abs002(unit_lib):
    c = Circuit("dead", inputs=["a", "b"], outputs=["g1"])
    c.add_gate("g1", unit_lib.get("AND2"), ("a", "b"))
    c.add_gate("g2", unit_lib.get("OR2"), ("a", "b"))  # feeds nothing
    report = analyze_circuit(c)
    hits = findings(report, "ABS002")
    assert len(hits) == 1
    assert hits[0].location == "g2"


def test_constant_net_is_abs003(unit_lib):
    c = Circuit("const", inputs=["a"], outputs=["y"])
    c.add_gate("na", unit_lib.get("INV"), ("a",))
    c.add_gate("c1", unit_lib.get("OR2"), ("a", "na"))  # tautology
    c.add_gate("y", unit_lib.get("AND2"), ("c1", "a"))
    report = analyze_circuit(c)
    hits = findings(report, "ABS003")
    assert [d.location for d in hits] == ["c1"]
    assert hits[0].data == {"net": "c1", "value": 1}


def test_fenced_x_is_abs004(unit_lib):
    c = Circuit("fenced", inputs=["a", "b"], outputs=["y"])
    c.add_gate("na", unit_lib.get("INV"), ("a",))
    c.add_gate("c0", unit_lib.get("AND2"), ("a", "na"))
    c.add_gate("g", unit_lib.get("AND2"), ("a", "b"))
    c.add_gate("gm", unit_lib.get("AND2"), ("g", "c0"))
    c.add_gate("y", unit_lib.get("OR2"), ("gm", "b"))
    report = analyze_circuit(c)
    # 'gm' itself is NOT fenced: forcing X there bypasses the constant-0
    # AND, so only the nets upstream of the fence are unobservable.
    assert {d.location for d in findings(report, "ABS004")} == {"na", "c0", "g"}


def test_report_potential_enables_abs006():
    config = AbsintConfig(
        report_potential=True, replay_budget=0, max_candidate_classes=0
    )
    report = analyze_circuit(circuit_by_name("comparator2"), config)
    # with no replay budget every X class stays a candidate
    assert not findings(report, "ABS005")
    assert findings(report, "ABS006")
    # default config never emits ABS006
    default = analyze_circuit(circuit_by_name("comparator2"))
    assert not findings(default, "ABS006")


def test_select_and_ignore():
    circuit = circuit_by_name("comparator2")
    only = analyze_circuit(circuit, AbsintConfig(select=frozenset({"ABS005"})))
    assert rule_ids(only) == ["ABS005"]
    none = analyze_circuit(
        circuit, AbsintConfig(ignore=frozenset({"confirmed-hazard"}))
    )
    assert "ABS005" not in rule_ids(none)


def test_explicit_target_overrides_threshold():
    circuit = circuit_by_name("comparator2")
    lax = analyze_circuit(circuit, AbsintConfig(target=10_000))
    # nothing can endanger a clock that slow: hazards all downgrade to INFO
    assert all(
        d.severity is Severity.INFO for d in findings(lax, "ABS005")
    )


def test_analyze_suite_subset():
    reports = analyze_suite(names=["comparator2", "cmb"])
    assert sorted(reports) == ["cmb", "comparator2"]
    for name, report in reports.items():
        assert report.circuit_name == name
        assert not findings(report, "ABS007")
        assert not findings(report, "ABS008")


def test_every_reported_hazard_replays(lsi_lib):
    """Acceptance: each ABS005 diagnostic carries a replayable witness."""
    from repro.engine import compile_circuit
    from repro.sim import two_vector_waveforms

    for name in ("comparator2", "full_adder", "cla4"):
        circuit = circuit_by_name(name)
        compiled = compile_circuit(circuit)
        for d in findings(analyze_circuit(circuit), "ABS005"):
            waves = two_vector_waveforms(
                compiled,
                dict(zip(compiled.inputs, map(bool, d.data["v1"]))),
                dict(zip(compiled.inputs, map(bool, d.data["v2"]))),
            )
            wave = waves[d.data["output"]]
            assert wave.num_transitions == d.data["transitions"] >= 2
            assert wave.settle_time == d.data["settle_time"]
