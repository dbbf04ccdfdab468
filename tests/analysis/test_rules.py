"""Each builtin lint rule against a circuit with that defect injected."""

import pytest

from repro.analysis import LintConfig, Severity, lint_circuit
from repro.analysis.rules import MAX_FUNCTION_INPUTS
from repro.errors import LintError
from repro.netlist import Cell, Circuit


def rule_ids(report):
    return sorted({d.rule_id for d in report})


def findings(report, rule_id):
    return [d for d in report if d.rule_id == rule_id]


def test_clean_circuit_is_clean(unit_lib):
    c = Circuit("clean", inputs=["a", "b"], outputs=["g1"])
    c.add_gate("g1", unit_lib.get("AND2"), ("a", "b"))
    report = lint_circuit(c)
    assert rule_ids(report) == []
    assert report.ok(Severity.INFO)


def test_combinational_loop_detected(unit_lib):
    c = Circuit("loopy", inputs=["a", "b"], outputs=["g1"])
    c.add_gate("g1", unit_lib.get("AND2"), ("g2", "a"))
    c.add_gate("g2", unit_lib.get("OR2"), ("g1", "b"))
    report = lint_circuit(c)
    hits = findings(report, "LINT001")
    assert len(hits) == 1
    assert hits[0].severity is Severity.ERROR
    assert "g1" in hits[0].message and "g2" in hits[0].message


def test_self_loop_detected(unit_lib):
    c = Circuit("selfy", inputs=["a"], outputs=["g1"])
    c.add_gate("g1", unit_lib.get("AND2"), ("g1", "a"))
    assert len(findings(lint_circuit(c), "LINT001")) == 1


def test_two_independent_loops_are_two_findings(unit_lib):
    c = Circuit("loops2", inputs=["a"], outputs=["g1", "g3"])
    c.add_gate("g1", unit_lib.get("AND2"), ("g2", "a"))
    c.add_gate("g2", unit_lib.get("INV"), ("g1",))
    c.add_gate("g3", unit_lib.get("OR2"), ("g4", "a"))
    c.add_gate("g4", unit_lib.get("INV"), ("g3",))
    assert len(findings(lint_circuit(c), "LINT001")) == 2


def test_dangling_fanin_detected(unit_lib):
    c = Circuit("dangle", inputs=["a"], outputs=["g1"])
    c.add_gate("g1", unit_lib.get("AND2"), ("ghost", "a"))
    hits = findings(lint_circuit(c), "LINT002")
    assert len(hits) == 1
    assert hits[0].severity is Severity.ERROR
    assert "ghost" in hits[0].message


def test_undriven_output_detected(unit_lib):
    c = Circuit("noout", inputs=["a"], outputs=["nowhere", "g1"])
    c.add_gate("g1", unit_lib.get("INV"), ("a",))
    hits = findings(lint_circuit(c), "LINT002")
    assert len(hits) == 1
    assert "nowhere" in hits[0].message


def test_broken_circuit_lints_instead_of_raising(unit_lib):
    """A looped *and* dangling netlist yields diagnostics, not an exception."""
    c = Circuit("wreck", inputs=["a"], outputs=["g1", "ghost_out"])
    c.add_gate("g1", unit_lib.get("AND2"), ("g2", "ghost"))
    c.add_gate("g2", unit_lib.get("INV"), ("g1",))
    report = lint_circuit(c)
    assert "LINT001" in rule_ids(report)
    assert "LINT002" in rule_ids(report)


def test_unreachable_node_detected(unit_lib):
    c = Circuit("dead", inputs=["a", "b"], outputs=["g1"])
    c.add_gate("g1", unit_lib.get("INV"), ("a",))
    c.add_gate("g2", unit_lib.get("AND2"), ("a", "b"))  # feeds nothing
    hits = findings(lint_circuit(c), "LINT003")
    assert [d.location for d in hits] == ["g2"]
    assert hits[0].severity is Severity.WARNING


def test_unused_pi_detected(unit_lib):
    c = Circuit("unused", inputs=["a", "b"], outputs=["g1"])
    c.add_gate("g1", unit_lib.get("INV"), ("a",))
    hits = findings(lint_circuit(c), "LINT004")
    assert [d.location for d in hits] == ["b"]


def test_pi_passed_through_as_output_is_used(unit_lib):
    c = Circuit("thru", inputs=["a", "b"], outputs=["g1", "b"])
    c.add_gate("g1", unit_lib.get("INV"), ("a",))
    assert not findings(lint_circuit(c), "LINT004")


def test_fanout_threshold(unit_lib):
    c = Circuit("fan", inputs=["a"], outputs=["g0", "g1", "g2"])
    for i in range(3):
        c.add_gate(f"g{i}", unit_lib.get("INV"), ("a",))
    assert not findings(lint_circuit(c), "LINT005")
    config = LintConfig(fanout_threshold=2)
    hits = findings(lint_circuit(c, config), "LINT005")
    assert [d.location for d in hits] == ["a"]
    assert "3" in hits[0].message


def test_non_monotone_arc_delay(unit_lib):
    zero_buf = Cell("BUF0", ("a",), "a", 1.0, (0,))
    c = Circuit("zerod", inputs=["a"], outputs=["g1"])
    c.add_gate("g0", zero_buf, ("a",))
    c.add_gate("g1", unit_lib.get("INV"), ("g0",))
    hits = findings(lint_circuit(c), "LINT006")
    assert [d.location for d in hits] == ["g0"]
    assert hits[0].severity is Severity.WARNING


def test_constant_cells_are_not_flagged_by_lint006(unit_lib):
    c = Circuit("tie", inputs=["a"], outputs=["g1"])
    c.add_gate("k1", unit_lib.get("ONE"), ())
    c.add_gate("g1", unit_lib.get("AND2"), ("a", "k1"))
    assert not findings(lint_circuit(c), "LINT006")


def test_constant_output_by_tie_cell(unit_lib):
    c = Circuit("tieout", inputs=["a"], outputs=["k1"])
    c.add_gate("k1", unit_lib.get("ONE"), ())
    hits = findings(lint_circuit(c), "LINT007")
    assert [d.location for d in hits] == ["k1"]
    assert hits[0].severity is Severity.INFO


def test_constant_output_by_collapsing_cone(unit_lib):
    c = Circuit("const", inputs=["a"], outputs=["g1"])
    c.add_gate("n", unit_lib.get("INV"), ("a",))
    c.add_gate("g1", unit_lib.get("AND2"), ("a", "n"))  # a & ~a == 0
    hits = findings(lint_circuit(c), "LINT007")
    assert [d.location for d in hits] == ["g1"]


def _constant_and_tree(unit_lib, width):
    """``AND(x0..x{width-1}) & ~AND(x0..x{width-1})``: constant 0 over
    ``width`` primary inputs."""
    inputs = [f"x{i}" for i in range(width)]
    c = Circuit(f"wide{width}", inputs=inputs, outputs=["g1"])
    c.add_gate("t0", unit_lib.get("AND2"), ("x0", "x1"))
    for i in range(2, width):
        c.add_gate(f"t{i - 1}", unit_lib.get("AND2"), (f"t{i - 2}", f"x{i}"))
    top = f"t{width - 2}"
    c.add_gate("n", unit_lib.get("INV"), (top,))
    c.add_gate("g1", unit_lib.get("AND2"), (top, "n"))
    return c


def test_constant_output_skips_wide_cones(unit_lib):
    assert MAX_FUNCTION_INPUTS == 24
    narrow = _constant_and_tree(unit_lib, MAX_FUNCTION_INPUTS)
    assert [d.location for d in findings(lint_circuit(narrow), "LINT007")] == ["g1"]
    wide = _constant_and_tree(unit_lib, MAX_FUNCTION_INPUTS + 1)
    assert not findings(lint_circuit(wide), "LINT007")


def test_non_constant_output_not_flagged(unit_lib):
    c = Circuit("var", inputs=["a", "b"], outputs=["g1"])
    c.add_gate("g1", unit_lib.get("XOR2"), ("a", "b"))
    assert not findings(lint_circuit(c), "LINT007")


def test_select_and_ignore_by_id_and_name(unit_lib):
    c = Circuit("pick", inputs=["a", "b"], outputs=["g1"])
    c.add_gate("g1", unit_lib.get("INV"), ("a",))
    all_ids = rule_ids(lint_circuit(c))
    assert all_ids == ["LINT004"]
    assert not lint_circuit(c, LintConfig(ignore=frozenset({"unused-pi"}))).diagnostics
    assert not lint_circuit(c, LintConfig(ignore=frozenset({"LINT004"}))).diagnostics


def test_unknown_rule_raises_lint_error():
    with pytest.raises(LintError, match="LINT999"):
        LintConfig(ignore=frozenset({"LINT999"}))
    with pytest.raises(LintError):
        LintConfig(fanout_threshold=0)
