"""Tests for the circuit DAG."""

import pytest

from repro.errors import NetlistError
from repro.netlist import Circuit, Gate, unit_library

LIB = unit_library()


def small():
    c = Circuit("t", inputs=("a", "b"), outputs=("y",))
    c.add_gate("n1", LIB.get("AND2"), ("a", "b"))
    c.add_gate("y", LIB.get("INV"), ("n1",))
    return c


def test_basic_structure():
    c = small()
    c.validate()
    assert c.inputs == ("a", "b")
    assert c.outputs == ("y",)
    assert c.num_gates == 2
    assert c.has_net("n1") and c.has_net("a") and not c.has_net("zz")
    assert c.is_input("a") and not c.is_input("n1")
    assert list(c.nets()) == ["a", "b", "n1", "y"]


def test_duplicate_names_rejected():
    c = small()
    with pytest.raises(NetlistError):
        c.add_input("a")
    with pytest.raises(NetlistError):
        c.add_gate("n1", LIB.get("INV"), ("a",))
    with pytest.raises(NetlistError):
        c.add_gate("a", LIB.get("INV"), ("b",))
    with pytest.raises(NetlistError):
        c.add_output("y")
    with pytest.raises(NetlistError):
        c.add_input("n1")


def test_arity_mismatch_rejected():
    c = Circuit("t", inputs=("a",))
    with pytest.raises(NetlistError):
        c.add_gate("g", LIB.get("AND2"), ("a",))


def test_undefined_fanin_caught_by_validate():
    c = Circuit("t", inputs=("a",), outputs=("g",))
    c.add_gate("g", LIB.get("AND2"), ("a", "ghost"))
    with pytest.raises(NetlistError):
        c.validate()


def test_undriven_output_caught():
    c = Circuit("t", inputs=("a",), outputs=("nope",))
    with pytest.raises(NetlistError):
        c.validate()


def test_cycle_detected():
    c = Circuit("t", inputs=("a",))
    c.add_gate("g1", LIB.get("AND2"), ("a", "g2"))
    c.add_gate("g2", LIB.get("INV"), ("g1",))
    with pytest.raises(NetlistError):
        c.topo_order()


def test_validate_pass_is_remembered_until_the_next_edit(monkeypatch):
    c = small()
    c.validate()
    calls = []
    monkeypatch.setattr(c, "topo_order", lambda: calls.append(1))
    c.validate()
    assert calls == []
    c.add_gate("z", LIB.get("INV"), ("a",))
    c.validate()
    assert calls == [1]


def test_failed_validate_is_not_remembered():
    c = Circuit("t", inputs=("a",), outputs=("nope",))
    for _ in range(2):
        with pytest.raises(NetlistError):
            c.validate()


@pytest.mark.parametrize(
    "edit",
    [
        lambda c: c.add_output("ghost"),
        lambda c: c.remove_gate("n1"),
        lambda c: c.replace_gate(Gate("n1", LIB.get("AND2"), ("a", "y"))),
    ],
    ids=["undriven_output", "removed_fanin", "loop"],
)
def test_validated_circuit_edited_invalid_raises_again(edit):
    c = small()
    c.validate()
    edit(c)
    with pytest.raises(NetlistError):
        c.validate()
    with pytest.raises(NetlistError):
        c.validate()


def test_topo_order_respects_dependencies():
    c = small()
    order = c.topo_order()
    assert order.index("n1") < order.index("y")


def test_fanouts():
    c = small()
    fan = c.fanouts()
    assert fan["a"] == [("n1", 0)]
    assert fan["n1"] == [("y", 0)]
    assert fan["y"] == []


def test_cones():
    c = small()
    assert c.fanin_cone("y") == {"y", "n1"}
    assert c.cone_inputs("y") == {"a", "b"}
    assert c.cone_inputs("a") == {"a"}
    with pytest.raises(NetlistError):
        c.fanin_cone("ghost")


def test_levels_and_depth():
    c = small()
    levels = c.level_map()
    assert levels["a"] == 0 and levels["n1"] == 1 and levels["y"] == 2
    assert c.depth() == 2


def test_area():
    assert small().area() == LIB.get("AND2").area + LIB.get("INV").area


def test_copy_is_independent():
    c = small()
    d = c.copy("copy")
    d.add_gate("extra", LIB.get("INV"), ("a",))
    assert "extra" not in c.gates
    assert d.name == "copy"


def test_delay_scales():
    c = small()
    aged = c.with_delay_scales({"n1": 2.0})
    assert aged.gate("n1").pin_delay(0) == 2 * c.gate("n1").pin_delay(0)
    assert c.gate("n1").delay_scale == 1.0  # original untouched
    with pytest.raises(NetlistError):
        c.with_delay_scales({"n1": 0.5})  # speed-up not allowed


def test_gate_lookup_errors():
    c = small()
    with pytest.raises(NetlistError):
        c.gate("a")  # input has no driver
    with pytest.raises(NetlistError):
        c.remove_gate("ghost")


def test_replace_gate():
    c = small()
    g = c.gate("y")
    c.replace_gate(type(g)("y", LIB.get("BUF"), ("n1",)))
    assert c.gate("y").cell.name == "BUF"
