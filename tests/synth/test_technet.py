"""Tests for technology-independent networks."""

import pytest

from repro.bdd import BddManager
from repro.errors import SynthesisError
from repro.logic import Cover
from repro.logic.cube import Cube
from repro.synth import TechNetwork, TechNode, node_from_function


def and_node(name, fanins):
    width = len(fanins)
    on = Cover(tuple(fanins), (Cube((1,) * width),))
    off = Cover(
        tuple(fanins),
        tuple(Cube.from_literals({i: False}, width) for i in range(width)),
    )
    return TechNode(name, tuple(fanins), on, off)


def test_node_validation():
    with pytest.raises(SynthesisError):
        TechNode("n", ("a", "a"), Cover(("a", "a")), Cover(("a", "a")))
    with pytest.raises(SynthesisError):
        TechNode("n", ("a",), Cover(("b",)), Cover(("a",)))


def test_node_check_consistent():
    good = and_node("n", ["a", "b"])
    good.check_consistent()
    bad = TechNode(
        "n",
        ("a", "b"),
        Cover.from_strings(("a", "b"), ["11"]),
        Cover.from_strings(("a", "b"), ["00"]),  # misses 01 and 10
    )
    with pytest.raises(SynthesisError):
        bad.check_consistent()


def test_node_from_function_drops_unused_fanins():
    mgr = BddManager(["a", "b", "c"])
    node = node_from_function("n", ["a", "b", "c"], mgr.var("a") & mgr.var("c"))
    assert node.fanins == ("a", "c")


def test_network_structure_and_validation():
    net = TechNetwork("t", ["a", "b", "c"], ["n2"])
    net.add_node(and_node("n1", ["a", "b"]))
    net.add_node(and_node("n2", ["n1", "c"]))
    net.validate()
    assert net.num_nodes == 2
    assert net.topo_order().index("n1") < net.topo_order().index("n2")
    assert net.fanin_cone("n2") == {"n1", "n2"}
    counts = net.fanout_counts()
    assert counts["n1"] == 1 and counts["n2"] == 1  # n2 read by output
    assert counts["c"] == 1

    with pytest.raises(SynthesisError):
        net.add_node(and_node("n1", ["a", "b"]))
    with pytest.raises(SynthesisError):
        net.node("ghost")


def test_undefined_fanin_rejected():
    net = TechNetwork("t", ["a"], ["n1"])
    net.add_node(and_node("n1", ["a", "ghost"]))
    with pytest.raises(SynthesisError):
        net.validate()


def test_cycle_rejected():
    net = TechNetwork("t", ["a"], [])
    net.add_node(and_node("n1", ["a", "n2"]))
    net.add_node(and_node("n2", ["n1", "a"]))
    with pytest.raises(SynthesisError):
        net.topo_order()


def test_global_functions():
    net = TechNetwork("t", ["a", "b", "c"], ["n2"])
    net.add_node(and_node("n1", ["a", "b"]))
    net.add_node(and_node("n2", ["n1", "c"]))
    mgr = BddManager(["a", "b", "c"])
    fns = net.global_functions(mgr)
    assert fns["n2"] == (mgr.var("a") & mgr.var("b") & mgr.var("c"))


def test_copy_independent():
    net = TechNetwork("t", ["a", "b"], [])
    net.add_node(and_node("n1", ["a", "b"]))
    dup = net.copy("u")
    dup.remove_node("n1")
    assert "n1" in net.nodes and "n1" not in dup.nodes


def test_nodes_is_a_live_read_only_view():
    net = TechNetwork("t", ["a", "b"], [])
    view = net.nodes
    net.add_node(and_node("n1", ["a", "b"]))
    assert "n1" in view and len(view) == 1
    net.remove_node("n1")
    assert "n1" not in view and len(view) == 0
    with pytest.raises(TypeError):
        view["n2"] = and_node("n2", ["a", "b"])
