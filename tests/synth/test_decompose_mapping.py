"""Tests for cover decomposition, gate building, and technology mapping."""

import itertools

import pytest

from repro.bdd import BddManager
from repro.errors import SynthesisError
from repro.logic import Cover, parse_expr
from repro.netlist import Circuit, lsi10k_like_library, unit_library
from repro.sim import exhaustive_patterns, simulate
from repro.synth import (
    GateBuilder,
    circuit_to_technet,
    collapse,
    decompose_cover,
    map_technet,
    remove_buffers,
)
from repro.synth import mapping
from repro.synth.decompose import decompose_expr
from repro.synth.mapping import trial_cost
from tests.conftest import random_dag_circuit

LIB = unit_library()
NAMES = ("a", "b", "c", "d")


def build_and_check(cover, invert=False):
    circuit = Circuit("t", inputs=cover.names)
    builder = GateBuilder(circuit, LIB, "k_")
    net = decompose_cover(cover, builder, invert_output=invert)
    circuit.add_output(net) if not circuit.is_input(net) else None
    for bits in itertools.product([False, True], repeat=len(cover.names)):
        asgn = dict(zip(cover.names, bits))
        vals = simulate(circuit, asgn)
        expected = cover.evaluate(asgn) ^ invert
        assert vals[net] == expected, (str(cover), invert, asgn)
    return circuit, net


@pytest.mark.parametrize(
    "rows", [["11--"], ["1---", "-1--"], ["1-1-", "-01-", "--01"], []]
)
@pytest.mark.parametrize("invert", [False, True])
def test_decompose_cover_correct(rows, invert):
    build_and_check(Cover.from_strings(NAMES, rows), invert)


def test_inverters_are_shared():
    cover = Cover.from_strings(NAMES, ["0-0-", "0--0"])
    circuit, _ = build_and_check(cover)
    inv_count = sum(1 for g in circuit.gates.values() if g.cell.name == "INV")
    assert inv_count == 3  # ~a, ~c, ~d: the repeated ~a is shared


def test_strashing_dedupes_identical_gates():
    circuit = Circuit("t", inputs=("a", "b"))
    builder = GateBuilder(circuit, LIB, "k_")
    n1 = builder.and_tree(["a", "b"])
    n2 = builder.and_tree(["b", "a"])  # commutative normalization
    assert n1 == n2
    assert circuit.num_gates == 1


def test_decompose_expr_negation_pushdown():
    """An inverted AND should become an OR of negated leaves (De Morgan)."""
    circuit = Circuit("t", inputs=("a", "b", "c"))
    builder = GateBuilder(circuit, LIB, "k_")
    expr = parse_expr("a & b & c")
    net = decompose_expr(expr, builder, negate=True)
    cells = [g.cell.name for g in circuit.gates.values()]
    assert "OR2" in cells and "AND2" not in cells
    for bits in itertools.product([False, True], repeat=3):
        asgn = dict(zip(("a", "b", "c"), bits))
        assert simulate(circuit, asgn)[net] == (not all(bits))


def test_decompose_expr_xor():
    circuit = Circuit("t", inputs=("a", "b"))
    builder = GateBuilder(circuit, LIB, "k_")
    net = decompose_expr(parse_expr("a ^ b"), builder)
    for bits in itertools.product([False, True], repeat=2):
        asgn = dict(zip(("a", "b"), bits))
        assert simulate(circuit, asgn)[net] == (bits[0] != bits[1])


def test_builder_constants_and_mux():
    circuit = Circuit("t", inputs=("s", "x", "y"))
    builder = GateBuilder(circuit, LIB, "k_")
    one = builder.constant(True)
    mux = builder.mux("s", "x", "y")
    vals = simulate(circuit, {"s": True, "x": False, "y": True})
    assert vals[one] is True
    assert vals[mux] is True
    vals = simulate(circuit, {"s": False, "x": False, "y": True})
    assert vals[mux] is False


def test_empty_tree_rejected():
    builder = GateBuilder(Circuit("t", inputs=("a",)), LIB, "k_")
    with pytest.raises(SynthesisError):
        builder.and_tree([])


def test_claim_as_refuses_read_nets():
    circuit = Circuit("t", inputs=("a", "b"))
    builder = GateBuilder(circuit, LIB, "k_")
    inner = builder.and_tree(["a", "b"])
    outer = builder.or_tree([inner, "a"])
    assert not builder.claim_as(inner, "named")  # inner is read by outer
    assert builder.claim_as(outer, "named")
    assert circuit.has_net("named")


def test_map_technet_equivalence():
    for seed in range(6):
        c = random_dag_circuit(seed, num_inputs=5, num_gates=14, num_outputs=2)
        tn = collapse(circuit_to_technet(c), max_support=8)
        mapped = remove_buffers(map_technet(tn, LIB))
        for pat in exhaustive_patterns(c.inputs):
            ref = simulate(c, pat)
            got = simulate(mapped, pat)
            for y in c.outputs:
                assert got[y] == ref[y], (seed, y)


def test_map_technet_xor_pattern_matched():
    lib = lsi10k_like_library()
    c = Circuit("t", inputs=("a", "b"), outputs=("g",))
    c.add_gate("g", lib.get("XOR2"), ("a", "b"))
    mapped = map_technet(circuit_to_technet(c), lib)
    assert mapped.gate("g").cell.name == "XOR2"


def test_remove_buffers_keeps_output_names():
    c = comparator_with_buffer()
    out = remove_buffers(c)
    assert set(out.outputs) == set(c.outputs)
    for pat in exhaustive_patterns(c.inputs):
        assert simulate(out, pat)["y"] == simulate(c, pat)["y"]
    assert out.num_gates < c.num_gates


def comparator_with_buffer():
    from repro.benchcircuits import comparator2

    c = comparator2().copy()
    gate = c.gate("y")
    c.remove_gate("y")
    c.add_gate("pre", LIB.get("OR2"), gate.fanins)
    c.add_gate("mid", LIB.get("BUF"), ("pre",))
    c.add_gate("y", LIB.get("BUF"), ("mid",))
    c.validate()
    return c


def test_trial_cost_prefers_cheap_polarity():
    # An AND's off-set needs two cubes; on-set needs one: on-set is cheaper.
    on = Cover.from_strings(("a", "b"), ["11"])
    off = Cover.from_strings(("a", "b"), ["0-", "-0"])
    assert trial_cost(on, LIB, inverted=False) <= trial_cost(off, LIB, inverted=True)


def test_trial_cost_cache_does_not_alias_libraries(monkeypatch):
    # Force every library to share one id, as a freed-and-reused id would.
    monkeypatch.setattr(mapping, "id", lambda _: 0, raising=False)
    monkeypatch.setattr(mapping, "_trial_cache", {})
    cover = Cover.from_strings(("a", "b", "c"), ["11-", "--1"])
    lsi, unit = lsi10k_like_library(), unit_library()
    lsi_cost = trial_cost(cover, lsi)
    unit_cost = trial_cost(cover, unit)
    mapping._trial_cache.clear()
    assert unit_cost == trial_cost(cover, unit)
    assert lsi_cost == trial_cost(cover, lsi)
    assert lsi_cost != unit_cost
