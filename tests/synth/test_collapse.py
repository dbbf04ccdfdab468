"""Tests for technet extraction and the collapse/eliminate pass."""

import pytest

from repro.benchcircuits import comparator2
from repro.bdd import BddManager
from repro.errors import SynthesisError
from repro.netlist import lsi10k_like_library, unit_library
from repro.sim import exhaustive_patterns, simulate
from repro.synth import circuit_to_technet, collapse
from tests.conftest import random_dag_circuit


def functions_match(circuit, technet):
    mgr = BddManager(circuit.inputs)
    fns = technet.global_functions(mgr)
    for pat in exhaustive_patterns(circuit.inputs):
        vals = simulate(circuit, pat)
        for y in circuit.outputs:
            if fns[y].evaluate(pat) != vals[y]:
                return False
    return True


def test_one_to_one_lift_preserves_functions():
    c = comparator2()
    tn = circuit_to_technet(c)
    assert tn.num_nodes == c.num_gates
    assert functions_match(c, tn)


def test_collapse_preserves_functions_and_bounds():
    for seed in range(6):
        c = random_dag_circuit(seed, num_inputs=6, num_gates=16, num_outputs=3)
        tn = collapse(circuit_to_technet(c), max_support=6)
        tn.validate()
        assert functions_match(c, tn)
        for node in tn.nodes.values():
            assert node.num_fanins <= 6


def test_collapse_reduces_node_count():
    c = comparator2()
    tn = circuit_to_technet(c)
    col = collapse(tn, max_support=10)
    assert col.num_nodes < tn.num_nodes
    assert functions_match(c, col)


def test_outputs_survive_collapse():
    for seed in range(4):
        c = random_dag_circuit(seed, num_inputs=5, num_gates=12, num_outputs=2)
        col = collapse(circuit_to_technet(c), max_support=8)
        for y in c.outputs:
            assert y in col.nodes


def test_collapse_never_eliminates_an_output_node():
    """An output read by one other node is the ideal merge candidate;
    collapse keeps it, and would merge it were it not an output."""
    from repro.netlist import Circuit

    lib = unit_library()
    for outputs in (("n2",), ("n1", "n2")):
        c = Circuit("t", inputs=("a", "b", "c"), outputs=outputs)
        c.add_gate("n1", lib.get("AND2"), ("a", "b"))
        c.add_gate("n2", lib.get("OR2"), ("n1", "c"))
        col = collapse(circuit_to_technet(c), max_support=8)
        assert set(col.nodes) == set(outputs)
        assert functions_match(c, col)


def test_collapse_with_library_cost_guard():
    lib = lsi10k_like_library()
    for seed in range(4):
        c = random_dag_circuit(
            seed, num_inputs=6, num_gates=16, library=lib, num_outputs=2
        )
        col = collapse(circuit_to_technet(c), max_support=8, library=lib)
        assert functions_match(c, col)


def test_max_support_guard():
    c = comparator2()
    with pytest.raises(SynthesisError):
        collapse(circuit_to_technet(c), max_support=1)
    with pytest.raises(SynthesisError, match="too large"):
        collapse(circuit_to_technet(c), max_support=16)


def test_duplicate_fanin_gate_lifts_cleanly():
    """A gate reading the same net twice collapses to distinct fanins."""
    from repro.netlist import Circuit

    lib = unit_library()
    c = Circuit("t", inputs=("a",), outputs=("g",))
    c.add_gate("g", lib.get("AND2"), ("a", "a"))
    tn = circuit_to_technet(c)
    assert tn.node("g").fanins == ("a",)
    assert functions_match(c, tn)


def test_cover_caches_are_bounded_and_exact(monkeypatch):
    import importlib

    from repro.lru import LRUCache
    from repro.netlist import Circuit

    # repro.synth re-exports the collapse() function under the module's name.
    collapse_module = importlib.import_module("repro.synth.collapse")
    names = ("_lift_cache", "_merge_cache")
    for name in names:
        cache = getattr(collapse_module, name)
        assert isinstance(cache, LRUCache)
        assert cache.size == collapse_module.SOP_CACHE_SIZE
    lib = lsi10k_like_library()
    c = random_dag_circuit(3, num_inputs=6, num_gates=24, library=lib)
    c.add_gate("m", lib.get("MUX2"), (c.inputs[0], c.inputs[1], c.inputs[0]))
    c.add_gate("n", lib.get("AOI21"), ("m", c.inputs[2], "m"))
    c.add_output("n")
    expected = collapse(circuit_to_technet(c), max_support=8, library=lib)
    for name in names:
        monkeypatch.setattr(collapse_module, name, LRUCache(2))
    for _ in range(2):
        again = collapse(circuit_to_technet(c), max_support=8, library=lib)
        assert again.digest() == expected.digest()
        assert all(len(getattr(collapse_module, name)) == 2 for name in names)
    assert functions_match(c, expected)


def test_collapse_prices_each_node_once(monkeypatch):
    """Every cover collapse prices, at either polarity, is priced once: a
    node keeps its cost for as long as it stays in the network."""
    import json
    from pathlib import Path

    from repro.benchcircuits import make_benchmark
    from repro.synth import mapping

    lib = lsi10k_like_library()
    real = mapping.trial_cost
    # (id(cover), inverted) -> [cover, calls]; holding the cover keeps its id.
    priced: dict[tuple[int, bool], list] = {}

    def counting(cover, library, inverted=False):
        priced.setdefault((id(cover), inverted), [cover, 0])[1] += 1
        return real(cover, library, inverted=inverted)

    monkeypatch.setattr(mapping, "trial_cost", counting)
    collapsed = collapse(circuit_to_technet(make_benchmark("alu4", lib)), library=lib)
    golden = json.loads(
        (Path(__file__).parent / "data" / "collapsed_networks.json").read_text()
    )["circuits"]["alu4"]["collapsed"]
    assert collapsed.digest() == golden["sha256"]
    assert len(priced) > 100
    twice = [(str(cover), inv) for (_, inv), (cover, n) in priced.items() if n > 1]
    assert not twice, f"{len(twice)} covers priced more than once: {twice[:3]}"
