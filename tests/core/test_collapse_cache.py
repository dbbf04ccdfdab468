"""The content-keyed cache of lifted and collapsed networks.

Collapse does not depend on the timing threshold, so
:meth:`MaskingSynthesizer.run` collapses a circuit once and reuses the
network across thresholds.  These tests pin that a warm cache changes no
result, and that every input collapse depends on is part of the key.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.core.masking as masking_mod
from repro.benchcircuits import circuit_by_name
from repro.core.masking import synthesize_masking
from repro.core.pipeline import mask_circuit
from repro.netlist import lsi10k_like_library

THRESHOLDS = (0.80, 0.85, 0.90, 0.95)
LSI = lsi10k_like_library()


@pytest.fixture(autouse=True)
def cold_cache():
    masking_mod._collapse_cache.clear()
    yield
    masking_mod._collapse_cache.clear()


@pytest.fixture
def collapses(monkeypatch):
    """Count the collapse calls :meth:`MaskingSynthesizer.run` makes."""
    calls = []
    real = masking_mod.collapse

    def counting(*args, **kwargs):
        calls.append(args[0].name)
        return real(*args, **kwargs)

    monkeypatch.setattr(masking_mod, "collapse", counting)
    return calls


def assert_same_technet(a, b):
    assert (a.name, a.inputs, a.outputs) == (b.name, b.inputs, b.outputs)
    assert list(a.nodes) == list(b.nodes)
    for name, node in a.nodes.items():
        other = b.node(name)
        assert node.fanins == other.fanins
        assert node.on_cover == other.on_cover
        assert node.off_cover == other.off_cover
    assert a.topo_order() == b.topo_order()


def assert_same_circuit(a, b):
    assert (a.name, a.inputs, a.outputs) == (b.name, b.inputs, b.outputs)
    assert list(a.gates.items()) == list(b.gates.items())
    assert a.topo_order() == b.topo_order()


@pytest.mark.parametrize("name", ["comparator2", "cmb", "k2", "C880"])
def test_warm_cache_is_bit_identical_across_thresholds(name, collapses):
    circuit = circuit_by_name(name, LSI)
    warm = [mask_circuit(circuit, LSI, threshold=t) for t in THRESHOLDS]
    assert len(collapses) == 1
    cold = []
    for t in THRESHOLDS:
        masking_mod._collapse_cache.clear()
        cold.append(mask_circuit(circuit, LSI, threshold=t))
    assert len(collapses) == 1 + len(THRESHOLDS)
    for w, c in zip(warm, cold):
        assert_same_technet(w.masking.technet, c.masking.technet)
        assert_same_circuit(w.masking.masking_circuit, c.masking.masking_circuit)
        assert dataclasses.asdict(w.report) == dataclasses.asdict(c.report)


def comparator():
    return circuit_by_name("comparator2", LSI)


def test_structurally_equal_copy_hits(collapses):
    circuit = comparator()
    synthesize_masking(circuit, LSI)
    synthesize_masking(circuit.copy(), LSI)
    synthesize_masking(comparator(), LSI, threshold=0.8)
    assert len(collapses) == 1


def test_added_gate_misses(collapses):
    circuit = comparator()
    synthesize_masking(circuit, LSI)
    grown = circuit.copy()
    grown.add_gate("extra", LSI.get("INV"), [circuit.outputs[0]])
    grown.add_output("extra")
    synthesize_masking(grown, LSI)
    assert len(collapses) == 2


def test_renamed_circuit_misses(collapses):
    circuit = comparator()
    synthesize_masking(circuit, LSI)
    synthesize_masking(circuit.copy(name="renamed"), LSI)
    assert len(collapses) == 2


@pytest.mark.parametrize(
    "bounds", [{"max_support": 8}, {"max_cubes": 10}], ids=["support", "cubes"]
)
def test_collapse_bounds_miss(collapses, bounds):
    circuit = comparator()
    synthesize_masking(circuit, LSI)
    synthesize_masking(circuit, LSI, **bounds)
    assert len(collapses) == 2


def test_other_library_object_misses(collapses):
    circuit = comparator()
    synthesize_masking(circuit, LSI)
    synthesize_masking(circuit, lsi10k_like_library())
    assert len(collapses) == 2


def test_editing_a_returned_network_does_not_poison_the_cache(collapses):
    circuit = circuit_by_name("cmb", LSI)
    first = synthesize_masking(circuit, LSI).technet
    pristine = first.copy()
    first.remove_node(next(iter(first.nodes)))
    again = synthesize_masking(circuit, LSI).technet
    assert len(collapses) == 1
    assert again is not first
    assert_same_technet(again, pristine)


def test_cache_is_bounded_by_its_size(collapses):
    bound = masking_mod.COLLAPSE_CACHE_SIZE
    circuit = comparator()
    for k in range(bound + 2):
        synthesize_masking(circuit.copy(name=f"cmp{k}"), LSI)
    assert len(masking_mod._collapse_cache) == bound
    # The two oldest were evicted; the newest still hits.
    synthesize_masking(circuit.copy(name=f"cmp{bound + 1}"), LSI)
    assert len(collapses) == bound + 2
    synthesize_masking(circuit.copy(name="cmp0"), LSI)
    assert len(collapses) == bound + 3
