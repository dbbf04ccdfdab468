"""Care-set images: the manager's cofactor walk against brute force, and
local images on shared and fresh BDD managers."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd.manager import BddManager
from repro.benchcircuits import circuit_by_name
from repro.core.careset import local_care_sets, local_image_cover
from repro.core.pipeline import mask_circuit
from repro.logic import truthtable
from repro.netlist import lsi10k_like_library
from repro.spcf.shortpath import compute_spcf
from repro.spcf.timedfunc import SpcfContext
from repro.synth.collapse import circuit_to_technet, collapse

LSI = lsi10k_like_library()


def context(circuit, technet, threshold=0.9, manager=None):
    """A context: its manager, the technet's functions and Sigma."""
    ctx = SpcfContext(circuit, threshold=threshold, manager=manager)
    sigma = compute_spcf(circuit, context=ctx).union
    return ctx.manager, technet.global_functions(ctx.manager), sigma


def table_of(cover):
    k = len(cover.names)
    return truthtable.cover_table(cover.cubes, range(k), k)


@pytest.mark.parametrize("name", ["comparator2", "cmb", "cu"])
def test_reachable_is_the_same_on_a_manager_holding_other_aux_vars(name):
    circuit = circuit_by_name(name, LSI)
    technet = collapse(circuit_to_technet(circuit), max_support=12, library=LSI)
    nodes = [technet.node(n) for n in technet.topo_order()]
    # The shared manager's image memo first fills at another threshold;
    # then it visits the nodes in reverse, so every node after the first
    # also finds other nodes' entries of this threshold.
    shared_mgr, earlier_fns, earlier_sigma = context(circuit, technet, 0.7)
    for node in nodes:
        local_image_cover(node, earlier_sigma, earlier_fns, shared_mgr)
    assert shared_mgr.stats()["cache_entries"]["image"] > 0
    _, shared_fns, shared_sigma = context(circuit, technet, manager=shared_mgr)
    shared = {
        node.name: local_image_cover(node, shared_sigma, shared_fns, shared_mgr)
        for node in reversed(nodes)
    }
    assert shared_mgr.var_names == circuit.inputs
    for node in nodes:
        mgr, fns, sigma = context(circuit, technet)
        fresh = local_image_cover(node, sigma, fns, mgr)
        assert fresh.names == node.fanins
        assert shared[node.name] == fresh
        s0, s1 = local_care_sets(node, sigma, fns, mgr)
        assert s0 & s1 == 0
        assert s0 | s1 == table_of(fresh)


def from_table(mgr, table, n):
    """BDD over ``x0..x{n-1}`` of an ``n``-variable truth table."""

    def build(f, width):
        if width == 0:
            return mgr.true if f & 1 else mgr.false
        half = 1 << (width - 1)
        low = build(f & ((1 << half) - 1), width - 1)
        high = build(f >> half, width - 1)
        return mgr.var(f"x{width - 1}").ite(high, low)

    return build(table, n)


@st.composite
def image_case(draw):
    """``(n, care, fanins)`` tables over ``n <= 8`` inputs; care sets
    include 0 and 1, fanins include constants and repeated functions."""
    n = draw(st.integers(0, 8))
    full = (1 << (1 << n)) - 1
    table = st.one_of(st.just(0), st.just(full), st.integers(0, full))
    care = draw(table)
    fanins: list[int] = []
    for _ in range(draw(st.integers(0, 6))):
        if fanins and draw(st.booleans()):
            fanins.append(draw(st.sampled_from(fanins)))
        else:
            fanins.append(draw(table))
    return n, care, fanins


@settings(max_examples=150, deadline=None)
@given(image_case())
def test_image_table_matches_enumeration(case):
    n, care, fanins = case
    expected = 0
    for a in range(1 << n):
        if care >> a & 1:
            m = sum(((f >> a) & 1) << i for i, f in enumerate(fanins))
            expected |= 1 << m
    mgr = BddManager(f"x{i}" for i in range(n))
    fns = [from_table(mgr, f, n).node for f in fanins]
    care_node = from_table(mgr, care, n).node
    assert mgr.image_table(care_node, fns) == expected
    # A second walk answers from the memo.
    assert mgr.stats()["cache_entries"]["image"] > 0 or care == 0
    assert mgr.image_table(care_node, fns) == expected


@pytest.mark.parametrize("name", ["comparator2", "cu"])
def test_shared_manager_holds_only_the_primary_inputs(name):
    circuit = circuit_by_name(name, LSI)
    result = mask_circuit(circuit, LSI)
    assert result.masking.node_maskings
    assert result.masking.context.manager.var_names == circuit.inputs
