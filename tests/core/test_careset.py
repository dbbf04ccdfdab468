"""The care-set relation helper on fresh and shared BDD managers."""

from __future__ import annotations

import pytest

from repro.bdd.isop import isop_function
from repro.bdd.manager import BddManager
from repro.benchcircuits import circuit_by_name
from repro.core.careset import AUX_PREFIX, _reachable, local_image_cover
from repro.logic.cover import Cover
from repro.netlist import lsi10k_like_library
from repro.spcf.shortpath import compute_spcf
from repro.spcf.timedfunc import SpcfContext
from repro.synth.collapse import circuit_to_technet, collapse

LSI = lsi10k_like_library()


def fresh_context(circuit, technet):
    """A fresh context: its manager, the technet's functions and Sigma."""
    ctx = SpcfContext(circuit)
    sigma = compute_spcf(circuit, context=ctx).union
    return ctx.manager, technet.global_functions(ctx.manager), sigma


def local_function(reachable, node, local):
    cubes = [
        {name[len(AUX_PREFIX):]: value for name, value in cube.items()}
        for cube in isop_function(reachable)
    ]
    return Cover.from_cube_dicts(node.fanins, cubes).to_function(local)


@pytest.mark.parametrize("name", ["comparator2", "cmb", "cu"])
def test_reachable_is_the_same_on_a_manager_holding_other_aux_vars(name):
    circuit = circuit_by_name(name, LSI)
    technet = collapse(circuit_to_technet(circuit), max_support=12, library=LSI)
    nodes = [technet.node(n) for n in technet.topo_order()]
    # One manager visits the nodes in reverse, so every node after the first
    # finds other nodes' aux variables registered, in another order.
    shared_mgr, shared_fns, shared_sigma = fresh_context(circuit, technet)
    shared = {
        node.name: _reachable(node, shared_sigma, shared_fns, shared_mgr)
        for node in reversed(nodes)
    }
    assert shared_mgr.num_vars > len(circuit.inputs) + max(
        len(node.fanins) for node in nodes
    )
    for node in nodes:
        mgr, fns, sigma = fresh_context(circuit, technet)
        fresh = _reachable(node, sigma, fns, mgr)
        local = BddManager(node.fanins)
        expected = local_function(fresh, node, local)
        assert local_function(shared[node.name], node, local) == expected
        image = local_image_cover(node, shared_sigma, shared_fns, shared_mgr)
        assert image.to_function(local) == expected
