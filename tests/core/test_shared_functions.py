"""One global-function map per masking run.

:func:`mask_circuit` builds every gate BDD at most once: masking reads the
SPCF context's :class:`CircuitFunctions` map, and the proof and power read
one design map that takes the original nets from it.  These tests pin that
the shared maps are exact and that no gate net is built twice.
"""

from __future__ import annotations

from collections import Counter
from itertools import islice

import pytest

import repro.core.masking as masking_mod
import repro.core.pipeline as pipeline_mod
import repro.spcf.timedfunc as timedfunc_mod
from repro.benchcircuits import circuit_by_name
from repro.core.pipeline import mask_circuit
from repro.netlist import lsi10k_like_library
from repro.spcf.timedfunc import CircuitFunctions
from repro.synth.technet import TechNetwork

LSI = lsi10k_like_library()


@pytest.fixture(autouse=True)
def cold_caches():
    masking_mod._collapse_cache.clear()
    timedfunc_mod._functions_cache.clear()
    yield
    masking_mod._collapse_cache.clear()
    timedfunc_mod._functions_cache.clear()


@pytest.mark.parametrize("name", ["comparator2", "cmb", "k2", "C880"])
def test_shared_maps_equal_fresh_ones(name, monkeypatch):
    maps = []
    real = pipeline_mod.design_functions

    def capturing(result, design):
        maps.append(real(result, design))
        return maps[-1]

    monkeypatch.setattr(pipeline_mod, "design_functions", capturing)
    result = mask_circuit(circuit_by_name(name, LSI), LSI)
    assert result.verification.ok
    (shared,) = maps
    ctx = result.masking.context
    mgr = ctx.manager
    design = result.design.circuit
    assert shared.circuit is design and shared.base is ctx.functions

    fresh = CircuitFunctions(design, mgr)
    for net in design.inputs + tuple(design.topo_order()):
        assert shared[net] == fresh[net], net
    for net in result.masking.circuit.gates:
        assert shared[net] is ctx.functions[net], net

    # Masking reads ctx.functions for the collapsed nodes: the cover walk
    # over the technet must agree on every one of them.
    technet = result.masking.technet
    by_cover = technet.global_functions(mgr)
    for node in technet.topo_order():
        assert by_cover[node] == ctx.functions[node], node


def test_no_gate_net_is_built_twice(monkeypatch):
    builds: Counter[str] = Counter()
    maps: list[CircuitFunctions] = []
    real = CircuitFunctions.__missing__

    def counting(self, net):
        if not any(m is self for m in maps):
            maps.append(self)
        known = len(self)
        fn = real(self, net)
        base = getattr(self, "base", None)
        for name in islice(self, known, None):
            if name not in self.circuit.gates:
                continue
            if base is not None and base.circuit.has_net(name):
                continue  # read from the base map, not built
            builds[name] += 1
        return fn

    def forbidden(self, mgr):
        raise AssertionError("masking rebuilt the technet's global functions")

    monkeypatch.setattr(CircuitFunctions, "__missing__", counting)
    monkeypatch.setattr(TechNetwork, "global_functions", forbidden)
    result = mask_circuit(circuit_by_name("k2", LSI), LSI)
    assert result.verification.ok
    assert len(maps) == 2  # the SPCF context's and the design's
    twice = sorted(name for name, n in builds.items() if n > 1)
    assert twice == []
    # Every gate of the masked design was built, each exactly once.
    assert set(builds) == set(result.design.circuit.gates)
